import math
from dataclasses import replace

import numpy as np
import pytest

from preview_regret.invariance import max_invariant_set, pre_k
from preview_regret.models import build_1d, build_2d_random
from preview_regret.polytope import (
    Box,
    HPolytope,
    containment_ratio,
    interval,
    project,
    set_equal,
    support,
    unit_box,
)
from preview_regret.regret import (
    NotControllableError,
    algorithm1,
    algorithm2,
    algorithm3,
    bound_dp,
    bound_marginal,
    estimate_lambda0,
    k0_of,
    proj_cmax_p,
    refine_certificate,
    true_dp,
)
from preview_regret.systems import (
    AssumptionError,
    LinearSystem,
    augment,
    collaborative,
    equilibrium_margin_at_zero,
)


@pytest.fixture(scope="module")
def spine():
    sys, oracle = build_1d()
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-11)
    assert conv
    C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-11)
    assert conv
    return sys, oracle, C_co, project(C_1, sys.n)


def test_k0_examples():
    assert k0_of(0.6550, 0.0752, 5.737e-4) == 0
    assert k0_of(0.1, 0.5, 0.5) == 2
    assert k0_of(0.9, 0.5, 0.5) == 0  # lambda0 >= gamma clamps at zero
    assert k0_of(0.0, 0.5, 0.5) == math.inf
    assert k0_of(0.0, 0.5, 0.0) == 0  # zero-contraction schedules skip phase 1


def test_lambda0_identical_sets(spine):
    _, _, C_co, _ = spine
    assert estimate_lambda0(C_co, C_co) == pytest.approx(1.0, abs=1e-9)


def test_lambda0_1d_closed_form(spine):
    sys, oracle, C_co, _ = spine
    proj1 = proj_cmax_p(sys, 1, tol=1e-11)
    lam0 = estimate_lambda0(C_co, proj1)
    assert lam0 == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_lambda0_method_ordering(spine):
    # eps * B(n) lies inside the projection, so the containment LP into the
    # projection is never below the margin bound eps / r(C_co, B(n))
    sys_1d, _, C_co_1d, proj1_1d = spine
    cases = [(sys_1d, C_co_1d, proj1_1d)]
    for seed in (0, 1, 2):
        sys = build_2d_random(seed)
        C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
        assert conv
        C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-9)
        assert conv
        cases.append((sys, C_co, project(C_1, 2)))
    for sys, C_co, proj1 in cases:
        eps = equilibrium_margin_at_zero(sys, proj1)
        margin_bound = eps / containment_ratio(C_co, unit_box(sys.n))
        lam0 = estimate_lambda0(C_co, proj1)
        assert lam0 >= margin_bound - 1e-9
        assert lam0 > 0.0


def test_algorithm2_1d_exact(spine):
    sys, oracle, C_co, proj1 = spine
    cert = algorithm2(sys, C_co, proj1, p0=1, N=1)
    assert cert.method == "alg2"
    assert cert.gamma == pytest.approx(0.5, abs=1e-9)       # 1 - 1/a
    assert cert.lambda0 == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert cert.lam == 0.0 and cert.k0 == 0
    assert cert.r_co == pytest.approx(1.5, abs=1e-10)
    for p in range(1, 11):
        assert bound_dp(cert, p) == pytest.approx(2.0 ** -p, abs=1e-9)
        assert bound_dp(cert, p) == pytest.approx(oracle.dp(p), abs=1e-9)


def test_algorithm2_rejects_uncontrollable():
    S = Box(-np.ones(3), np.ones(3)).to_polytope()
    sys = LinearSystem([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]],
                       [[0.0], [0.0]], interval(-0.1, 0.1), S)
    C = unit_box(2)
    with pytest.raises(NotControllableError):
        algorithm2(sys, C, C, p0=0, N=2)


def test_algorithm2_gamma_positive_at_n():
    rng = np.random.default_rng(3)
    from preview_regret.solver import is_controllable

    tried = 0
    for seed in range(12):
        if tried >= 4:
            break
        sys = build_2d_random(seed)
        if not is_controllable(sys.A, np.hstack([sys.B, sys.E])):
            continue
        tried += 1
        C_co, conv = max_invariant_set(collaborative(sys), tol=1e-8)
        assert conv
        cert = algorithm2(sys, C_co, proj=C_co, p0=0, N=sys.n)
        assert cert.gamma > 0.0
    del rng


def test_algorithm2_larger_N_coarser_faster():
    sys = build_2d_random(0)
    C_co, _ = max_invariant_set(collaborative(sys), tol=1e-9)
    C_1, _ = max_invariant_set(augment(sys, 1), tol=1e-9)
    from preview_regret.polytope import project

    proj1 = project(C_1, 2)
    g = []
    for N in (2, 4, 8):
        cert = algorithm2(sys, C_co, proj=proj1, p0=1, N=N)
        g.append(cert.gamma)
    assert g[0] <= g[1] + 1e-9 <= g[2] + 2e-9  # gamma_max grows with N


def test_algorithm1_1d_sound(spine):
    sys, oracle, C_co, proj1 = spine
    cert = algorithm1(sys, C_co, proj1, p0=1)
    assert cert.method == "alg1"
    assert cert.contractive_verified
    assert 0 < cert.lambda0 <= 1.0
    assert cert.lam < 1.0
    for p in range(1, 11):
        assert oracle.dp(p) <= bound_dp(cert, p) + 1e-9


def test_algorithm1_refined_never_looser(spine):
    sys, oracle, C_co, proj1 = spine
    plain = algorithm1(sys, C_co, proj1, p0=1)
    refined = refine_certificate(sys, C_co, plain)
    assert refined.method == "alg1_refined"
    assert refined.contractive_verified
    assert refined.gamma >= plain.gamma - 1e-12
    assert refined.lam <= plain.lam + 1e-12
    for p in range(1, 20):
        assert bound_dp(refined, p) <= bound_dp(plain, p) + 1e-9
        assert oracle.dp(p) <= bound_dp(refined, p) + 1e-9


def test_refine_certificate_needs_an_exact_plain_certificate(spine):
    sys, _, C_co, proj1 = spine
    plain = algorithm1(sys, C_co, proj1, p0=1)
    with pytest.raises(AssumptionError, match="exact limit set"):
        refine_certificate(sys, C_co, replace(plain, cmax_exact=False))
    with pytest.raises(ValueError, match="plain alg1"):
        refine_certificate(sys, C_co, refine_certificate(sys, C_co, plain))


def test_algorithm1_assumption_failure():
    # a zero-width disturbance set has no interior, so every forced
    # equilibrium sits on the boundary and the margin LP returns zero
    S = Box(np.array([-10.0, -1.0]), np.array([10.0, 1.0])).to_polytope()
    sys = LinearSystem([[2.0]], [[1.0]], [[1.0]], interval(0.0, 0.0), S)
    C = interval(-0.4, 0.4)
    with pytest.raises(AssumptionError):
        algorithm1(sys, C, proj=C, p0=0)


def test_bound_dp_monotone_and_vanishing(spine):
    sys, oracle, C_co, proj1 = spine
    plain = algorithm1(sys, C_co, proj1, p0=1)
    for cert in (plain,
                 refine_certificate(sys, C_co, plain),
                 algorithm2(sys, C_co, proj1, p0=1, N=1)):
        vals = [bound_dp(cert, p) for p in range(1, 40)]
        for i in range(len(vals) - cert.N):
            assert vals[i + cert.N] <= vals[i] + 1e-12
        assert vals[-1] < 1e-3
        with pytest.raises(ValueError):
            bound_dp(cert, 0)


def test_bound_marginal(spine):
    sys, oracle, C_co, proj1 = spine
    cert = algorithm2(sys, C_co, proj1, p0=1, N=1)
    # c = 1/3, a = 1/2, r_co = 1.5 at p = 2 -> c(1+a)a * r_co = 0.375
    assert bound_marginal(cert, 2) == pytest.approx(0.375, abs=1e-9)
    for p in range(1, 12):
        assert bound_marginal(cert, p) <= (bound_dp(cert, p)
                                           + bound_dp(cert, p + cert.N) + 1e-12)
    assert bound_marginal(cert, 30) < 1e-6


def test_true_dp_1d(spine):
    sys, oracle, C_co, _ = spine
    for p in (1, 2, 3):
        assert true_dp(sys, p, C_co, tol=1e-11) == pytest.approx(
            oracle.dp(p), abs=1e-9)


def test_true_dp_2d_gap_is_exact_past_convergence():
    # from p = 3 the projection equals the limit set; a projected gap reads
    # 0 up to round-off, where a regularised lifted QP read about 6e-14
    sys = build_2d_random(1)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    for p in range(3, 7):
        assert true_dp(sys, p, C_co) < 1e-15


def test_true_dp_budget():
    from preview_regret.polytope import BudgetExceededError

    sys, _ = build_1d()
    C_co, _ = max_invariant_set(collaborative(sys), tol=1e-9)
    with pytest.raises(BudgetExceededError):
        true_dp(sys, 12, C_co)


def test_proj_matches_oracle(spine):
    sys, oracle, _, _ = spine
    for p in (1, 2, 3):
        proj = proj_cmax_p(sys, p, tol=1e-11)
        assert support(proj, [1.0]) == pytest.approx(oracle.proj_radius(p),
                                                     abs=1e-9)


def test_projection_monotone_in_p(spine):
    sys, _, C_co, _ = spine
    from preview_regret.polytope import contains

    prev = proj_cmax_p(sys, 1, tol=1e-10)
    for p in (2, 3):
        cur = proj_cmax_p(sys, p, tol=1e-10)
        assert contains(cur, prev, tol=1e-9)
        assert contains(C_co, cur, tol=1e-9)
        prev = cur


def test_algorithm3_1d_ladder(spine):
    sys, oracle, C_co, _ = spine
    # scalar chains stay in dyadic floats, so the fixed point lands exactly
    proj1 = proj_cmax_p(sys, 1, tol=0.0)
    report = algorithm3(sys, C_co, proj1, p0=1, k_max=50)
    assert math.isinf(report.p_bar)
    assert len(report.ladder) == 51
    # ladder radii follow the closed-form projections exactly
    for k, C_k in enumerate(report.ladder[:12]):
        assert support(C_k, [1.0]) == pytest.approx(
            oracle.proj_radius(1 + k), abs=1e-12)
    for k, d in enumerate(report.distances[:12]):
        assert d == pytest.approx(oracle.dp(1 + k), abs=1e-9)


def test_algorithm3_immediate_convergence(spine):
    sys, _, C_co, _ = spine
    report = algorithm3(sys, C_co, C_co, p0=3, k_max=10)
    assert report.p_bar == 3


def test_algorithm3_finite_convergence_certified():
    # stable scalar system: one backward step from any interior invariant
    # interval saturates the state box, so the ladder converges finitely
    S = Box(np.array([-2.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
    sys = LinearSystem([[0.5]], [[1.0]], [[0.0]],
                       HPolytope([[1.0], [-1.0]], [0.0, 0.0]), S)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-10)
    assert conv
    assert support(C_co, [1.0]) == pytest.approx(2.0, abs=1e-10)
    C0 = interval(-0.5, 0.5)
    report = algorithm3(sys, C_co, C0, p0=0, k_max=10)
    assert report.p_bar == 1
    assert set_equal(report.ladder[-1], C_co, tol=1e-9)
    assert report.distances[-1] == pytest.approx(0.0, abs=1e-9)


def test_ladder_dominates_certificates(spine):
    sys, oracle, C_co, _ = spine
    proj1 = proj_cmax_p(sys, 1, tol=1e-11)
    report = algorithm3(sys, C_co, proj1, p0=1, k_max=10)
    a1 = algorithm1(sys, C_co, proj1, p0=1)
    a2 = algorithm2(sys, C_co, proj1, p0=1, N=1)
    for k, d in enumerate(report.distances):
        p = 1 + k
        assert d <= bound_dp(a1, p) + 1e-9
        assert d <= bound_dp(a2, p) + 1e-9


def test_soundness_2d_single_seed():
    sys = build_2d_random(1)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-9)
    assert conv
    proj1 = project(C_1, 2)
    plain = algorithm1(sys, C_co, proj1, p0=1)
    certs = [plain,
             refine_certificate(sys, C_co, plain),
             algorithm2(sys, C_co, proj1, p0=1, N=2)]
    for p in range(1, 5):
        actual = true_dp(sys, p, C_co, tol=1e-8)
        for cert in certs:
            assert actual <= bound_dp(cert, p) + 1e-6


def test_algorithm2_zero_initial_factor_still_decays():
    # the terminal anchor touches the origin, so the shifted projection can
    # lose its interior; the certificate survives with lambda0 = 0
    sys, _ = build_1d()
    C_co, _ = max_invariant_set(collaborative(sys), tol=1e-10)
    anchor = interval(0.0, 0.5)  # origin sits on the boundary
    cert = algorithm2(sys, C_co, proj=anchor, p0=0, N=1)
    assert cert.lambda0 >= 0.0
    assert cert.gamma > 0.0
    vals = [bound_dp(cert, p) for p in range(0, 25)]
    assert vals[-1] < 1e-2
    assert all(b - 1e-12 <= a for a, b in zip(vals, vals[1:]))


def test_lemma2_ladder_2d():
    from preview_regret.invariance import pre_k
    from preview_regret.polytope import contains, project

    sys = build_2d_random(1)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    proj = {}
    for p in (1, 2, 3):
        Cp, conv = max_invariant_set(augment(sys, p), tol=1e-9)
        assert conv
        proj[p] = project(Cp, 2)
    co = collaborative(sys)
    for k in (1, 2):
        stepped = pre_k(co, proj[1], k=k)
        assert contains(proj[1 + k], stepped, tol=1e-7)
        assert contains(C_co, proj[1 + k], tol=1e-7)


def test_outer_bounds_nest_with_anchor_horizon(spine):
    # longer-anchor product outer bounds are tighter (nested) in the
    # augmented space
    from preview_regret.invariance import cmax_p_co
    from preview_regret.polytope import cartesian_product, contains, power_product

    sys, _, C_co, _ = spine
    p = 2
    outer = {}
    for p_prime in (0, 1, 2):
        co_part = cmax_p_co(sys, p_prime, C_co)
        tail = p - p_prime
        outer[p_prime] = co_part if tail == 0 else cartesian_product(
            co_part, power_product(sys.D, tail))
    assert contains(outer[0], outer[1], tol=1e-8)
    assert contains(outer[1], outer[2], tol=1e-8)


@pytest.mark.parametrize("p", [0, 1])
def test_true_dp_empty_preview_set_raises_assumption_error(p):
    # a^(p-1) * ubar < dbar: the maximal sets at p = 0 and p = 1 are empty
    sys, _ = build_1d(ubar=0.4, dbar=0.5)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-10)
    assert conv and not C_co.is_empty()
    with pytest.raises(AssumptionError,
                       match=f"the {p}-preview system has an empty"):
        true_dp(sys, p, C_co)
