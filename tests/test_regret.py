import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from preview_regret.invariance import check_contractive, max_invariant_set, pre_k
from preview_regret.models import build_1d, build_2d_random, build_template
from preview_regret.polytope import (
    Box,
    TAU_SET,
    HPolytope,
    containment_ratio,
    contains,
    interval,
    project,
    scale,
    set_equal,
    support,
    translate,
    unit_box,
)
from preview_regret.regret import (
    NotControllableError,
    RegretCertificate,
    _preview_gap,
    algorithm1,
    algorithm2,
    algorithm3,
    bound_dp,
    refine_certificate,
    regret_curve,
)
from preview_regret.solver import TAU_CHECK
from preview_regret.systems import (
    AssumptionError,
    LinearSystem,
    augment,
    collaborative,
    equilibrium_margin_at_zero,
    shift_origin,
)

from oracles import co_p, power, proj_p, regret_dp


@pytest.fixture(scope="module")
def spine():
    sys, oracle = build_1d()
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-11)
    assert conv
    C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-11)
    assert conv
    return sys, oracle, C_co, project(C_1, sys.n)


def _k0(lambda0, gamma, lam):
    return RegretCertificate(method="alg1", lambda0=lambda0, gamma=gamma,
                             N=1, lam=lam, r_co=1.0, p0=0, shift=None).k0


def test_k0_examples():
    assert _k0(0.6550, 0.0752, 5.737e-4) == 0
    assert _k0(0.1, 0.5, 0.5) == 2
    assert _k0(0.9, 0.5, 0.5) == 0  # lambda0 >= gamma clamps at zero
    assert _k0(0.0, 0.5, 0.5) == math.inf
    assert _k0(0.0, 0.5, 0.0) == 0  # zero-contraction schedules skip phase 1


def test_lambda0_identical_sets(spine):
    sys, _, C_co, _ = spine
    cert = algorithm2(sys, C_co, C_co, p0=1, N=1)
    assert cert.lambda0 == pytest.approx(1.0, abs=1e-9)


def test_lambda0_1d_closed_form(spine):
    sys, oracle, C_co, _ = spine
    proj1 = proj_p(sys, 1, tol=1e-11)
    for cert in (algorithm1(sys, C_co, proj1, p0=1),
                 algorithm2(sys, C_co, proj1, p0=1, N=1)):
        assert cert.lambda0 == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_lambda0_method_ordering(spine):
    # eps * B(n) lies inside the projection, so the containment LP into the
    # projection is never below the margin bound eps / r(C_co, B(n)); both
    # methods read lambda0 at the same anchor
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
        lam0 = algorithm1(sys, C_co, proj1, p0=1).lambda0
        assert lam0 >= margin_bound - 1e-9
        assert lam0 > 0.0
        assert algorithm2(sys, C_co, proj1, p0=1).lambda0 == lam0


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


@pytest.mark.parametrize("which", ["1d", "2d-0", "2d-1", "2d-2", "2d-3",
                                   "wind_turbine"])
def test_refined_verification_matches_a_fresh_check_contractive(which):
    # refine_certificate checks gamma * C_co against the N-step set it built
    # for the new gamma; lam * gamma is unchanged, so check_contractive from
    # scratch reads the same
    if which == "1d":
        sys = build_1d()[0]
    elif which == "wind_turbine":
        sys = build_template("wind_turbine")[0]
    else:
        sys = build_2d_random(int(which[3:]))
    curve = regret_curve(sys, p0=1, p_max=1, methods=("alg1_refined",))
    cert = curve.certs["alg1_refined"]
    co_s = collaborative(shift_origin(sys, cert.shift))
    C_co_s = translate(curve.C_max_co, -cert.shift.x_e)
    fresh = check_contractive(co_s, scale(C_co_s, cert.gamma), N=cert.N,
                              lam=cert.lam, tol=TAU_CHECK)
    assert cert.contractive_verified is fresh


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


def test_true_dp_1d(spine):
    sys, oracle, C_co, _ = spine
    for p in (1, 2, 3):
        assert regret_dp(sys, p, C_co, tol=1e-11) == pytest.approx(
            oracle.dp(p), abs=1e-9)


def test_true_dp_2d_gap_is_exact_past_convergence():
    # from p = 3 the projection equals the limit set; a projected gap reads
    # 0 up to round-off, where a regularised lifted QP read about 6e-14
    sys = build_2d_random(1)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    for p in range(3, 7):
        assert regret_dp(sys, p, C_co) < 1e-15


def test_proj_matches_oracle(spine):
    sys, oracle, _, _ = spine
    for p in (1, 2, 3):
        proj = proj_p(sys, p, tol=1e-11)
        assert support(proj, [1.0]) == pytest.approx(oracle.proj_radius(p),
                                                     abs=1e-9)


def test_projection_monotone_in_p(spine):
    sys, _, C_co, _ = spine
    from preview_regret.polytope import contains

    prev = proj_p(sys, 1, tol=1e-10)
    for p in (2, 3):
        cur = proj_p(sys, p, tol=1e-10)
        assert contains(cur, prev, tol=1e-9)
        assert contains(C_co, cur, tol=1e-9)
        prev = cur


def test_algorithm3_1d_ladder(spine):
    sys, oracle, C_co, _ = spine
    # scalar chains stay in dyadic floats, so the fixed point lands exactly
    proj1 = proj_p(sys, 1, tol=0.0)
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


def test_algorithm3_replays_a_repeating_ladder(monkeypatch):
    # at p0 = 1 the ladder of build_2d_random(1) repeats a set byte for byte
    # within a few steps; the report must equal that of the plain loop
    from preview_regret import invariance
    from preview_regret.invariance import pre
    from preview_regret.polytope import contains, vertices
    from preview_regret.solver import project_point

    sys = build_2d_random(1)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-8)
    assert conv
    C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-8)
    assert conv
    proj = project(C_1, sys.n)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return pre(*args, **kwargs)

    monkeypatch.setattr(invariance, "pre", counting)
    report = algorithm3(sys, C_co, proj, p0=1, k_max=50)
    assert len(calls) <= 4

    co = collaborative(sys)
    ladder = [proj]
    for _ in range(50):
        assert not contains(ladder[-1], C_co, tol=0.0)
        ladder.append(pre(co, ladder[-1]))
    assert not contains(ladder[-1], C_co, tol=0.0)
    distances = [max(float(project_point(v, C_k)[1]) for v in vertices(C_co))
                 for C_k in ladder]
    assert math.isinf(report.p_bar)
    assert report.distances == distances
    assert len(report.ladder) == len(ladder)
    for got, want in zip(report.ladder, ladder):
        assert np.array_equal(got.H, want.H) and np.array_equal(got.h, want.h)


def test_ladder_dominates_certificates(spine):
    sys, oracle, C_co, _ = spine
    proj1 = proj_p(sys, 1, tol=1e-11)
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
        actual = regret_dp(sys, p, C_co, tol=1e-8)
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
    from preview_regret.polytope import cartesian_product, contains

    sys, _, C_co, _ = spine
    p = 2
    outer = {}
    for p_prime in (0, 1, 2):
        co_part = co_p(sys, p_prime, C_co)
        tail = p - p_prime
        outer[p_prime] = co_part if tail == 0 else cartesian_product(
            co_part, power(sys.D, tail))
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
        regret_dp(sys, p, C_co)


def test_preview_gap_checks_nesting_at_the_larger_tolerance():
    # a projection 5e-7 outside the limit set: within a sweep tol of 1e-6,
    # but past the check tolerance 1e-7 when the sweep tol is below it
    C_co, proj = interval(-1.0, 1.0), interval(-1.0, 1.0 + 5e-7)
    assert _preview_gap(1, proj, C_co, 1e-6) == 0.0
    with pytest.raises(AssumptionError,
                       match="1-preview projection is not inside the limit "
                             "set within 1e-07"):
        _preview_gap(1, proj, C_co, 1e-8)


def test_proj_cmax_p_builds_half_the_hulls(monkeypatch):
    # from the iterate where the fixed point keeps its vertex-facet
    # incidence, the carried record certifies each reduction instead of
    # Qhull: 32 hulls without it
    import scipy.spatial

    hulls = []

    class Counting(scipy.spatial.ConvexHull):
        def __init__(self, points):
            hulls.append(1)
            super().__init__(points)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", Counting)
    proj_p(build_2d_random(1), 6, 1e-8)
    assert 0 < len(hulls) <= 16


def _permuted(sys, rng):
    pS = rng.permutation(sys.S_xu.num_rows)
    pD = rng.permutation(sys.D.num_rows)
    return LinearSystem(sys.A, sys.B, sys.E,
                        HPolytope(sys.D.H[pD], sys.D.h[pD]),
                        HPolytope(sys.S_xu.H[pS], sys.S_xu.h[pS]))


@pytest.mark.parametrize("which", ["1d", "2d-0", "2d-1"])
def test_row_order_changes_no_result(which):
    # the order of the rows of S_xu and D decides which reductions reuse
    # a carried incidence, and must decide nothing else
    sys = {"1d": lambda: build_1d()[0], "2d-0": lambda: build_2d_random(0),
           "2d-1": lambda: build_2d_random(1)}[which]()
    rng = np.random.default_rng(11)
    runs = []
    for s in [sys] + [_permuted(sys, rng) for _ in range(3)]:
        C_co, conv = max_invariant_set(collaborative(s), tol=1e-9)
        assert conv
        runs.append((C_co, [regret_dp(s, p, C_co) for p in (1, 2, 3)]))
    C_ref, dp_ref = runs[0]
    for C_co, dp in runs[1:]:
        assert C_co.num_rows == C_ref.num_rows
        assert set_equal(C_co, C_ref)
        assert np.max(np.abs(np.subtract(dp, dp_ref))) <= 1e-12


def test_translated_safe_set_moves_the_equilibrium_not_the_regret():
    # S_xu moved by (3, -3) leaves the zero equilibrium outside it, so the
    # certificates shift to an LP equilibrium; the exact regret and the
    # ladder see the same sets moved by x_e and read the same
    sys, _ = build_1d()
    moved = LinearSystem(sys.A, sys.B, sys.E, sys.D,
                         translate(sys.S_xu, np.array([3.0, -3.0])))
    base = regret_curve(sys, p0=1, p_max=4)
    curve = regret_curve(moved, p0=1, p_max=4)
    assert not curve.failures
    for row, ref in zip(curve.rows, base.rows, strict=True):
        for col in ("true_dp", "bound_alg3"):
            assert abs(row[col] - ref[col]) <= 1e-12
        # the most-interior equilibrium is not unique, so the certified
        # bounds may differ from the untranslated ones; they stay sound
        for col in (c for c in row if c.startswith("bound_")):
            assert row[col] >= row["true_dp"]
    for cert in curve.certs.values():
        assert cert.shift.margin == pytest.approx(0.5, abs=1e-9)
        assert cert.shift.x_e == pytest.approx([2.5], abs=1e-9)
        assert cert.shift.d_e == pytest.approx([0.0], abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.5])
def test_a_prefix_chain_gives_each_horizon_its_own_set(a, monkeypatch):
    # each horizon resumes where the one below left it: at a = 1.5 it skips
    # the p - 1 steps taken below, and at a = 0.5, where the p = 1 run
    # stops at step 1, the later ones call pre no more; the projections
    # are those of the runs from X_0, byte for byte
    import preview_regret.invariance as inv
    import preview_regret.regret as regret

    S = Box(np.array([-10.0, -1.0]), np.array([10.0, 1.0])).to_polytope()
    s = LinearSystem([[a]], [[1.0]], [[1.0]], interval(-0.5, 0.5), S)
    calls, seen = [], {}
    real, real_gap = inv.pre, regret._preview_gap

    def counting(*args):
        calls.append(1)
        return real(*args)

    def gap(p, proj, C_max_co, tol):
        # the projection of horizon p and the pre calls of its run
        seen[p] = proj, len(calls)
        out = real_gap(p, proj, C_max_co, tol)
        del calls[:]
        return out

    monkeypatch.setattr(inv, "pre", counting)
    monkeypatch.setattr(regret, "_preview_gap", gap)
    regret_curve(s, p0=1, p_max=4, methods=(), tol=1e-8)
    assert sorted(seen) == [1, 2, 3, 4]  # every horizon converged
    for p in range(2, 5):
        del calls[:]
        alone = proj_p(s, p, 1e-8)
        chained, steps = seen[p]
        assert steps == (0 if a < 1 else len(calls) - (p - 1))
        assert chained.H.tobytes() == alone.H.tobytes()
        assert chained.h.tobytes() == alone.h.tobytes()


def _bracket_spies(monkeypatch):
    """Record, for every preview run of regret_curve, the prefix on entry, the
    pre calls of the run and each bracket test's answer; and the
    projection regret_curve measures at each horizon."""
    import preview_regret.invariance as inv
    import preview_regret.regret as regret

    runs, pres, seen = [], [], {}
    real_run, real_pre, real_test, real_gap = (
        regret.max_invariant_set, inv.pre, inv._bracketed, regret._preview_gap)

    def run(sys, max_iter=200, tol=TAU_SET, prefix=None):
        if prefix is None:
            return real_run(sys, max_iter, tol)
        entry = {"k": prefix.k, "stopped": prefix.stopped,
                 "inner": prefix.inner, "brackets": []}
        runs.append(entry)
        del pres[:]
        out = real_run(sys, max_iter, tol, prefix)
        entry["pres"], entry["handed_on"] = len(pres), prefix.stopped
        return out

    def counting(*args):
        pres.append(1)
        return real_pre(*args)

    def test(X, L, tol):
        hit = real_test(X, L, tol)
        runs[-1]["brackets"].append(hit)
        return hit

    def gap(p, proj, C_max_co, tol):
        seen[p] = proj
        return real_gap(p, proj, C_max_co, tol)

    monkeypatch.setattr(regret, "max_invariant_set", run)
    monkeypatch.setattr(inv, "pre", counting)
    monkeypatch.setattr(inv, "_bracketed", test)
    monkeypatch.setattr(regret, "_preview_gap", gap)
    return runs, seen


def test_bracket_stops_2d_1_one_step_after_its_prefix(monkeypatch):
    # d_p = 0 from p = 3 on: each of those horizons takes one lifted step
    # past the iterate it resumes at, with algorithm3's rung as L_p and no
    # pre of its own, and its projection P lies between L_p and L_p + tol;
    # the gap is the one of the run from X_0, bit for bit
    s, tol = build_2d_random(1), 1e-8
    runs, seen = _bracket_spies(monkeypatch)
    curve = regret_curve(s, p0=1, p_max=6, tol=tol)
    monkeypatch.undo()
    ladder = curve.report.ladder
    assert runs[0]["inner"] is None
    for p, run in enumerate(runs[1:], start=2):
        assert run["inner"] is ladder[p - 1]
        assert run["k"] == p - 1 and not run["stopped"]
        if p == 2:
            assert not any(run["brackets"]) and run["pres"] > 1
            continue
        assert run["brackets"] == [True] and run["pres"] == 1
        assert not run["handed_on"]
        P = seen[p]
        assert contains(P, ladder[p - 1]) and contains(ladder[p - 1], P, tol)
        alone = proj_p(s, p, tol)
        assert curve.rows[p - 1]["true_dp"] == \
            _preview_gap(p, alone, curve.C_max_co, tol)
    assert len(runs) == 6


def test_bracket_never_stops_a_1d_horizon(monkeypatch):
    runs, _ = _bracket_spies(monkeypatch)
    curve = regret_curve(build_1d()[0], p0=1, p_max=6)
    assert [run["inner"] is not None for run in runs] == [False] + [True] * 5
    assert all(run["brackets"] and not any(run["brackets"])
               for run in runs[1:])
    assert all(row["true_dp"] is not None for row in curve.rows)


def _random_system(rng):
    """n in {1, 2}, one input and one disturbance, A uniform in +-1.5, B
    and E in +-1, D = [-delta, delta] with delta in [0.1, 0.6], and the
    unit box as the safe set."""
    n = int(rng.integers(1, 3))
    delta = rng.uniform(0.1, 0.6)
    return LinearSystem(rng.uniform(-1.5, 1.5, (n, n)),
                        rng.uniform(-1.0, 1.0, (n, 1)),
                        rng.uniform(-1.0, 1.0, (n, 1)),
                        interval(-delta, delta), unit_box(n + 1))


@seed(5)
@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_bracketed_sweep_matches_runs_from_x0_on_random_systems(draw):
    # the bracket stops horizons of three of the twelve draws of this seed
    # early; each projection is still the one of the run from X_0 to
    # TAU_SET, its gap the same to 1e-8, and every certified bound stays
    # above the regret
    from unittest import mock

    import preview_regret.regret as regret

    s, tol = _random_system(np.random.default_rng(draw)), 1e-8
    seen, real_gap = {}, regret._preview_gap

    def gap(p, proj, C_max_co, tol):
        seen[p] = proj
        return real_gap(p, proj, C_max_co, tol)

    with mock.patch.object(regret, "_preview_gap", gap):
        try:
            curve = regret_curve(s, p0=1, p_max=4, tol=tol,
                                 dim_budget=s.n + 4)
        except AssumptionError:
            assume(False)  # an empty limit set or p0 set
    assert sorted(seen) == [1, 2, 3, 4]
    for row in curve.rows:
        p = row["p"]
        alone = proj_p(s, p, tol)
        assert set_equal(seen[p], alone, TAU_SET)
        assert abs(row["true_dp"]
                   - _preview_gap(p, alone, curve.C_max_co, tol)) \
            <= 1e-8
        for col in (c for c in row if c.startswith("bound_")):
            assert row[col] >= row["true_dp"] - 1e-6


def test_without_alg3_no_horizon_reads_a_bracket(monkeypatch):
    # the brackets are the rungs of algorithm3's ladder, so without alg3
    # every run stops by the inclusion test alone, as from X_0
    s = build_2d_random(1)
    runs, _ = _bracket_spies(monkeypatch)
    curve = regret_curve(s, p0=1, p_max=6, methods=("alg1", "alg2"))
    assert len(runs) == 6
    assert all(run["inner"] is None and not run["brackets"] for run in runs)
    monkeypatch.undo()
    full = regret_curve(s, p0=1, p_max=6)
    assert [row["true_dp"] for row in curve.rows] == \
        [row["true_dp"] for row in full.rows]
