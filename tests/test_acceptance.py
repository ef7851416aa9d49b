"""Acceptance suite: the package's exit criteria.

Each test prints one PASS line when its criterion holds (run with -s to see
them); an assertion failure marks the criterion FAIL. Shared artifacts are
computed once per module. Reference convergence horizons reported for the
application templates elsewhere (lane keeping 7, biped 10, wind turbine 4)
depend on externally published dynamics parameters and are treated as
metadata, not assertions; the seeded-instance properties below stand in.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from preview_regret.invariance import (
    check_contractive,
    max_invariant_set,
    pre,
    pre_k,
)
from preview_regret.models import build_1d, build_2d_random
from preview_regret.mpc import (
    MpcConfig,
    feasible_domain,
    sample_disturbances,
    simulate_closed_loop,
    terminal_set_certificate,
)
from preview_regret.polytope import (
    Box,
    HPolytope,
    cartesian_product,
    containment_ratio,
    contains,
    hausdorff_nested,
    interval,
    project,
    scale,
    set_equal,
    support,
)
from preview_regret.regret import (
    algorithm1,
    algorithm2,
    algorithm3,
    bound_dp,
    refine_certificate,
)
from preview_regret.systems import (
    DeterministicSystem,
    LinearSystem,
    augment,
    collaborative,
)

from oracles import co_p, power, proj_p, regret_dp

N_SEEDS = 20


@contextmanager
def criterion(number, summary):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary} "
          f"[{time.time() - start:.1f}s]")


@pytest.fixture(scope="module")
def spine_1d():
    sys, oracle = build_1d()
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-11)
    assert conv
    return sys, oracle, C_co


@pytest.fixture(scope="module")
def spine_2d():
    sys = build_2d_random(0)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    return sys, C_co


def test_criterion_1_analytic_spine(spine_1d):
    sys, oracle, C_co = spine_1d
    with criterion(1, "1D closed forms reproduced to 1e-9 in under 5 s"):
        t0 = time.time()
        assert support(C_co, [1.0]) == pytest.approx(1.5, abs=1e-9)
        assert -support(C_co, [-1.0]) == pytest.approx(-1.5, abs=1e-9)
        for p in range(1, 7):
            Cp, conv = max_invariant_set(augment(sys, p), tol=1e-11)
            assert conv
            proj = project(Cp, 1)
            r = oracle.proj_radius(p)
            assert support(proj, [1.0]) == pytest.approx(r, abs=1e-9)
            assert -support(proj, [-1.0]) == pytest.approx(-r, abs=1e-9)
            d = hausdorff_nested(proj, C_co)
            assert d == pytest.approx(2.0 ** -p, abs=1e-9)
            assert d == pytest.approx(oracle.dp(p), abs=1e-9)
        assert time.time() - t0 < 5.0


def test_criterion_2_alg2_exactness(spine_1d):
    sys, oracle, C_co = spine_1d
    with criterion(2, "controllable-method bound equals the exact regret "
                      "on the 1D system"):
        t0 = time.time()
        C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-11)
        assert conv
        cert = algorithm2(sys, C_co, project(C_1, sys.n), p0=1, N=1)
        assert cert.gamma == pytest.approx(0.5, abs=1e-9)        # 1 - 1/a
        assert cert.lambda0 == pytest.approx(2.0 / 3.0, abs=1e-9)
        for p in range(1, 11):
            exact = oracle.dp(p)
            assert bound_dp(cert, p) == pytest.approx(exact, abs=1e-9)
        # the directly computed regret agrees wherever it fits the budget
        for p in (1, 4, 7):
            assert regret_dp(sys, p, C_co, tol=1e-11) == pytest.approx(
                oracle.dp(p), abs=1e-9)
        assert time.time() - t0 < 5.0


def test_criterion_3_soundness_sweep():
    summary = (f"bounds dominate the measured regret on {N_SEEDS} seeded "
               "instances (certs: alg1, refined, alg2 N=2/8; p <= 6)")
    with criterion(3, summary):
        t0 = time.time()
        checked = 0
        for seed in range(N_SEEDS):
            sys = build_2d_random(seed)
            C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
            assert conv, f"seed {seed}: limit set did not converge"
            C_1, conv = max_invariant_set(augment(sys, 1), tol=1e-9)
            assert conv
            proj1 = project(C_1, 2)
            plain = algorithm1(sys, C_co, proj1, p0=1)
            certs = [
                plain,
                refine_certificate(sys, C_co, plain),
                algorithm2(sys, C_co, proj1, p0=1, N=2),
                algorithm2(sys, C_co, proj1, p0=1, N=8),
            ]
            refined = certs[1]
            for p in range(1, 30):
                assert bound_dp(refined, p) <= bound_dp(plain, p) + 1e-9, \
                    f"seed {seed}: refinement loosened the bound at p={p}"
            for p in range(1, 7):
                actual = regret_dp(sys, p, C_co, tol=1e-8)
                for cert in certs:
                    assert actual <= bound_dp(cert, p) + 1e-6, \
                        f"seed {seed} p={p} {cert.method} N={cert.N}: " \
                        f"{actual} > {bound_dp(cert, p)}"
                checked += 1
        assert checked == N_SEEDS * 6
        assert time.time() - t0 < 600.0


def _assert_contained(inner, outer, label):
    """Containment at ratio 1 + 1e-6, with degenerate cases via supports."""
    if inner.is_empty():
        return
    if outer.in_normal_form:
        r = containment_ratio(inner, outer)
        assert r <= 1.0 + 1e-6, f"{label}: ratio {r}"
    else:
        assert contains(outer, inner, tol=1e-6), label


def test_criterion_4_sandwiches(spine_1d, spine_2d):
    sys1, _, C_co_1 = spine_1d
    sys2, C_co_2 = spine_2d
    with criterion(4, "product sandwich bounds and the delay-form identity "
                      "hold at ratio 1e-6 for p <= 2"):
        t0 = time.time()
        for sys, C_co, tol in ((sys1, C_co_1, 1e-11), (sys2, C_co_2, 1e-9)):
            cmax = {}
            for p in (0, 1, 2):
                target = sys if p == 0 else augment(sys, p)
                cmax[p], conv = max_invariant_set(target, tol=tol)
                assert conv
            for p in (1, 2):
                for p_prime in range(p):
                    # C_{p'} x D^{p-p'} ⊆ C_p ⊆ C_{p',co} x D^{p-p'}
                    tail = power(sys.D, p - p_prime)
                    inner = cartesian_product(cmax[p_prime], tail)
                    outer = cartesian_product(co_p(sys, p_prime, C_co), tail)
                    _assert_contained(inner, cmax[p], f"inner p'={p_prime}")
                    _assert_contained(cmax[p], outer, f"outer p'={p_prime}")
                # plain product outer bound with the limit set
                wide = cartesian_product(C_co, power(sys.D, p))
                _assert_contained(cmax[p], wide, "limit-product outer")
                # delay-form identity and its product containment
                co_direct, conv = max_invariant_set(
                    collaborative(augment(sys, p)), tol=tol)
                assert conv
                via_formula = co_p(sys, p, C_co)
                assert set_equal(via_formula, co_direct, tol=1e-6)
                _assert_contained(via_formula, wide, "delay-form outer")
                _assert_contained(cmax[p], via_formula, "tightest outer")
        assert time.time() - t0 < 300.0


def test_criterion_5_ladder_certification(spine_1d):
    sys, oracle, C_co = spine_1d
    with criterion(5, "finite ladder convergence is certified; the 1D ladder "
                      "stays open through k_max=50 with exact distances"):
        # 1D: identically-dyadic arithmetic keeps the whole chain exact, so
        # run the fixed points to float stationarity (tol = 0)
        C_co_exact, conv = max_invariant_set(collaborative(sys), tol=0.0)
        assert conv
        proj1 = proj_p(sys, 1, tol=0.0)
        report = algorithm3(sys, C_co_exact, proj1, p0=1, k_max=50)
        assert math.isinf(report.p_bar)
        assert len(report.ladder) == 51
        for k, d in enumerate(report.distances):
            assert d == pytest.approx(oracle.dp(1 + k), abs=1e-12)

        # contrived stable system: the ladder saturates the state box in one
        # backward step, a certified finite convergence
        S = Box(np.array([-2.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
        stable = LinearSystem([[0.5]], [[1.0]], [[0.0]],
                              HPolytope([[1.0], [-1.0]], [0.0, 0.0]), S)
        C_co_s, conv = max_invariant_set(collaborative(stable), tol=1e-10)
        assert conv
        rep = algorithm3(stable, C_co_s, interval(-0.5, 0.5), p0=0, k_max=10)
        assert rep.p_bar == 1
        assert set_equal(rep.ladder[-1], C_co_s, tol=1e-9)

        # randomized instances: whenever the ladder closes, replay the
        # equality certificate by mutual containment
        finite_found = 0
        for seed in range(6):
            s2 = build_2d_random(seed)
            cco2, conv = max_invariant_set(collaborative(s2), tol=1e-9)
            assert conv
            c12, conv = max_invariant_set(augment(s2, 1), tol=1e-9)
            assert conv
            p2 = project(c12, 2)
            rep2 = algorithm3(s2, cco2, p2, p0=1, k_max=30, eq_tol=1e-9)
            if math.isfinite(rep2.p_bar):
                finite_found += 1
                assert set_equal(rep2.ladder[-1], cco2, tol=1e-7), \
                    f"seed {seed}: ladder closed but equality fails"
            # either way the distances upper-bound the measured regret
            for k in (0, 1, 2):
                if k < len(rep2.distances):
                    actual = regret_dp(s2, 1 + k, cco2, tol=1e-8)
                    assert actual <= rep2.distances[k] + 1e-6
        print(f"  (finite-convergence instances among 6 seeds: {finite_found})")


def test_criterion_6_mpc():
    # seed 1 has a nonempty robust invariant set even without preview,
    # which the terminal constraint needs
    sys = build_2d_random(1)
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    with criterion(6, "feasible-domain route identity, sandwich, recursive "
                      "feasibility over 100 runs, and the terminal-set bound"):
        t0 = time.time()
        C, conv = max_invariant_set(sys, tol=1e-9)
        assert conv and not C.is_empty()

        # both routes to the feasible-domain projection agree: the full
        # domain of (x0, previews) is the p-step backward set of C x D^p
        # for the augmented system
        for p in (1, 2):
            dom = feasible_domain(sys, C, p=p)
            full = pre_k(augment(sys, p),
                         cartesian_product(C, power(sys.D, p)), k=p)
            proj_full = project(full, sys.n)
            assert set_equal(proj_full, dom.projection, tol=1e-6)
            Cp, conv = max_invariant_set(augment(sys, p), tol=1e-9)
            assert conv
            proj_cmax = project(Cp, sys.n)
            assert contains(proj_cmax, dom.projection, tol=1e-6)
            assert contains(C_co, proj_cmax, tol=1e-6)

        # closed loop: no infeasible step in 100 runs of 50 steps
        cfg = MpcConfig(p=2, C=C)
        rng = np.random.default_rng(0)
        box = scale(C, 0.98)
        infeasible = 0
        for run in range(100):
            stream = sample_disturbances(sys.D, 52, rng)
            x0 = None
            while x0 is None:
                cand = rng.uniform(-3, 3, size=sys.n)
                if box.contains_point(cand):
                    x0 = cand
            log = simulate_closed_loop(sys, cfg, x0, stream, T=50)
            assert len(log) == 50
            infeasible += sum(0 if rec["feasible"] else 1 for rec in log)
        assert infeasible == 0

        # terminal-anchored certificate dominates the measured gap
        cert = terminal_set_certificate(sys, C, C_max_co=C_co)
        co = collaborative(sys)
        ladder = C
        for p in range(1, 7):
            ladder = pre(co, ladder)
            gap = hausdorff_nested(ladder, C_co)
            assert gap <= bound_dp(cert, p) + 1e-6, f"p={p}"
        assert time.time() - t0 < 600.0


def test_criterion_7_contraction_inclusions(spine_1d):
    sys, _, C_co = spine_1d
    with criterion(7, "scaled backward-step inclusions and superadditivity "
                      "verified on the 1D instance"):
        t0 = time.time()
        co = collaborative(sys)
        gamma, lam, N = 0.5, 0.5, 1
        assert check_contractive(co, scale(C_co, gamma), N=N, lam=lam,
                                 tol=1e-9)
        thresh = lam * gamma
        a = (1.0 - gamma) / (1.0 - gamma * lam)
        b = gamma * (1.0 - lam) / (1.0 - gamma * lam)
        for xi in (0.5 * thresh, thresh, 2.0 * thresh):
            reach = pre_k(co, scale(C_co, xi), k=N)
            if xi <= thresh:
                expect = scale(C_co, xi / lam)
            else:
                expect = scale(C_co, a * xi + b)
            assert contains(reach, expect, tol=1e-9), f"xi={xi}"

        # superadditivity of the backward step under set splitting:
        # Pre(C, S) contains Pre(aC, bS) + Pre((1-a)C, (1-b)S); in one
        # dimension the Minkowski sum of intervals is the interval of sums
        def as_interval(P):
            return -support(P, [-1.0]), support(P, [1.0])

        def split_off(share):  # the system with safe set share * S
            return DeterministicSystem(co.A, co.B, scale(co.S_xu, share))

        for split in (0.3, 0.5, 0.7):
            whole = as_interval(pre(co, C_co))
            lo1, hi1 = as_interval(pre(split_off(split), scale(C_co, split)))
            lo2, hi2 = as_interval(pre(split_off(1.0 - split),
                                       scale(C_co, 1.0 - split)))
            assert lo1 + lo2 >= whole[0] - 1e-12
            assert hi1 + hi2 <= whole[1] + 1e-12
        assert time.time() - t0 < 60.0
