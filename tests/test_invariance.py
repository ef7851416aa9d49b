import numpy as np
import pytest

from preview_regret.invariance import (
    check_contractive,
    max_invariant_set,
    pre,
    pre_k,
    rcis_violation_witness,
)
from preview_regret.polytope import (
    Box,
    HPolytope,
    cartesian_product,
    contains,
    interval,
    scale,
    set_equal,
    support,
)
from preview_regret.systems import (
    LinearSystem,
    augment,
    collaborative,
)

from oracles import co_p, power, proj_p


def sys_1d(a=2.0, xbar=10.0, ubar=1.0, dbar=0.5):
    S = Box(np.array([-xbar, -ubar]), np.array([xbar, ubar])).to_polytope()
    return LinearSystem([[a]], [[1.0]], [[1.0]], interval(-dbar, dbar), S)


def radius(P):
    return support(P, np.ones(1) if P.dim == 1 else np.eye(P.dim)[0])


def test_pre_1d_robust():
    s = sys_1d()
    out = pre(s, interval(-1.0, 1.0))
    assert support(out, [1.0]) == pytest.approx(0.75, abs=1e-12)
    assert -support(out, [-1.0]) == pytest.approx(-0.75, abs=1e-12)


def test_pre_collaborative_of_origin():
    co = collaborative(sys_1d())
    zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
    out = pre(co, zero)
    assert support(out, [1.0]) == pytest.approx(0.75, abs=1e-12)


def test_pre_full_control_authority():
    # x+ = x + u with huge inputs: anything inside the state box stays reachable
    S = Box(np.array([-1.0, -100.0]), np.array([1.0, 100.0])).to_polytope()
    s = LinearSystem([[1.0]], [[1.0]], [[0.0]],
                     HPolytope([[1.0], [-1.0]], [0.0, 0.0]), S)
    X = interval(-1.0, 1.0)
    assert set_equal(pre(s, X), X, tol=1e-9)


def test_pre_reduces_when_no_input_is_eliminated():
    # x+ = 0.5 x + d with no input: no coordinate is projected away, and
    # the stacked rows of X and S_xu still reduce to an irredundant set
    s = LinearSystem([[0.5]], np.zeros((1, 0)), [[1.0]],
                     interval(-0.1, 0.1), interval(-1.0, 1.0))
    out = pre(s, interval(-1.0, 1.0))
    assert out.num_rows == 2 and set_equal(out, interval(-1.0, 1.0))
    C, converged = max_invariant_set(augment(s, 2))
    assert converged and C.num_rows == 6


def test_pre_k_matches_interval_map():
    co = collaborative(sys_1d())
    zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
    two = pre_k(co, zero, k=2)
    assert support(two, [1.0]) == pytest.approx(1.125, abs=1e-12)
    one = pre_k(co, zero, k=1)
    assert set_equal(one, pre(co, zero), tol=1e-12)


def test_pre_monotone():
    rng = np.random.default_rng(4)
    s = sys_1d()
    for _ in range(5):
        a = rng.uniform(0.2, 1.0)
        b = a + rng.uniform(0.1, 1.0)
        small, big = interval(-a, a), interval(-b, b)
        assert contains(pre(s, big), pre(s, small), tol=1e-9)


def test_max_invariant_set_1d_no_preview():
    C, conv = max_invariant_set(sys_1d(), tol=1e-10)
    assert conv
    assert support(C, [1.0]) == pytest.approx(0.5, abs=1e-9)


def test_max_invariant_set_collaborative():
    C, conv = max_invariant_set(collaborative(sys_1d()), tol=1e-10)
    assert conv
    assert support(C, [1.0]) == pytest.approx(1.5, abs=1e-9)


def test_max_invariant_set_empty():
    # stronger disturbance than input authority: no robust invariant set
    C, conv = max_invariant_set(sys_1d(ubar=0.3, dbar=0.5), tol=1e-9)
    assert conv
    assert C.is_empty()


def test_invariance_certificate():
    s = sys_1d()
    C, conv = max_invariant_set(s, tol=1e-9)
    assert conv and rcis_violation_witness(s, C, tol=1e-7) is None
    co = collaborative(s)
    Cco, _ = max_invariant_set(co, tol=1e-9)
    assert rcis_violation_witness(co, Cco, tol=1e-7) is None


def test_rcis_witness():
    s = sys_1d()
    bad = interval(-3.0, 3.0)  # too big to be invariant
    w = rcis_violation_witness(s, bad)
    assert w is not None
    good = interval(-0.5, 0.5)
    assert rcis_violation_witness(s, good, tol=1e-9) is None
    # a row unbounded over the set breaks its bound
    half_line = HPolytope([[1.0]], [0.5])
    w = rcis_violation_witness(s, half_line)
    assert w is not None and half_line.contains_point(w)
    assert not pre(s, half_line).contains_point(w, tol=1e-7)


def test_rcis_witness_reads_the_vertex_list(monkeypatch):
    import preview_regret.invariance as inv
    import preview_regret.polytope as poly
    from preview_regret.models import build_2d_random
    from preview_regret.polytope import remove_redundancy

    s = build_2d_random(1)
    C, conv = max_invariant_set(s, tol=1e-9)
    assert conv
    big = remove_redundancy(scale(C, 1.5))  # larger than the maximal set
    assert big._verts is not None
    P = pre(s, big)
    lps = []
    real = poly.solve_lp_fast
    with monkeypatch.context() as mp:  # count the witness's own LPs only
        mp.setattr(inv, "pre", lambda *a, **k: P)
        mp.setattr(poly, "solve_lp_fast",
                   lambda *a, **k: lps.append(1) or real(*a, **k))
        w = rcis_violation_witness(s, big)
    assert lps == []
    assert w is not None and big.contains_point(w)
    assert not P.contains_point(w, tol=1e-7)
    assert any(np.allclose(w, v) for v in big._verts)
    assert rcis_violation_witness(s, HPolytope(big.H, big.h)) is not None
    assert rcis_violation_witness(s, C, tol=1e-7) is None


def test_cmax_p_co_1d_closed_form():
    s = sys_1d()
    C_co, _ = max_invariant_set(collaborative(s), tol=1e-10)
    C1 = co_p(s, 1, C_co)
    # {|d| <= 0.5, |2x + d| <= 2.5}
    assert support(C1, [1.0, 0.0]) == pytest.approx(1.5, abs=1e-9)
    assert support(C1, [2.0, 1.0]) == pytest.approx(2.5, abs=1e-9)
    assert support(C1, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-9)


def test_cmax_p_co_equals_direct_fixed_point():
    s = sys_1d()
    C_co, _ = max_invariant_set(collaborative(s), tol=1e-10)
    for p in (1, 2):
        via_formula = co_p(s, p, C_co)
        direct, conv = max_invariant_set(collaborative(augment(s, p)),
                                         tol=1e-10)
        assert conv
        assert set_equal(via_formula, direct, tol=1e-8)


def test_cmax_p_co_product_containment():
    s = sys_1d()
    C_co, _ = max_invariant_set(collaborative(s), tol=1e-10)
    for p in (1, 2):
        Cp = co_p(s, p, C_co)
        outer = cartesian_product(C_co, power(s.D, p))
        assert contains(outer, Cp, tol=1e-8)


def test_check_contractive_cases():
    co = collaborative(sys_1d())
    zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
    assert check_contractive(co, zero, N=1, lam=0.0)
    C, _ = max_invariant_set(co, tol=1e-10)
    # lam = 1 reduces to the plain invariance check
    assert check_contractive(co, C, N=1, lam=1.0, tol=1e-7)
    # gamma C is 1-step lam-contractive iff (gamma*lam*1.5+1.5)/2 >= gamma*1.5
    gam, lam = 0.5, 0.5
    assert check_contractive(co, scale(C, gam), N=1, lam=lam, tol=1e-9)


def test_sandwich_1d():
    s = sys_1d()
    C_co, _ = max_invariant_set(collaborative(s), tol=1e-10)
    C1, conv1 = max_invariant_set(augment(s, 1), tol=1e-10)
    C2, conv2 = max_invariant_set(augment(s, 2), tol=1e-10)
    assert conv1 and conv2
    # C_1 x D ⊆ C_2 ⊆ C_{1,co} x D
    inner = cartesian_product(C1, s.D)
    outer = cartesian_product(co_p(s, 1, C_co), s.D)
    assert contains(C2, inner, tol=1e-8)
    assert contains(outer, C2, tol=1e-8)
    # inner product bound is itself an RCIS of the augmented system
    assert rcis_violation_witness(augment(s, 2), inner, tol=1e-7) is None


def test_proj_ladder_lemma():
    # backward steps of the projection stay inside the next projections
    s = sys_1d()
    co = collaborative(s)
    C_co, _ = max_invariant_set(co, tol=1e-10)
    from preview_regret.polytope import project

    proj1 = project(max_invariant_set(augment(s, 1), tol=1e-10)[0], 1)
    for k in (1, 2):
        stepped = pre_k(co, proj1, k=k)
        projk = project(max_invariant_set(augment(s, 1 + k), tol=1e-10)[0], 1)
        assert contains(projk, stepped, tol=1e-8)
        assert contains(C_co, projk, tol=1e-8)


@pytest.mark.parametrize("which", ["1d", "2d_p2"])
def test_max_invariant_set_one_reduction_per_eliminated_input(which,
                                                              monkeypatch):
    # the fixed point reduces once per eliminated input coordinate: m for
    # proj_x(S) and m for every pre step, with no reduction of its own
    import preview_regret.invariance as inv
    import preview_regret.polytope as poly
    from preview_regret.models import build_1d, build_2d_random

    s = build_1d()[0] if which == "1d" else augment(build_2d_random(0), 2)
    reductions, pres = [], []

    def counting(real, log):
        def wrapped(*args, **kwargs):
            log.append(1)
            return real(*args, **kwargs)
        return wrapped

    for mod in (poly, inv):  # a direct import in invariance counts too
        if hasattr(mod, "remove_redundancy"):
            monkeypatch.setattr(mod, "remove_redundancy",
                                counting(mod.remove_redundancy, reductions))
    monkeypatch.setattr(inv, "pre", counting(inv.pre, pres))
    C, conv = max_invariant_set(s, tol=1e-9)
    assert conv and not C.is_empty()
    assert len(pres) >= 2
    assert len(reductions) == s.m * (len(pres) + 1)


def test_max_invariant_set_one_lp_per_reduction(monkeypatch):
    # the erosion by D and the convergence test read vertex lists, and each
    # backward step reuses the previous iterate's ball as interior point,
    # so the only LPs left are two Chebyshev LPs: the reduction of
    # X_0 = proj_x(S), and that of X_1, in which X_0's center (radius 1.79)
    # keeps a radius of only 0.79, under half
    import preview_regret.polytope as poly
    from preview_regret.models import build_2d_random

    s = build_2d_random(1)
    lps, supports, reductions = [], [], []

    def counting(real, log):
        def wrapped(*args, **kwargs):
            log.append(1)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(poly, "solve_lp_fast",
                        counting(poly.solve_lp_fast, lps))
    monkeypatch.setattr(poly, "_support_lp",
                        counting(poly._support_lp, supports))
    monkeypatch.setattr(poly, "remove_redundancy",
                        counting(poly.remove_redundancy, reductions))
    C, conv = max_invariant_set(s)
    assert conv and not C.is_empty() and C._verts is not None
    assert len(reductions) >= 2
    assert len(lps) == 2
    assert supports == []


def _count_calls(mp, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    mp.setattr(module, name, counting)
    return calls


def test_project_of_a_reduced_set_solves_no_lp(monkeypatch):
    # the maximal set carries its ball, and each elimination hands it on
    import preview_regret.polytope as poly
    from preview_regret.models import build_2d_random
    from preview_regret.polytope import project

    C, conv = max_invariant_set(augment(build_2d_random(1), 3))
    assert conv and C._cheby is not None
    calls = _count_calls(monkeypatch, poly, "solve_lp_fast")
    out = project(C, 2)
    assert calls == []
    bare = project(HPolytope(C.H, C.h), 2)
    assert len(calls) == 1  # only the first elimination solves for a ball
    assert set_equal(out, bare)


def test_wind_turbine_fixed_point_never_reaches_highs(monkeypatch):
    # the largest reductions the package makes: 400+ rows went to HiGHS
    # when each one solved its own Chebyshev LP
    import preview_regret.polytope as poly
    import preview_regret.solver as solver
    from preview_regret.models import build_template

    highs = _count_calls(monkeypatch, solver, "_scipy_lp")
    calls = _count_calls(monkeypatch, poly, "solve_lp_fast")
    C, conv = max_invariant_set(augment(build_template("wind_turbine")[0], 4))
    assert conv and not C.is_empty()
    assert highs == []
    assert len(calls) == 1


def test_pre_stays_inside_state_projection_of_safe_set():
    # pre(X) ⊆ proj_x(S) for any X: why the fixed point needs no
    # intersection with its starting set
    from preview_regret.models import build_1d, build_2d_random
    from preview_regret.polytope import project

    rng = np.random.default_rng(0)
    systems = [build_1d()[0], build_2d_random(0), build_2d_random(3),
               augment(build_2d_random(1), 1)]
    for s in systems:
        X0 = project(s.S_xu, s.n)
        for _ in range(5):
            c = rng.uniform(-2.0, 2.0, size=s.n)
            w = rng.uniform(0.1, 4.0, size=s.n)
            X = Box(c - w, c + w).to_polytope()
            assert contains(X0, pre(s, X), tol=1e-9)


def test_carried_incidence_reduces_like_the_hull(monkeypatch):
    # every reduction certified by the previous iterate's incidence gives
    # the hull's rows byte for byte and its vertices to round-off, and the
    # fixed point takes the same steps to the same set without it
    import preview_regret.invariance as inv
    import preview_regret.polytope as poly
    from preview_regret.models import build_2d_random

    s = augment(build_2d_random(1), 3)
    warm = poly._reduce_by_incidence
    hits = []

    def checked(H, h, incidence, norms):
        out = warm(H, h, incidence, norms)
        if out is not None:
            cold = poly.remove_redundancy(HPolytope(H, h))
            assert out[0].tobytes() == cold.H.tobytes()
            assert out[1].tobytes() == cold.h.tobytes()
            V, W = out[2], cold._verts
            assert V.shape == W.shape
            gap = np.linalg.norm(V[:, None, :] - W[None, :, :], axis=2)
            tol = 1e-12 * max(1.0, np.max(np.abs(W)))
            assert max(np.max(np.min(gap, axis=0)),
                       np.max(np.min(gap, axis=1))) <= tol
            hits.append(1)
        return out

    def run(reduce_by_incidence):
        monkeypatch.setattr(poly, "_reduce_by_incidence", reduce_by_incidence)
        steps = _count_calls(monkeypatch, inv, "pre")
        C, conv = max_invariant_set(s)
        monkeypatch.undo()
        return C, conv, len(steps)

    C, conv, steps = run(checked)
    assert conv and len(hits) >= steps // 2
    C_cold, conv_cold, steps_cold = run(lambda H, h, incidence, norms: None)
    assert conv_cold and steps == steps_cold
    assert C.H.tobytes() == C_cold.H.tobytes()
    assert C.h.tobytes() == C_cold.h.tobytes()


def test_pre_k_replays_a_repeating_set(monkeypatch):
    # the backward steps of build_2d_random(1)'s p0 = 1 projection repeat
    # their rows, offsets and ball byte for byte within a few steps; from
    # there on the set is replayed without calling pre
    import preview_regret.invariance as inv
    from preview_regret.models import build_2d_random
    from preview_regret.polytope import project

    s = build_2d_random(1)
    co = collaborative(s)
    C_1, conv = max_invariant_set(augment(s, 1), tol=1e-8)
    assert conv
    proj1 = project(C_1, s.n)
    steps = _count_calls(monkeypatch, inv, "pre")
    got = pre_k(co, proj1, k=50)
    monkeypatch.undo()
    assert len(steps) <= 4
    want = proj1
    for _ in range(50):
        want = pre(co, want)
    assert got.H.tobytes() == want.H.tobytes()
    assert got.h.tobytes() == want.h.tobytes()


def test_max_invariant_set_returns_pre_of_a_byte_repeat(monkeypatch):
    # the collaborative fixed point of build_2d_random(1) stops at step 2,
    # where pre returns its input's rows and offsets byte for byte; the
    # result is pre's own set, whose vertex list differs from its
    # predecessor's in round-off
    import preview_regret.invariance as inv
    from preview_regret.models import build_2d_random
    from preview_regret.polytope import first_violation, project, vertices

    co = collaborative(build_2d_random(1))
    steps = _count_calls(monkeypatch, inv, "pre")
    C, conv = max_invariant_set(co, tol=1e-8)
    monkeypatch.undo()
    assert conv and len(steps) == 2

    X = project(HPolytope(co.S_xu.H, co.S_xu.h), co.n)
    while True:
        X_next = pre(co, X)
        bound = X_next.h + 1e-8 * np.linalg.norm(X_next.H, axis=1)
        if first_violation(X, X_next.H, bound) is None:
            break
        X = X_next
    assert X_next.H.tobytes() == X.H.tobytes()
    assert X_next.h.tobytes() == X.h.tobytes()
    assert vertices(C).tobytes() == vertices(X_next).tobytes()
    assert vertices(C).tobytes() != vertices(X).tobytes()


def _chain(name):
    """The collaborative system and the p0 = 1 projection of build_1d() or
    build_2d_random(1): the start of algorithm3's ladder."""
    from preview_regret.models import build_1d, build_2d_random

    s = build_1d()[0] if name == "1d" else build_2d_random(1)
    return collaborative(s), proj_p(s, 1, 1e-8)


@pytest.mark.parametrize("name", ["1d", "2d-1"])
def test_steady_collaborative_steps_solve_no_chebyshev_lp(name, monkeypatch):
    # each step eliminates u and d; the first elimination reuses the ball
    # of the matching reduction of the step before, not only the last one
    co, X = _chain(name)
    X = pre(co, pre(co, X))
    calls = _count_calls(monkeypatch, HPolytope, "chebyshev_center")
    for _ in range(6):
        X = pre(co, X)
    assert calls == []


def _same_rows_and_vertices(R, cold):
    assert R.H.tobytes() == cold.H.tobytes()
    assert R.h.tobytes() == cold.h.tobytes()
    V, W = R._verts, cold._verts
    assert V.shape == W.shape
    gap = np.linalg.norm(V[:, None, :] - W[None, :, :], axis=2)
    tol = 1e-12 * max(1.0, np.max(np.abs(W)))
    assert max(np.max(np.min(gap, axis=0)), np.max(np.min(gap, axis=1))) <= tol


@pytest.mark.parametrize("name", ["1d", "2d-1"])
def test_records_change_no_rows(name):
    # pre of an iterate with its records, and of a bare copy of its rows
    co, X = _chain(name)
    for _ in range(8):
        warm = pre(co, X)
        _same_rows_and_vertices(warm, pre(co, HPolytope(X.H, X.h)))
        X = warm


def test_a_record_from_another_order_or_dimension_is_ignored(monkeypatch):
    # the 1-D collaborative step eliminates coordinates 1 and 2 of (x, u, d)
    co, X = _chain("1d")
    X = pre(co, pre(co, X))
    (key, pair), = X._offer.items()
    dim, (gone,) = key
    cold = pre(co, HPolytope(X.H, X.h))
    calls = _count_calls(monkeypatch, HPolytope, "chebyshev_center")
    for offer in ({(dim, (3 - gone,)): pair}, {(dim + 1, (gone,)): pair},
                  {(dim - 1, (gone,)): (None, None)}):
        X._offer = offer
        del calls[:]
        R = pre(co, X)
        assert len(calls) == 1
        assert R.H.tobytes() == cold.H.tobytes()
        assert R.h.tobytes() == cold.h.tobytes()
    X._offer = {key: pair}
    del calls[:]
    pre(co, X)
    assert calls == []


def _iterates(s, k):
    """X_0..X_k of the fixed point of s."""
    from itertools import islice

    from preview_regret.invariance import backward_reach
    from preview_regret.polytope import project

    X0 = project(HPolytope(s.S_xu.H, s.S_xu.h), s.n)
    return list(islice(backward_reach(s, X0), k + 1))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("p", [3, 4])
def test_preview_prefix_identity(seed, p, monkeypatch):
    # X^(p)_k = X^(p-1)_k x D for k <= p - 1, and not at k = p;
    # regret_curve starts horizon p at the (p-1) run's iterate p - 1 times D
    import preview_regret.regret as regret
    from preview_regret.models import build_2d_random

    s = build_2d_random(seed)
    below, here = _iterates(augment(s, p - 1), p), _iterates(augment(s, p), p)
    for k in range(p + 1):
        X = cartesian_product(below[k], s.D)
        assert set_equal(here[k], X) == (k < p)
        if k < p:  # the listed pairs are the vertices of the product
            V, W = X._verts, here[k]._verts
            gap = np.linalg.norm(V[:, None, :] - W[None, :, :], axis=2)
            assert max(np.max(np.min(gap, axis=0)),
                       np.max(np.min(gap, axis=1))) <= 1e-9

    class Resumed(Exception):
        pass

    converged = []

    def spy(sys, prefix=None, **kwargs):
        if prefix is not None and prefix.X is not None:
            raise Resumed(prefix.upto, prefix.k, prefix.X, prefix.stopped)
        out = max_invariant_set(sys, prefix=prefix, **kwargs)
        converged.append(out[1])
        return out

    monkeypatch.setattr(regret, "max_invariant_set", spy)
    with pytest.raises(Resumed) as resumed:
        regret.regret_curve(s, p0=p - 1, p_max=p, methods=(), tol=1e-8)
    assert converged[-1]  # the (p-1)-preview run
    upto, k, X, stopped = resumed.value.args
    assert upto == p and k == p - 1 and not stopped
    assert set_equal(here[k], X)


@pytest.mark.parametrize("kwargs, match", [
    ({"tol": float("nan")}, "tol must be finite and nonnegative"),
    ({"tol": float("inf")}, "tol must be finite and nonnegative"),
    ({"tol": -1e-9}, "tol must be finite and nonnegative"),
    ({"max_iter": -1}, "max_iter must be nonnegative"),
])
def test_max_invariant_set_rejects_a_bad_tol_or_max_iter(kwargs, match):
    with pytest.raises(ValueError, match=match):
        max_invariant_set(sys_1d(), **kwargs)
