import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preview_regret.polytope import HPolytope, interval, unit_box
from preview_regret.solver import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    NotPositiveDefiniteError,
    NotStabilizableError,
    SolverError,
    _row_scales,
    cholesky,
    dare_residual,
    is_controllable,
    is_stabilizable,
    project_point,
    solve_dare,
    solve_lp_fast,
    solve_qp,
    spectral_radius,
)


def test_lp_single_active_constraint():
    sol = solve_lp_fast([1.0], np.array([[-1.0]]), np.array([-1.0]))
    assert sol.status == OPTIMAL
    assert sol.point[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_lp_contradictory_bounds_infeasible():
    sol = solve_lp_fast([1.0], np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert sol.status == INFEASIBLE
    assert sol.point is None


def test_lp_box_vertex():
    # oracle: enumerate the box corners
    corners = [np.array([x, y]) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    best = min(-(c[0] + c[1]) for c in corners)
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    sol = solve_lp_fast([-1.0, -1.0], A, b)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(best, abs=1e-9)
    assert np.allclose(sol.point, [1.0, 1.0], atol=1e-9)


def test_lp_unbounded():
    sol = solve_lp_fast([-1.0], np.array([[-1.0]]), np.array([0.0]))
    assert sol.status == UNBOUNDED


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_lp_feasibility_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 25))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m) + 1.5
    c = rng.normal(size=n)
    sol = solve_lp_fast(c, A, b)
    if sol.status == OPTIMAL:
        assert np.all(A @ sol.point <= b + 1e-8)


def test_project_point_interval():
    closest, dist = project_point([0.0], interval(1.0, 2.0))
    assert closest[0] == pytest.approx(1.0, abs=1e-10)
    assert dist == pytest.approx(1.0, abs=1e-10)


def test_project_point_inside():
    closest, dist = project_point([0.3, -0.2], unit_box(2))
    assert dist == 0.0
    assert np.allclose(closest, [0.3, -0.2])


def test_project_point_corner():
    closest, dist = project_point([1.5, 1.5], unit_box(2))
    assert np.allclose(closest, [1.0, 1.0], atol=1e-9)
    assert dist == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_project_point_empty():
    from preview_regret.polytope import EmptyPolytopeError

    with pytest.raises(EmptyPolytopeError):
        project_point([0.0], HPolytope([[1.0], [-1.0]], [-1.0, -1.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_project_point_box_clamp_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    unit = 10.0 ** int(rng.integers(0, 7))  # the residual check must scale with the data
    lo = rng.normal(size=n) * unit
    hi = lo + (np.abs(rng.normal(size=n)) + 0.1) * unit
    pt = rng.normal(size=n) * 3.0 * unit
    H = np.vstack([np.eye(n), -np.eye(n)])
    h = np.r_[hi, -lo]
    closest, dist = project_point(pt, HPolytope(H, h))
    expect = np.clip(pt, lo, hi)
    assert np.allclose(closest, expect, atol=1e-8)
    assert dist == pytest.approx(np.linalg.norm(pt - expect), abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_project_point_supporting_hyperplane(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    dirs = rng.normal(size=(8, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    P = HPolytope(dirs, rng.uniform(0.3, 1.5, size=8))
    pt = rng.normal(size=n) * 4.0
    closest, dist = project_point(pt, P)
    # optimality certificate: (pt - closest) . (y - closest) <= tol for y in P
    for _ in range(20):
        y = rng.normal(size=n)
        lam = 1.0
        while not P.contains_point(y * lam) and lam > 1e-6:
            lam *= 0.5
        y = y * lam
        assert (pt - closest) @ (y - closest) <= 1e-7 * (1.0 + dist)


def test_project_point_at_zero_distance_sets_up_no_qp(monkeypatch):
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-2, 3, size=(12, 1))
    P = HPolytope(dirs, rng.uniform(0.5, 2.0, size=12))
    scale = _row_scales(P.H)
    points = [np.zeros(3), P.chebyshev_center()[0]]
    for i in range(3):  # on a facet, then just inside solve_qp's tolerance
        on = P.h[i] / (P.H[i] @ P.H[i]) * P.H[i]
        if np.all((P.H @ on - P.h) / scale <= 1e-12):
            points += [on, on + 5e-13 * scale[i] * P.H[i] / (P.H[i] @ P.H[i])]
    assert len(points) > 2

    def no_qr(*args, **kwargs):
        raise AssertionError("a zero-distance projection factored rows")

    # solve_qp leaves at its first exit: no QR, and the point comes back
    # as a new array equal to it bit for bit, which an added row would move
    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for pt in points:
        closest, dist = project_point(pt, P)
        assert dist == 0.0
        assert closest is not pt
        assert [v.hex() for v in closest] == [v.hex() for v in pt]


def test_qp_paths_solve_no_lp(monkeypatch):
    from preview_regret import solver
    from preview_regret.invariance import max_invariant_set
    from preview_regret.models import build_template
    from preview_regret.mpc import MpcConfig, mpc_step

    sys = build_template("wind_turbine")[0]
    C, converged = max_invariant_set(sys, tol=1e-9)
    assert converged
    center, _ = C.chebyshev_center()
    preview = np.array([[0.1], [-0.2], [0.0], [0.3]])
    assert all(sys.D.contains_point(d) for d in preview)

    def no_lp(*args, **kwargs):
        raise AssertionError("the QP path solved an LP")

    monkeypatch.setattr(solver, "solve_lp_fast", no_lp)
    test_project_point_inside()
    test_project_point_corner()
    test_project_point_empty()
    u0, us, feasible = mpc_step(sys, MpcConfig(p=4, C=C), center, preview)
    assert feasible and us.shape == (4, sys.m)
    assert np.array_equal(u0, us[0])
    x = center
    for t in range(4):  # the plan's nominal rollout ends in the terminal set
        x = sys.step(x, us[t], preview[t])
    assert np.all(C.H @ x <= C.h + 1e-9)


def test_lp_over_400_rows_goes_through_highs_once(monkeypatch):
    # 500 tangent lines of the unit circle: the Chebyshev LP has 501 rows,
    # past the dense simplex, and is the one route left to HiGHS
    from preview_regret import solver

    calls = []
    real = solver._scipy_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_scipy_lp", counting)
    t = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
    P = HPolytope(np.c_[np.cos(t), np.sin(t)], np.ones(500))
    center, radius = P.chebyshev_center()
    assert len(calls) == 1
    assert radius == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(center)) <= 1e-9


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_lp_past_60_variables_reports_the_status_of_highs(monkeypatch,
                                                          status):
    # 61 variables are past the dense simplex, so HiGHS alone decides, and
    # its statuses come back as they are
    from preview_regret import solver

    calls = []
    real = solver._scipy_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_scipy_lp", counting)
    n = 61
    if status == INFEASIBLE:  # x <= -1 and x >= 0
        A = np.vstack([np.eye(n), -np.eye(n)])
        b, c = np.r_[-np.ones(n), np.zeros(n)], np.zeros(n)
    else:  # min -sum(x) over x >= -1
        A, b, c = -np.eye(n), np.ones(n), -np.ones(n)
    sol = solve_lp_fast(c, A, b)
    assert sol.status == status and sol.point is None
    assert len(calls) == 1


@pytest.mark.parametrize("shift", [(1e-6, 0.0, 0.0), (0.0, -1e-6, 0.0),
                                   (0.0, 0.0, 1e-6)],
                         ids=["row", "sign", "equality"])
def test_lp_answer_failing_its_residual_goes_through_highs_once(monkeypatch,
                                                                shift):
    # min -x0 + x1 s.t. x0 <= 1, x2 = x0, x1 >= 0 has the optimum (1, 0, 1);
    # an OPTIMAL simplex answer moved off it breaks one of the three, each
    # written as rows of A x <= b
    from preview_regret import solver

    calls = []
    real_lp, real_simplex = solver._scipy_lp, solver._simplex

    def counting(*args, **kwargs):
        calls.append(1)
        return real_lp(*args, **kwargs)

    def perturbed(c, *args, **kwargs):
        status, x, _ = real_simplex(c, *args, **kwargs)
        assert status == OPTIMAL
        x = x + np.array(shift)
        return status, x, float(c @ x)

    monkeypatch.setattr(solver, "_scipy_lp", counting)
    A = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0],
                  [0.0, -1.0, 0.0]])
    args = (np.array([-1.0, 1.0, 0.0]), A, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(solve_lp_fast(*args).point, [1, 0, 1])
    assert not calls
    monkeypatch.setattr(solver, "_simplex", perturbed)
    sol = solve_lp_fast(*args)
    assert len(calls) == 1
    assert sol.status == OPTIMAL
    assert np.allclose(sol.point, [1.0, 0.0, 1.0], atol=1e-9)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_qp_rejects_what_it_cannot_solve():
    # x <= -1 and -x <= -1: the second row depends on the first, whose
    # multiplier cannot be dropped
    A = np.array([[1.0], [-1.0]])
    x, status = solve_qp(np.zeros(1), A, np.array([-1.0, -1.0]),
                         _row_scales(A))
    assert (x, status) == (None, INFEASIBLE)


@pytest.mark.parametrize("drift, fails", [(1e-2, True), (1e-11, True),
                                           (2e-12, False)])
def test_qp_residual_check_catches_a_drifting_active_row(monkeypatch, drift,
                                                         fails):
    # a QR factor whose second column leans on the first by `drift`: adding
    # row 2 then moves x off row 1, which was active. Its residual is about
    # drift, and the check allows 1e-12 * (1 + (|a|.|x| + |b|) / scale) =
    # 3e-12 here: 1e-11 fails it, 2e-12 is above 1e-12 and still passes
    real = np.linalg.qr

    def leaning_qr(a, mode="reduced"):
        Q, R = real(a, mode=mode)
        Q = Q.copy()
        Q[:, 1] -= drift * Q[:, 0]
        return Q, R

    monkeypatch.setattr(np.linalg, "qr", leaning_qr)
    A = np.eye(2)
    if fails:
        with pytest.raises(SolverError, match="fails its residual check"):
            solve_qp(np.zeros(2), A, [-1.0, -1.0], _row_scales(A))
    else:
        x, status = solve_qp(np.zeros(2), A, [-1.0, -1.0], _row_scales(A))
        assert status == OPTIMAL
        assert 1e-12 < x[0] + 1.0 <= 3e-12


def _brute_force_qp(G, c, A, b):
    """Optimal objective by enumerating active sets that satisfy KKT, or
    None when no active set does (the QP is infeasible)."""
    n = c.shape[0]
    best = None
    for mask in range(1 << A.shape[0]):
        S = [i for i in range(A.shape[0]) if mask >> i & 1]
        N = A[S]
        if np.linalg.matrix_rank(N) < N.shape[0]:
            continue
        K = np.block([[G, N.T], [N, np.zeros((N.shape[0], N.shape[0]))]])
        sol = np.linalg.solve(K, np.r_[-c, b[S]])
        x, mu = sol[:n], sol[n:]
        if np.all(A @ x <= b + 1e-9) and np.all(mu >= -1e-9):
            obj = 0.5 * x @ G @ x + c @ x
            assert best is None or abs(obj - best) <= 1e-9
            best = obj
    return best


def test_qp_matches_active_set_enumeration():
    statuses = []
    for seed in range(300):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 9))
        F = rng.normal(size=(n, n))
        G = F @ F.T + 0.1 * np.eye(n)
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + rng.uniform(-1.0, 2.0)
        expect = _brute_force_qp(G, c, A, b)
        # whiten G = LL': x = L^-T y turns the QP into a least-distance one
        Linv = np.linalg.inv(np.linalg.cholesky(G))
        AL = A @ Linv.T
        y, status = solve_qp(Linv @ c, AL, b, _row_scales(AL))
        statuses.append(status)
        if expect is None:
            assert status == INFEASIBLE and y is None
        else:
            assert status == OPTIMAL
            x = Linv.T @ y
            assert 0.5 * x @ G @ x + c @ x == pytest.approx(expect, rel=1e-9, abs=1e-9)
    assert statuses.count(INFEASIBLE) >= 30
    assert statuses.count(OPTIMAL) >= 150


def _random_qp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 12))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m) + rng.uniform(-1.0, 2.0)
    return rng, 2.0 * rng.normal(size=n), A, b


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_qp_kkt_and_invariance_under_row_scaling_and_order(seed):
    rng, c, A, b = _random_qp(seed)
    scale = _row_scales(A)
    x, status = solve_qp(c, A, b, scale)
    if status == OPTIMAL:
        # solve_qp's own residual check, with the rounding of each row
        slack = 1e-12 * (1.0 + (np.abs(A) @ np.abs(x) + np.abs(b)) / scale)
        assert np.all((A @ x - b) / scale <= slack)
        # stationarity x + c = -A_W' mu on the active rows, each entry
        # within the rounding of its terms, with mu >= 0
        AW = A[np.abs(A @ x - b) <= 1e-9 * scale]
        mu = (np.linalg.lstsq(AW.T, -(x + c), rcond=None)[0] if AW.shape[0]
              else np.zeros(0))
        terms = np.abs(x) + np.abs(c) + np.abs(AW.T) @ np.abs(mu)
        assert np.all(np.abs(x + c + AW.T @ mu) <= 1e-9 * (1.0 + terms))
        assert np.all(mu >= -1e-9)
    else:
        assert status == INFEASIBLE and x is None
    # each row and its offset scaled by 10^k, then the rows permuted
    s = 10.0 ** rng.integers(-3, 4, size=A.shape[0])
    perm = rng.permutation(A.shape[0])
    A2 = (s[:, None] * A)[perm]
    x2, status2 = solve_qp(c, A2, (s * b)[perm], _row_scales(A2))
    assert status2 == status
    if status == OPTIMAL:
        assert np.max(np.abs(x2 - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_qp_feasible_start_comes_back_bit_for_bit(seed):
    rng, c, A, _ = _random_qp(seed)
    m = A.shape[0]
    A *= 10.0 ** rng.integers(-3, 4, size=(m, 1))
    # -c satisfies every row, some of them with equality
    b = A @ -c + rng.uniform(0.0, 1.0, size=m) * (rng.random(m) < 0.7)
    x, status = solve_qp(c, A, b, _row_scales(A))
    assert status == OPTIMAL
    assert np.array_equal(x, -c)


def _reference_qp(c, A_ub, b_ub, scale):
    """solve_qp's loop as it stood before its early exit and its QR-free
    first row: every step, the first included, takes the QR factors of the
    active rows. The bit-for-bit reference of test_qp_matches_its_reference_loop."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    A = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b = np.atleast_1d(np.asarray(b_ub, dtype=float))
    W = []  # active rows
    x = -c
    mu = np.zeros(0)  # multipliers of the active rows
    for _ in range(50 * (n + b.shape[0] + 1)):
        res = A @ x
        res -= b
        res /= scale
        viol = res
        if W:
            viol = res.copy()
            viol[W] = -np.inf
        q = int(viol.argmax()) if viol.size else -1
        if q < 0 or viol[q] <= 1e-12:
            if (res > 1e-12).any():
                slack = 1e-12 * (1.0 + (np.abs(A) @ np.abs(x) + np.abs(b))
                                 / scale)
                if (res > slack).any():
                    raise SolverError("QP solution fails its residual check")
            return x, OPTIMAL
        t_q = 0.0
        while True:
            k = len(W)
            Q, R = np.linalg.qr(A[W].T, mode="complete")
            w = Q.T @ A[q]
            r = -np.linalg.solve(R[:k], w[:k])
            dependent = np.linalg.norm(w[k:]) <= 1e-12 * np.linalg.norm(A[q])
            t_add = np.inf if dependent else (A[q] @ x - b[q]) / (w[k:] @ w[k:])
            t_drop, j = min(((-mu[i] / r[i], i) for i in range(k) if r[i] < 0),
                            default=(np.inf, -1))
            if dependent and j < 0:
                return None, INFEASIBLE
            t = min(t_add, t_drop)
            x = x - t * (Q[:, k:] @ w[k:])
            mu = mu + t * r
            t_q += t
            if t_add <= t_drop:
                W.append(q)
                mu = np.append(mu, t_q)
                break
            W.pop(j)
            mu = np.delete(mu, j)
    raise SolverError("dual active-set QP did not converge")


def _reference_cases():
    """Seeded least-distance QPs with n <= 6 and m <= 12, in four kinds:
    general, a satisfied start (-c meets every row, some with equality),
    duplicate rows, and a zero row with a negative offset, which no x
    meets. Every fifth case with rows is passed as lists."""
    for seed in range(240):
        rng = np.random.default_rng([27, seed])
        kind = seed % 4
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 10 if kind == 2 else 13))
        A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-2, 3, size=(m, 1))
        c = 2.0 * rng.normal(size=n)
        b = rng.normal(size=m) + rng.uniform(-1.0, 2.0)
        if kind == 1:
            b = A @ -c + rng.uniform(0.0, 1.0, size=m) * (rng.random(m) < 0.7)
        elif kind == 2 and m:
            dup = rng.integers(0, m, size=int(rng.integers(1, 4)))
            A, b = np.vstack([A, A[dup]]), np.r_[b, b[dup]]
        elif kind == 3:
            A = np.vstack([A, np.zeros((1, n))])
            b = np.r_[b, -rng.uniform(0.1, 2.0)]
        scale = _row_scales(A)
        if seed % 5 == 0 and A.shape[0]:
            c, A, b = c.tolist(), A.tolist(), b.tolist()
        yield kind, c, A, b, scale


def test_qp_matches_its_reference_loop():
    outcomes = {"empty": 0, "start": 0, "moved": 0, INFEASIBLE: 0}
    lists = 0
    for kind, c, A, b, scale in _reference_cases():
        lists += isinstance(A, list)
        expect, expect_status = _reference_qp(c, A, b, scale)
        x, status = solve_qp(c, A, b, scale)
        assert status == expect_status
        if expect is None:
            assert x is None
            outcomes[INFEASIBLE] += 1
            continue
        assert np.array_equal(x, expect)
        if kind == 3:
            raise AssertionError("a zero row with a negative offset was met")
        outcomes["empty" if not len(b) else
                 "start" if np.array_equal(x, -np.asarray(c)) else "moved"] += 1
    assert outcomes["empty"] >= 10 and outcomes["start"] >= 60
    assert outcomes["moved"] >= 60 and outcomes[INFEASIBLE] >= 60
    assert lists >= 40


def test_qp_factors_rows_only_for_an_active_set_that_is_not_empty(monkeypatch):
    # the first active row is a step along the row itself; the second one
    # takes the QR factors of the first
    real = np.linalg.qr
    widths = []

    def counting_qr(a, mode="reduced"):
        widths.append(a.shape[1])
        return real(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    A = np.eye(2)
    x, status = solve_qp(np.zeros(2), A, [-1.0, 1.0], _row_scales(A))
    assert status == OPTIMAL and np.array_equal(x, [-1.0, 0.0])
    assert widths == []
    x, status = solve_qp(np.zeros(2), A, [-1.0, -1.0], _row_scales(A))
    assert status == OPTIMAL and np.array_equal(x, [-1.0, -1.0])
    assert widths == [1]


def test_dare_zero_dynamics():
    P = solve_dare(np.zeros((1, 1)), np.ones((1, 1)), np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_dare_scalar_fixed_point_oracle():
    # oracle: iterate the scalar Riccati recursion directly
    a, b, q, r = 0.5, 1.0, 1.0, 1.0
    p = q
    for _ in range(300):
        p = a * p * a - (a * p * b) ** 2 / (r + b * p * b) + q
    P = solve_dare([[a]], [[b]], [[q]], [[r]])
    assert P[0, 0] == pytest.approx(p, abs=1e-9)
    assert P[0, 0] == pytest.approx(1.1328, abs=1e-4)
    assert dare_residual(np.array([[a]]), np.array([[b]]), np.eye(1), np.eye(1), P) < 1e-10


def test_dare_zero_input_is_lyapunov():
    A = np.array([[0.5, 0.1], [0.0, 0.3]])
    B = np.zeros((2, 1))
    Q = np.eye(2)
    P = solve_dare(A, B, Q, np.eye(1))
    assert np.allclose(A.T @ P @ A - P, -Q, atol=1e-8)


def test_dare_rejects_nonstabilizable():
    with pytest.raises(NotStabilizableError):
        solve_dare([[2.0]], [[0.0]], [[1.0]], [[1.0]])


def test_spectral_radius_examples():
    assert spectral_radius(np.eye(2)) == pytest.approx(1.0)
    assert spectral_radius([[1.5, 1.0], [0.0, 1.1]]) == pytest.approx(1.5)
    assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0)


def test_cholesky_examples():
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))
    assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    L = cholesky([[2.0, 1.0], [1.0, 2.0]])
    assert L[0, 0] == pytest.approx(np.sqrt(2))
    assert L[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert L[1, 1] == pytest.approx(np.sqrt(1.5))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky([[1.0, 2.0], [2.0, 1.0]])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cholesky_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.1 * np.eye(n)
    L = cholesky(Q)
    assert np.max(np.abs(L @ L.T - Q)) <= 1e-10 * np.max(np.abs(Q))
    assert np.allclose(L, np.tril(L))


def test_controllability_helpers():
    assert is_controllable([[1.5, 1.0], [0.0, 1.1]], [[0.0, 1.0], [1.0, 1.0]])
    assert not is_controllable([[2.0, 0.0], [0.0, 2.0]], [[1.0], [0.0]])
    assert is_stabilizable([[0.5, 0.0], [0.0, 2.0]], [[0.0], [1.0]])
    assert not is_stabilizable([[0.5, 0.0], [0.0, 2.0]], [[1.0], [0.0]])

