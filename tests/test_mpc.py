import numpy as np
import pytest
import scipy.linalg

from preview_regret import mpc
from preview_regret.invariance import max_invariant_set, pre_k
from preview_regret.models import build_1d, build_2d_random, build_template
from preview_regret.mpc import (
    MpcConfig,
    TerminalSetError,
    feasible_domain,
    mpc_step,
    sample_disturbances,
    simulate_closed_loop,
    terminal_set_certificate,
)
from preview_regret.polytope import (
    Box,
    HPolytope,
    bounding_box,
    cartesian_product,
    contains,
    hausdorff_nested,
    interval,
    project,
    scale,
    set_equal,
    support,
    unit_box,
    vertices,
)
from preview_regret.regret import bound_dp
from preview_regret.solver import _row_scales, solve_qp
from preview_regret.systems import LinearSystem, augment, collaborative

from oracles import power


@pytest.fixture(scope="module")
def spine_1d():
    sys, oracle = build_1d()
    C, conv = max_invariant_set(sys, tol=1e-11)
    assert conv
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-11)
    assert conv
    return sys, oracle, C, C_co


@pytest.fixture(scope="module")
def setup_2d():
    sys = build_2d_random(1)  # seed 0 has an empty maximal RCIS
    C, conv = max_invariant_set(sys, tol=1e-9)
    assert conv and not C.is_empty()
    C_co, conv = max_invariant_set(collaborative(sys), tol=1e-9)
    assert conv
    return sys, C, C_co


def _full_domain(sys, C, p):
    """Oracle: the feasible domain of (x0, previews), the p-step backward
    set of C x D^p for the augmented system."""
    return pre_k(augment(sys, p),
                 cartesian_product(C, power(sys.D, p)), k=p)


def _rollout(sys, x0, us, preview):
    """The predicted states x_1..x_p of a plan: its nominal rollout from
    x0 under the previewed disturbances."""
    x, xs = np.atleast_1d(np.asarray(x0, dtype=float)), []
    for u, d in zip(us, np.asarray(preview, dtype=float).reshape(len(us), -1)):
        x = sys.step(x, u, d)
        xs.append(x)
    return np.array(xs)


def test_feasible_domain_1d(spine_1d):
    sys, oracle, C, C_co = spine_1d
    dom = feasible_domain(sys, C, p=1)
    # one backward step of [-0.5, 0.5]: (0.5 + 1.5) / 2 = 1
    assert support(dom.projection, [1.0]) == pytest.approx(1.0, abs=1e-9)
    assert support(dom.projection, [1.0]) == pytest.approx(
        oracle.proj_radius(1), abs=1e-9)


def test_feasible_domain_rejects_non_invariant(spine_1d):
    sys, _, C, _ = spine_1d
    with pytest.raises(TerminalSetError) as err:
        feasible_domain(sys, interval(-3.0, 3.0), p=1)
    assert err.value.witness is not None
    with pytest.raises(TerminalSetError, match="unbounded"):
        feasible_domain(sys, HPolytope([[1.0]], [0.5]), p=1)  # x <= 0.5


def test_full_domain_projection_identity(setup_2d):
    sys, C, C_co = setup_2d
    for p in (1, 2):
        dom = feasible_domain(sys, C, p=p)
        proj_of_full = project(_full_domain(sys, C, p), sys.n)
        assert set_equal(proj_of_full, dom.projection, tol=1e-7)


def test_domain_sandwich(setup_2d):
    sys, C, C_co = setup_2d
    for p in (1, 2):
        dom = feasible_domain(sys, C, p=p)
        Cp, conv = max_invariant_set(augment(sys, p), tol=1e-9)
        assert conv
        proj_cmax = project(Cp, sys.n)
        assert contains(proj_cmax, dom.projection, tol=1e-7)
        assert contains(C_co, proj_cmax, tol=1e-7)


def test_domain_grows_with_p(spine_1d):
    sys, _, C, _ = spine_1d
    prev = feasible_domain(sys, C, p=1).projection
    for p in (2, 3, 4):
        cur = feasible_domain(sys, C, p=p).projection
        assert contains(cur, prev, tol=1e-9)
        prev = cur


def _same_bytes(P, Q):
    return (P.H.shape, P.H.tobytes(), P.h.tobytes()) == \
        (Q.H.shape, Q.H.tobytes(), Q.h.tobytes())


@pytest.mark.parametrize("name", ["planar_1", "wind_turbine"])
def test_mpc_curve_domain_is_the_feasible_domain_bit_for_bit(name):
    # rung p of mpc_curve's ladder is feasible_domain's p steps of pre
    sys = build_2d_random(1) if name == "planar_1" else build_template(name)[0]
    C, conv = max_invariant_set(sys, tol=1e-8)
    assert conv
    for p in range(1, 5):
        curve = mpc.mpc_curve(sys, C, p, 0, 1e-8)
        assert _same_bytes(curve.domain, feasible_domain(sys, C, p).projection)
        assert [row["p"] for row in curve.rows] == list(range(p + 1))


def test_mpc_curve_continues_a_ladder_that_closed(monkeypatch):
    # D = {0}: one backward step from [-0.5, 0.5] reaches the limit [-2, 2]
    S = Box(np.array([-2.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
    sys = LinearSystem([[0.5]], [[1.0]], [[0.0]],
                       HPolytope([[1.0], [-1.0]], [0.0, 0.0]), S)
    C = interval(-0.5, 0.5)
    steps = []
    real = mpc.pre_k

    def spy(co, X, k=1):
        steps.append(k)
        return real(co, X, k)

    monkeypatch.setattr(mpc, "pre_k", spy)
    curve = mpc.mpc_curve(sys, C, 3, 0, 1e-8)
    assert steps == [2]  # rungs 2 and 3 continue the ladder closed at 1
    assert _same_bytes(curve.domain, feasible_domain(sys, C, 3).projection)
    gaps = [row["measured_gap"] for row in curve.rows]
    assert gaps[0] == pytest.approx(1.5, abs=1e-9)
    assert gaps[1:] == [0.0] * 3
    # the forced equilibrium sits on the boundary of D: no certificate
    assert curve.cert is None
    assert "only on the constraint boundary" in curve.failure
    assert all(row["bound_dp"] is None for row in curve.rows)


def test_mpc_curve_raises_on_a_bad_terminal_set(spine_1d):
    # a TerminalSetError is a ValueError, but it is raised, not kept as a
    # certificate failure
    sys, _, _, _ = spine_1d
    with pytest.raises(TerminalSetError) as err:
        mpc.mpc_curve(sys, interval(-3.0, 3.0), 1, 2, 1e-8)
    assert err.value.witness is not None


def test_terminal_certificate_1d(spine_1d):
    sys, oracle, C, C_co = spine_1d
    cert = terminal_set_certificate(sys, C, C_max_co=C_co)
    assert cert.method == "alg2"
    assert cert.lambda0 == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert cert.gamma == pytest.approx(0.5, abs=1e-9)
    co = collaborative(sys)
    for p in range(1, 7):
        gap = hausdorff_nested(pre_k(co, C, k=p), C_co)
        assert gap == pytest.approx(2.0 ** -p, abs=1e-9)
        assert gap <= bound_dp(cert, p) + 1e-9
        assert bound_dp(cert, p) == pytest.approx(2.0 ** -p, abs=1e-9)


def test_terminal_certificate_limit_set(spine_1d):
    sys, _, C, C_co = spine_1d
    cert = terminal_set_certificate(sys, C_co, C_max_co=C_co)
    assert cert.lambda0 == pytest.approx(1.0, abs=1e-7)
    assert bound_dp(cert, 0) == pytest.approx(0.0, abs=1e-7)


def test_mpc_step_equilibrium(spine_1d):
    sys, _, C, _ = spine_1d
    cfg = MpcConfig(p=2, C=C)
    result = mpc_step(sys, cfg, [0.0], [[0.0], [0.0]])
    assert isinstance(result, tuple) and len(result) == 3
    u0, us, feasible = result
    assert feasible is True
    assert us.shape == (cfg.p, sys.m) and u0.shape == (sys.m,)
    assert np.array_equal(u0, us[0])
    assert np.allclose(us, 0.0, atol=1e-8)
    xs = _rollout(sys, [0.0], us, [[0.0], [0.0]])
    assert xs.shape == (cfg.p, sys.n)
    assert np.allclose(xs, 0.0, atol=1e-8)


def test_mpc_feasibility_matches_domain(spine_1d):
    sys, _, C, _ = spine_1d
    p = 2
    cfg = MpcConfig(p=p, C=C)
    full = _full_domain(sys, C, p)
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(200):
        x0 = rng.uniform(-2.0, 2.0)
        dws = rng.uniform(-0.5, 0.5, size=p)
        member = full.contains_point(np.r_[x0, dws], tol=1e-9)
        _, _, feasible = mpc_step(sys, cfg, [x0], dws.reshape(p, 1))
        # skip knife-edge points where membership is numerically marginal
        margin = np.max(full.H @ np.r_[x0, dws] - full.h)
        if abs(margin) < 1e-7:
            continue
        assert feasible == member
        agree += 1
    assert agree > 150


def test_mpc_terminal_constraint_binds(spine_1d):
    sys, _, C, _ = spine_1d
    p = 1
    dom = feasible_domain(sys, C, p=p)
    edge = support(dom.projection, [1.0])
    cfg = MpcConfig(p=p, C=C)
    # at the far edge of the domain only the most favorable preview works,
    # and it forces the predicted final state onto the terminal boundary
    _, us, feasible = mpc_step(sys, cfg, [edge], [[-0.5]])
    assert feasible
    xs = _rollout(sys, [edge], us, [[-0.5]])
    assert support(C, [1.0]) == pytest.approx(xs[-1][0], abs=1e-7)


def test_simulate_stays_feasible(spine_1d):
    sys, _, C, _ = spine_1d
    cfg = MpcConfig(p=2, C=C)
    rng = np.random.default_rng(3)
    for _ in range(20):
        stream = sample_disturbances(sys.D, 52, rng)
        # starts inside the terminal set are feasible for every preview
        log = simulate_closed_loop(sys, cfg, [rng.uniform(-0.45, 0.45)], stream, T=50)
        assert len(log) == 50
        assert all(rec["feasible"] for rec in log)
        assert all(abs(rec["x"][0]) <= 10.0 + 1e-9 for rec in log)


@pytest.mark.parametrize("H, h", [
    ([[1.0], [-1.0]], [0.2, -0.2]),  # one point
    ([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]], [0.3, -0.3, 0.1, 0.1]),
    ([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0, 0.1, 0.1]),
], ids=["point-1d", "segment-at-0.3", "segment-at-0"])
def test_sampler_draws_from_a_set_flat_along_its_box(H, h):
    D = HPolytope(H, h)
    stream = sample_disturbances(D, 6, np.random.default_rng(0))
    assert stream.shape == (6, D.dim)
    assert all(D.contains_point(d) for d in stream)


def test_sampler_rejects_a_set_with_no_interior_in_its_box():
    # d1 = d2 has measure zero in its bounding box: rejection never accepts
    D = HPolytope([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]],
                  [0.0, 0.0, 0.1, 0.1])
    with pytest.raises(ValueError, match="no interior"):
        sample_disturbances(D, 5, np.random.default_rng(0))


def test_simulate_zero_from_equilibrium(spine_1d):
    sys, _, C, _ = spine_1d
    cfg = MpcConfig(p=2, C=C)
    log = simulate_closed_loop(sys, cfg, [0.0], np.zeros((12, 1)), T=10)
    assert all(np.allclose(rec["x"], 0.0, atol=1e-7) for rec in log)
    assert all(np.allclose(rec["u"], 0.0, atol=1e-7) for rec in log)


@pytest.fixture(scope="module")
def two_disturbances():
    """build_2d_random(1) driven by two disturbance channels (l = 2) with
    no recursive-feasibility constraint, C = HPolytope.universe(2)."""
    base = build_2d_random(1)
    sys = LinearSystem(base.A, base.B, 0.5 * np.hstack([base.E, base.E]),
                       scale(unit_box(2), 0.1), base.S_xu)
    return sys, MpcConfig(p=2, C=HPolytope.universe(2))


@pytest.mark.parametrize("x0, stream, T, message", [
    # 36 numbers would reshape to 18 rows of l = 2
    (np.zeros(2), np.zeros((12, 3)), 5, r"stream has shape \(12, 3\)"),
    (np.zeros(2), np.zeros((12, 2)), -1, "T = -1"),
    (np.zeros(3), np.zeros((12, 2)), 5, r"x0 has shape \(3,\)"),
], ids=["stream-width", "negative-T", "x0-length"])
def test_simulate_rejects_inputs_of_another_shape(two_disturbances, x0,
                                                  stream, T, message):
    sys, cfg = two_disturbances
    with pytest.raises(ValueError, match=message):
        simulate_closed_loop(sys, cfg, x0, stream, T)


def test_simulate_reads_a_flat_stream_row_by_row(two_disturbances):
    sys, cfg = two_disturbances
    stream = sample_disturbances(sys.D, 7, np.random.default_rng(4))
    flat = simulate_closed_loop(sys, cfg, np.zeros(2), stream.ravel(), T=5)
    rows = simulate_closed_loop(sys, cfg, np.zeros(2), stream, T=5)
    assert len(flat) == len(rows) == 5
    for a, b in zip(flat, rows):
        assert a["feasible"] and b["feasible"]
        assert np.array_equal(a["d"], b["d"])
        assert np.array_equal(a["x"], b["x"])
        assert np.array_equal(a["u"], b["u"])


def test_ablation_without_rfc_can_fail(spine_1d):
    sys, _, C, _ = spine_1d
    # start outside the infinite-preview limit set: no controller can keep
    # the state bounded, and without the terminal constraint the horizon-p
    # problem happily accepts the doomed start
    cfg = MpcConfig(p=1, C=HPolytope.universe(1))
    stream = np.full((30, 1), 0.5)
    log = simulate_closed_loop(sys, cfg, [2.0], stream, T=25)
    assert log[0]["feasible"]
    assert not log[-1]["feasible"]
    with_rfc = MpcConfig(p=1, C=C)
    _, _, feasible = mpc_step(sys, with_rfc, [2.0], [[0.5]])
    assert not feasible  # the RFC rejects the doomed start up front


def test_max_rcis_mode(spine_1d):
    sys, _, C, _ = spine_1d
    p = 2
    Cp, conv = max_invariant_set(augment(sys, p), tol=1e-10)
    assert conv
    cfg = MpcConfig(p=p, C=Cp)
    dom_proj = project(Cp, 1)
    edge = support(dom_proj, [1.0]) - 1e-6
    # the +edge of the projection is only feasible with all-favorable previews
    _, _, feasible = mpc_step(sys, cfg, [edge], [[-0.5], [-0.5]])
    assert feasible
    _, _, feasible = mpc_step(sys, cfg, [edge + 0.2], [[-0.5], [-0.5]])
    assert not feasible


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_config_set_of_another_dimension_is_rejected(setup_2d, dim):
    sys, _, _ = setup_2d  # n = 2 and l = 1: C lives in dimension 2 or 4
    cfg = MpcConfig(p=2, C=HPolytope.universe(dim))
    with pytest.raises(ValueError, match=r"n = 2 .*n \+ p\*l = 4"):
        mpc_step(sys, cfg, np.zeros(2), np.zeros((2, 1)))


def test_full_domain_is_invariant_for_augmented_system(spine_1d):
    from preview_regret.invariance import rcis_violation_witness

    sys, _, C, _ = spine_1d
    for p in (1, 2):
        assert rcis_violation_witness(augment(sys, p), _full_domain(sys, C, p),
                                      tol=1e-7) is None


def _stacked_mpc_step(sys, cfg, x0, preview):
    """Oracle: the QP over z = (x_1..x_p, u_0..u_{p-1}) with the dynamics
    as p*n equality rows, which a null-space basis eliminates; the reduced
    Hessian is whitened before solve_qp. Returns (u0, (xs, us), feasible)
    with xs = x_1..x_p."""
    n, m, l, p = sys.n, sys.m, sys.l, cfg.p
    I = np.eye(p * (n + m))
    # x_t = X[t] z + off[t] and u_t = U[t] z
    X = [0.0 * I[:n]] + [I[t * n:(t + 1) * n] for t in range(p)]
    U = [I[p * n + t * m:p * n + (t + 1) * m] for t in range(p)]
    off = [np.asarray(x0, dtype=float)] + [np.zeros(n)] * p
    A_eq = np.vstack([X[t + 1] - sys.A @ X[t] - sys.B @ U[t] for t in range(p)])
    b_eq = np.concatenate([sys.A @ off[t] + sys.E @ preview[t] for t in range(p)])
    Hs, hs = sys.S_xu.H, sys.S_xu.h
    Hx, Hu = Hs[:, :n], Hs[:, n:]
    rows = [Hx @ X[t] + Hu @ U[t] for t in range(p)]
    rhs = [hs - Hx @ off[t] for t in range(p)]
    if cfg.C.dim == n:
        rows.append(cfg.C.H @ X[p])
        rhs.append(cfg.C.h)
    else:
        Hc, r = cfg.C.H, cfg.C.h.copy()
        for i in range(1, p):
            r = r - Hc[:, n + (i - 1) * l:n + i * l] @ preview[i]
        r = r - np.array([support(sys.D, a) if np.any(a) else 0.0
                          for a in Hc[:, n + (p - 1) * l:]])
        rows.append(Hc[:, :n] @ X[1])
        rhs.append(r)
    A_ub, b_ub = np.vstack(rows), np.concatenate(rhs)
    z0 = np.linalg.lstsq(A_eq, b_eq, rcond=None)[0]
    N = scipy.linalg.null_space(A_eq)
    Linv = np.linalg.inv(np.linalg.cholesky(2.0 * N.T @ N))
    A_y = A_ub @ N @ Linv.T
    y, _ = solve_qp(Linv @ (2.0 * N.T @ z0), A_y, b_ub - A_ub @ z0,
                    _row_scales(A_y))
    if y is None:
        return None, None, False
    z = z0 + N @ (Linv.T @ y)
    us = z[p * n:].reshape(p, m)
    return us[0], (z[:p * n].reshape(p, n), us), True


def _oracle_cases():
    """(system, terminal set, mode, cfg) for each recursive-feasibility
    mode on the 1-D model (p = 1, 2), build_2d_random(1) (p = 2) and wind
    turbine (p = 4): the terminal set, the maximal augmented set, and no
    constraint."""
    for sys, ps in ((build_1d()[0], (1, 2)), (build_2d_random(1), (2,)),
                    (build_template("wind_turbine")[0], (4,))):
        C, conv = max_invariant_set(sys, tol=1e-9)
        assert conv and not C.is_empty()
        for p in ps:
            Cp, conv = max_invariant_set(augment(sys, p), tol=1e-9)
            assert conv
            yield sys, C, "terminal_set", MpcConfig(p=p, C=C)
            yield sys, C, "max_rcis", MpcConfig(p=p, C=Cp)
            yield sys, C, "none", MpcConfig(p=p, C=HPolytope.universe(sys.n))


def test_condensed_step_matches_the_stacked_qp(monkeypatch):
    passed = []

    def inequalities_only(*args, **kwargs):
        assert len(args) == 4 and not kwargs  # c, A_ub, b_ub, scale
        passed.append(1)
        return solve_qp(*args)

    monkeypatch.setattr(mpc, "solve_qp", inequalities_only)
    rng = np.random.default_rng(13)
    outcomes = {}
    for sys, C, mode, cfg in _oracle_cases():
        box = bounding_box(C)
        for k in range(40):
            # every other start is drawn from three times the terminal
            # set's box, where many are infeasible
            w = (1.0, 3.0)[k % 2]
            x0 = rng.uniform(w * box.lower, w * box.upper)
            preview = sample_disturbances(sys.D, cfg.p, rng)
            u0, us, feasible = mpc_step(sys, cfg, x0, preview)
            e_u0, e_pred, e_feasible = _stacked_mpc_step(sys, cfg, x0, preview)
            assert feasible == e_feasible
            outcomes.setdefault(mode, []).append(feasible)
            if feasible:
                xs = _rollout(sys, x0, us, preview)
                assert np.array_equal(u0, us[0])
                assert np.max(np.abs(u0 - e_u0)) <= 1e-9
                assert np.max(np.abs(xs - e_pred[0])) <= 1e-9
                assert np.max(np.abs(us - e_pred[1])) <= 1e-9
    assert len(passed) == 12 * 40
    for flags in outcomes.values():  # each mode sees both outcomes
        assert 0.2 * len(flags) <= sum(flags) <= 0.9 * len(flags)


@pytest.fixture(scope="module")
def closed_loop_cases():
    """The oracle cases on build_2d_random(1) (p = 2) and wind turbine
    (p = 4), one per mode: (system, terminal set, cfg)."""
    return [(sys, C, cfg) for sys, C, _, cfg in _oracle_cases() if sys.n > 1]


def test_closed_loop_matches_fresh_configs(closed_loop_cases):
    # one config serves every step of two runs; each reference step solves
    # with a config of its own
    rng = np.random.default_rng(5)
    for sys, C, cfg in closed_loop_cases:
        inner = scale(C, 0.98)
        box = bounding_box(inner)
        for _ in range(2):
            x0 = rng.uniform(box.lower, box.upper)
            while not inner.contains_point(x0):
                x0 = rng.uniform(box.lower, box.upper)
            stream = sample_disturbances(sys.D, 20 + cfg.p, rng)
            log = simulate_closed_loop(sys, cfg, x0, stream, T=20)
            assert len(log) == 20 or not log[-1]["feasible"]
            x = x0
            for rec in log:
                t = rec["t"]
                fresh = MpcConfig(p=cfg.p, C=cfg.C)
                u0, _, feasible = mpc_step(sys, fresh, x, stream[t:t + cfg.p])
                assert rec["feasible"] == feasible
                assert np.array_equal(rec["x"], x)
                if not feasible:
                    break
                assert np.array_equal(rec["u"], u0)
                x = sys.step(x, u0, stream[t])


def _answers(sys, cfg, starts):
    """(feasible, u0, the predicted states and the plan) of mpc_step from
    each start."""
    preview = np.full((cfg.p, sys.l), 0.1)
    out = []
    for x0 in starts:
        u0, us, feasible = mpc_step(sys, cfg, x0, preview)
        out.append((feasible, None if not feasible else np.concatenate(
            [u0, _rollout(sys, x0, us, preview).ravel(), us.ravel()])))
    return out


def _same_answers(a, b):
    return all(fa == fb and (not fa or (va.shape == vb.shape and
                                        np.max(np.abs(va - vb)) <= 1e-12))
               for (fa, va), (fb, vb) in zip(a, b))


@pytest.mark.parametrize("name", ["sys", "p", "C", "C-augmented"])
def test_rebound_field_rebuilds_the_horizon(setup_2d, name):
    sys, C, _ = setup_2d
    cfg = MpcConfig(p=2, C=C)
    starts = vertices(C)
    before = _answers(sys, cfg, starts)
    if name == "sys":
        sys = LinearSystem(sys.A, 0.5 * sys.B, sys.E, sys.D, sys.S_xu)
    elif name == "C-augmented":  # same field, other constraint rows
        Cp, conv = max_invariant_set(augment(sys, 2), tol=1e-9)
        assert conv
        cfg.C = Cp
    else:
        setattr(cfg, name, {"p": 3, "C": scale(C, 0.5)}[name])
    after = _answers(sys, cfg, starts)
    fresh = _answers(sys, MpcConfig(p=cfg.p, C=cfg.C), starts)
    assert not _same_answers(before, fresh)  # the starts see the change
    assert _same_answers(after, fresh)


def test_closed_loop_builds_the_horizon_once(monkeypatch, setup_2d):
    sys, C, _ = setup_2d
    builds = []
    real = mpc._condensed_qp

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpc, "_condensed_qp", counting)
    stream = sample_disturbances(sys.D, 22, np.random.default_rng(9))
    log = simulate_closed_loop(sys, MpcConfig(p=2, C=C), np.zeros(sys.n),
                               stream, T=20)
    assert len(log) == 20 and all(rec["feasible"] for rec in log)
    assert len(builds) == 1


def test_closed_loop_makes_one_step_and_one_qp_per_step(monkeypatch,
                                                        closed_loop_cases):
    # the per-step contract the benchmark's trace counts: one public
    # mpc_step call and one solve_qp call for each closed-loop step
    calls = {"mpc_step": 0, "solve_qp": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(mpc, "mpc_step", counted("mpc_step", mpc.mpc_step))
    monkeypatch.setattr(mpc, "solve_qp", counted("solve_qp", mpc.solve_qp))
    rng = np.random.default_rng(8)
    runs = 0
    for sys, C, cfg in closed_loop_cases:
        if cfg.C is not C:  # the terminal-set mode keeps every step feasible
            continue
        inner = scale(C, 0.98)
        box = bounding_box(inner)
        x0 = rng.uniform(box.lower, box.upper)
        while not inner.contains_point(x0):
            x0 = rng.uniform(box.lower, box.upper)
        stream = sample_disturbances(sys.D, 20 + cfg.p, rng)
        calls.update(mpc_step=0, solve_qp=0)
        log = simulate_closed_loop(sys, cfg, x0, stream, 20)
        assert len(log) == 20 and all(rec["feasible"] for rec in log)
        assert calls == {"mpc_step": 20, "solve_qp": 20}
        runs += 1
    assert runs == 2  # build_2d_random(1) at p = 2, wind turbine at p = 4


# Closed-loop logs of simulate_closed_loop, one float.hex string per step:
# x, then u, then cost. The terminal set is max_invariant_set(sys,
# tol=1e-9), the start is 0.98 times a vertex of it picked by the seeded
# rng, and the stream is the next 20 + p draws of sample_disturbances. Each
# run has steps where a constraint is active (_ACTIVE_STEPS), so solve_qp's
# active-set path is covered as well as its unconstrained return; on 2d-2
# at p = 1 most steps have one.
_ACTIVE_STEPS = {"2d-1": 4, "wind_turbine": 2, "2d-2": 18}
_GOLDEN_CLOSED_LOOP = {
    "2d-1": [
        "0x1.d1f9bbe971272p-3 -0x1.c82a49f884937p+0 0x1.1eada5dd8b19bp+1 0x1.07c7269aa6d20p+3",
        "-0x1.417ebd402247cp+0 0x1.db7f9c32ec2fbp-2 0x1.8a61f32b57130p-2 0x1.f0eb5c8d7b83ep+0",
        "-0x1.690394ad638eep+0 0x1.cf6c69643d788p-1 0x1.db26e099e9b8ap-4 0x1.6923abb8d1b15p+1",
        "-0x1.56b5cc3a62991p+0 0x1.f75ba5ca4270ep-1 -0x1.49dae90fe11f6p-6 0x1.612990506ba38p+1",
        "-0x1.4ae7080575d24p+0 0x1.965a74565d5c1p-1 -0x1.a226a1fde281ep-5 0x1.26d1f9fb9fd83p+1",
        "-0x1.37177126a429cp+0 0x1.810670df111e0p-1 0x1.c4f184b965013p-6 0x1.058092abc6ee5p+1",
        "-0x1.202eec2c15f3cp+0 0x1.9990ac24a70dap-1 0x1.96ca6b65ff778p-3 0x1.f2531ca38e90ap+0",
        "-0x1.29568df652deep+0 0x1.9c872174c649ap-1 -0x1.23d987cb4e267p-4 0x1.006bbcd6eb92ep+1",
        "-0x1.350dd5d419019p+0 0x1.16ad83cd0a428p-1 -0x1.24da1fc97445ep-2 0x1.d5e1e00e7858ap+0",
        "-0x1.ef232f14463e4p-1 0x1.3977694afedd8p-1 -0x1.632eea51094ffp-3 0x1.5712bf9e87b41p+0",
        "-0x1.7e6e91edfca14p-1 0x1.2ed337d6dd7e5p-1 -0x1.a8e9ac9466751p-5 0x1.d2233c147de46p-1",
        "-0x1.60619aaf9d5f4p-1 0x1.c1fbef9cc1098p-2 -0x1.7198aae17d1a3p-3 0x1.6611c9d88246cp-1",
        "-0x1.43905efbe8095p-1 0x1.0e37549c5ccbep-2 -0x1.6820824c8aa16p-2 0x1.2f75572e41dd3p-1",
        "-0x1.9922be49ecc79p-2 0x1.c8e6c9a693f52p-3 -0x1.8671c2ddf2e1ep-2 0x1.6b4f262951522p-2",
        "-0x1.19d6e2318b326p-3 0x1.a4bd016861f22p-4 -0x1.f7a7a8d5d7688p-3 0x1.70833990099ecp-4",
        "0x1.a533cc28358dcp-4 0x1.2d7c079b9885cp-4 -0x1.3f7f5db74bc30p-4 0x1.69b3be37dae56p-6",
        "0x1.4e6e4c061c3c4p-3 -0x1.f894ee494256ap-5 -0x1.171f43dfc694ep-4 0x1.1f90fa323e1f7p-5",
        "0x1.6eed71b843e44p-3 -0x1.1ee4f5029e9c6p-3 0x1.9cdfaf49827ddp-5 0x1.bc871ccc26612p-5",
        "0x1.e09cdf96930b0p-3 0x1.30087b7917800p-9 0x1.17721978f8883p-3 0x1.2ddb478e28aafp-4",
        "0x1.73f7d835df124p-4 -0x1.fe07599f881ecp-4 0x1.d76185c346909p-4 0x1.2f1232a8fda35p-5",
    ],
    "wind_turbine": [
        "0x1.648e2ee8349d9p-1 -0x1.846da16bfbf72p+6 0x1.4856d5cfaacd9p+3 -0x1.4000000000001p+2 0x1.2ac45e9b4b9cbp+13",
        "-0x1.3ce81995e5038p-3 -0x1.83df0226057bbp+6 0x1.50adab9f559b1p+2 -0x1.4000000000001p+2 0x1.277b9697bd72bp+13",
        "-0x1.8268da84d7df9p-2 -0x1.83feb2f56145dp+6 0x1.0adab9f559b00p-2 -0x1.159c7ff21e8a7p+1 0x1.262d57742373cp+13",
        "-0x1.1810423f7f92ap-1 -0x1.844bfb2115710p+6 -0x1.e8825166e6a8ep+0 -0x1.9b5cbd3770636p-1 0x1.269fe43a6e0ddp+13",
        "-0x1.4bd327b0e9b1bp-2 -0x1.84bc01a1fba40p+6 -0x1.5b1858014f6d4p+1 -0x1.1892de08a1a8cp-2 0x1.27617bb17941ap+13",
        "-0x1.1f5e1d7ed4d00p-3 -0x1.84fe5f1052392p+6 -0x1.7e2ab3c263a26p+1 -0x1.2eacd2536faaep-4 0x1.27d18a657a28fp+13",
        "0x1.cf7de19fc6554p-3 -0x1.851b1bacdee80p+6 -0x1.87a01a54ff1fbp+1 0x1.72ecfb4bba22dp-7 0x1.2800fef3ee401p+13",
        "0x1.517c44748010bp-2 -0x1.84ecc2498220fp+6 -0x1.862d2d59b3659p+1 0x1.32d53673b0061p-5 0x1.27ba7afc4c96bp+13",
        "0x1.6945e00afb8eep-1 -0x1.84a943089e075p+6 -0x1.8161d87fe4a57p+1 0x1.61ee0524974eep-5 0x1.275545fb1a3aep+13",
        "0x1.db87e30ee521cp-1 -0x1.8418c0af00091p+6 -0x1.7bda206b52483p+1 0x1.6d94cf7cff6dap-5 0x1.267ae3e58ceabp+13",
        "0x1.47d71d116bfebp+0 -0x1.835a8a542d470p+6 -0x1.7623cd2d5e4a8p+1 0x1.b2fb00e9bf2f9p-5 0x1.255eed344fe0ap+13",
        "0x1.70f89e93ac859p+0 -0x1.825444a3528a3p+6 -0x1.6f57e129b74dcp+1 0x1.af4b354c9ca11p-5 0x1.23d3a50a90d53p+13",
        "0x1.922e2bbac388dp+0 -0x1.812d1757a9336p+6 -0x1.689ab45484db4p+1 0x1.bb1713d5ed802p-5 0x1.22179728a5689p+13",
        "0x1.d55b2e0871c62p+0 -0x1.7feb58ce46fd6p+6 -0x1.61ae58052d254p+1 0x1.c51af97518763p-5 0x1.203904d10a51fp+13",
        "0x1.1406fcf56b08dp+1 -0x1.7e73dca9736f2p+6 -0x1.5a99ec1f58c36p+1 0x1.910dbf0165498p-5 0x1.1e0eded57ff5bp+13",
        "0x1.1b48b3d13dac2p+1 -0x1.7cba37e1845d8p+6 -0x1.5455b523532e4p+1 0x1.499e9632683ccp-5 0x1.1b7c6fb1342b0p+13",
        "0x1.405b1eecd4d60p+1 -0x1.7af4f6c1cf2e0p+6 -0x1.4f2f3aca898d5p+1 0x1.252113bd2e113p-5 0x1.18e5243f67806p+13",
        "0x1.611e7a514eb89p+1 -0x1.78f464f6baa64p+6 -0x1.4a9ab67b94d51p+1 0x1.6df6e71758774p-5 0x1.15f9ae12a2aa8p+13",
        "0x1.5968c87fb9fcep+1 -0x1.76bf6766388ebp+6 -0x1.44e2dadf37733p+1 0x1.874860cfc2a64p-5 0x1.12b7b89c781dfp+13",
        "0x1.67b3f3cd215d3p+1 -0x1.7496bfbf05cb8p+6 -0x1.3ec5b95bf8689p+1 0x1.33ab18a0e0e38p-5 0x1.0f9409286db63p+13",
    ],
    "2d-2": [
        "0x1.7356833662b8bp-4 0x1.b40bcbd5cf0a2p+0 -0x1.b739750979c88p+1 0x1.d5e5687d09326p+3",
        "0x1.0e066e16948b5p+1 -0x1.499b629d823aap+0 0x1.a139898009e61p-1 0x1.b16988c16e6afp+2",
        "0x1.a9cfb106a7283p+0 -0x1.a139898009e62p-1 -0x1.adfc26eee2914p-2 0x1.cdb2e996ec387p+1",
        "0x1.f30461ffa763ep+0 -0x1.0c0eab593faebp+0 0x1.fb8ad1adef618p-2 0x1.49133005312c2p+2",
        "0x1.c390d10661af3p+0 -0x1.89c2a3c6ae3f8p-1 0x1.71b43c56b5180p-6 0x1.da095e576257fp+1",
        "0x1.d4b0fa69c0e28p+0 -0x1.bd231ff0cbd96p-1 -0x1.e4fc703b26b98p-2 0x1.1541439dfd6ebp+2",
        "0x1.0966d8fc1914ap+1 -0x1.3bbca34e0fd6ep+0 0x1.1be34653eedfdp-1 0x1.882d8c385a13ap+2",
        "0x1.d285783a62e05p+0 -0x1.b6a09962b1d32p-1 -0x1.2087b13ffed48p-4 0x1.03d47752395d2p+2",
        "0x1.e816020e37e4ep+0 -0x1.f75236de30e08p-1 0x1.5d64bfdc27501p-1 0x1.444bfafb34b5fp+2",
        "0x1.97e6c5f77bc5bp+0 -0x1.5d64bfdc27502p-1 -0x1.41ca0dbad1741p-2 0x1.8d372ac876f1cp+1",
        "0x1.dc185387aaf4dp+0 -0x1.d3592b4a8a100p-1 0x1.1486706971340p-7 0x1.12aeb01e4c66fp+2",
        "0x1.e653c2cfef4d6p+0 -0x1.f20b7923571a2p-1 0x1.8c4b3ea06112ap-2 0x1.2d1d7681e3b60p+2",
        "0x1.c650aefcb8fa2p+0 -0x1.92023da9b4206p-1 -0x1.03c5a164ea853p-1 0x1.017ed9f2ad36ep+2",
        "0x1.0662b105a6ddfp+1 -0x1.32b02b6ab932cp+0 0x1.596456d830107p-1 0x1.85e88a3bb5ffap+2",
        "0x1.c23d35ef1b3c8p+0 -0x1.85c7d280dae78p-1 -0x1.ffe06e0211ff0p-6 0x1.d63cb8641e45ep+1",
        "0x1.d9535e13e81d0p+0 -0x1.cb0a4aef41890p-1 0x1.318825a7d19f8p-1 0x1.250584e709bd2p+2",
        "0x1.a841d6c104a7bp+0 -0x1.37d5b4f697290p-1 -0x1.f853b905dc11cp-4 0x1.90f8f70bbdc5bp+1",
        "0x1.d196270976477p+0 -0x1.b3d2a5cfec083p-1 0x1.c55dc25f8a84ap-2 0x1.0e9ba116cdedfp+2",
        "0x1.b2eb4a5c5fd66p+0 -0x1.57d20fc8a8b50p-1 0x1.411c3f2f24f6ep-3 0x1.ae4f7239bf93cp+1",
        "0x1.bbf5af64888cap+0 -0x1.72f13ee122d7dp-1 -0x1.08b63b74d77f8p-1 0x1.e65cef9609a61p+1",
    ],
}


def _counting_active_steps(monkeypatch):
    """Count the solve_qp calls of mpc_step that leave -c."""
    active = []
    real = mpc.solve_qp

    def spy(c, *args):
        y, status = real(c, *args)
        active.append(y is not None and not np.array_equal(y, -c))
        return y, status

    monkeypatch.setattr(mpc, "solve_qp", spy)
    return active


@pytest.mark.parametrize("name, p, seed", [("2d-1", 2, 5),
                                           ("wind_turbine", 4, 4),
                                           ("2d-2", 1, 1)])
def test_closed_loop_is_bit_identical_to_its_recorded_log(monkeypatch, name,
                                                          p, seed):
    sys = (build_template("wind_turbine")[0] if name == "wind_turbine"
           else build_2d_random(int(name[-1])))
    C, conv = max_invariant_set(sys, tol=1e-9)
    assert conv
    V = vertices(C)
    rng = np.random.default_rng(seed)
    x0 = 0.98 * V[rng.integers(len(V))]
    stream = sample_disturbances(sys.D, 20 + p, rng)
    active = _counting_active_steps(monkeypatch)
    log = simulate_closed_loop(sys, MpcConfig(p=p, C=C), x0, stream, 20)
    got = [" ".join([float(v).hex() for v in rec["x"]]
                    + [float(v).hex() for v in rec["u"]]
                    + [rec["cost"].hex()]) for rec in log]
    assert all(rec["feasible"] for rec in log)
    assert got == _GOLDEN_CLOSED_LOOP[name]
    assert sum(active) == _ACTIVE_STEPS[name]


def test_closed_loop_factors_rows_only_for_an_active_set_that_is_not_empty(
        monkeypatch):
    # streams as the benchmark's mpc-loop draws them: solve_qp takes the
    # first active row of a step without a QR factorisation
    widths = []
    real = np.linalg.qr

    def counting_qr(a, mode="reduced"):
        widths.append(a.shape[1])
        return real(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    active = _counting_active_steps(monkeypatch)
    rng = np.random.default_rng([27, 2])
    for sys, p, runs in ((build_2d_random(1), 2, 6),
                         (build_template("wind_turbine")[0], 4, 3)):
        C, conv = max_invariant_set(sys, tol=1e-9)
        assert conv
        inner = scale(C, 0.98)
        box = bounding_box(inner)
        cfg = MpcConfig(p=p, C=C)
        for _ in range(runs):
            stream = sample_disturbances(sys.D, 20 + p, rng)
            x0 = rng.uniform(box.lower, box.upper)
            while not inner.contains_point(x0):
                x0 = rng.uniform(box.lower, box.upper)
            log = simulate_closed_loop(sys, cfg, x0, stream, 20)
            assert len(log) == 20 and all(rec["feasible"] for rec in log)
    assert len(active) == 180 and sum(active) > 0
    assert all(k >= 1 for k in widths)


def test_mpc_step_input_contract(spine_1d, setup_2d):
    sys1, _, C1, _ = spine_1d
    cfg1 = MpcConfig(p=2, C=C1)
    u0, us, feasible = mpc_step(sys1, cfg1, np.array([0.3]), [[0.1], [-0.2]])
    assert feasible
    for x0 in (0.3, [0.3], np.float64(0.3)):  # n = 1: a scalar will do
        for preview in ([0.1, -0.2], [[0.1], [-0.2]], np.array([0.1, -0.2])):
            got = mpc_step(sys1, cfg1, x0, preview)
            assert got[2] and np.array_equal(got[1], us)
            assert np.array_equal(got[0], u0)
    sys2, C2, _ = setup_2d
    cfg2 = MpcConfig(p=2, C=C2)
    x0 = 0.5 * C2.chebyshev_center()[0]
    flat = np.full(2 * sys2.l, 0.05)
    rows = mpc_step(sys2, cfg2, x0, flat.reshape(2, sys2.l))
    assert rows[2] and np.array_equal(rows[1],
                                      mpc_step(sys2, cfg2, x0, flat)[1])
    assert np.array_equal(rows[1],
                          mpc_step(sys2, cfg2, list(x0), flat.tolist())[1])
    for bad_x0, bad_preview in ((np.zeros(3), flat), (np.zeros(1), flat),
                                (x0, flat[:-1]), (x0, np.r_[flat, 0.0]),
                                (np.zeros(3), flat[:-1])):
        with pytest.raises(ValueError):
            mpc_step(sys2, cfg2, bad_x0, bad_preview)
    # a rebound field rebuilds the horizon; an unchanged config keeps it
    kept = cfg2._horizon
    mpc_step(sys2, cfg2, x0, flat)
    assert cfg2._horizon is kept
    cfg2.C = scale(C2, 0.5)
    mpc_step(sys2, cfg2, x0, flat)
    assert cfg2._horizon is not kept and cfg2._horizon.key[2] is cfg2.C
