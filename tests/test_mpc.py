import numpy as np
import pytest
import scipy.linalg

from preview_regret import mpc
from preview_regret.invariance import max_invariant_set, pre_k
from preview_regret.models import build_1d, build_2d_random, build_template
from preview_regret.mpc import (
    FULL_DOMAIN_DIM_BUDGET,
    MpcConfig,
    TerminalSetError,
    feasible_domain,
    mpc_step,
    sample_disturbances,
    simulate_closed_loop,
    terminal_set_certificate,
)
from preview_regret.polytope import (
    HPolytope,
    bounding_box,
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
        dom = feasible_domain(sys, C, p=p, want_full=True)
        assert dom.full is not None
        proj_of_full = project(dom.full, sys.n)
        assert set_equal(proj_of_full, dom.projection, tol=1e-7)


def test_feasible_domain_budget(spine_1d):
    from preview_regret.polytope import BudgetExceededError

    sys, _, C, _ = spine_1d
    with pytest.raises(BudgetExceededError):
        feasible_domain(sys, C, p=FULL_DOMAIN_DIM_BUDGET + 2, want_full=True)


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
    u0, (xs, us), feasible = mpc_step(sys, cfg, [0.0], [[0.0], [0.0]])
    assert feasible
    assert np.allclose(u0, 0.0, atol=1e-8)
    assert np.allclose(xs, 0.0, atol=1e-8)


def test_mpc_feasibility_matches_domain(spine_1d):
    sys, _, C, _ = spine_1d
    p = 2
    cfg = MpcConfig(p=p, C=C)
    dom = feasible_domain(sys, C, p=p, want_full=True)
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(200):
        x0 = rng.uniform(-2.0, 2.0)
        dws = rng.uniform(-0.5, 0.5, size=p)
        member = dom.full.contains_point(np.r_[x0, dws], tol=1e-9)
        _, _, feasible = mpc_step(sys, cfg, [x0], dws.reshape(p, 1))
        # skip knife-edge points where membership is numerically marginal
        margin = np.max(dom.full.H @ np.r_[x0, dws] - dom.full.h)
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
    u0, (xs, _), feasible = mpc_step(sys, cfg, [edge], [[-0.5]])
    assert feasible
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
        dom = feasible_domain(sys, C, p=p, want_full=True)
        assert rcis_violation_witness(augment(sys, p), dom.full,
                                      tol=1e-7) is None


def _stacked_mpc_step(sys, cfg, x0, preview):
    """Oracle: the QP over z = (x_1..x_p, u_0..u_{p-1}) with the dynamics
    as p*n equality rows, which a null-space basis eliminates; the reduced
    Hessian is whitened before solve_qp. Returns (u0, (xs, us), feasible)
    like mpc_step."""
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
            u0, pred, feasible = mpc_step(sys, cfg, x0, preview)
            e_u0, e_pred, e_feasible = _stacked_mpc_step(sys, cfg, x0, preview)
            assert feasible == e_feasible
            outcomes.setdefault(mode, []).append(feasible)
            if feasible:
                assert np.max(np.abs(u0 - e_u0)) <= 1e-9
                assert np.max(np.abs(pred[0] - e_pred[0])) <= 1e-9
                assert np.max(np.abs(pred[1] - e_pred[1])) <= 1e-9
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
    """(feasible, u0 and the prediction) of mpc_step from each start."""
    preview = np.full((cfg.p, sys.l), 0.1)
    out = []
    for x0 in starts:
        u0, pred, feasible = mpc_step(sys, cfg, x0, preview)
        out.append((feasible, None if not feasible else
                    np.concatenate([u0, pred[0].ravel(), pred[1].ravel()])))
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
