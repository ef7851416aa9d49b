import numpy as np
import pytest

from preview_regret.ellipsoid import (
    ContractiveEllipsoid,
    contraction_params,
    find_contractive_ellipsoid,
    max_c0,
    min_c_out,
)
from preview_regret.invariance import check_contractive, max_invariant_set
from preview_regret.models import build_template
from preview_regret.polytope import (
    Box,
    interval,
    scale,
    unit_box,
)
from preview_regret.solver import NotStabilizableError
from preview_regret.systems import LinearSystem, collaborative


def sys_1d(a=2.0, xbar=10.0, ubar=1.0, dbar=0.5):
    S = Box(np.array([-xbar, -ubar]), np.array([xbar, ubar])).to_polytope()
    return LinearSystem([[a]], [[1.0]], [[1.0]], interval(-dbar, dbar), S)


def test_deadbeat_reaches_floor():
    ell = find_contractive_ellipsoid(sys_1d())
    assert ell.lam_a <= 0.1  # controllable in one step: rate near the floor


def test_no_input_lyapunov_case():
    s = LinearSystem([[0.5]], [[0.0]], [[0.0]],
                     interval(-0.1, 0.1),
                     Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])).to_polytope())
    ell = find_contractive_ellipsoid(s)
    assert 0.5 < ell.lam_a < 0.55  # spectral radius plus the bisection margin


def test_certificate_always_valid():
    rng = np.random.default_rng(2)
    for _ in range(6):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 1))
        E = rng.normal(size=(2, 1))
        S = Box(-np.ones(3), np.ones(3)).to_polytope()
        s = LinearSystem(A, B, E, interval(-0.2, 0.2), S)
        try:
            ell = find_contractive_ellipsoid(s)
        except NotStabilizableError:
            continue
        assert ell.certificate_gap(s.A, s.B, s.E) <= 1e-8
        assert ell.lam_a < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning",
                            "ignore::scipy.linalg.LinAlgWarning")
def test_biped_rate_search_stops_diverging_dare():
    # rates below the reachable one make the Riccati fallback diverge; the
    # overflowing iterate must end that trial as SolverError, not run on.
    # LinAlgWarning (a RuntimeWarning) is the Lyapunov solve's conditioning
    # note, not an overflow.
    s = build_template("biped")[0]
    ell = find_contractive_ellipsoid(s)
    assert ell.certificate_gap(s.A, s.B, s.E) <= 1e-8
    assert ell.lam_a < 1.0


def test_rejects_nonstabilizable():
    s = LinearSystem([[2.0]], [[0.0]], [[0.0]], interval(-0.1, 0.1),
                     Box(-np.ones(2), np.ones(2)).to_polytope())
    with pytest.raises(NotStabilizableError):
        find_contractive_ellipsoid(s)


def test_max_c0_unit_case():
    ell = ContractiveEllipsoid(Q=np.eye(2), R1=np.zeros((1, 2)),
                               R2=np.zeros((1, 2)), lam_a=0.5)
    S = Box(-np.ones(3), np.ones(3)).to_polytope()
    D = interval(-1.0, 1.0)
    assert max_c0(ell, S, D) == pytest.approx(1.0)


def test_max_c0_homogeneous():
    ell = ContractiveEllipsoid(Q=np.eye(2), R1=0.3 * np.ones((1, 2)),
                               R2=-0.2 * np.ones((1, 2)), lam_a=0.5)
    S = Box(-np.ones(3), np.ones(3)).to_polytope()
    D = interval(-1.0, 1.0)
    base = max_c0(ell, S, D)
    doubled = max_c0(ell, scale(S, 2.0), scale(D, 2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_max_c0_boundary_sampling_oracle():
    s = sys_1d()
    ell = find_contractive_ellipsoid(s)
    c0 = max_c0(ell, s.S_xu, s.D)
    assert c0 > 0
    Qi = ell.Q_inv
    K1 = ell.R1 @ Qi
    K2 = ell.R2 @ Qi
    L = np.linalg.cholesky(ell.Q)
    for sgn in (-1.0, 1.0):
        x = c0 * (L @ np.array([sgn]))
        assert s.S_xu.contains_point(np.r_[x, K1 @ x], tol=1e-8)
        assert s.D.contains_point(K2 @ x, tol=1e-8)
        x_hot = 1.01 * x
        ok = (s.S_xu.contains_point(np.r_[x_hot, K1 @ x_hot], tol=1e-12)
              and s.D.contains_point(K2 @ x_hot, tol=1e-12))
        if ok:
            pytest.fail("c0 is not maximal: inflated boundary stayed feasible")


def test_min_c_out_modes():
    box = unit_box(2)
    assert min_c_out(box, np.eye(2)) == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(0)
    P2 = Box(np.array([-1.2, -0.7]), np.array([1.2, 0.7])).to_polytope()
    Qs = []
    for _ in range(4):
        M = rng.normal(size=(2, 2))
        Qs.append(M @ M.T + 0.5 * np.eye(2))
    corners = np.array([[x, y] for x in (-1.2, 1.2) for y in (-0.7, 0.7)])
    for Q in Qs:  # oracle: the box's corners are its vertices
        want = np.sqrt(np.max(np.einsum("ij,jk,ik->i", corners,
                                        np.linalg.inv(Q), corners)))
        assert min_c_out(P2, Q) == pytest.approx(want, rel=1e-12)


def test_contraction_params_examples():
    p = contraction_params(0.5, 2.0, 0.5)
    assert p.gamma == pytest.approx(0.25)
    assert p.N == 3
    assert p.lam == pytest.approx(0.5)

    p = contraction_params(1.3, 1.3, 0.7)
    assert p.gamma == pytest.approx(1.0)
    assert p.N == 1
    assert p.lam == pytest.approx(0.7)


def test_contraction_params_guards():
    with pytest.raises(ValueError):
        contraction_params(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        contraction_params(0.5, 1.0, 1.0)


def test_schedule_certifies_contractiveness_1d():
    s = sys_1d()
    co = collaborative(s)
    C_co, conv = max_invariant_set(co, tol=1e-10)
    assert conv
    ell = find_contractive_ellipsoid(s)
    c0 = max_c0(ell, s.S_xu, s.D)
    c_out = min_c_out(C_co, ell.Q)
    params = contraction_params(c0, c_out, ell.lam_a)
    assert params.lam < 1.0
    assert check_contractive(co, scale(C_co, params.gamma), N=params.N,
                             lam=params.lam, tol=1e-8)


def test_ellipsoid_level_contracts_under_simulation():
    s = sys_1d()
    ell = find_contractive_ellipsoid(s)
    Qi = ell.Q_inv
    K1 = ell.R1 @ Qi
    K2 = ell.R2 @ Qi
    Ac = s.A + s.B @ K1 + s.E @ K2
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=1)
        x = x / np.sqrt(x @ Qi @ x)  # boundary of E(1)
        x_next = Ac @ x
        assert x_next @ Qi @ x_next <= ell.lam_a ** 2 * (x @ Qi @ x) + 1e-10


def test_ellipsoid_inside_max_invariant_set():
    s = sys_1d()
    co = collaborative(s)
    C_co, _ = max_invariant_set(co, tol=1e-10)
    ell = find_contractive_ellipsoid(s)
    c0 = max_c0(ell, s.S_xu, s.D)
    # E(c0) in 1D is the interval |x| <= c0 * sqrt(Q)
    r = float(c0 * np.sqrt(ell.Q[0, 0]))
    from preview_regret.polytope import contains, interval as iv

    assert contains(C_co, iv(-r, r), tol=1e-8)
