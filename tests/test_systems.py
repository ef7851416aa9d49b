import numpy as np
import pytest

from preview_regret.models import build_1d, build_template
from preview_regret.polytope import (
    Box,
    HPolytope,
    bounding_box,
    interval,
    set_equal,
    translate,
    unit_box,
)
from preview_regret.systems import (
    AssumptionError,
    Equilibrium,
    LinearSystem,
    augment,
    collaborative,
    equilibrium_margin_at_zero,
    find_forced_equilibrium,
    shift_origin,
)


def sys_1d(a=2.0, xbar=10.0, ubar=1.0, dbar=0.5):
    S = Box(np.array([-xbar, -ubar]), np.array([xbar, ubar])).to_polytope()
    return LinearSystem([[a]], [[1.0]], [[1.0]], interval(-dbar, dbar), S)


def test_augment_1d_matrices():
    sp = augment(sys_1d(), 1)
    assert np.allclose(sp.A, [[2.0, 1.0], [0.0, 0.0]])
    assert np.allclose(sp.B, [[1.0], [0.0]])
    assert np.allclose(sp.E, [[0.0], [1.0]])
    assert sp.S_xu.dim == 3
    # (x, d1, u) ordering: u rows sit in the trailing column
    assert sp.n == 2 and sp.m == 1 and sp.l == 1


def test_augment_zero_is_identity():
    s = sys_1d()
    assert augment(s, 0) is s


def test_augment_dimension_law():
    s = sys_1d()
    for p in (1, 2, 4):
        sp = augment(s, p)
        assert sp.n == 1 + p
        assert sp.S_xu.num_rows == s.S_xu.num_rows + p * s.D.num_rows


def test_augment_composition():
    s = sys_1d()
    once = augment(s, 3)
    twice = augment(augment(s, 1), 2)
    # composing preview extensions reorders preview slots consistently
    assert np.allclose(once.A, twice.A)
    assert np.allclose(once.B, twice.B)
    assert np.allclose(once.E, twice.E)
    assert set_equal(once.S_xu, twice.S_xu, tol=1e-12)


def test_preview_feedback_equivalence():
    # a state-feedback law on the augmented system replays as a
    # preview controller on the base system, with identical x(t)
    rng = np.random.default_rng(0)
    s = sys_1d()
    p = 3
    sp = augment(s, p)
    for _ in range(20):
        K = rng.normal(size=(1, sp.n)) * 0.2
        stream = rng.uniform(-0.5, 0.5, size=30)
        x_aug = np.r_[rng.uniform(-1, 1), stream[:p]]
        x_base = x_aug[:1].copy()
        for t in range(10):
            u = K @ x_aug
            x_aug = sp.A @ x_aug + sp.B @ u + sp.E @ np.atleast_1d(stream[t + p])
            window = stream[t:t + p]
            u_base = K @ np.r_[x_base, window]
            x_base = s.A @ x_base + s.B @ u_base + s.E @ np.atleast_1d(stream[t])
            assert np.allclose(x_aug[:1], x_base, atol=1e-12)


def test_collaborative_1d():
    co = collaborative(sys_1d())
    assert np.allclose(co.B, [[1.0, 1.0]])
    assert co.S_xu.dim == 3
    assert co.m == 2


def test_collaborative_zero_disturbance():
    s = sys_1d(dbar=0.0)
    co = collaborative(s)
    # dummy second input pinned to zero
    assert co.S_xu.contains_point([0.0, 0.0, 0.0])
    assert not co.S_xu.contains_point([0.0, 0.0, 0.1])


def test_collaborative_augmented_dims():
    co = collaborative(augment(sys_1d(), 1))
    assert co.n == 2 and co.m == 2
    co0 = collaborative(augment(sys_1d(), 0))
    assert co0.n == 1 and co0.m == 2


def test_collaborative_stabilizability_monotone():
    rng = np.random.default_rng(1)
    from preview_regret.solver import is_stabilizable

    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, 1))
        if not is_stabilizable(A, B):
            continue
        E = rng.normal(size=(n, 1))
        assert is_stabilizable(A, np.hstack([B, E]))


def test_find_forced_equilibrium_symmetric():
    s = sys_1d()
    proj = interval(-1.0, 1.0)
    eq = find_forced_equilibrium(s, proj)
    assert np.allclose(eq.x_e, 0.0, atol=1e-9)
    # margin is the smallest slack: min(10, 1, 0.5, 1) = 0.5
    assert eq.margin == pytest.approx(0.5, abs=1e-9)


def test_equilibrium_margin_at_zero_matches_lp():
    s = sys_1d()
    proj = interval(-1.0, 1.0)
    eq = find_forced_equilibrium(s, proj)
    assert equilibrium_margin_at_zero(s, proj) == pytest.approx(eq.margin, abs=1e-9)


def test_find_forced_equilibrium_infeasible():
    # x+ = 2x with x required in [1, 2]: equilibrium x = 0 is excluded
    S = Box(np.array([1.0, -1.0]), np.array([2.0, 1.0])).to_polytope()
    s = LinearSystem([[2.0]], [[0.0]], [[0.0]],
                     HPolytope([[1.0], [-1.0]], [0.0, 0.0]), S)
    with pytest.raises(AssumptionError):
        find_forced_equilibrium(s, interval(1.0, 2.0))


def _margin_with_equality_rows(s, proj, interior):
    """The equilibrium LP over (x_e, u_e, d_e, eps), with the equilibrium
    equations as equality rows and eps >= 0 as a bound, solved by HiGHS."""
    from scipy.optimize import linprog

    n, m, l = s.n, s.m, s.l
    nv = n + m + l + 1
    rows, rhs = [], []
    for P, first, ball in ((s.S_xu, 0, True), (s.D, n + m, True),
                           (proj, 0, interior)):
        r = np.zeros((P.num_rows, nv))
        r[:, first:first + P.dim] = P.H
        if ball:
            r[:, -1] = np.abs(P.H).sum(axis=1)
        rows.append(r)
        rhs.append(P.h)
    c = np.zeros(nv)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  A_eq=np.hstack([s.A - np.eye(n), s.B, s.E, np.zeros((n, 1))]),
                  b_eq=np.zeros(n), bounds=[(None, None)] * (nv - 1) + [(0, None)],
                  method="highs")
    assert res.status == 0
    return -res.fun


def _equilibrium_cases():
    biped = build_template("biped")[0]  # A - I is singular
    x_hi = bounding_box(biped.S_xu).upper[:biped.n]
    one = build_1d()[0]
    one = LinearSystem(one.A, one.B, one.E, one.D,
                       translate(one.S_xu, np.array([3.0, -3.0])))
    two_inputs = LinearSystem(
        [[1.2, 0.5], [0.0, 0.8]], [[1.0, 0.0], [0.5, 1.0]], [[1.0], [0.0]],
        interval(-0.1, 0.2), translate(unit_box(4), np.array([1.0, -1.0, 0.5, 0.2])))
    return {"biped": (biped, Box(-0.1 * x_hi, 0.3 * x_hi).to_polytope()),
            "1d-translated": (one, interval(2.0, 2.6)),
            "two-inputs": (two_inputs, Box(np.array([0.0, -0.3]),
                                           np.array([0.2, 0.0])).to_polytope())}


@pytest.mark.parametrize("interior", [True, False])
@pytest.mark.parametrize("case", ["biped", "1d-translated", "two-inputs"])
def test_forced_equilibrium_matches_the_lp_with_equality_rows(case, interior):
    s, proj = _equilibrium_cases()[case]
    eq = find_forced_equilibrium(s, proj, require_interior_projection=interior)
    assert abs(eq.margin - _margin_with_equality_rows(s, proj, interior)) <= 1e-9
    z = np.r_[eq.x_e, eq.u_e, eq.d_e]
    residual = (s.A - np.eye(s.n)) @ eq.x_e + s.B @ eq.u_e + s.E @ eq.d_e
    assert np.max(np.abs(residual)) <= 1e-12 * (1.0 + np.max(np.abs(z)))


def test_relaxed_variant_no_smaller():
    s = sys_1d()
    proj = interval(-0.2, 1.0)  # asymmetric, pushes the strict optimum around
    strict = find_forced_equilibrium(s, proj, require_interior_projection=True)
    relaxed = find_forced_equilibrium(s, proj, require_interior_projection=False)
    assert relaxed.margin >= strict.margin - 1e-9


def test_shift_origin_roundtrip():
    s = sys_1d()
    eq = Equilibrium(np.array([0.5]), np.array([-0.5]), np.array([0.1]))
    shifted = shift_origin(s, eq)
    # the shifted equilibrium is the new origin
    assert shifted.S_xu.contains_point([9.5, -0.5])
    back = shift_origin(shifted, Equilibrium(-eq.x_e, -eq.u_e, -eq.d_e))
    assert set_equal(back.S_xu, s.S_xu, tol=1e-12)
    assert set_equal(back.D, s.D, tol=1e-12)


def test_shift_origin_zero_identity():
    s = sys_1d()
    eq = Equilibrium(np.zeros(1), np.zeros(1), np.zeros(1))
    shifted = shift_origin(s, eq)
    assert set_equal(shifted.S_xu, s.S_xu, tol=1e-15)


def test_linear_system_validation():
    import pytest as _pytest

    D = interval(-0.5, 0.5)
    S = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])).to_polytope()
    with _pytest.raises(ValueError):
        LinearSystem([[1.0, 0.0]], [[1.0]], [[1.0]], D, S)  # A not square
    with _pytest.raises(ValueError):
        LinearSystem([[1.0]], [[1.0], [0.0]], [[1.0]], D, S)  # B rows
    with _pytest.raises(ValueError):
        LinearSystem([[1.0]], [[1.0]], [[1.0, 0.0]], D, S)  # E vs D dim
    with _pytest.raises(ValueError):
        LinearSystem([[1.0]], [[1.0]], [[1.0]], D, interval(-1, 1))  # S dim
