"""System builders: preview augmentation, disturbance-collaborative forms,
forced equilibria and origin shifting.

Coordinate conventions, fixed once for the whole package:
  * augmented state is (x, d_1, ..., d_p); the input u trails the state in
    every safe set; the disturbance feeds the last preview slot,
  * a collaborative system stacks its inputs as (u, u_d).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .polytope import (
    HPolytope,
    cache_vertex_list,
    cartesian_product,
    max_inscribed_ball_at,
    translate,
)
from .solver import INFEASIBLE, solve_lp_fast


class AssumptionError(RuntimeError):
    """A working assumption (interior equilibrium, ...) cannot be verified."""


@dataclass
class LinearSystem:
    """x(t+1) = A x + B u + E d with d ranging over D and safe set S_xu."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    D: HPolytope
    S_xu: HPolytope

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.E = np.atleast_2d(np.asarray(self.E, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.E.shape[0] != n:
            raise ValueError("B and E must have as many rows as A")
        if self.D.dim != self.E.shape[1]:
            raise ValueError("disturbance set dimension does not match E")
        if self.S_xu.dim != n + self.B.shape[1]:
            raise ValueError("safe set must live in state-input space")
        if self.l:  # every backward step erodes by D
            cache_vertex_list(self.D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def l(self) -> int:
        return self.E.shape[1]

    def step(self, x, u, d):
        return self.A.dot(x) + self.B.dot(u) + self.E.dot(d)


@dataclass
class Equilibrium:
    x_e: np.ndarray
    u_e: np.ndarray
    d_e: np.ndarray
    margin: float = 0.0


def augment(sys: LinearSystem, p: int) -> LinearSystem:
    """The p-step preview system: state (x, d_1..d_p), new disturbance enters
    the last preview slot through a shift register."""
    if p < 0:
        raise ValueError("preview horizon must be nonnegative")
    if p == 0:
        return sys
    n, m, l = sys.n, sys.m, sys.l
    np_ = n + p * l
    A_p = np.zeros((np_, np_))
    A_p[:n, :n] = sys.A
    A_p[:n, n:n + l] = sys.E
    for i in range(p - 1):
        A_p[n + i * l:n + (i + 1) * l, n + (i + 1) * l:n + (i + 2) * l] = np.eye(l)
    B_p = np.zeros((np_, m))
    B_p[:n] = sys.B
    E_p = np.zeros((np_, l))
    E_p[n + (p - 1) * l:] = np.eye(l)

    # S_xu rows [Hx Hu] become [Hx 0 Hu]; each preview slot is boxed by D.
    Hx = sys.S_xu.H[:, :n]
    Hu = sys.S_xu.H[:, n:]
    q = sys.S_xu.num_rows
    HD = sys.D.H
    qd = HD.shape[0]
    rows = np.zeros((q + p * qd, np_ + m))
    rhs = np.empty(q + p * qd)
    rows[:q, :n] = Hx
    rows[:q, np_:] = Hu
    rhs[:q] = sys.S_xu.h
    for i in range(p):
        r0 = q + i * qd
        rows[r0:r0 + qd, n + i * l:n + (i + 1) * l] = HD
        rhs[r0:r0 + qd] = sys.D.h
    return LinearSystem(A_p, B_p, E_p, sys.D, HPolytope(rows, rhs))


def collaborative(sys: LinearSystem) -> LinearSystem:
    """Promote the disturbance to a second input: inputs (u, u_d) through
    [B E], safe set S_xu x D, and no disturbance channel (E with zero
    columns, D = R^0), so pre skips the erosion."""
    return LinearSystem(sys.A, np.hstack([sys.B, sys.E]),
                        np.zeros((sys.n, 0)), HPolytope.universe(0),
                        cartesian_product(sys.S_xu, sys.D))


def find_forced_equilibrium(sys: LinearSystem, proj_c: HPolytope,
                            require_interior_projection=True) -> Equilibrium:
    """Most-interior forced equilibrium via an LP.

    Maximizes the margin eps of a sup-norm ball around (x_e, u_e, d_e) inside
    S_xu x D, with x_e + eps*B(n) inside proj_c (strict variant) or merely
    x_e in proj_c (relaxed variant). margin == 0 means the equilibrium only
    exists on the boundary, so the interiority assumptions fail. The
    equilibria z = (x_e, u_e, d_e) are z = N w with N an orthonormal basis
    of the null space of [A - I, B, E], so the LP runs over (w, eps) with
    inequality rows only, and eps >= 0 is one of them.
    """
    n, m = sys.n, sys.m
    N = scipy.linalg.null_space(np.hstack([sys.A - np.eye(n), sys.B, sys.E]))
    k = N.shape[1]
    blocks = ((sys.S_xu, N[:n + m], True), (sys.D, N[n + m:], True),
              (proj_c, N[:n], require_interior_projection))
    rows, rhs = [], []
    for P, Nz, ball in blocks:
        r = np.zeros((P.num_rows, k + 1))
        r[:, :k] = P.H @ Nz
        if ball:
            r[:, -1] = np.abs(P.H).sum(axis=1)
        rows.append(r)
        rhs.append(P.h)
    rows.append(np.r_[np.zeros(k), -1.0][None])
    rhs.append([0.0])

    c = np.zeros(k + 1)
    c[-1] = -1.0
    sol = solve_lp_fast(c, np.vstack(rows), np.concatenate(rhs))
    if sol.status == INFEASIBLE:
        raise AssumptionError("no forced equilibrium inside the constraint set")
    if not sol.optimal:
        raise AssumptionError(f"equilibrium LP ended with status {sol.status}")
    z = N @ sol.point[:k]
    return Equilibrium(z[:n], z[n:n + m], z[n + m:], float(sol.point[-1]))


def equilibrium_margin_at_zero(sys: LinearSystem, proj_c: HPolytope,
                               require_interior_projection=True) -> float:
    """Margin of the zero equilibrium (the cheap first attempt)."""
    eps_s = max_inscribed_ball_at(sys.S_xu, np.zeros(sys.n + sys.m))
    eps_d = max_inscribed_ball_at(sys.D, np.zeros(sys.l))
    eps = min(eps_s, eps_d)
    if require_interior_projection:
        eps = min(eps, max_inscribed_ball_at(proj_c, np.zeros(sys.n)))
    elif not proj_c.contains_point(np.zeros(sys.n)):
        return 0.0
    return float(max(eps, 0.0))


def shift_origin(sys: LinearSystem, eq: Equilibrium) -> LinearSystem:
    """Move the origin of the state-input-disturbance space to a forced
    equilibrium; dynamics matrices are unchanged."""
    t_xu = np.r_[eq.x_e, eq.u_e]
    return LinearSystem(sys.A, sys.B, sys.E,
                        translate(sys.D, -eq.d_e),
                        translate(sys.S_xu, -t_xu))
