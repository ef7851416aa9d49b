"""Contractive ellipsoids for the collaborative system and the contraction
schedule (gamma, N, lambda) they induce on the maximal invariant set.

The minimal-contraction matrix program is solved by bisection over the target
rate; each feasibility test is a Riccati solve on the rate-scaled dynamics
instead of an LMI, which certifies the same property (a valid quadratic
contraction certificate) at the cost of a possibly suboptimal rate.
"""

from dataclasses import dataclass

import numpy as np

from .polytope import HPolytope, vertices
from .solver import (
    BISECTION_FLOOR, BISECTION_ITERS, CONTRACTION_MARGIN, ELLIPSOID_GAP_TOL,
    RATE_TOL, UNIT_CIRCLE_TOL, ZERO_ROW_NORM, NotStabilizableError,
    SolverError, cholesky, dare_gain, is_stabilizable, solve_dare,
    solve_dlyap, spectral_radius,
)
from .systems import LinearSystem


@dataclass
class ContractiveEllipsoid:
    """E(c) = {x : x' Q^{-1} x <= c^2} with feedback u = R1 Q^{-1} x,
    u_d = R2 Q^{-1} x contracting the quadratic level by lam_a per step."""

    Q: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    lam_a: float

    @property
    def Q_inv(self) -> np.ndarray:
        return np.linalg.inv(self.Q)

    def closed_loop(self, A, B, E) -> np.ndarray:
        Qi = self.Q_inv
        return A + B @ (self.R1 @ Qi) + E @ (self.R2 @ Qi)

    def certificate_gap(self, A, B, E) -> float:
        """max eigenvalue of A_c' Q^{-1} A_c - lam_a^2 Q^{-1} (<= 0 is valid)."""
        Qi = self.Q_inv
        Ac = self.closed_loop(A, B, E)
        M = Ac.T @ Qi @ Ac - self.lam_a ** 2 * Qi
        return float(np.max(np.linalg.eigvalsh(0.5 * (M + M.T))))


@dataclass
class ContractionParams:
    gamma: float
    N: int
    lam: float


def find_contractive_ellipsoid(sys: LinearSystem) -> ContractiveEllipsoid:
    """Smallest-rate contractive ellipsoid of the collaborative system
    (inputs u and d), found by bisection over [BISECTION_FLOOR, 1) in
    BISECTION_ITERS steps. The returned lam_a upper-bounds the optimal rate.
    """
    A = sys.A
    Bc = np.hstack([sys.B, sys.E])
    m = sys.m
    n = A.shape[0]
    if not is_stabilizable(A, Bc):
        raise NotStabilizableError("collaborative system is not stabilizable")

    rho_open = spectral_radius(A)
    K_zero = np.zeros((Bc.shape[1], n))

    def try_rate(rho):
        if rho_open < rho * (1.0 - RATE_TOL):
            return K_zero  # open loop already meets the rate
        At = A / rho
        Bt = Bc / rho
        try:
            P = solve_dare(At, Bt, np.eye(n), np.eye(Bt.shape[1]))
        except (NotStabilizableError, SolverError, np.linalg.LinAlgError):
            return None
        K = dare_gain(At, Bt, np.eye(Bt.shape[1]), P)
        if spectral_radius(A + Bc @ K) < rho * (1.0 - RATE_TOL):
            return K
        return None

    hi = (1.0 - UNIT_CIRCLE_TOL) / np.sqrt(1.0 + CONTRACTION_MARGIN)
    K_best = try_rate(hi)
    if K_best is None:
        raise NotStabilizableError(
            "no contraction certificate below rate 1; system too marginal")
    rho_best = hi
    lo = BISECTION_FLOOR
    K_floor = try_rate(lo)
    if K_floor is not None:
        rho_best, K_best = lo, K_floor
    else:
        for _ in range(BISECTION_ITERS):
            mid = 0.5 * (lo + rho_best)
            K_mid = try_rate(mid)
            if K_mid is not None:
                rho_best, K_best = mid, K_mid
            else:
                lo = mid

    Ac = A + Bc @ K_best
    lam_a = rho_best * np.sqrt(1.0 + CONTRACTION_MARGIN)
    M = Ac / lam_a
    P = solve_dlyap(M, np.eye(n) / (lam_a ** 2))
    cholesky(P)  # raises if the certificate is numerically invalid
    Q = np.linalg.inv(P)
    Q = 0.5 * (Q + Q.T)
    K1, K2 = K_best[:m], K_best[m:]
    ell = ContractiveEllipsoid(Q=Q, R1=K1 @ Q, R2=K2 @ Q, lam_a=float(lam_a))
    gap = ell.certificate_gap(A, Bc[:, :m], Bc[:, m:])
    if gap > ELLIPSOID_GAP_TOL * max(1.0, float(np.max(np.abs(P)))):
        raise NotStabilizableError("contraction certificate failed numerically")
    return ell


def max_c0(ell: ContractiveEllipsoid, S_xu: HPolytope, D: HPolytope) -> float:
    """Largest c with (x, R1 Q^{-1} x) in S_xu and R2 Q^{-1} x in D on E(c).

    Rowwise closed form: c * ||[L' L^{-1}R1'] H_i'|| <= h_i per safe-set row
    and c * ||L^{-1}R2' H_j'|| <= h_j per disturbance row. Zero-norm rows are
    unconstrained in the ellipsoid directions and are skipped.
    """
    L = cholesky(ell.Q)
    Linv = np.linalg.inv(L)
    n = ell.Q.shape[0]
    Hx = S_xu.H[:, :n]
    Hu = S_xu.H[:, n:]
    W = Hx @ L + Hu @ (Linv @ ell.R1.T).T  # row i -> w_i' with |w_i| the norm
    norms = np.linalg.norm(W, axis=1)
    c0 = np.inf
    for nm, hi in zip(norms, S_xu.h):
        if nm <= ZERO_ROW_NORM:
            continue
        c0 = min(c0, hi / nm)
    WD = D.H @ (Linv @ ell.R2.T).T
    for nm, hj in zip(np.linalg.norm(WD, axis=1), D.h):
        if nm <= ZERO_ROW_NORM:
            continue
        c0 = min(c0, hj / nm)
    if not np.isfinite(c0):
        raise ValueError("every constraint row is unconstrained; check inputs")
    return float(max(c0, 0.0))


def min_c_out(C_max_co: HPolytope, Q) -> float:
    """Smallest c with C_max_co inside E(c), read off its vertices."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    Qi = np.linalg.inv(Q)
    if not C_max_co.contains_point(np.zeros(C_max_co.dim)):
        raise ValueError("expected the origin inside the invariant set")
    V = vertices(C_max_co)
    vals = np.einsum("ij,jk,ik->i", V, Qi, V)
    return float(np.sqrt(np.max(vals)))


def contraction_params(c0: float, c_out: float, lam_a: float) -> ContractionParams:
    """Schedule (gamma, N, lambda) certified by a lam_a-contractive ellipsoid
    pinched between gamma*C and C."""
    if c0 <= 0:
        raise ValueError("c0 must be positive (interior equilibrium missing?)")
    if lam_a <= 0.0 or lam_a >= 1.0:
        raise ValueError("lam_a must lie in (0, 1)")
    gamma = min(c0 / c_out, 1.0)
    N = int(np.floor(np.log(gamma) / np.log(lam_a))) + 1
    lam = lam_a ** N / gamma
    return ContractionParams(gamma=float(gamma), N=N, lam=float(lam))
