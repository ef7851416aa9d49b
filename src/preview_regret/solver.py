"""Dense numeric kernel: LPs, least-distance QPs, Riccati/Lyapunov solves.

All routines are pure functions of their inputs.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

TAU_DARE = 1e-10
DARE_MAX_ITER = 3000

_PIVTOL = 1e-9
_COSTTOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SolverError(RuntimeError):
    """Numerical failure that survived the fallback path."""


class NotPositiveDefiniteError(ValueError):
    pass


class NotStabilizableError(ValueError):
    pass


@dataclass
class LpSolution:
    status: str
    point: np.ndarray | None = None
    objective: float = np.nan

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _scipy_lp(c, A_ub, b_ub):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if res.status == 0:
        return OPTIMAL, res.x, float(res.fun)
    if res.status == 2:
        return INFEASIBLE, None, np.nan
    if res.status == 3:
        return UNBOUNDED, None, np.nan
    raise SolverError(f"LP backend failed: {res.message}")


def _simplex(c, A, b):
    """Two-phase dense tableau simplex for min c'x s.t. A x <= b, x free.

    The tableau is [A | -A | I | artificials]: x = u - v with u, v >= 0, one
    slack per row, and one artificial per row with b < 0, which is negated
    first. Dantzig pricing, switching to Bland's rule after a run of
    degenerate pivots. Returns (status, x, objective); status "stall"
    requests the scipy fallback.
    """
    n = c.shape[0]
    m = A.shape[0]
    flip = np.flatnonzero(b < 0)
    n_real = 2 * n + m  # columns other than the artificials
    ncols = n_real + flip.shape[0]
    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, n:2 * n] = -A
    T[:, 2 * n:n_real] = np.eye(m)
    T[flip, :n_real] *= -1.0
    b = np.abs(b)
    T[:, -1] = b
    art_cols = np.arange(n_real, ncols)
    T[flip, art_cols] = 1.0
    basis = np.arange(2 * n, n_real)
    basis[flip] = art_cols

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    cost2[n:2 * n] = -c

    def pivot(row, col):
        nonlocal T
        T[row] /= T[row, col]
        coefs = T[:, col].copy()
        coefs[row] = 0.0
        T -= np.outer(coefs, T[row])
        basis[row] = col

    def run_phase(cost, allowed, bound_scale):
        # Reduced-cost row kept explicitly and updated with each pivot.
        red = cost - cost[basis] @ T[:, :-1]
        obj = float(cost[basis] @ T[:, -1])
        stall = 0
        bland = False
        for _ in range(100 * (m + ncols)):
            r = np.where(allowed, red, np.inf)
            if bland:
                cand = np.flatnonzero(r < -_COSTTOL)
                if cand.size == 0:
                    return OPTIMAL, red, obj
                enter = int(cand[0])
            else:
                enter = int(np.argmin(r))
                if r[enter] >= -_COSTTOL:
                    return OPTIMAL, red, obj
            col = T[:, enter]
            pos = col > _PIVTOL
            if not np.any(pos):
                return UNBOUNDED, red, obj
            ratios = np.full(m, np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            leave = int(np.argmin(ratios))
            tie = np.flatnonzero(np.abs(ratios - ratios[leave]) <= 1e-12)
            if tie.size > 1:
                leave = int(tie[np.argmin(basis[tie])])
            if ratios[leave] <= 1e-12:
                stall += 1
                if stall > 40:
                    bland = True
            else:
                stall = 0
            pivot(leave, enter)
            red = red - red[enter] * T[leave, :-1]
            obj = float(cost[basis] @ T[:, -1])
            if abs(obj) > bound_scale:
                return "stall", red, obj
        return "stall", red, obj

    b_max = float(np.max(b))
    scale = 1e14 * (1.0 + b_max)
    if flip.size:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = 1.0
        allowed1 = np.ones(ncols, dtype=bool)
        status, red, obj1 = run_phase(cost1, allowed1, scale)
        if status == "stall":
            return "stall", None, np.nan
        phase1 = float(cost1[basis] @ T[:, -1])
        if phase1 > 1e-7 * (1.0 + b_max):
            return INFEASIBLE, None, np.nan
        # Pivot remaining artificials out of the basis on the first column
        # outside the artificials with a nonzero entry. There always is one:
        # row r's slack column stays the negative of its artificial column,
        # so it reads -1 wherever that artificial is basic.
        for i in np.flatnonzero(basis >= n_real):
            pivot(i, int(np.flatnonzero(np.abs(T[i, :n_real]) > 1e-9)[0]))

    allowed2 = np.ones(ncols, dtype=bool)
    allowed2[art_cols] = False
    status, red, obj = run_phase(cost2, allowed2, scale)
    if status == "stall":
        return "stall", None, np.nan
    if status == UNBOUNDED:
        return UNBOUNDED, None, np.nan
    xfull = np.zeros(ncols)
    xfull[basis] = T[:, -1]
    x = xfull[:n] - xfull[n:2 * n]
    return OPTIMAL, x, float(c @ x)


def _lp_residual(x, A, b):
    """Largest violation at x of a row of A x <= b, each divided by
    1 + |a|.|x| + |b|, the size of the terms whose rounding it may show.
    """
    res = (A @ x - b) / (1.0 + np.abs(A) @ np.abs(x) + np.abs(b))
    return max(0.0, float(np.max(res)))


def solve_lp_fast(c, A_ub, b_ub) -> LpSolution:
    """Solve min c'x s.t. A_ub x <= b_ub with x free; the one LP entry point.

    A_ub has at least one row: every caller passes the rows of an
    HPolytope, possibly with more rows stacked on. A caller substitutes any
    equalities away and writes any sign constraint as a row (see
    systems.find_forced_equilibrium). Arrays must be float and consistent
    in shape; they are not validated. Statuses are reported, never
    silently collapsed. Small problems go through the in-house two-phase
    simplex; large ones, and any solve the simplex flags as numerically
    stuck or whose optimal point fails the residual check (see
    _lp_residual), use HiGHS.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[0] <= 60 and A_ub.shape[0] <= 400:
        status, x, obj = _simplex(c, A_ub, b_ub)
        if status == OPTIMAL and _lp_residual(x, A_ub, b_ub) > 1e-9:
            status = "stall"
        if status != "stall":
            return LpSolution(status, x, obj)
    status, x, obj = _scipy_lp(c, A_ub, b_ub)
    return LpSolution(status, x, obj)


def _row_scales(A) -> np.ndarray:
    """max(|a_i|, 1) for each row a_i of A: what solve_qp divides a row's
    violation and its residual by."""
    return np.maximum(np.linalg.norm(A, axis=1), 1.0)


def solve_qp(c, A_ub, b_ub, scale):
    """Least-distance QP  min 1/2 |x|^2 + c'x  s.t. A_ub x <= b_ub.

    Inequalities only, and the Hessian is the identity: a caller
    substitutes any equalities away and whitens any other positive definite
    Hessian G = LL' first (x = L^-T y, c -> L^-1 c, A -> A L^-T). c and
    b_ub are 1-D and A_ub is 2-D, possibly with no rows; lists are
    converted, but a scalar c is not widened. scale holds the row scales
    max(|a_i|, 1) of A_ub, as _row_scales computes them; a caller whose
    rows are fixed computes them once (mpc._condensed_qp). Dual active-set
    method (Goldfarb & Idnani, Math. Prog. 27, 1983), no LP inside: from
    the unconstrained minimiser x = -c it adds the most violated row
    (a_i x - b_i > 1e-12 * scale_i) one at a time and drops an active row
    whose multiplier would turn negative.

    There are two exits. When x = -c violates no row by more than
    1e-12 * scale_i, or there are no rows, it is returned at once, before
    any active set exists: most MPC steps and every zero-distance
    projection end there. Otherwise the loop ends at an x that violates no
    row, returned as (x, OPTIMAL), or with (None, INFEASIBLE) when a
    violated row depends on active rows none of which can be dropped. A
    failed residual check or the iteration cap raise SolverError.

    A row joining an active set of k > 0 rows takes the QR factors of
    those rows. With k = 0 the factor Q would be the identity, so the step
    is taken along the row a itself: w = a, there is no multiplier to
    drop, and the row is dependent exactly when a = 0. The numbers are the
    same as the QR step's, bit for bit, up to the sign of a zero.

    The residual check lets a row miss by the rounding of its own terms,
    1e-12 * (1 + (|a_i|.|x| + |b_i|) / scale_i), which is never below
    1e-12. So a row whose scaled residual is at most 1e-12 cannot fail it,
    and the slack is built only when some row is above 1e-12.
    """
    x = -np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    res = A.dot(x)
    res -= b
    res /= scale
    # res[res.argmax()] is res.max(), a NaN included, for a third of its cost
    if not res.size or res[res.argmax()] <= 1e-12:
        return x, OPTIMAL
    W = []  # active rows
    mu = []  # multipliers of the active rows
    for _ in range(50 * (x.shape[0] + b.shape[0] + 1)):
        viol = res
        if W:
            viol = res.copy()
            viol[W] = -np.inf
        q = int(viol.argmax())
        if viol[q] <= 1e-12:
            # active rows may miss by the rounding of their own terms
            if (res > 1e-12).any():
                slack = 1e-12 * (1.0 + (np.abs(A) @ np.abs(x) + np.abs(b))
                                 / scale)
                if (res > slack).any():
                    raise SolverError("QP solution fails its residual check")
            return x, OPTIMAL
        a = A[q]
        tiny = 1e-12 * math.sqrt(a @ a)
        t_q = 0.0
        while True:
            k = len(W)
            if k:
                Q, R = np.linalg.qr(A[W].T, mode="complete")
                w = Q.T @ a
                r = -np.linalg.solve(R[:k], w[:k])
                w = w[k:]
                t_drop, j = min(((-mu[i] / r[i], i) for i in range(k)
                                 if r[i] < 0), default=(np.inf, -1))
            else:  # Q = I: step along a, with nothing to drop
                w, r, t_drop, j = a, (), np.inf, -1
            ww = w @ w
            dependent = math.sqrt(ww) <= tiny
            if dependent and j < 0:
                return None, INFEASIBLE
            t_add = np.inf if dependent else (a @ x - b[q]) / ww
            t = min(t_add, t_drop)
            x = x - t * (Q[:, k:] @ w if k else w)
            mu = [m_i + t * r_i for m_i, r_i in zip(mu, r)]
            t_q += t
            if t_add <= t_drop:
                W.append(q)
                mu.append(t_q)
                break
            del W[j], mu[j]
        res = A.dot(x)
        res -= b
        res /= scale
    raise SolverError("dual active-set QP did not converge")


def project_point(point, P):
    """Euclidean projection of a point onto a polytope: solve_qp with
    c = -point and the row scales of P.H.

    Returns (closest, distance). A point that violates no row by more than
    1e-12 * max(|H_i|, 1) leaves through solve_qp's first exit, before any
    active set: it comes back as a new array equal to it bit for bit, at
    distance exactly 0.
    """
    from .polytope import EmptyPolytopeError

    point = np.atleast_1d(np.asarray(point, dtype=float))
    x, _ = solve_qp(-point, P.H, P.h, _row_scales(P.H))
    if x is None:
        raise EmptyPolytopeError("cannot project onto an empty polytope")
    return x, float(np.linalg.norm(x - point))


def spectral_radius(A) -> float:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def cholesky(Q) -> np.ndarray:
    """Lower-triangular factor of a symmetric PD matrix; raises otherwise."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if not np.allclose(Q, Q.T, atol=1e-10 * (1.0 + np.max(np.abs(Q)))):
        raise NotPositiveDefiniteError("matrix is not symmetric")
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc


def is_stabilizable(A, B) -> bool:
    """PBH test on the eigenvalues at or outside the unit circle."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - 1e-9:
            M = np.hstack([A - lam * np.eye(n), B])
            if np.linalg.matrix_rank(M, tol=1e-9) < n:
                return False
    return True


def is_controllable(A, B) -> bool:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks), tol=1e-9) == n


def dare_residual(A, B, Q, R, P) -> float:
    S = A.T @ P @ B
    M = R + B.T @ P @ B
    res = A.T @ P @ A - P - S @ np.linalg.solve(M, S.T) + Q
    return float(np.max(np.abs(res)))


def solve_dare(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    scipy's direct solver is tried first; a fixed-point iteration on the
    Riccati recursion (at most DARE_MAX_ITER steps) is the fallback.
    Residual is checked either way. An iterate that overflows cannot
    converge, so it ends the fallback at once with SolverError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if not is_stabilizable(A, B):
        raise NotStabilizableError("(A, B) is not stabilizable")
    scale = 1.0 + float(np.max(np.abs(Q)))
    if B.shape[1] > 0 and np.max(np.abs(B)) > 0:
        try:
            P = scipy.linalg.solve_discrete_are(A, B, Q, R)
            res = dare_residual(A, B, Q, R, P)
            if res <= TAU_DARE * (scale + np.max(np.abs(P))):
                return P
        except (np.linalg.LinAlgError, ValueError):
            pass
    P = Q.copy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(DARE_MAX_ITER):
                S = A.T @ P @ B
                M = R + B.T @ P @ B
                P_next = A.T @ P @ A - S @ np.linalg.solve(M, S.T) + Q
                P_next = 0.5 * (P_next + P_next.T)
                step = np.max(np.abs(P_next - P))
                P = P_next
                if step <= TAU_DARE * (1.0 + np.max(np.abs(P))):
                    break
            else:
                raise SolverError("DARE iteration did not converge")
    except FloatingPointError as exc:
        raise SolverError("DARE iteration diverged") from exc
    if dare_residual(A, B, Q, R, P) > 1e-8 * (scale + np.max(np.abs(P))):
        raise SolverError("DARE residual too large")
    return P


def dare_gain(A, B, R, P) -> np.ndarray:
    """LQR feedback K with closed loop A + B K."""
    M = R + B.T @ P @ B
    return -np.linalg.solve(M, B.T @ P @ A)


def solve_dlyap(A, Q) -> np.ndarray:
    """X with A' X A - X = -Q (A Schur stable, Q symmetric).

    scipy's LinAlgWarning on an ill-conditioned solve is silenced: the
    caller checks X (find_contractive_ellipsoid factors it and bounds the
    certificate's gap), so under -W error the warning would only turn a
    checked result into a traceback.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        X = scipy.linalg.solve_discrete_lyapunov(np.asarray(A, dtype=float).T,
                                                 np.asarray(Q, dtype=float))
    return 0.5 * (X + X.T)
