"""Dense numeric kernel: LPs, strictly convex QPs, Riccati/Lyapunov solves.

All routines are pure functions of their inputs.
"""

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


def _scipy_lp(c, A_ub, b_ub, A_eq, b_eq, nonneg=None):
    from scipy.optimize import linprog

    if nonneg is None:
        bounds = (None, None)
    else:
        bounds = [(0, None) if f else (None, None) for f in nonneg]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return OPTIMAL, res.x, float(res.fun)
    if res.status == 2:
        return INFEASIBLE, None, np.nan
    if res.status == 3:
        return UNBOUNDED, None, np.nan
    raise SolverError(f"LP backend failed: {res.message}")


def _simplex(c, A_ub, b_ub, A_eq, b_eq, nonneg=None):
    """Two-phase dense tableau simplex; free variables are split x = u - v.

    Dantzig pricing, switching to Bland's rule after a run of degenerate
    pivots. Returns (status, x, objective); status "stall" requests the
    scipy fallback.
    """
    n = c.shape[0]
    if nonneg is None:
        nonneg = np.zeros(n, dtype=bool)
    blocks_A, blocks_b, is_eq = [], [], []
    if A_ub is not None and A_ub.shape[0]:
        blocks_A.append(A_ub)
        blocks_b.append(b_ub)
        is_eq.append(np.zeros(A_ub.shape[0], dtype=bool))
    if A_eq is not None and A_eq.shape[0]:
        blocks_A.append(A_eq)
        blocks_b.append(b_eq)
        is_eq.append(np.ones(A_eq.shape[0], dtype=bool))
    if not blocks_A:
        if np.any(np.abs(c) > _COSTTOL):
            return UNBOUNDED, None, np.nan
        return OPTIMAL, np.zeros(n), 0.0
    A = np.vstack(blocks_A)
    b = np.concatenate(blocks_b)
    eq = np.concatenate(is_eq)
    m = A.shape[0]

    # Columns: x (n), negative parts for free variables, slacks, artificials.
    free_idx = np.flatnonzero(~nonneg)
    n_free = free_idx.shape[0]
    n_slack = int(np.sum(~eq))
    nx = n + n_free
    full = np.zeros((m, nx + n_slack))
    full[:, :n] = A
    full[:, n:nx] = -A[:, free_idx]
    slack_col = {}
    j = nx
    for i in range(m):
        if not eq[i]:
            full[i, j] = 1.0
            slack_col[i] = j
            j += 1

    flip = b < 0
    full[flip] *= -1.0
    b = np.abs(b)

    need_art = eq | flip
    n_art = int(np.sum(need_art))
    ncols = nx + n_slack + n_art
    T = np.zeros((m, ncols + 1))
    T[:, :nx + n_slack] = full
    T[:, -1] = b
    basis = np.empty(m, dtype=np.intp)
    j = nx + n_slack
    art_cols = []
    for i in range(m):
        if need_art[i]:
            T[i, j] = 1.0
            basis[i] = j
            art_cols.append(j)
            j += 1
        else:
            basis[i] = slack_col[i]
    art_cols = np.array(art_cols, dtype=np.intp)

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    cost2[n:nx] = -c[free_idx]

    def run_phase(cost, allowed, bound_scale):
        nonlocal T, basis
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
            piv = T[leave, enter]
            T[leave] /= piv
            coefs = T[:, enter].copy()
            coefs[leave] = 0.0
            T -= np.outer(coefs, T[leave])
            red = red - red[enter] * T[leave, :-1]
            basis[leave] = enter
            obj = float(cost[basis] @ T[:, -1])
            if abs(obj) > bound_scale:
                return "stall", red, obj
        return "stall", red, obj

    scale = 1e14 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    if n_art:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = 1.0
        allowed1 = np.ones(ncols, dtype=bool)
        status, red, obj1 = run_phase(cost1, allowed1, scale)
        if status == "stall":
            return "stall", None, np.nan
        phase1 = float(cost1[basis] @ T[:, -1])
        if phase1 > 1e-7 * (1.0 + float(np.max(b, initial=0.0))):
            return INFEASIBLE, None, np.nan
        # Pivot remaining artificials out of the basis where possible.
        art_set = set(int(a) for a in art_cols)
        drop_rows = []
        for i in range(m):
            if int(basis[i]) in art_set:
                row = T[i, :-1]
                row_cand = np.flatnonzero(np.abs(row) > 1e-9)
                row_cand = [jc for jc in row_cand if int(jc) not in art_set]
                if row_cand:
                    enter = int(row_cand[0])
                    piv = T[i, enter]
                    T[i] /= piv
                    coefs = T[:, enter].copy()
                    coefs[i] = 0.0
                    T -= np.outer(coefs, T[i])
                    basis[i] = enter
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = np.ones(m, dtype=bool)
            keep[drop_rows] = False
            T = T[keep]
            basis = basis[keep]
            m = T.shape[0]

    allowed2 = np.ones(ncols, dtype=bool)
    allowed2[art_cols] = False
    status, red, obj = run_phase(cost2, allowed2, scale)
    if status == "stall":
        return "stall", None, np.nan
    if status == UNBOUNDED:
        return UNBOUNDED, None, np.nan
    xfull = np.zeros(ncols)
    xfull[basis] = T[:, -1]
    x = xfull[:n].copy()
    x[free_idx] -= xfull[n:nx]
    return OPTIMAL, x, float(c @ x)


def solve_lp_fast(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                  nonneg=None) -> LpSolution:
    """Solve min c'x s.t. A_ub x <= b_ub, A_eq x = b_eq; the one LP entry point.

    Variables are free unless flagged in the boolean mask nonneg. Arrays
    must be float and consistent in shape; they are not validated. Statuses
    are reported, never silently collapsed. Small problems go through the
    in-house two-phase simplex; large ones, and any solve the simplex flags
    as numerically stuck, use HiGHS.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    m = (0 if A_ub is None else A_ub.shape[0]) + (0 if A_eq is None else A_eq.shape[0])
    if n <= 60 and m <= 400:
        status, x, obj = _simplex(c, A_ub, b_ub, A_eq, b_eq, nonneg=nonneg)
        if status != "stall":
            return LpSolution(status, x, obj)
    status, x, obj = _scipy_lp(c, A_ub, b_ub, A_eq, b_eq, nonneg=nonneg)
    return LpSolution(status, x, obj)


def solve_qp(G, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Strictly convex QP  min 1/2 x'Gx + c'x  by a primal active-set method.

    Equalities stay in the working set permanently. A feasible start is
    found with a phase-1 LP. Returns (x, status).
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    if A_ub is None:
        A_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    else:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    else:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]

    sol = solve_lp_fast(np.zeros(n), A_ub, b_ub, A_eq if m_eq else None,
                        b_eq if m_eq else None)
    if not sol.optimal:
        return None, sol.status
    x = sol.point.copy()

    ftol = 1e-9 * (1.0 + float(np.max(np.abs(b_ub), initial=0.0)))
    work = list(np.flatnonzero(A_ub @ x - b_ub >= -ftol))
    for _ in range(50 * (n + m_ub + m_eq + 1)):
        W = np.vstack([A_eq, A_ub[work]]) if (m_eq or work) else np.zeros((0, n))
        g = G @ x + c
        # Null-space step: minimize the quadratic on {p : W p = 0}.
        if W.shape[0]:
            Z = scipy.linalg.null_space(W)
        else:
            Z = np.eye(n)
        if Z.shape[1]:
            H = Z.T @ G @ Z
            rhs = -(Z.T @ g)
            try:
                pz = np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                pz = np.linalg.lstsq(H, rhs, rcond=None)[0]
            p = Z @ pz
        else:
            p = np.zeros(n)

        if np.max(np.abs(p), initial=0.0) <= 1e-11 * (1.0 + np.max(np.abs(x))):
            if not work:
                return x, OPTIMAL
            lam = np.linalg.lstsq(W.T, -g, rcond=None)[0]
            lam_ub = lam[m_eq:]
            if lam_ub.size == 0 or np.min(lam_ub) >= -1e-9:
                return x, OPTIMAL
            drop = int(np.argmin(lam_ub))
            work.pop(drop)
            continue

        mask = np.ones(m_ub, dtype=bool)
        mask[work] = False
        Ap = A_ub[mask] @ p
        resid = b_ub[mask] - A_ub[mask] @ x
        idx = np.flatnonzero(mask)
        blocking = Ap > 1e-12
        alpha = 1.0
        hit = -1
        if np.any(blocking):
            steps = resid[blocking] / Ap[blocking]
            k = int(np.argmin(steps))
            if steps[k] < alpha:
                alpha = max(steps[k], 0.0)
                hit = int(idx[np.flatnonzero(blocking)[k]])
        x = x + alpha * p
        if hit >= 0:
            work.append(hit)
    raise SolverError("active-set QP did not converge")


def project_point(point, P):
    """Euclidean projection of a point onto a polytope.

    Returns (closest, distance); distance is 0 iff the point is feasible.
    """
    from .polytope import EmptyPolytopeError

    point = np.atleast_1d(np.asarray(point, dtype=float))
    H, h = P.H, P.h
    norms = np.linalg.norm(H, axis=1)
    if np.all(H @ point - h <= 1e-12 * np.maximum(norms, 1.0)):
        return point.copy(), 0.0
    x, status = solve_qp(np.eye(point.shape[0]), -point, A_ub=H, b_ub=h)
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
    """X with A' X A - X = -Q (A Schur stable, Q symmetric)."""
    X = scipy.linalg.solve_discrete_lyapunov(np.asarray(A, dtype=float).T,
                                             np.asarray(Q, dtype=float))
    return 0.5 * (X + X.T)
