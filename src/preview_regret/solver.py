"""Dense numeric kernel: LPs, least-distance QPs, Riccati/Lyapunov solves.

All routines are pure functions of their inputs. The module also holds the
package's tolerance budget, the one place where a tolerance or numeric cap
of the kernel is set.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------------------
# Tolerance budget: every tolerance and numeric cap of the kernel, named once.
# The comment above each name says what it guarantees and where it is read.
# A tolerance t on a row a_i x <= b_i lets a_i x - b_i reach t times the
# row's norm |a_i| or, where it says scale, max(|a_i|, 1) (_row_scales).
# Sites of one role share a name; another role has its own, at any value.

# Fixed points and the checks on their results.
# default tol of max_invariant_set (rcis --tol), its checks and contains
TAU_SET = 1e-6
# regret_curve's fixed-point tol, for the limit set and every preview
# horizon (regret and mpc --tol), and the loosest tol of mpc's automatic
# terminal set, which keeps it in TAU_CHECK's invariance check
TAU_SWEEP = 1e-8
# demo-1d's fixed-point tol, at which its true_dp meets the closed form
TAU_DEMO = 1e-10
# demo-1d's limit radius, true_dp and bound_alg2 meet the closed forms within
# this, or it exits 3; at TAU_DEMO they are within 6.2e-11 of them
TAU_DEMO_MATCH = 1e-9
# a result passes hausdorff_nested, mpc's terminal check, check_contractive
# and refine_certificate's contractiveness check
TAU_CHECK = 1e-7
# max_invariant_set's default step cap (rcis --max-iter)
FIXED_POINT_MAX_ITER = 200
# step cap of each preview horizon's fixed point in regret_curve; a horizon
# whose run hits it gets a blank true_dp cell
PREVIEW_MAX_ITER = 400
# default steps of algorithm3's ladder (regret --kmax); a ladder still open
# after them is padded to this many plus one rungs and gives p_bar = inf
LADDER_K_MAX = 50
# project raises BudgetExceededError past this many rows from one elimination
ROW_CAP = 10_000

# Rows and vertices of a polytope.
# a row of norm at most this is zero (_zero_rows; max_c0 skips it)
ZERO_ROW_NORM = 1e-14
# a zero row whose offset is below -this holds nowhere (_zero_rows)
ZERO_ROW_OFFSET = 1e-12
# contains_point's default: a point within this, per row scale, is inside
POINT_TOL = 1e-9
# _reduce_lp drops a row its LP exceeds by at most this times its scale
REDUNDANT_TOL = 1e-9
# _reduce_1d keeps an interval whose ends cross by this times max(1, |end|)
INTERVAL_TOL = 1e-15
# Fourier-Motzkin coefficients within this of their row's largest are zero
FM_ZERO = 1e-12
# floor under a row's size in _fm_zero and _vertices_combinatorial
NORM_FLOOR = 1e-300
# _reduce_dual_hull's center must clear every row by this times its scale
HULL_INTERIOR_TOL = 1e-12
# a vertex list fails past this per norm times max(1, |V|) (_active_rows)
VERT_TOL = 1e-12
# a row within this per norm times max(1, |V|) is active (_active_rows)
ACTIVE_TOL = 1e-9
# _dedupe_points: p and q with |p - q| <= this times 1 + |q| are one vertex
TAU_VERT = 1e-9
# _vertices_combinatorial keeps basic solutions within this per row norm
BASIC_VERTEX_TOL = 1e-7
# _vertices_combinatorial skips a basis whose |determinant| is below this
SINGULAR_DET = 1e-12
# a Chebyshev radius within +-this is flat; a larger one proves an interior
FLAT_RADIUS = 1e-9
# chebyshev_center's radius cap, which keeps its LP bounded
CHEBY_RADIUS_CAP = 1e9

# The LP and QP solvers.
# a simplex pivot exceeds this: the ratio test, and artificials leaving
PIVOT_TOL = 1e-9
# a column with a reduced cost below -this enters the simplex basis
COST_TOL = 1e-9
# simplex ratios within this tie; a least ratio at most this is degenerate
RATIO_TOL = 1e-12
# a phase-1 optimum above this times 1 + max |b| proves the LP infeasible
PHASE1_TOL = 1e-7
# a simplex objective past this times 1 + max |b| stalls, and HiGHS solves
SIMPLEX_OBJ_CAP = 1e14
# a simplex optimum whose _lp_residual exceeds this goes to HiGHS
LP_RESIDUAL_TOL = 1e-9
# solve_qp's row violation, per scale, and its residual check's rounding
QP_TOL = 1e-12
# solve_qp: a row off the active span by at most this times |a_i| depends
QP_DEPENDENT = 1e-12

# Matrix tests, Riccati and Lyapunov solves, contraction certificates.
# cholesky's symmetry check, relative to 1 + max |Q|
SYMMETRY_TOL = 1e-10
# the matrix_rank tol of is_stabilizable (PBH) and is_controllable
RANK_TOL = 1e-9
# moduli below 1 - this are stable: PBH, and the ellipsoid bisection's top
UNIT_CIRCLE_TOL = 1e-9
# solve_dare's residual on scipy's P and its fallback's step, both relative
TAU_DARE = 1e-10
# the residual solve_dare's fallback must reach, relative as TAU_DARE's
DARE_RESIDUAL_TOL = 1e-8
# cap on the steps of solve_dare's fallback iteration
DARE_MAX_ITER = 3000
# find_contractive_ellipsoid bisects the rate over [this, 1) ...
BISECTION_FLOOR = 1e-3
# ... in this many steps
BISECTION_ITERS = 40
# the certified rate is the bisection's times sqrt(1 + this)
CONTRACTION_MARGIN = 1e-3
# a gain meets the rate rho when its spectral radius is below rho(1 - this)
RATE_TOL = 1e-12
# an ellipsoid whose certificate_gap exceeds this times max(1, |P|) fails
ELLIPSOID_GAP_TOL = 1e-8
# a forced equilibrium whose margin is at most this lies on the boundary
EQ_MARGIN_TOL = 1e-12
# end of the tolerance budget
# ---------------------------------------------------------------------------

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
                cand = np.flatnonzero(r < -COST_TOL)
                if cand.size == 0:
                    return OPTIMAL, red, obj
                enter = int(cand[0])
            else:
                enter = int(np.argmin(r))
                if r[enter] >= -COST_TOL:
                    return OPTIMAL, red, obj
            col = T[:, enter]
            pos = col > PIVOT_TOL
            if not np.any(pos):
                return UNBOUNDED, red, obj
            ratios = np.full(m, np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            leave = int(np.argmin(ratios))
            tie = np.flatnonzero(np.abs(ratios - ratios[leave]) <= RATIO_TOL)
            if tie.size > 1:
                leave = int(tie[np.argmin(basis[tie])])
            if ratios[leave] <= RATIO_TOL:
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
    scale = SIMPLEX_OBJ_CAP * (1.0 + b_max)
    if flip.size:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = 1.0
        allowed1 = np.ones(ncols, dtype=bool)
        status, red, obj1 = run_phase(cost1, allowed1, scale)
        if status == "stall":
            return "stall", None, np.nan
        phase1 = float(cost1[basis] @ T[:, -1])
        if phase1 > PHASE1_TOL * (1.0 + b_max):
            return INFEASIBLE, None, np.nan
        # Pivot remaining artificials out of the basis on the first column
        # outside the artificials with a nonzero entry. There always is one:
        # row r's slack column stays the negative of its artificial column,
        # so it reads -1 wherever that artificial is basic.
        for i in np.flatnonzero(basis >= n_real):
            pivot(i, int(np.flatnonzero(np.abs(T[i, :n_real]) > PIVOT_TOL)[0]))

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
        if status == OPTIMAL and _lp_residual(x, A_ub, b_ub) > LP_RESIDUAL_TOL:
            status = "stall"
        if status != "stall":
            return LpSolution(status, x, obj)
    status, x, obj = _scipy_lp(c, A_ub, b_ub)
    return LpSolution(status, x, obj)


def _row_norms(H):
    """The 2-norm of each row: np.linalg.norm(H, axis=1) bit for bit,
    without its dispatch."""
    return np.sqrt((H * H).sum(axis=1))


def _row_scales(A) -> np.ndarray:
    """max(|a_i|, 1) for each row a_i of A: the scale of a row's tolerance
    (solve_qp, contains, contains_point and the reductions)."""
    return np.maximum(_row_norms(A), 1.0)


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
    (a_i x - b_i > QP_TOL * scale_i) one at a time and drops an active row
    whose multiplier would turn negative.

    There are two exits. When x = -c violates no row by more than
    QP_TOL * scale_i, or there are no rows, it is returned at once, before
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
    QP_TOL * (1 + (|a_i|.|x| + |b_i|) / scale_i), which is never below
    QP_TOL. So a row whose scaled residual is at most QP_TOL cannot fail
    it, and the slack is built only when some row is above QP_TOL.
    """
    x = -np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    res = A.dot(x)
    res -= b
    res /= scale
    # res[res.argmax()] is res.max(), a NaN included, for a third of its cost
    if not res.size or res[res.argmax()] <= QP_TOL:
        return x, OPTIMAL
    W = []  # active rows
    mu = []  # multipliers of the active rows
    for _ in range(50 * (x.shape[0] + b.shape[0] + 1)):
        viol = res
        if W:
            viol = res.copy()
            viol[W] = -np.inf
        q = int(viol.argmax())
        if viol[q] <= QP_TOL:
            # active rows may miss by the rounding of their own terms
            if (res > QP_TOL).any():
                slack = QP_TOL * (1.0 + (np.abs(A) @ np.abs(x) + np.abs(b))
                                  / scale)
                if (res > slack).any():
                    raise SolverError("QP solution fails its residual check")
            return x, OPTIMAL
        a = A[q]
        tiny = QP_DEPENDENT * math.sqrt(a @ a)
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
    QP_TOL * max(|H_i|, 1) leaves through solve_qp's first exit, before any
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
    atol = SYMMETRY_TOL * (1.0 + np.max(np.abs(Q)))
    if not np.allclose(Q, Q.T, atol=atol):
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
        if abs(lam) >= 1.0 - UNIT_CIRCLE_TOL:
            M = np.hstack([A - lam * np.eye(n), B])
            if np.linalg.matrix_rank(M, tol=RANK_TOL) < n:
                return False
    return True


def is_controllable(A, B) -> bool:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks), tol=RANK_TOL) == n


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
    res = dare_residual(A, B, Q, R, P)
    if res > DARE_RESIDUAL_TOL * (scale + np.max(np.abs(P))):
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
