"""Polytope algebra in H-representation {x : Hx <= h}.

Rows are stored unnormalized so that exact (dyadic) arithmetic survives the
Fourier-Motzkin pipeline; tolerances are scaled by row norms where needed.
"""

from dataclasses import dataclass

import numpy as np

from .solver import (
    INFEASIBLE,
    UNBOUNDED,
    solve_lp_fast,
    project_point as _project_point,
)

TAU_SET = 1e-6
TAU_VERT = 1e-9
ROW_CAP = 10_000
_VERT_TOL = 1e-12  # relative accuracy a cached vertex list is checked to
_FLAT_RADIUS = 1e-9  # Chebyshev radii within +-_FLAT_RADIUS count as flat


class EmptyPolytopeError(ValueError):
    pass


class UnboundedError(ValueError):
    pass


class NormalFormError(ValueError):
    """Raised when an operation needs h > 0 (origin in the interior)."""


class BudgetExceededError(RuntimeError):
    """Row or dimension budget blown; results would be untrustworthy or slow."""


class HPolytope:
    """Convex polytope {x : Hx <= h}; the universal set carrier.

    A set reduced through the dual hull, or given one by
    cache_vertex_list, also carries its vertex list (`_verts`, a vertex may
    repeat up to round-off), which support-type readers use instead of an
    LP.
    """

    __slots__ = ("H", "h", "_empty", "_cheby", "_verts")

    def __init__(self, H, h):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if H.ndim != 2 or h.ndim != 1 or H.shape[0] != h.shape[0]:
            raise ValueError("H must be q x n with h of length q")
        if H.shape[0] < 1:
            raise ValueError("need at least one row")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
            raise ValueError("polytope data must be finite")
        self.H = H
        self.h = h
        self._empty = None
        self._cheby = None
        self._verts = None

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def num_rows(self) -> int:
        return self.H.shape[0]

    @property
    def in_normal_form(self) -> bool:
        """h > 0 componentwise, i.e. the origin is strictly feasible."""
        return bool(np.all(self.h > 0))

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, rows={self.num_rows})"

    @classmethod
    def empty(cls, dim: int) -> "HPolytope":
        P = cls(np.zeros((1, dim)), np.array([-1.0]))
        P._empty = True
        return P

    @classmethod
    def universe(cls, dim: int) -> "HPolytope":
        P = cls(np.zeros((1, dim)), np.array([1.0]))
        P._empty = False
        return P

    def is_empty(self) -> bool:
        if self._empty is None:
            norms = np.linalg.norm(self.H, axis=1)
            degenerate = norms <= 1e-14
            if np.any(self.h[degenerate] < -1e-12):
                self._empty = True
            else:
                sol = solve_lp_fast(np.zeros(self.dim), self.H, self.h)
                self._empty = sol.status == INFEASIBLE
        return self._empty

    def contains_point(self, x, tol=1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        norms = np.maximum(np.linalg.norm(self.H, axis=1), 1.0)
        return bool(np.all(self.H @ x - self.h <= tol * norms))

    def chebyshev_center(self):
        """(center, radius) of a largest inscribed ball; radius capped at 1e9.

        Raises EmptyPolytopeError when the set is empty, including when the
        best radius is negative beyond _FLAT_RADIUS. A flat set (radius near
        0) returns normally; a radius above _FLAT_RADIUS proves the set
        nonempty, and both verdicts are cached for is_empty.
        """
        if self._empty:
            raise EmptyPolytopeError("no Chebyshev center: polytope is empty")
        if self._cheby is None:
            n = self.dim
            norms = np.linalg.norm(self.H, axis=1)
            A = np.hstack([self.H, norms[:, None]])
            A = np.vstack([A, np.r_[np.zeros(n), 1.0]])
            b = np.r_[self.h, 1e9]
            c = np.r_[np.zeros(n), -1.0]
            sol = solve_lp_fast(c, A, b)
            if not sol.optimal or sol.point[n] < -_FLAT_RADIUS:
                self._empty = True
                raise EmptyPolytopeError("no Chebyshev center: polytope is empty")
            self._cheby = (sol.point[:n], float(sol.point[n]))
            if self._cheby[1] > _FLAT_RADIUS:
                self._empty = False
        return self._cheby


@dataclass
class Box:
    """Axis-aligned box; convertible to an HPolytope with 2n rows."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bounds must have equal length")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def to_polytope(self) -> HPolytope:
        n = self.dim
        eye = np.eye(n)
        return HPolytope(np.vstack([eye, -eye]), np.r_[self.upper, -self.lower])


def unit_box(n: int) -> HPolytope:
    """The hypercube [-1, 1]^n."""
    return Box(-np.ones(n), np.ones(n)).to_polytope()


def interval(lo: float, hi: float) -> HPolytope:
    return Box(np.array([lo]), np.array([hi])).to_polytope()


# ---------------------------------------------------------------------------
# basic algebra


def intersect(P: HPolytope, Q: HPolytope) -> HPolytope:
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch in intersection")
    return HPolytope(np.vstack([P.H, Q.H]), np.r_[P.h, Q.h])


def scale(P: HPolytope, lam: float) -> HPolytope:
    """lam * P for lam >= 0 (for lam = 0 the input must be bounded)."""
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    return HPolytope(P.H.copy(), lam * P.h)


def translate(P: HPolytope, t) -> HPolytope:
    """{x + t : x in P}."""
    t = np.asarray(t, dtype=float)
    return HPolytope(P.H.copy(), P.h + P.H @ t)


def cartesian_product(P: HPolytope, Q: HPolytope) -> HPolytope:
    Hp, Hq = P.H, Q.H
    H = np.block([
        [Hp, np.zeros((Hp.shape[0], Q.dim))],
        [np.zeros((Hq.shape[0], P.dim)), Hq],
    ])
    return HPolytope(H, np.r_[P.h, Q.h])


def power_product(P: HPolytope, k: int) -> HPolytope:
    """P^k, the k-fold Cartesian product (k >= 1)."""
    out = P
    for _ in range(k - 1):
        out = cartesian_product(out, P)
    return out


def affine_preimage(P: HPolytope, M, v=None) -> HPolytope:
    """{z : Mz + v in P} = {z : (HM) z <= h - Hv}."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != P.dim:
        raise ValueError("map range does not match polytope dimension")
    h = P.h.copy()
    if v is not None:
        h = h - P.H @ np.asarray(v, dtype=float)
    return HPolytope(P.H @ M, h)


def support(P: HPolytope, direction) -> float:
    """sup over P of <direction, x>; raises on empty P or unbounded direction."""
    d = np.asarray(direction, dtype=float)
    if not np.any(d):
        if P.is_empty():
            raise EmptyPolytopeError("support of an empty polytope")
        return 0.0
    if P._verts is not None:
        return float(np.max(P._verts @ d))
    return _support_lp(P, d)


def _support_lp(P: HPolytope, d) -> float:
    sol = solve_lp_fast(-d, P.H, P.h)
    if sol.status == UNBOUNDED:
        raise UnboundedError("polytope is unbounded along the requested direction")
    if sol.status == INFEASIBLE:
        raise EmptyPolytopeError("support of an empty polytope")
    return -sol.objective


def first_violation(Q: HPolytope, H, bound):
    """None if sup over Q of H_i x <= bound_i for every row i of H, else a
    point of Q that breaks one of these bounds.

    One product with Q's vertex list settles every row whose vertex support
    clears its bound by more than the list's round-off, and a row beyond
    that band returns its best listed vertex. The other rows, and every row
    when Q has no list, take a support LP. A row unbounded over Q breaks
    its bound; a second LP capped past the bound gives its point. An empty
    Q breaks nothing.
    """
    rows = range(H.shape[0])
    if Q._verts is not None:
        vals = Q._verts @ H.T
        s = np.max(vals, axis=0)
        slack = (_VERT_TOL * np.linalg.norm(H, axis=1)
                 * max(1.0, np.max(np.abs(Q._verts))))
        bad = np.flatnonzero(s > bound + slack)
        if bad.size:
            return Q._verts[np.argmax(vals[:, bad[0]])].copy()
        rows = np.flatnonzero(s >= bound - slack)
    for i in rows:
        sol = solve_lp_fast(-H[i], Q.H, Q.h)
        if sol.status == UNBOUNDED:
            cap = bound[i] + 1.0 + abs(bound[i])
            sol = solve_lp_fast(-H[i], np.vstack([Q.H, H[i]]), np.r_[Q.h, cap])
        if sol.status == INFEASIBLE:
            return None
        if -sol.objective > bound[i]:
            return sol.point
    return None


def erode_rows(P: HPolytope, E, D: HPolytope) -> HPolytope:
    """Rowwise worst-case tightening: h_i - sup_{d in D} (H_i E) d.

    One product with D's vertex list when it has one (see
    cache_vertex_list), else one support LP per row. The result may be
    empty. D must be nonempty and bounded.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    dirs = P.H @ E
    if D._verts is not None:
        worst = np.max(dirs @ D._verts.T, axis=1)
    else:
        worst = np.array([support(D, row) for row in dirs])
    return HPolytope(P.H.copy(), P.h - worst)


def contains(P: HPolytope, Q: HPolytope, tol=TAU_SET) -> bool:
    """Q ⊆ P, checked row by row of P (see first_violation)."""
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch in containment check")
    if Q.is_empty():
        return True
    norms = np.linalg.norm(P.H, axis=1)
    return first_violation(Q, P.H, P.h + tol * np.maximum(norms, 1.0)) is None


def set_equal(P: HPolytope, Q: HPolytope, tol=TAU_SET) -> bool:
    return contains(P, Q, tol) and contains(Q, P, tol)


# ---------------------------------------------------------------------------
# redundancy removal


def _dedupe_rows(H, h):
    """Drop exact-duplicate directions keeping the tightest offset.

    Comparison happens on norm-scaled copies; the returned rows are the
    original (unscaled) ones.
    """
    norms = np.linalg.norm(H, axis=1)
    work = norms > 1e-14
    if np.any(h[~work] < -1e-12):
        return None, None  # infeasible zero row
    Hw, hw, nw = H[work], h[work], norms[work]
    if Hw.shape[0] == 0:
        return np.zeros((0, H.shape[1])), np.zeros(0)
    Hn = Hw / nw[:, None]
    hn = hw / nw
    key = np.round(Hn, 12)
    # direction columns are the significant keys; offset breaks ties ascending
    order = np.lexsort((hn, *key.T))
    key_sorted = key[order]
    first = np.r_[True, np.any(np.diff(key_sorted, axis=0) != 0, axis=1)]
    keep = order[first]  # smallest offset within each direction group
    keep.sort()
    return Hw[keep], hw[keep]


def _reduce_lp(H, h):
    """Keep irredundant rows, certifying each removal with an LP."""
    q = H.shape[0]
    alive = np.ones(q, dtype=bool)
    norms = np.maximum(np.linalg.norm(H, axis=1), 1e-300)
    for i in range(q):
        others = np.flatnonzero(alive)
        others = others[others != i]
        rows = np.vstack([H[others], H[i][None, :]])
        rhs = np.r_[h[others], h[i] + 1.0 + abs(h[i])]
        sol = solve_lp_fast(-H[i], rows, rhs)
        if sol.status == INFEASIBLE:
            break
        if sol.optimal and -sol.objective <= h[i] + 1e-9 * max(norms[i], 1.0):
            alive[i] = False
    keep = np.flatnonzero(alive)
    if keep.size == 0:
        return H[:1] * 0.0 + 0.0, np.array([1.0])  # whole space marker
    return H[keep], h[keep]


def _hull_vertices(equations, center, H, h):
    """Primal vertices from the facets of the dual hull, or None.

    Facet a.y + b <= 0 of the hull is the vertex center - a / b. Qhull
    triangulates, so a degenerate vertex appears once per simplex, with
    the same hyperplane; those copies are dropped, in Qhull's order. The
    list is kept only if every vertex satisfies every row within
    1e-12*scale and is active on at least n rows within 1e-9*scale: a
    point off the boundary would make supports too small.
    """
    # copies are bitwise equal; a bytewise unique costs about a quarter of
    # np.unique(axis=0) on these small arrays, which runs once per reduction
    equations = np.ascontiguousarray(equations)
    rows = equations.view(np.dtype((np.void, equations[0].nbytes)))
    equations = equations[np.sort(np.unique(rows, return_index=True)[1])]
    V = center - equations[:, :-1] / equations[:, -1:]
    scale = np.linalg.norm(H, axis=1) * max(1.0, np.max(np.abs(V)))
    slack = V @ H.T
    slack -= h
    slack /= scale
    if np.max(slack) > _VERT_TOL:
        return None
    if np.min(np.count_nonzero(slack >= -1e-9, axis=1)) < H.shape[1]:
        return None
    return V


def _reduce_dual_hull(H, h, center):
    """Facet identification through polar duality around an interior point.

    Row i becomes the point H_i / (h_i - H_i center); the irredundant rows
    are the vertices of the hull of these points, and its facets are the
    vertices of the set. Returns (H, h, vertex list or None); None when the
    hull fails or does not hold the origin strictly inside, i.e. the set is
    unbounded and the hull vertices could include redundant rows.
    """
    from scipy.spatial import ConvexHull, QhullError

    if H.shape[0] <= H.shape[1]:
        return None  # at most n halfspaces never bound a set in R^n
    d = h - H @ center
    if np.any(d <= 1e-12 * np.maximum(np.linalg.norm(H, axis=1), 1.0)):
        return None
    pts = H / d[:, None]
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    if not np.all(hull.equations[:, -1] < 0):
        return None
    keep = np.sort(hull.vertices)
    Hk, hk = H[keep], h[keep]
    return Hk, hk, _hull_vertices(hull.equations, center, Hk, hk)


def _reduce_1d(H, h):
    a = H[:, 0]
    ub = np.inf
    lb = -np.inf
    for ai, hi in zip(a, h):
        if ai > 1e-14:
            ub = min(ub, hi / ai)
        elif ai < -1e-14:
            lb = max(lb, hi / ai)
        elif hi < -1e-12:
            return None, None
    if lb > ub + 1e-15 * max(1.0, abs(lb), abs(ub)):
        return None, None
    rows, rhs = [], []
    if np.isfinite(ub):
        rows.append([1.0])
        rhs.append(ub)
    if np.isfinite(lb):
        rows.append([-1.0])
        rhs.append(-lb)
    if not rows:
        return np.zeros((1, 1)), np.array([1.0])
    return np.array(rows), np.array(rhs)


def _nonempty(H, h, verts=None, cheby=None) -> HPolytope:
    out = HPolytope(H, h)
    out._empty = False
    out._cheby = cheby
    out._verts = verts
    return out


def remove_redundancy(P: HPolytope) -> HPolytope:
    """Same set, irredundant rows; the result caches its emptiness and its
    Chebyshev ball.

    A 1-D set is an interval, read off its rows with no LP; a bounded one
    carries its two ends as its vertex list. Otherwise one Chebyshev LP
    decides emptiness and gives an interior point. A
    full-dimensional set of any dimension then goes through a dual convex
    hull around that point, which also proves it bounded and gives its
    checked vertex list. Flat sets, unbounded sets and hull failures fall
    back to one LP per row and carry no vertex list; only flat or
    borderline sets pay a separate phase-1 emptiness LP.
    """
    if P._empty:
        return HPolytope.empty(P.dim)
    Hd, hd = _dedupe_rows(P.H, P.h)
    if Hd is None:
        return HPolytope.empty(P.dim)
    if Hd.shape[0] == 0:
        return HPolytope.universe(P.dim)
    if P.dim == 1:
        H1, h1 = _reduce_1d(Hd, hd)
        if H1 is None:
            return HPolytope.empty(1)
        ends = np.array([[-h1[1]], [h1[0]]]) if len(h1) == 2 else None
        return _nonempty(H1, h1, ends)
    try:
        center, radius = HPolytope(Hd, hd).chebyshev_center()
    except EmptyPolytopeError:
        return HPolytope.empty(P.dim)
    if radius <= _FLAT_RADIUS and P.is_empty():
        return HPolytope.empty(P.dim)
    if radius > _FLAT_RADIUS:
        out = _reduce_dual_hull(Hd, hd, center)
        if out is not None:
            return _nonempty(*out, cheby=(center, radius))
    return _nonempty(*_reduce_lp(Hd, hd), cheby=(center, radius))


def cache_vertex_list(P: HPolytope) -> None:
    """Give P the vertex list of its reduced form (see remove_redundancy).
    Other sets (flat, unbounded, empty, or a list that failed the check)
    stay without one."""
    P._verts = remove_redundancy(P)._verts


# ---------------------------------------------------------------------------
# projection (Fourier-Motzkin)


def _fm_eliminate(H, h, j):
    """Eliminate coordinate j by pairwise combination; column j is dropped."""
    scale_row = np.max(np.abs(H), axis=1)
    scale_row = np.maximum(scale_row, 1e-300)
    coef = H[:, j]
    zero = np.abs(coef) <= 1e-12 * scale_row
    pos = (~zero) & (coef > 0)
    neg = (~zero) & (coef < 0)
    keep_cols = np.r_[np.arange(j), np.arange(j + 1, H.shape[1])]
    rows = [np.empty((0, keep_cols.size))]
    rhs = [np.empty(0)]
    if np.any(zero):
        rows.append(H[np.ix_(zero, keep_cols)])
        rhs.append(h[zero])
    if np.any(pos) and np.any(neg):
        Hp, hp, cp = H[pos][:, keep_cols], h[pos], coef[pos]
        Hn, hn, cn = H[neg][:, keep_cols], h[neg], coef[neg]
        # row_p * (-c_n) + row_n * c_p  (both multipliers positive)
        newH = (Hp[:, None, :] * (-cn)[None, :, None]
                + Hn[None, :, :] * cp[:, None, None])
        newh = hp[:, None] * (-cn)[None, :] + hn[None, :] * cp[:, None]
        rows.append(newH.reshape(-1, keep_cols.size))
        rhs.append(newh.reshape(-1))
    H_out = np.vstack(rows)
    h_out = np.concatenate(rhs)
    if H_out.shape[0] == 0:
        return np.zeros((1, keep_cols.size)), np.array([1.0])
    # Rescale by a power of two to keep magnitudes tame without rounding.
    mags = np.max(np.abs(H_out), axis=1)
    big = mags > 0
    expo = np.zeros_like(mags)
    expo[big] = np.exp2(np.ceil(np.log2(mags[big])))
    expo[~big] = 1.0
    return H_out / expo[:, None], h_out / expo


def project(P: HPolytope, keep: int) -> HPolytope:
    """Exact orthogonal projection onto the first `keep` coordinates.

    Each eliminated coordinate costs one remove_redundancy, which also
    drops the duplicate rows that Fourier-Motzkin generates. Fourier-Motzkin
    keeps emptiness, so an empty input is found by the first reduction's
    Chebyshev LP; no phase-1 LP is spent on the input.
    """
    n = P.dim
    if keep > n:
        raise ValueError("cannot keep more coordinates than the dimension")
    if keep == n:
        return P
    if P._empty:
        return HPolytope.empty(keep)
    H, h = P.H, P.h
    colmap = list(range(n))  # original coordinate index of each current column
    remaining = list(range(keep, n))
    while remaining:
        # Eliminate the coordinate with the fewest pairwise combinations.
        best, best_cost = None, None
        scale_row = np.maximum(np.max(np.abs(H), axis=1), 1e-300)
        for j, orig in enumerate(colmap):
            if orig not in remaining:
                continue
            coef = H[:, j]
            nz = np.abs(coef) > 1e-12 * scale_row
            p = int(np.sum(nz & (coef > 0)))
            m = int(np.sum(nz & (coef < 0)))
            cost = p * m - p - m
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        remaining.remove(colmap[best])
        colmap.pop(best)
        H, h = _fm_eliminate(H, h, best)
        if H.shape[0] > ROW_CAP:
            raise BudgetExceededError(
                f"Fourier-Motzkin exceeded the {ROW_CAP}-row cap")
        reduced = remove_redundancy(HPolytope(H, h))
        if reduced.is_empty():
            return HPolytope.empty(keep)
        H, h = reduced.H, reduced.h
    return reduced


# ---------------------------------------------------------------------------
# containment programs


def containment_ratio(P1: HPolytope, P2: HPolytope) -> float:
    """Minimal r >= 0 with P1 ⊆ r P2, through the multiplier-matrix LP.

    P2 must be in origin-interior normal form (h > 0); P1 nonempty, bounded.
    """
    if P1.dim != P2.dim:
        raise ValueError("dimension mismatch")
    if not P2.in_normal_form:
        raise NormalFormError("containment_ratio needs h > 0 for the outer set")
    H1, h1 = P1.H, P1.h
    H2, h2 = P2.H, P2.h
    q1, q2, n = H1.shape[0], H2.shape[0], P1.dim
    nv = q2 * q1 + 1  # vec(Lambda) row-major, then r
    A_eq = np.zeros((q2 * n, nv))
    b_eq = np.empty(q2 * n)
    for i in range(q2):
        A_eq[i * n:(i + 1) * n, i * q1:(i + 1) * q1] = H1.T
        b_eq[i * n:(i + 1) * n] = H2[i]
    A_ub = np.zeros((q2, nv))
    for i in range(q2):
        A_ub[i, i * q1:(i + 1) * q1] = h1
        A_ub[i, -1] = -h2[i]
    c = np.zeros(nv)
    c[-1] = 1.0
    nonneg = np.ones(nv, dtype=bool)  # r >= 0 is harmless: minimal r is >= 0
    sol = solve_lp_fast(c, A_ub, np.zeros(q2), A_eq, b_eq, nonneg=nonneg)
    if not sol.optimal:
        raise ValueError(f"containment LP returned {sol.status}; "
                         "is the inner set bounded and nonempty?")
    return float(sol.objective)


def max_inscribed_ball_at(P: HPolytope, center) -> float:
    """Largest eps with center + eps*B(n) ⊆ P (sup-norm ball), 0 if outside."""
    center = np.asarray(center, dtype=float)
    rowsum = np.sum(np.abs(P.H), axis=1)
    slack = P.h - P.H @ center
    vals = []
    for rs, sl in zip(rowsum, slack):
        if rs <= 1e-14:
            if sl < -1e-12:
                return 0.0
            continue
        vals.append(sl / rs)
    if not vals:
        return np.inf
    eps = min(vals)
    return float(max(eps, 0.0))


# ---------------------------------------------------------------------------
# vertices, boxes, radii, Hausdorff distance


def bounding_box(P: HPolytope) -> Box:
    n = P.dim
    lo = np.empty(n)
    hi = np.empty(n)
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        hi[i] = support(P, e)
        lo[i] = -support(P, -e)
        e[i] = 0.0
    return Box(lo, hi)


def _vertices_qhull(P, center):
    from scipy.spatial import HalfspaceIntersection, QhullError

    norms = np.linalg.norm(P.H, axis=1)
    good = norms > 1e-14
    halfspaces = np.hstack([P.H[good] / norms[good, None],
                            -(P.h[good] / norms[good])[:, None]])
    try:
        hs = HalfspaceIntersection(halfspaces, center)
    except QhullError:
        return None
    return hs.intersections


def _vertices_combinatorial(P):
    """Basic-solution enumeration; exact but exponential, for degenerate sets."""
    from itertools import combinations

    H, h = P.H, P.h
    n = P.dim
    norms = np.maximum(np.linalg.norm(H, axis=1), 1e-300)
    if H.shape[0] > 60:
        raise BudgetExceededError("too many rows for combinatorial vertex search")
    verts = []
    for idx in combinations(range(H.shape[0]), n):
        A = H[list(idx)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        v = np.linalg.solve(A, h[list(idx)])
        if np.all(H @ v - h <= 1e-7 * norms):
            verts.append(v)
    return np.array(verts) if verts else np.zeros((0, n))


def _dedupe_points(pts, tol=TAU_VERT):
    """Distinct rows of pts: p repeats q when |p - q| <= tol * (1 + |q|)."""
    pts = np.unique(pts, axis=0)
    keep = []
    for i, p in enumerate(pts):
        kept = pts[keep]
        gap = np.linalg.norm(kept - p, axis=1)
        if np.all(gap > tol * (1.0 + np.linalg.norm(kept, axis=1))):
            keep.append(i)
    return pts[keep]


def vertices(P: HPolytope) -> np.ndarray:
    """Exact vertex set of a bounded polytope (deduplicated).

    Reads the vertex list of P or of its reduced form, in any dimension. A
    bounded set without one goes through Qhull's halfspace intersection
    when it is full-dimensional, else through basic-solution enumeration.
    """
    if P._verts is not None:
        return _dedupe_points(P._verts)
    R = remove_redundancy(P)
    if R.is_empty():
        raise EmptyPolytopeError("empty polytope has no vertices")
    if R._verts is not None:
        return _dedupe_points(R._verts)
    bounding_box(R)  # raises UnboundedError
    center, radius = R.chebyshev_center()
    if radius > _FLAT_RADIUS:
        out = _vertices_qhull(R, center)
        if out is not None:
            return _dedupe_points(out)
    return _dedupe_points(_vertices_combinatorial(R))


def radius_from_origin(P: HPolytope) -> float:
    """Radius of the smallest origin-centered ball containing P, read off
    its vertices."""
    if not P.contains_point(np.zeros(P.dim)):
        raise ValueError("radius_from_origin expects the origin inside P")
    return float(np.max(np.linalg.norm(vertices(P), axis=1)))


def hausdorff_nested(X: HPolytope, Y: HPolytope) -> float:
    """Hausdorff distance for nested polytopes X ⊆ Y (2-norm, exact).

    Equals the largest distance from a vertex of the outer set to the inner
    set; verified containment is a precondition.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
    if not contains(Y, X, tol=1e-7):
        raise ValueError("hausdorff_nested requires X ⊆ Y")
    best = 0.0
    for v in vertices(Y):
        _, dist = _project_point(v, X)
        if dist > best:
            best = dist
    return float(best)
