"""Polytope algebra in H-representation {x : Hx <= h}.

Rows are stored unnormalized so that exact (dyadic) arithmetic survives the
Fourier-Motzkin pipeline; tolerances are scaled by row norms where needed.
"""

from dataclasses import dataclass

import numpy as np

from .solver import (
    ACTIVE_TOL, BASIC_VERTEX_TOL, CHEBY_RADIUS_CAP, FLAT_RADIUS, FM_ZERO,
    HULL_INTERIOR_TOL, INFEASIBLE, INTERVAL_TOL, NORM_FLOOR, POINT_TOL,
    REDUNDANT_TOL, ROW_CAP, SINGULAR_DET, TAU_CHECK, TAU_SET, TAU_VERT,
    UNBOUNDED, VERT_TOL, ZERO_ROW_NORM, ZERO_ROW_OFFSET, _row_norms,
    _row_scales, solve_lp_fast, project_point as _project_point,
)


class EmptyPolytopeError(ValueError):
    pass


class UnboundedError(ValueError):
    pass


class NormalFormError(ValueError):
    """Raised when an operation needs h > 0 (origin in the interior)."""


class BudgetExceededError(RuntimeError):
    """Row or dimension budget blown; results would be untrustworthy or slow."""


class NotNestedError(ValueError):
    """hausdorff_nested's inner set is not inside the outer one."""


class HPolytope:
    """Convex polytope {x : Hx <= h}; the universal set carrier.

    A set reduced through the dual hull, or given one by
    cache_vertex_list, translate, scale or cartesian_product, also carries
    its vertex list (`_verts`, a vertex may repeat up to round-off), which
    support-type readers use instead of an LP. A reduced set carries the
    inscribed ball (`_cheby`) its reduction used as interior point, which
    the next reduction of the set or of its projection checks and reuses
    (see remove_redundancy). A set reduced with no degenerate vertex also
    carries the vertex-facet incidence of that reduction (`_incidence`, an
    _Incidence over the reduction's input rows); a set offered one checks
    it in place of the hull when it is reduced. `_offer` maps the key of
    an elimination, (dimension, sorted eliminated coordinates), to the
    (ball in the remaining coordinates, incidence) of a reduction with
    that key; either may be None. On a set to be projected, project
    offers each elimination the pair under its key. On a projection, it
    holds the pairs of the projection's own reductions but the last, whose
    pair is the set's `_cheby` and `_incidence` (see pre).
    """

    __slots__ = ("H", "h", "_empty", "_cheby", "_verts", "_incidence",
                 "_offer")

    def __init__(self, H, h):
        H = np.asarray(H, dtype=float)
        h = np.asarray(h, dtype=float)
        if H.ndim < 2:
            H = np.atleast_2d(H)
        if h.ndim < 1:
            h = np.atleast_1d(h)
        if H.ndim != 2 or h.ndim != 1 or H.shape[0] != h.shape[0]:
            raise ValueError("H must be q x n with h of length q")
        if H.shape[0] < 1:
            raise ValueError("need at least one row")
        if not (np.isfinite(H).all() and np.isfinite(h).all()):
            raise ValueError("polytope data must be finite")
        self.H = H
        self.h = h
        self._empty = None
        self._cheby = None
        self._verts = None
        self._incidence = None
        self._offer = None

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
            if _zero_rows(_row_norms(self.H), self.h)[1]:
                self._empty = True
            else:
                sol = solve_lp_fast(np.zeros(self.dim), self.H, self.h)
                self._empty = sol.status == INFEASIBLE
        return self._empty

    def contains_point(self, x, tol=POINT_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.H @ x - self.h <= tol * _row_scales(self.H)))

    def chebyshev_center(self):
        """(center, radius) of an inscribed ball; radius capped at
        CHEBY_RADIUS_CAP.

        The ball is a largest one when this call solves for it (one LP). A
        reduced set returns the checked ball its reduction used, which may
        be smaller (see remove_redundancy). Raises EmptyPolytopeError when
        the set is empty, including when the best radius is negative beyond
        FLAT_RADIUS. A flat set (radius near 0) returns normally; a radius
        above FLAT_RADIUS proves the set nonempty, and both verdicts are
        cached for is_empty.
        """
        if self._empty:
            raise EmptyPolytopeError("no Chebyshev center: polytope is empty")
        if self._cheby is None:
            n = self.dim
            norms = _row_norms(self.H)
            A = np.hstack([self.H, norms[:, None]])
            A = np.vstack([A, np.r_[np.zeros(n), 1.0]])
            b = np.r_[self.h, CHEBY_RADIUS_CAP]
            c = np.r_[np.zeros(n), -1.0]
            sol = solve_lp_fast(c, A, b)
            if not sol.optimal or sol.point[n] < -FLAT_RADIUS:
                self._empty = True
                raise EmptyPolytopeError("no Chebyshev center: polytope is empty")
            self._cheby = (sol.point[:n], float(sol.point[n]))
            if self._cheby[1] > FLAT_RADIUS:
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


def scale(P: HPolytope, lam: float) -> HPolytope:
    """lam * P for lam >= 0 (for lam = 0 the input must be bounded).

    A vertex list V of P becomes lam * V, and the set stays nonempty.
    """
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    out = HPolytope(P.H.copy(), lam * P.h)
    if P._verts is not None:
        out._verts, out._empty = lam * P._verts, False
    return out


def translate(P: HPolytope, t) -> HPolytope:
    """{x + t : x in P}. A vertex list V of P becomes V + t, and the set
    stays nonempty."""
    t = np.asarray(t, dtype=float)
    out = HPolytope(P.H.copy(), P.h + P.H @ t)
    if P._verts is not None:
        out._verts, out._empty = P._verts + t, False
    return out


def cartesian_product(P: HPolytope, Q: HPolytope) -> HPolytope:
    """P x Q. When both carry a vertex list, the pairs of their lists are
    the product's, and it stays nonempty."""
    Hp, Hq = P.H, Q.H
    H = np.block([
        [Hp, np.zeros((Hp.shape[0], Q.dim))],
        [np.zeros((Hq.shape[0], P.dim)), Hq],
    ])
    out = HPolytope(H, np.r_[P.h, Q.h])
    V, W = P._verts, Q._verts
    if V is not None and W is not None:
        out._verts = np.hstack([np.repeat(V, len(W), axis=0),
                                np.tile(W, (len(V), 1))])
        out._empty = False
    return out


def support(P: HPolytope, direction) -> float:
    """sup over P of <direction, x>; raises on empty P or unbounded direction."""
    d = np.asarray(direction, dtype=float)
    if P._verts is not None:
        return float(np.max(P._verts @ d))
    if not np.any(d):
        if P.is_empty():
            raise EmptyPolytopeError("support of an empty polytope")
        return 0.0
    return _support_lp(P, d)


def _support_lp(P: HPolytope, d) -> float:
    sol = solve_lp_fast(-d, P.H, P.h)
    if sol.status == UNBOUNDED:
        raise UnboundedError("polytope is unbounded along the requested direction")
    if sol.status == INFEASIBLE:
        raise EmptyPolytopeError("support of an empty polytope")
    return -sol.objective


def _vertex_band(V, norms):
    """Round-off of the products of vertex list V with rows of these norms:
    a support within this band of a bound decides nothing."""
    return VERT_TOL * norms * max(1.0, abs(V).max())


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
        s = vals.max(axis=0)
        slack = _vertex_band(Q._verts, _row_norms(H))
        bad = np.flatnonzero(s > bound + slack)
        if bad.size:
            return Q._verts[np.argmax(vals[:, bad[0]])].copy()
        rows = np.flatnonzero(s >= bound - slack)
    for i in rows:
        sol = solve_lp_fast(-H[i], Q.H, Q.h)
        if sol.status == UNBOUNDED:
            cap = bound[i] + 1.0 + abs(bound[i])
            sol = solve_lp_fast(-H[i], np.concatenate((Q.H, H[i:i + 1])),
                                np.concatenate((Q.h, [cap])))
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
        worst = (dirs @ D._verts.T).max(axis=1)
    else:
        worst = np.array([support(D, row) for row in dirs])
    return HPolytope(P.H.copy(), P.h - worst)


def contains(P: HPolytope, Q: HPolytope, tol=TAU_SET) -> bool:
    """Q ⊆ P, checked row by row of P (see first_violation)."""
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch in containment check")
    if Q.is_empty():
        return True
    return first_violation(Q, P.H, P.h + tol * _row_scales(P.H)) is None


def set_equal(P: HPolytope, Q: HPolytope, tol=TAU_SET) -> bool:
    return contains(P, Q, tol) and contains(Q, P, tol)


# ---------------------------------------------------------------------------
# redundancy removal


def _zero_rows(norms, h):
    """(which rows are zero, whether one of them holds nowhere) for rows of
    these norms and offsets h: a row of norm at most ZERO_ROW_NORM is zero,
    and a zero row with an offset below -ZERO_ROW_OFFSET empties the set."""
    zero = norms <= ZERO_ROW_NORM
    return zero, bool((h[zero] < -ZERO_ROW_OFFSET).any())


def _dedupe_rows(H, h):
    """Drop exact-duplicate directions keeping the tightest offset.

    Comparison happens on norm-scaled copies; the returned rows are the
    original (unscaled) ones. A row with a NaN or infinite entry, or one
    whose norm overflows, raises ValueError: it has no direction to compare,
    and dropping it as a zero row would enlarge the set.
    """
    norms = _row_norms(H)
    if not np.isfinite(norms).all():
        raise ValueError("polytope rows must be finite, with a finite norm")
    zero, infeasible = _zero_rows(norms, h)
    if infeasible:
        return None, None
    if zero.any():
        H, h, norms = H[~zero], h[~zero], norms[~zero]
        if H.shape[0] == 0:
            return np.zeros((0, H.shape[1])), np.zeros(0)
    Hn = H / norms[:, None]
    hn = h / norms
    key = Hn.round(12)
    # direction columns are the significant keys; offset breaks ties ascending
    order = np.lexsort((hn, *key.T))
    key = key[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    (key[1:] != key[:-1]).any(axis=1, out=first[1:])
    keep = order[first]  # smallest offset within each direction group
    keep.sort()
    return H[keep], h[keep]


def _reduce_lp(H, h):
    """Keep irredundant rows, certifying each removal with an LP."""
    q = H.shape[0]
    alive = np.ones(q, dtype=bool)
    scales = _row_scales(H)
    for i in range(q):
        others = np.flatnonzero(alive)
        others = others[others != i]
        rows = np.vstack([H[others], H[i][None, :]])
        rhs = np.r_[h[others], h[i] + 1.0 + abs(h[i])]
        sol = solve_lp_fast(-H[i], rows, rhs)
        if sol.status == INFEASIBLE:
            break
        if sol.optimal and -sol.objective <= h[i] + REDUNDANT_TOL * scales[i]:
            alive[i] = False
    keep = np.flatnonzero(alive)
    if keep.size == 0:
        return H[:1] * 0.0 + 0.0, np.array([1.0])  # whole space marker
    return H[keep], h[keep]


def _active_rows(V, H, h, norms):
    """Which rows of (H, h) are active at each vertex of V, or None when a
    row fails at a vertex. With each row's scale its norm (norms, the row
    norms of H) times max(1, max |V|), a row fails past VERT_TOL times its
    scale, and is active within ACTIVE_TOL times its scale."""
    scale = norms * max(1.0, abs(V).max())
    slack = V @ H.T
    slack -= h
    slack /= scale
    if slack.max() > VERT_TOL:
        return None
    return slack >= -ACTIVE_TOL


def _hull_vertices(equations, center, H, h, norms):
    """Primal vertices from the facets of the dual hull, or None.

    Facet a.y + b <= 0 of the hull is the vertex center - a / b. Qhull
    triangulates, so a degenerate vertex appears once per simplex, with
    the same hyperplane; those copies are dropped, in Qhull's order. The
    list is kept only if every vertex satisfies every row and is active on
    at least n rows (see _active_rows): a point off the boundary would make
    supports too small.
    """
    # copies are bitwise equal; a bytewise unique costs about a quarter of
    # np.unique(axis=0) on these small arrays, which runs once per reduction
    equations = np.ascontiguousarray(equations)
    rows = equations.view(np.dtype((np.void, equations[0].nbytes)))
    equations = equations[np.sort(np.unique(rows, return_index=True)[1])]
    V = center - equations[:, :-1] / equations[:, -1:]
    active = _active_rows(V, H, h, norms)
    if active is None or np.count_nonzero(active, axis=1).min() < H.shape[1]:
        return None
    return V


def _reduce_dual_hull(H, h, center, norms):
    """Facet identification through polar duality around an interior point
    (norms holds the row norms of H).

    Row i becomes the point H_i / (h_i - H_i center); the irredundant rows
    are the vertices of the hull of these points, and its facets are the
    vertices of the set. Returns (H, h, vertex list or None, incidence or
    None); None when the hull fails or does not hold the origin strictly
    inside, i.e. the set is unbounded and the hull vertices could include
    redundant rows. A checked list with one vertex per simplex (no
    degenerate vertex) comes with its incidence: each simplex names the n
    input rows active at its vertex (see _Incidence).
    """
    from scipy.spatial import ConvexHull, QhullError

    if H.shape[0] <= H.shape[1]:
        return None  # at most n halfspaces never bound a set in R^n
    d = h - H @ center
    if (d <= HULL_INTERIOR_TOL * _row_scales(H)).any():
        return None
    pts = H / d[:, None]
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    if not (hull.equations[:, -1] < 0).all():
        return None
    keep = np.sort(hull.vertices)
    Hk, hk = H[keep], h[keep]
    V = _hull_vertices(hull.equations, center, Hk, hk, norms[keep])
    incidence = None
    if V is not None and V.shape[0] == hull.simplices.shape[0]:
        incidence = _Incidence(H.shape, hull.simplices)
    return Hk, hk, V, incidence


def _repeats(rows):
    """Whether each row of an int array equals the next once the rows are
    sorted."""
    rows = rows[np.lexsort(rows.T)]
    return (rows[1:] == rows[:-1]).all(axis=1)


class _Incidence:
    """Vertex-facet incidence of a reduction of the q x n rows `shape`: row
    j of `active` holds the positions of the n rows active at vertex j.

    keep() is the union of the active sets when the list is closed under
    adjacency, else empty. It is closed when the active sets are distinct
    and each (n-1)-subset left by dropping one row of an active set lies in
    exactly two of them: at a simple vertex each such subset spans the
    line of one edge, and its other active set is that edge's other end.
    This reads the record alone, so it is worked out once, on first use.
    """

    __slots__ = ("shape", "active", "_keep")

    def __init__(self, shape, active):
        self.shape = shape
        self.active = active
        self._keep = None

    def keep(self):
        if self._keep is None:
            active, n = np.sort(self.active, axis=1), self.shape[1]
            ridges = np.broadcast_to(active[:, None, :], (len(active), n, n))
            ridges = ridges[:, ~np.eye(n, dtype=bool)].reshape(-1, n - 1)
            same = _repeats(ridges)  # twice each: equal in pairs, unequal across
            closed = (len(ridges) % 2 == 0 and same[0::2].all()
                      and not same[1::2].any() and not _repeats(active).any())
            self._keep = np.unique(active) if closed else np.zeros(0, int)
        return self._keep


def _reduce_by_incidence(H, h, incidence, norms):
    """(H[keep], h[keep], vertex list, incidence) when an _Incidence record
    certifies the facets of {x : Hx <= h} (norms holds the row norms of H),
    else None. It solves no LP and builds no hull.

    Each active set is solved for its candidate vertex. The record holds
    when, cheapest check first:
    1. H has the record's shape;
    2. every row holds at every candidate (see _active_rows);
    3. at each candidate exactly its n rows are active;
    4. the record is closed under adjacency (see _Incidence).
    Every candidate is then a simple vertex and every edge leaving one ends
    at another. The graph of a polyhedron is connected (Balinski 1961), so
    the list is the whole vertex set: the set is bounded, and the rows
    active at some vertex, keep, are exactly its facets. Degenerate
    vertices fail check 3.
    """
    active = incidence.active
    if H.shape != incidence.shape:
        return None
    try:
        V = np.linalg.solve(H[active], h[active][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return None
    tight = _active_rows(V, H, h, norms)
    if (tight is None or np.count_nonzero(tight) != active.size
            or not tight[np.arange(len(active))[:, None], active].all()):
        return None
    keep = incidence.keep()
    if keep.size == 0:
        return None
    return H[keep], h[keep], np.ascontiguousarray(V), incidence


def _reduce_1d(H, h):
    """The interval of 1-D rows (H, h) as at most two rows, or (None, None)
    when it is empty. The rows come from _dedupe_rows: there is at least
    one, and none is zero."""
    ub = np.inf
    lb = -np.inf
    for ai, hi in zip(H[:, 0], h):
        if ai > 0.0:
            ub = min(ub, hi / ai)
        else:
            lb = max(lb, hi / ai)
    if lb > ub + INTERVAL_TOL * max(1.0, abs(lb), abs(ub)):
        return None, None
    rows, rhs = [], []
    if np.isfinite(ub):
        rows.append([1.0])
        rhs.append(ub)
    if np.isfinite(lb):
        rows.append([-1.0])
        rhs.append(-lb)
    return np.array(rows), np.array(rhs)


def _carried_ball(H, h, ball, norms):
    """ball = (center, radius) re-measured on the rows (H, h) of row norms
    norms, or None.

    The new radius is the distance from the center to the nearest row. The
    ball is kept when that radius exceeds FLAT_RADIUS, which puts the
    center strictly inside, and is at least half the recorded one, so the
    dual hull around it stays about as well conditioned as around the
    Chebyshev center.
    """
    if ball is None:
        return None
    center, radius = ball
    r = float(((h - H @ center) / norms).min())
    if r > FLAT_RADIUS and r >= 0.5 * radius:
        return center, r
    return None


def _nonempty(H, h, verts=None, incidence=None, cheby=None) -> HPolytope:
    out = HPolytope(H, h)
    out._empty = False
    out._cheby = cheby
    out._verts = verts
    out._incidence = incidence
    return out


def remove_redundancy(P: HPolytope) -> HPolytope:
    """Same set, irredundant rows; the result caches its emptiness and the
    ball it used as interior point.

    A 1-D set is an interval, read off its rows with no LP; a bounded one
    carries its two ends as its vertex list. Otherwise the interior point
    is the ball P carries (`_cheby`: handed over by project, or cached by
    an earlier reduction or chebyshev_center) when one matrix product
    confirms it (see _carried_ball); else one Chebyshev LP decides
    emptiness and gives it. A
    full-dimensional set of any dimension then goes through a dual convex
    hull around that point, which also proves it bounded and gives its
    checked vertex list and, with no degenerate vertex, its vertex-facet
    incidence. When P offers an incidence (`_incidence`, handed over by
    project) that still certifies the deduplicated rows, no hull is built:
    the record's vertices are solved and checked, and the rows active at
    them are kept in input order, as the hull keeps its facets (see
    _reduce_by_incidence); a record that fails any check leaves the hull
    to run as without it. Flat sets, unbounded
    sets and hull failures fall back to one LP per row and carry no vertex
    list; only flat or borderline sets pay a separate phase-1 emptiness LP.
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
    norms = _row_norms(Hd)
    ball = _carried_ball(Hd, hd, P._cheby, norms)
    if ball is None:
        try:
            ball = HPolytope(Hd, hd).chebyshev_center()
        except EmptyPolytopeError:
            return HPolytope.empty(P.dim)
    center, radius = ball
    if radius <= FLAT_RADIUS and P.is_empty():
        return HPolytope.empty(P.dim)
    if radius > FLAT_RADIUS:
        out = None
        if P._incidence is not None:
            out = _reduce_by_incidence(Hd, hd, P._incidence, norms)
        if out is None:
            out = _reduce_dual_hull(Hd, hd, center, norms)
        if out is not None:
            return _nonempty(*out, cheby=(center, radius))
    return _nonempty(*_reduce_lp(Hd, hd), cheby=(center, radius))


def cache_vertex_list(P: HPolytope) -> None:
    """Give P the vertex list of its reduced form (see remove_redundancy),
    unless it already has one. Other sets (flat, unbounded, empty, or a
    list that failed the check) stay without one."""
    if P._verts is None:
        P._verts = remove_redundancy(P)._verts


# ---------------------------------------------------------------------------
# projection (Fourier-Motzkin)


def _fm_zero(H, keep):
    """Which coefficients of the columns keep.. of H Fourier-Motzkin takes as
    zero: those at most FM_ZERO times the largest of their row."""
    absH = np.abs(H)
    scale_row = np.maximum(absH.max(axis=1), NORM_FLOOR)
    return absH[:, keep:] <= FM_ZERO * scale_row[:, None]


def _fm_eliminate(H, h, j, zero):
    """Eliminate coordinate j by pairwise combination; column j is dropped.
    zero says which rows have a zero coefficient there (see _fm_zero)."""
    coef = H[:, j]
    pos = ~zero & (coef > 0)
    neg = ~zero & (coef < 0)
    rest = np.concatenate((H[:, :j], H[:, j + 1:]), axis=1)
    rows, rhs = [rest[zero]], [h[zero]]
    if pos.any() and neg.any():
        cp, cn = coef[pos], -coef[neg]
        # row_p * (-c_n) + row_n * c_p  (both multipliers positive)
        newH = rest[pos][:, None, :] * cn[:, None]
        newH += rest[neg] * cp[:, None, None]
        rows.append(newH.reshape(-1, rest.shape[1]))
        rhs.append((h[pos][:, None] * cn + h[neg] * cp[:, None]).reshape(-1))
    H_out = np.concatenate(rows)
    if H_out.shape[0] == 0:
        return np.zeros((1, rest.shape[1])), np.array([1.0])
    # Rescale by a power of two to keep magnitudes tame without rounding.
    mags = np.abs(H_out).max(axis=1)
    expo = np.exp2(np.ceil(np.log2(np.where(mags > 0, mags, 1.0))))
    H_out /= expo[:, None]
    return H_out, np.concatenate(rhs) / expo


def project(P: HPolytope, keep: int) -> HPolytope:
    """Exact orthogonal projection onto the first `keep` coordinates, for
    keep from 1 to the dimension (anything else raises ValueError).

    Each eliminated coordinate costs one remove_redundancy, which also
    drops the duplicate rows that Fourier-Motzkin generates. Fourier-Motzkin
    keeps emptiness, so an empty input is found by the first reduction's
    Chebyshev LP; no phase-1 LP is spent on the input.

    A ball inside a set projects to a ball of the same radius inside its
    projection, so each elimination hands its input's ball (P's own, then
    each reduction's) to its output with the eliminated coordinate dropped,
    and the reduction reuses it as interior point instead of solving the
    Chebyshev LP. Each elimination takes the ball P's `_offer` holds under
    its key when it has no such ball, and the incidence always; a pair
    from another elimination order or dimension has another key. The
    result keeps the pairs of its reductions but the last in `_offer`.
    """
    n = P.dim
    if keep > n:
        raise ValueError("cannot keep more coordinates than the dimension")
    if keep < 1:
        raise ValueError("a projection keeps at least one coordinate")
    if keep == n:
        return P
    if P._empty:
        return HPolytope.empty(keep)
    H, h, ball = P.H, P.h, P._cheby
    remaining = list(range(keep, n))  # original index of column keep + i
    offers, records, gone = P._offer or {}, {}, []
    while remaining:
        # Eliminate the coordinate with the fewest pairwise combinations.
        j, zero = keep, _fm_zero(H, keep)
        if len(remaining) > 1:
            coef = H[:, keep:]
            pos = (~zero & (coef > 0)).sum(axis=0)
            neg = (~zero & (coef < 0)).sum(axis=0)
            j += int((pos * neg - pos - neg).argmin())
        gone.append(remaining.pop(j - keep))
        H, h = _fm_eliminate(H, h, j, zero[:, j - keep])
        if H.shape[0] > ROW_CAP:
            raise BudgetExceededError(
                f"Fourier-Motzkin exceeded the {ROW_CAP}-row cap")
        fm = HPolytope(H, h)
        if ball is not None:
            fm._cheby = (np.concatenate((ball[0][:j], ball[0][j + 1:])),
                         ball[1])
        key = (n, tuple(sorted(gone)))
        if key in offers:
            offered_ball, fm._incidence = offers[key]
            if ball is None:
                fm._cheby = offered_ball
        reduced = remove_redundancy(fm)
        if reduced.is_empty():
            return HPolytope.empty(keep)
        H, h, ball = reduced.H, reduced.h, reduced._cheby
        if remaining:
            records[key] = (ball, reduced._incidence)
    reduced._offer = records or None
    return reduced


# ---------------------------------------------------------------------------
# containment programs


def containment_ratio(P1: HPolytope, P2: HPolytope) -> float:
    """Minimal r >= 0 with P1 ⊆ r P2: max_i support(P1, a_i) / b_i over the
    rows a_i x <= b_i of P2 (the LP-dual form of the multiplier program).

    P2 must be in origin-interior normal form (h > 0); P1 nonempty and
    bounded. With P1's vertex list (see cache_vertex_list) this is one
    matrix product per row; without it, one support LP per row.
    """
    if P1.dim != P2.dim:
        raise ValueError("dimension mismatch")
    if not P2.in_normal_form:
        raise NormalFormError("containment_ratio needs h > 0 for the outer set")
    return max(0.0, max(support(P1, a) / b for a, b in zip(P2.H, P2.h)))


def max_inscribed_ball_at(P: HPolytope, center) -> float:
    """Largest eps with center + eps*B(n) ⊆ P (sup-norm ball), 0 if outside."""
    center = np.asarray(center, dtype=float)
    rowsum = np.sum(np.abs(P.H), axis=1)
    slack = P.h - P.H @ center
    zero, infeasible = _zero_rows(rowsum, slack)
    if infeasible:
        return 0.0
    if zero.all():
        return np.inf
    return float(max((slack[~zero] / rowsum[~zero]).min(), 0.0))


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


def _vertices_combinatorial(P):
    """Basic-solution enumeration; exact but exponential, for degenerate sets."""
    from itertools import combinations

    H, h = P.H, P.h
    n = P.dim
    norms = np.maximum(np.linalg.norm(H, axis=1), NORM_FLOOR)
    if H.shape[0] > 60:
        raise BudgetExceededError("too many rows for combinatorial vertex search")
    verts = []
    for idx in combinations(range(H.shape[0]), n):
        A = H[list(idx)]
        if abs(np.linalg.det(A)) < SINGULAR_DET:
            continue
        v = np.linalg.solve(A, h[list(idx)])
        if np.all(H @ v - h <= BASIC_VERTEX_TOL * norms):
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

    Reads the checked vertex list of P or of its reduced form, in any
    dimension. A bounded set without one (flat, or a list that failed its
    check) goes through basic-solution enumeration, which checks each
    vertex and raises BudgetExceededError above 60 rows.
    """
    if P._verts is not None:
        return _dedupe_points(P._verts)
    R = remove_redundancy(P)
    if R.is_empty():
        raise EmptyPolytopeError("empty polytope has no vertices")
    if R._verts is not None:
        return _dedupe_points(R._verts)
    bounding_box(R)  # raises UnboundedError
    return _dedupe_points(_vertices_combinatorial(R))


def radius_from_origin(P: HPolytope) -> float:
    """Radius of the smallest origin-centered ball containing P, read off
    its vertices."""
    if not P.contains_point(np.zeros(P.dim)):
        raise ValueError("radius_from_origin expects the origin inside P")
    return float(np.max(np.linalg.norm(vertices(P), axis=1)))


def hausdorff_nested(X: HPolytope, Y: HPolytope, tol=TAU_CHECK) -> float:
    """Hausdorff distance for nested polytopes X ⊆ Y (2-norm, exact).

    Equals the largest distance from a vertex of the outer set to the inner
    set; containment, checked by contains at tol, is a precondition, and
    NotNestedError reports its failure.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
    if not contains(Y, X, tol=tol):
        raise NotNestedError("hausdorff_nested requires X ⊆ Y")
    return _max_distance(vertices(Y), X)


def _max_distance(points, P: HPolytope) -> float:
    """Largest Euclidean distance from a row of points to P, one
    project_point per point."""
    return max(_project_point(v, P)[1] for v in points)
