import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from preview_regret.polytope import (
    BudgetExceededError,
    EmptyPolytopeError,
    HPolytope,
    NormalFormError,
    TAU_SET,
    UnboundedError,
    _dedupe_rows,
    _fm_eliminate,
    _fm_zero,
    _reduce_lp,
    _row_norms,
    _support_lp,
    bounding_box,
    cartesian_product,
    containment_ratio,
    contains,
    erode_rows,
    hausdorff_nested,
    interval,
    max_inscribed_ball_at,
    project,
    remove_redundancy,
    radius_from_origin,
    scale,
    set_equal,
    support,
    translate,
    unit_box,
    vertices,
)


def diamond2d():
    H = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return HPolytope(H, np.ones(4))


def random_polytope(rng, n, k=8, radius=3.0):
    """Bounded polytope with the origin strictly inside."""
    dirs = rng.normal(size=(k, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = rng.uniform(0.5, radius, size=k)
    box = unit_box(n)
    return HPolytope(np.vstack([dirs, box.H]), np.r_[h, box.h * radius])


def test_interval_intersection():
    A, B = interval(-1, 1), interval(0, 2)
    P = HPolytope(np.vstack([A.H, B.H]), np.r_[A.h, B.h])
    assert support(P, [1.0]) == pytest.approx(1.0, abs=1e-12)
    assert -support(P, [-1.0]) == pytest.approx(0.0, abs=1e-12)


def test_intersection_idempotent():
    P = diamond2d()
    assert set_equal(HPolytope(np.vstack([P.H, P.H]), np.r_[P.h, P.h]), P,
                     tol=1e-9)


def test_disjoint_intersection_empty():
    A, B = interval(-1, 0), interval(1, 2)
    assert HPolytope(np.vstack([A.H, B.H]), np.r_[A.h, B.h]).is_empty()


def test_scale_examples():
    P = scale(interval(-2, 2), 0.5)
    assert support(P, [1.0]) == pytest.approx(1.0)
    Q = diamond2d()
    assert set_equal(scale(Q, 1.0), Q, tol=1e-12)
    Z = scale(unit_box(2), 0.0)
    assert Z.contains_point([0.0, 0.0])
    assert support(Z, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_scale_rejects_negative():
    with pytest.raises(ValueError):
        scale(unit_box(1), -0.5)


def test_cartesian_product_square():
    P = cartesian_product(interval(-1, 1), interval(-1, 1))
    assert set_equal(P, unit_box(2), tol=1e-12)


def test_product_projection_roundtrip():
    P = diamond2d()
    Q = interval(-0.5, 2.0)
    PQ = cartesian_product(P, Q)
    assert PQ.dim == 3
    back = project(PQ, 2)
    assert set_equal(back, P, tol=1e-9)


def test_support_raises_on_an_unbounded_strip():
    strip = HPolytope([[1.0, 1.0], [-1.0, -1.0]], [1.0, 1.0])  # |x + y| <= 1
    assert support(strip, [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(UnboundedError):
        support(strip, [1.0, -1.0])


def test_support_examples():
    assert support(unit_box(2), [1.0, 1.0]) == pytest.approx(2.0)
    assert support(unit_box(2), [0.0, 0.0]) == 0.0
    assert support(diamond2d(), [1.0, 0.0]) == pytest.approx(1.0)


def test_erode_examples():
    P = HPolytope([[1.0]], [1.0])
    D = interval(-0.5, 0.5)
    E = np.array([[1.0]])
    out = erode_rows(P, E, D)
    assert out.h[0] == pytest.approx(0.5)

    Q = interval(-1, 1)
    zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
    assert set_equal(erode_rows(Q, E, zero), Q, tol=1e-12)

    wide = interval(-2, 2)
    assert erode_rows(Q, E, wide).is_empty()


def test_project_simplex_to_segment():
    P = HPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
    out = project(P, 1)
    assert support(out, [1.0]) == pytest.approx(1.0)
    assert -support(out, [-1.0]) == pytest.approx(0.0)


def test_project_rotated_square_matches_vertex_oracle():
    theta = np.pi / 4
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    sq = unit_box(2)
    rot = HPolytope(sq.H @ R.T, sq.h)  # rotate the square by theta
    proj = project(rot, 1)
    vs = vertices(rot)
    lo, hi = vs[:, 0].min(), vs[:, 0].max()
    assert -support(proj, [-1.0]) == pytest.approx(lo, abs=1e-9)
    assert support(proj, [1.0]) == pytest.approx(hi, abs=1e-9)


def test_remove_redundancy_examples():
    P = HPolytope([[1.0], [1.0]], [1.0, 2.0])
    out = remove_redundancy(P)
    assert out.num_rows == 1 and out.h[0] == pytest.approx(1.0)

    Q = remove_redundancy(diamond2d())
    assert Q.num_rows == 4

    rng = np.random.default_rng(3)
    cuts = rng.normal(size=(10, 2))
    cuts /= np.linalg.norm(cuts, axis=1, keepdims=True)
    offs = np.abs(cuts).sum(axis=1) * (1.0 + rng.uniform(0.1, 2.0, size=10))
    sq = unit_box(2)
    fat = HPolytope(np.vstack([sq.H, cuts]), np.r_[sq.h, offs])
    red = remove_redundancy(fat)
    assert red.num_rows == 4
    assert set_equal(red, sq, tol=1e-9)


def test_chebyshev_center_empty_and_flat():
    empty = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [0.0, -1.0, 1.0, 1.0])
    with pytest.raises(EmptyPolytopeError):
        empty.chebyshev_center()
    assert empty._empty is True and empty.is_empty()

    strip = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [0.0, 0.0, 1.0, 1.0])
    _, radius = strip.chebyshev_center()
    assert abs(radius) <= 1e-9
    assert not strip.is_empty()


def _with_redundant_rows(P, rng, extra=30):
    """P plus rows implied by its own rows or by its bounding box."""
    dirs = rng.normal(size=(extra, P.dim))
    box = bounding_box(P)
    offs = np.where(dirs > 0, dirs * box.upper, dirs * box.lower).sum(axis=1)
    loose = rng.uniform(1.0, 1.5, size=P.num_rows)
    return HPolytope(np.vstack([P.H, dirs, 2.0 * P.H]),
                     np.r_[P.h, offs + rng.uniform(0.1, 1.0, size=extra),
                           2.0 * P.h * loose])


def _count_lps(monkeypatch):
    import preview_regret.polytope as poly

    calls = []
    real = poly.solve_lp_fast

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(poly, "solve_lp_fast", counting)
    return calls


def test_remove_redundancy_8d_one_lp(monkeypatch):
    rng = np.random.default_rng(11)
    P = _with_redundant_rows(random_polytope(rng, 8, k=40), rng)
    via_lp = HPolytope(*_reduce_lp(P.H, P.h))
    calls = _count_lps(monkeypatch)
    R = remove_redundancy(P)
    assert len(calls) == 1
    assert R._empty is False
    assert R.num_rows == via_lp.num_rows < P.num_rows
    assert set_equal(R, via_lp, tol=1e-8)
    assert set_equal(R, P, tol=1e-8)


def test_remove_redundancy_flat_7d_uses_lp_fallback(monkeypatch):
    import preview_regret.polytope as poly

    rng = np.random.default_rng(5)
    box = unit_box(7)
    flat = HPolytope(np.vstack([box.H, -np.eye(7)[:1]]),
                     np.r_[box.h[:7] * np.r_[0.0, np.ones(6)], box.h[7:], 0.0])
    P = _with_redundant_rows(flat, rng)
    used = []
    real = poly._reduce_lp

    def spy(H, h):
        used.append(1)
        return real(H, h)

    monkeypatch.setattr(poly, "_reduce_lp", spy)
    R = remove_redundancy(P)
    assert used == [1]
    assert not R.is_empty()
    assert R.num_rows < P.num_rows
    assert set_equal(R, flat, tol=1e-8)


def test_remove_redundancy_empty_7d():
    box = unit_box(7)
    P = HPolytope(np.vstack([box.H, -np.eye(7)[:1]]), np.r_[box.h, -2.0])
    R = remove_redundancy(P)
    assert R.is_empty() and R.num_rows == 1 and R.h[0] < 0


def test_project_reuses_reduction_emptiness(monkeypatch):
    rng = np.random.default_rng(2)
    P = random_polytope(rng, 4, k=12)
    calls = _count_lps(monkeypatch)
    out = project(P, 2)
    # one Chebyshev LP, on the first eliminated coordinate: the second
    # reduction reuses that ball with the coordinate dropped; none on the
    # input
    assert len(calls) == 1
    assert out._empty is False


def _reduced_with(P, ball):
    Q = HPolytope(P.H, P.h)
    Q._cheby = ball
    return remove_redundancy(Q)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10_000))
def test_carried_ball_reduces_like_the_lp_center(n, seed):
    rng = np.random.default_rng(seed)
    P = _with_redundant_rows(random_polytope(rng, n, k=3 * n), rng)
    center, radius = HPolytope(P.H, P.h).chebyshev_center()
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    norms = np.linalg.norm(P.H, axis=1)
    near = np.argmin((P.h - P.H @ center) / norms)
    to_facet = (P.h[near] - P.H[near] @ center) / norms[near] ** 2 * P.H[near]
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_lps(mp)
        by_lp = remove_redundancy(HPolytope(P.H, P.h))
        assert len(calls) == 1
        # off the LP center, at least half the radius from every row
        carried = _reduced_with(P, (center + 0.3 * radius * u, radius))
        assert len(calls) == 1
        for bad in (center + to_facet,  # on a facet
                    center + 0.75 * to_facet,  # a quarter of the radius
                    center + 4.0 * to_facet):  # outside
            fallback = _reduced_with(P, (bad, radius))
            assert np.array_equal(fallback.H, by_lp.H)
            assert np.array_equal(fallback.h, by_lp.h)
        assert len(calls) == 4
    assert set_equal(carried, by_lp, tol=TAU_SET)
    for R in (carried, by_lp):
        assert R._verts is not None
        scale_ = norms * max(1.0, np.max(np.abs(R._verts)))
        assert np.max((R._verts @ P.H.T - P.h) / scale_) <= 1e-12
    # the two sides differ only in weakly redundant rows
    for A, B in ((carried, by_lp), (by_lp, carried)):
        kept = {row.tobytes() for row in np.c_[B.H, B.h]}
        plain = HPolytope(B.H, B.h)
        for a, b in zip(A.H, A.h):
            if np.r_[a, b].tobytes() not in kept:
                assert _support_lp(plain, a) - b <= 1e-12 * np.linalg.norm(a)


def test_vertices_one_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    V = vertices(unit_box(3))
    assert len(calls) == 1
    assert V.shape == (8, 3)
    assert np.allclose(np.abs(V), 1.0)


def test_vertices_1d_without_lps(monkeypatch):
    calls = _count_lps(monkeypatch)
    assert np.array_equal(vertices(interval(-2.0, 3.0)), [[-2.0], [3.0]])
    assert np.array_equal(vertices(interval(1.5, 1.5)), [[1.5]])
    # the reduction of a bounded interval carries its two ends
    inner = remove_redundancy(interval(-2.0, 3.0))
    outer = remove_redundancy(interval(-2.5, 3.5))
    assert np.array_equal(inner._verts, [[-2.0], [3.0]])
    assert contains(outer, inner) and not contains(inner, outer)
    assert len(calls) == 0
    with pytest.raises(UnboundedError):  # the half-line x <= 1
        vertices(HPolytope(np.array([[1.0], [2.0]]), np.array([1.0, 4.0])))


@pytest.mark.parametrize("H, h", [
    # half-plane, with a parallel looser copy
    ([[1.0, 0.0], [2.0, 0.0]], [1.0, 3.0]),
    # wedge with two implied rows
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]], [1.0, 1.0, 3.0, 5.0]),
    # slab, with a parallel looser copy
    ([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]], [1.0, 1.0, 5.0]),
    # unbounded with n + 1 rows, one of them implied
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
     [1.0, 1.0, 1.0, 5.0]),
])
def test_remove_redundancy_unbounded_matches_lp(H, h):
    P = HPolytope(H, h)
    H_lp, h_lp = _reduce_lp(P.H, P.h)
    R = remove_redundancy(P)
    assert R._empty is False
    assert R.num_rows < P.num_rows
    assert np.array_equal(R.H, H_lp) and np.array_equal(R.h, h_lp)


def _weakly_redundant_shape(kind, n, rng):
    """A bounded full-dimensional set plus n supporting rows, each touching
    it: random cuts of a box; a skewed cross-polytope, each of whose 2n
    vertices lies on 2^(n-1) facets; or a box with rows through a corner."""
    if kind == "cuts":
        P = random_polytope(rng, n, k=3 * n)
    elif kind == "cross":
        from itertools import product

        signs = np.array(list(product([-1.0, 1.0], repeat=n)))
        A = np.eye(n) + 0.2 * rng.normal(size=(n, n))
        P = HPolytope(signs @ np.linalg.inv(A), np.ones(2 ** n))
    else:
        a = rng.uniform(0.1, 1.0, size=(n, n))
        box = unit_box(n)
        P = HPolytope(np.vstack([box.H, a]), np.r_[box.h, a.sum(axis=1)])
    dirs = rng.normal(size=(n, n))
    offs = [_support_lp(P, d) for d in dirs]
    return HPolytope(np.vstack([P.H, dirs]), np.r_[P.h, offs])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.sampled_from(["cuts", "cross", "corner"]),
       st.integers(min_value=0, max_value=10_000))
def test_vertex_supports_match_lp_supports(n, kind, seed):
    if kind == "cross":
        n = min(n, 6)  # 2^n rows
    rng = np.random.default_rng(seed)
    P = _weakly_redundant_shape(kind, n, rng)
    R = remove_redundancy(P)
    assert R._verts is not None and R._verts.flags.c_contiguous
    assert R._verts.shape[1] == n
    for d in np.vstack([rng.normal(size=(10, n)), P.H]):
        want = _support_lp(P, d)
        assert abs(support(R, d) - want) <= 1e-9 * max(1.0, abs(want))
    assert contains(P, R, tol=1e-9) and contains(R, P, tol=1e-9)


def _skewed_hull(factor):
    """ConvexHull with every facet offset scaled by factor: the vertices
    move out of the set (factor < 1) or into it (factor > 1)."""
    from scipy.spatial import ConvexHull

    class Skewed(ConvexHull):
        def __init__(self, points):
            super().__init__(points)
            self.equations = self.equations * np.r_[np.ones(self.ndim), factor]

    return Skewed


@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_vertex_list_failing_its_check_falls_back_to_lps(factor, monkeypatch):
    import scipy.spatial

    rng = np.random.default_rng(4)
    P = random_polytope(rng, 4, k=12)
    good = remove_redundancy(P)
    assert good._verts is not None
    monkeypatch.setattr(scipy.spatial, "ConvexHull", _skewed_hull(factor))
    R = remove_redundancy(P)
    assert R._verts is None
    assert np.array_equal(R.H, good.H) and np.array_equal(R.h, good.h)
    calls = _count_lps(monkeypatch)
    dirs = rng.normal(size=(5, 4))
    for d in dirs:
        assert support(R, d) == pytest.approx(support(good, d), abs=1e-9)
    assert len(calls) == len(dirs)


def test_a_list_that_failed_its_check_is_never_replaced_unchecked(monkeypatch):
    # tangent planes of the unit sphere, whose lists fail their check: up to
    # 60 rows basic-solution enumeration gives (and checks) the vertices;
    # above 60 rows vertices gives up rather than read an unchecked list
    import scipy.spatial

    rng = np.random.default_rng(5)

    def tangent_planes(k):
        dirs = rng.normal(size=(k, 3))
        return HPolytope(dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                         np.ones(k))

    few, many = tangent_planes(40), tangent_planes(80)
    want = vertices(few)
    monkeypatch.setattr(scipy.spatial, "ConvexHull", _skewed_hull(1.0 - 1e-6))
    assert remove_redundancy(few)._verts is None
    got = vertices(few)
    assert got.shape == want.shape
    gap = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
    assert np.max(np.min(gap, axis=1)) <= 1e-9
    assert remove_redundancy(many)._verts is None
    with pytest.raises(BudgetExceededError):
        vertices(many)


def test_cache_vertex_list():
    from preview_regret.polytope import cache_vertex_list

    listed = translate(remove_redundancy(unit_box(2)), [0.5, 0.0])
    kept = listed._verts
    cache_vertex_list(listed)  # a set with a list keeps it
    assert kept is not None and listed._verts is kept
    D = HPolytope([[2.0], [-1.0], [1.0]], [1.0, 0.25, 3.0])  # [-0.25, 0.5]
    cache_vertex_list(D)
    assert np.array_equal(D._verts, [[-0.25], [0.5]])
    assert support(D, [-4.0]) == 1.0
    box = unit_box(3)
    cache_vertex_list(box)
    assert box._verts.shape == (8, 3)
    assert {tuple(v) for v in np.round(box._verts, 12)} == \
        set(itertools.product([-1.0, 1.0], repeat=3))
    for no_list in (HPolytope([[1.0]], [2.0]),  # a half-line
                    HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                               [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])):  # flat
        cache_vertex_list(no_list)
        assert no_list._verts is None


def test_degenerate_vertex_copies_dropped():
    from itertools import product

    signs = np.array(list(product([-1.0, 1.0], repeat=5)))
    cross = HPolytope(signs, np.ones(32))  # vertices +-e_i, 16 facets each
    R = remove_redundancy(cross)
    assert R._verts.shape == (10, 5)
    assert {tuple(v) for v in np.round(R._verts, 12)} == \
        {tuple(s * e) for s in (-1.0, 1.0) for e in np.eye(5)}


def _count_hulls(monkeypatch):
    import scipy.spatial

    calls = []

    class Counting(scipy.spatial.ConvexHull):
        def __init__(self, points):
            calls.append(1)
            super().__init__(points)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", Counting)
    return calls


def _offered(P, incidence):
    """A fresh copy of P that offers `incidence` to its reduction."""
    Q = HPolytope(P.H, P.h)
    Q._incidence = incidence
    return Q


def _same_reduction(R, cold):
    assert R.H.tobytes() == cold.H.tobytes()
    assert R.h.tobytes() == cold.h.tobytes()
    if cold._verts is None:
        assert R._verts is None
        return
    assert R._verts.shape == cold._verts.shape
    gap = np.linalg.norm(R._verts[:, None, :] - cold._verts[None, :, :], axis=2)
    tol = 1e-12 * max(1.0, np.max(np.abs(cold._verts)))
    assert np.max(np.min(gap, axis=0)) <= tol
    assert np.max(np.min(gap, axis=1)) <= tol


def test_a_carried_incidence_replaces_the_hull(monkeypatch):
    # the record of a reduction certifies the same rows again, shifted and
    # scaled rows included, with no hull
    rng = np.random.default_rng(6)
    P = random_polytope(rng, 4, k=12)
    cold = remove_redundancy(P)
    assert cold._incidence is not None
    hulls = _count_hulls(monkeypatch)
    for Q in (P, HPolytope(P.H, 1.5 * P.h + P.H @ [0.2, -0.1, 0.0, 0.3])):
        R = remove_redundancy(_offered(Q, cold._incidence))
        assert hulls == []
        _same_reduction(R, remove_redundancy(HPolytope(Q.H, Q.h)))
        assert R._incidence is cold._incidence
        hulls.clear()


def _pyramid(apex_gap=0.0):
    # square base z = -1, apex (0, 0, 1) lies on four rows when apex_gap = 0
    H = [[0.0, 0.0, -1.0], [2.0, 0.0, 1.0], [-2.0, 0.0, 1.0],
         [0.0, 2.0, 1.0], [0.0, -2.0, 1.0]]
    return HPolytope(H, [1.0, 1.0 + apex_gap, 1.0, 1.0, 1.0])


def _bad_records():
    from preview_regret.polytope import _Incidence

    rng = np.random.default_rng(7)
    P = random_polytope(rng, 3, k=10)
    rec = remove_redundancy(P)._incidence
    dropped = _Incidence(rec.shape, rec.active[1:])
    hexagon = HPolytope([[np.cos(t), np.sin(t)]
                         for t in np.arange(6) * np.pi / 3], np.ones(6))
    square = HPolytope(np.vstack([unit_box(2).H, [[1.0, 1.0], [-1.0, 1.0]]]),
                       np.r_[unit_box(2).h, 3.0, 3.0])
    pentagon = HPolytope(hexagon.H, np.r_[1.0, 5.0, np.ones(4)])
    wedge = HPolytope([[-1.0, -1.0], [1.0, -1.0], [0.0, -1.0]],
                      [0.0, 0.0, 1.0])  # y >= |x|, unbounded
    apex = np.array([[0, 1]])  # the wedge's one vertex, simple and feasible
    return [
        ("one active set dropped", P, dropped),
        ("fewer rows", unit_box(2), remove_redundancy(hexagon)._incidence),
        ("parallel rows", square, remove_redundancy(hexagon)._incidence),
        ("a row moved out", pentagon, remove_redundancy(hexagon)._incidence),
        ("degenerate apex", _pyramid(),
         remove_redundancy(_pyramid(0.1))._incidence),
        ("unbounded wedge", wedge, _Incidence((3, 2), apex)),
        ("a vertex listed twice", wedge,
         _Incidence((3, 2), np.vstack([apex, apex]))),
    ]


@pytest.mark.parametrize("case", range(7))
def test_a_bad_incidence_falls_back_to_the_hull(case, monkeypatch):
    label, P, record = _bad_records()[case]
    assert record is not None, label
    cold = remove_redundancy(HPolytope(P.H, P.h))
    hulls = _count_hulls(monkeypatch)
    R = remove_redundancy(_offered(P, record))
    _same_reduction(R, cold)
    assert R._incidence is not record
    assert len(hulls) == 1  # the fallback is the reduction with no record


def test_a_degenerate_vertex_leaves_no_incidence():
    assert remove_redundancy(_pyramid())._incidence is None
    assert remove_redundancy(_pyramid(0.1))._incidence is not None


def test_containment_ratio_examples():
    b = unit_box(2)
    assert containment_ratio(b, b) == pytest.approx(1.0, abs=1e-7)
    big = scale(unit_box(2), 2.0)
    assert containment_ratio(big, b) == pytest.approx(2.0, abs=1e-7)
    assert containment_ratio(diamond2d(), b) == pytest.approx(1.0, abs=1e-7)


def _multiplier_lp_ratio(P1, P2):
    """Reference: min r over Lambda >= 0 with Lambda H1 = H2 and
    Lambda h1 <= r h2, the lifted LP (q1 q2 + 1 variables), by HiGHS."""
    from scipy.optimize import linprog

    H1, h1, H2, h2 = P1.H, P1.h, P2.H, P2.h
    q1, q2, n = H1.shape[0], H2.shape[0], P1.dim
    nv = q2 * q1 + 1  # vec(Lambda) row-major, then r
    A_eq = np.zeros((q2 * n, nv))
    A_ub = np.zeros((q2, nv))
    for i in range(q2):
        A_eq[i * n:(i + 1) * n, i * q1:(i + 1) * q1] = H1.T
        A_ub[i, i * q1:(i + 1) * q1] = h1
        A_ub[i, -1] = -h2[i]
    c = np.zeros(nv)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(q2), A_eq=A_eq,
                  b_eq=H2.reshape(-1), bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def _assert_list_passes_its_check(P):
    """The checks _hull_vertices puts on a list, on P's own rows."""
    V = P._verts
    scale_ = np.linalg.norm(P.H, axis=1) * max(1.0, np.max(np.abs(V)))
    slack = (V @ P.H.T - P.h) / scale_
    assert np.max(slack) <= 1e-12
    assert np.min(np.count_nonzero(slack >= -1e-9, axis=1)) >= P.dim


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.sampled_from(["rows", "list", "translate", "scale"]),
       st.integers(min_value=0, max_value=10_000))
def test_containment_ratio_matches_the_multiplier_lp(n, kind, seed):
    rng = np.random.default_rng(seed)
    outer = random_polytope(rng, n, k=2 * n)
    inner = random_polytope(rng, n, k=2 * n, radius=2.0)
    if kind != "rows":  # rows alone: one support LP per row of outer
        inner = remove_redundancy(inner)
    if kind == "translate":
        inner = translate(inner, rng.uniform(-0.5, 0.5, size=n))
    elif kind == "scale":
        inner = scale(inner, rng.uniform(0.1, 3.0))
    want = _multiplier_lp_ratio(inner, outer)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_lps(mp)
        got = containment_ratio(inner, outer)
    assert abs(got - want) <= 1e-9 * want
    if kind != "rows":
        assert inner._verts is not None and inner._empty is False
        assert calls == []
        _assert_list_passes_its_check(inner)


def test_containment_ratio_requires_normal_form():
    shifted = translate(unit_box(2), [5.0, 0.0])  # origin outside
    with pytest.raises(NormalFormError):
        containment_ratio(unit_box(2), shifted)


def test_max_inscribed_ball():
    assert max_inscribed_ball_at(unit_box(2), [0.0, 0.0]) == pytest.approx(1.0)
    assert max_inscribed_ball_at(unit_box(2), [0.5, 0.0]) == pytest.approx(0.5)
    assert max_inscribed_ball_at(diamond2d(), [0.0, 0.0]) == pytest.approx(0.5)
    assert max_inscribed_ball_at(unit_box(2), [3.0, 0.0]) == 0.0


def test_vertices_examples():
    V = vertices(unit_box(2))
    assert V.shape == (4, 2)
    got = {tuple(np.round(v, 9)) for v in V}
    assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    V1 = vertices(interval(-2.0, 3.5))
    assert sorted(v[0] for v in V1) == [-2.0, 3.5]

    rng = np.random.default_rng(5)
    P = remove_redundancy(random_polytope(rng, 2))
    V = vertices(P)
    assert V.shape[0] == P.num_rows  # 2D facet/vertex duality


def test_vertices_degenerate_point():
    pt = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.zeros(4))
    V = vertices(pt)
    assert V.shape == (1, 2)
    assert np.allclose(V[0], 0.0)


def test_bounding_box():
    bb = bounding_box(diamond2d())
    assert np.allclose(bb.lower, [-1, -1]) and np.allclose(bb.upper, [1, 1])
    pt = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.zeros(4))
    bbp = bounding_box(pt)
    assert np.allclose(bbp.lower, 0) and np.allclose(bbp.upper, 0)


def test_radius_modes():
    from preview_regret.polytope import _vertices_combinatorial

    assert radius_from_origin(unit_box(2)) == pytest.approx(np.sqrt(2))
    assert radius_from_origin(interval(-1.5, 1.5)) == pytest.approx(1.5)
    rng = np.random.default_rng(9)
    for P in (random_polytope(rng, 2) for _ in range(4)):
        # oracle: basic-solution enumeration, which reads no vertex list
        V = _vertices_combinatorial(P)
        assert radius_from_origin(P) == pytest.approx(
            np.max(np.linalg.norm(V, axis=1)), abs=1e-9)


def test_vertices_of_the_7d_cross_polytope():
    from preview_regret.ellipsoid import min_c_out

    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=7)))
    cross = HPolytope(signs, np.ones(128))  # |x|_1 <= 1, vertices +-e_i
    V = vertices(cross)
    assert V.shape == (14, 7)
    assert {tuple(v) for v in np.round(V, 12)} == \
        {tuple(e) for e in np.vstack([np.eye(7), -np.eye(7)])}
    assert radius_from_origin(cross) == pytest.approx(1.0, abs=1e-12)
    assert min_c_out(cross, np.eye(7)) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_examples():
    X = unit_box(2)
    assert hausdorff_nested(X, X) == pytest.approx(0.0, abs=1e-9)
    assert hausdorff_nested(interval(-1, 1), interval(-1.5, 1.5)) == pytest.approx(0.5)
    Y = scale(unit_box(2), 1.5)
    assert hausdorff_nested(X, Y) == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_hausdorff_is_the_largest_projection_distance_bit_for_bit():
    from preview_regret.solver import project_point

    rng = np.random.default_rng(5)
    for X, Y in ((unit_box(2), scale(unit_box(2), 1.5)),
                 (interval(-1, 1), interval(-1.5, 1.5)),
                 (translate(unit_box(3), rng.uniform(-0.1, 0.1, 3)),
                  scale(unit_box(3), 2.0))):
        want = max(project_point(v, X)[1] for v in vertices(Y))
        assert hausdorff_nested(X, Y).hex() == want.hex()
    with pytest.raises(EmptyPolytopeError):
        hausdorff_nested(HPolytope.empty(2), unit_box(2))


def test_hausdorff_requires_nesting():
    with pytest.raises(ValueError):
        hausdorff_nested(interval(-2, 2), interval(-1, 1))


def test_empty_propagation():
    E = HPolytope.empty(2)
    assert E.is_empty()
    box = unit_box(2)
    assert HPolytope(np.vstack([E.H, box.H]), np.r_[E.h, box.h]).is_empty()
    assert remove_redundancy(E).is_empty()
    assert project(E, 1).is_empty()


# ---------------------------------------------------------------------------
# the backward step's kernels against their earlier formulas


def _fm_eliminate_oracle(H, h, j):
    """Fourier-Motzkin elimination as first written, with NumPy's wrappers;
    the kernel must match it byte for byte."""
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
        newH = (Hp[:, None, :] * (-cn)[None, :, None]
                + Hn[None, :, :] * cp[:, None, None])
        newh = hp[:, None] * (-cn)[None, :] + hn[None, :] * cp[:, None]
        rows.append(newH.reshape(-1, keep_cols.size))
        rhs.append(newh.reshape(-1))
    H_out = np.vstack(rows)
    h_out = np.concatenate(rhs)
    if H_out.shape[0] == 0:
        return np.zeros((1, keep_cols.size)), np.array([1.0])
    mags = np.max(np.abs(H_out), axis=1)
    big = mags > 0
    expo = np.zeros_like(mags)
    expo[big] = np.exp2(np.ceil(np.log2(mags[big])))
    expo[~big] = 1.0
    return H_out / expo[:, None], h_out / expo


def _fm_kernel(H, h, j):
    """_fm_eliminate with the zero mask of _fm_zero, as project calls it."""
    return _fm_eliminate(H, h, j, _fm_zero(H, j)[:, 0])


def _dedupe_rows_oracle(H, h):
    """Row deduplication as first written, with NumPy's wrappers."""
    norms = np.linalg.norm(H, axis=1)
    work = norms > 1e-14
    if np.any(h[~work] < -1e-12):
        return None, None
    Hw, hw, nw = H[work], h[work], norms[work]
    if Hw.shape[0] == 0:
        return np.zeros((0, H.shape[1])), np.zeros(0)
    Hn = Hw / nw[:, None]
    hn = hw / nw
    key = np.round(Hn, 12)
    order = np.lexsort((hn, *key.T))
    key_sorted = key[order]
    first = np.r_[True, np.any(np.diff(key_sorted, axis=0) != 0, axis=1)]
    keep = order[first]
    keep.sort()
    return Hw[keep], hw[keep]


_ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-13, -1e-13]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


@st.composite
def fm_inputs(draw, min_dim):
    """(H, h, j) with column j all zero, one-signed or mixed, rows
    repeated at other scales and offsets (some nudged off their direction
    by less or more than the dedupe key resolves), and zero rows at offsets
    -1, 0 and 1."""
    n = draw(st.integers(min_value=min_dim, max_value=4))
    q = draw(st.integers(min_value=1, max_value=8))
    H = np.array(draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
                               min_size=q, max_size=q)))
    h = np.array(draw(st.lists(_ENTRIES, min_size=q, max_size=q)))
    j = draw(st.integers(min_value=0, max_value=n - 1))
    column = draw(st.sampled_from(["zero", "positive", "negative", "mixed",
                                   "as drawn"]))
    if column == "zero":
        H[:, j] = 0.0
    elif column in ("positive", "negative"):
        H[:, j] = np.abs(H[:, j]) + 0.25
        if column == "negative":
            H[:, j] *= -1.0
    elif column == "mixed":
        H[0, j], H[-1, j] = 1.5, -0.75
    copies = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=q - 1),
        st.sampled_from([0.5, 2.0, 3.0, 1e-3, 1e3]),
        st.sampled_from([0.0, 0.0, 1e-14, 1e-10]), _ENTRIES), max_size=4))
    zeros = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=2))
    for i, s, nudge, off in copies:
        row = s * H[i]
        row[0] += nudge * np.abs(row).max()
        H, h = np.vstack([H, row]), np.r_[h, off]
    for off in zeros:
        H, h = np.vstack([H, np.zeros(n)]), np.r_[h, off]
    return H, h, j


def _same_bytes(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@seed(21)
@settings(max_examples=50, deadline=None)
@given(fm_inputs(min_dim=2))  # no elimination leaves zero columns
def test_fm_eliminate_matches_its_first_formula(case):
    H, h, j = case
    _same_bytes(_fm_kernel(H, h, j), _fm_eliminate_oracle(H, h, j))


@seed(21)
@settings(max_examples=50, deadline=None)
@given(fm_inputs(min_dim=1))
def test_dedupe_rows_matches_its_first_formula(case):
    H, h, _ = case
    for M in (H, np.asfortranarray(H)):
        assert _row_norms(M).tobytes() == np.linalg.norm(M, axis=1).tobytes()
        _same_bytes(_dedupe_rows(M, h), _dedupe_rows_oracle(M, h))


def test_fm_eliminate_oracle_cases():
    # one-signed column and no zero row: no pair, so the 0 <= 1 marker
    H, h = np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([1.0, 2.0])
    for got in (_fm_kernel(H, h, 0), _fm_eliminate_oracle(H, h, 0)):
        assert got[0].tolist() == [[0.0]] and got[1].tolist() == [1.0]
    # a pair that cancels to a zero row keeps its offset, scaled by one
    H, h = np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 3.0])
    got = _fm_kernel(H, h, 0)
    _same_bytes(got, _fm_eliminate_oracle(H, h, 0))
    assert got[0].tolist() == [[0.0]] and got[1].tolist() == [4.0]


def test_dedupe_rows_rejects_a_non_finite_row():
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1e200, 1e200]):
        H = np.array([[1.0, 0.0], bad])
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            _dedupe_rows(H, np.array([1.0, 1.0]))


def test_project_keeps_one_to_n_coordinates():
    for keep in (-1, 0, 3):
        with pytest.raises(ValueError, match="coordinate"):
            project(unit_box(2), keep)


def test_project_rejects_an_overflowing_elimination():
    # the pair of the first two rows overflows to inf and its rescale to
    # NaN; the set must not come out as the outer interval [-1, 1]
    P = HPolytope([[1e200, 1e200], [1e200, -1e200], [-1, 0], [1, 0]],
                  [1, 1, 1, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="polytope data must be finite"):
            project(P, 1)


# ---------------------------------------------------------------------------
# property tests


dims = st.integers(min_value=1, max_value=3)


@st.composite
def polytopes(draw):
    n = draw(dims)
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(min_value=n + 1, max_value=8))
    dirs = rng.normal(size=(k, n))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-3]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = rng.uniform(0.2, 2.0, size=dirs.shape[0])
    box = unit_box(n)
    return HPolytope(np.vstack([dirs, box.H]), np.r_[h, 3.0 * box.h])


@settings(max_examples=25, deadline=None)
@given(polytopes())
def test_containment_ratio_roundtrip(P):
    assert containment_ratio(P, P) == pytest.approx(1.0, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(polytopes(), st.floats(min_value=0.0, max_value=1.0))
def test_scale_shrinks_origin_interior(P, lam):
    assert contains(P, scale(P, lam), tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(polytopes())
def test_project_product_roundtrip(P):
    Q = interval(-0.7, 0.4)
    back = project(cartesian_product(P, Q), P.dim)
    assert set_equal(back, P, tol=1e-7)


@settings(max_examples=20, deadline=None)
@given(polytopes())
def test_erode_zero_disturbance_identity(P):
    zero = HPolytope(np.vstack([np.eye(1), -np.eye(1)]), np.zeros(2))
    E = np.ones((P.dim, 1))
    assert set_equal(erode_rows(P, E, zero), P, tol=1e-12)


@settings(max_examples=15, deadline=None)
@given(polytopes())
def test_remove_redundancy_preserves_set(P):
    R = remove_redundancy(P)
    assert set_equal(R, P, tol=1e-8)
    R2 = HPolytope(*_reduce_lp(P.H, P.h))  # LP path
    assert set_equal(R2, P, tol=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_hausdorff_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    base = random_polytope(rng, 2)
    A = remove_redundancy(base)
    B = remove_redundancy(HPolytope(A.H, A.h * rng.uniform(1.2, 1.8)))
    C = remove_redundancy(HPolytope(A.H, B.h * rng.uniform(1.2, 1.8)))
    dab = hausdorff_nested(A, B)
    dbc = hausdorff_nested(B, C)
    dac = hausdorff_nested(A, C)
    assert dac <= dab + dbc + 1e-8


def test_hpolytope_validation():
    with pytest.raises(ValueError):
        HPolytope(np.zeros((0, 2)), np.zeros(0))  # needs at least one row
    with pytest.raises(ValueError):
        HPolytope([[1.0, np.nan]], [1.0])
    with pytest.raises(ValueError):
        HPolytope([[1.0, 0.0]], [1.0, 2.0])  # shape mismatch
