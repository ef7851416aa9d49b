import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preview_regret.polytope import (
    EmptyPolytopeError,
    HPolytope,
    NormalFormError,
    UnboundedError,
    _reduce_lp,
    _support_lp,
    affine_preimage,
    bounding_box,
    cartesian_product,
    containment_ratio,
    contains,
    erode_rows,
    hausdorff_nested,
    intersect,
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
    P = intersect(interval(-1, 1), interval(0, 2))
    assert support(P, [1.0]) == pytest.approx(1.0, abs=1e-12)
    assert -support(P, [-1.0]) == pytest.approx(0.0, abs=1e-12)


def test_intersection_idempotent():
    P = diamond2d()
    assert set_equal(intersect(P, P), P, tol=1e-9)


def test_disjoint_intersection_empty():
    assert intersect(interval(-1, 0), interval(1, 2)).is_empty()


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


def test_affine_preimage_examples():
    P = affine_preimage(interval(-1, 1), np.array([[2.0]]))
    assert support(P, [1.0]) == pytest.approx(0.5)
    sq = unit_box(2)
    t = np.array([0.25, -0.5])
    moved = affine_preimage(sq, np.eye(2), t)
    assert set_equal(moved, translate(sq, -t), tol=1e-12)


def test_affine_preimage_strip():
    # unit square pulled back through the row map [1 1]
    sq = unit_box(2)
    first_row = affine_preimage(interval(-1, 1), np.array([[1.0, 1.0]]))
    assert support(first_row, [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(UnboundedError):
        support(first_row, [1.0, -1.0])
    del sq


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
    rot = affine_preimage(sq, R.T)  # rotate the square by theta
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
    # one Chebyshev LP per eliminated coordinate, none on the input
    assert len(calls) == 2
    assert out._empty is False


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


def test_vertices_without_a_list_go_through_qhull(monkeypatch):
    # 80 tangent planes of the unit sphere: too many rows for basic-solution
    # enumeration, so a full-dimensional set whose list failed its check
    # needs the halfspace intersection
    import scipy.spatial

    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(80, 3))
    P = HPolytope(dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                  np.ones(80))
    want = vertices(P)
    monkeypatch.setattr(scipy.spatial, "ConvexHull", _skewed_hull(1.0 - 1e-6))
    assert remove_redundancy(P)._verts is None
    got = vertices(P)
    assert got.shape == want.shape
    gap = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
    assert np.max(np.min(gap, axis=1)) <= 1e-9


def test_cache_vertex_list():
    from preview_regret.polytope import cache_vertex_list

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


def test_containment_ratio_examples():
    b = unit_box(2)
    assert containment_ratio(b, b) == pytest.approx(1.0, abs=1e-7)
    big = scale(unit_box(2), 2.0)
    assert containment_ratio(big, b) == pytest.approx(2.0, abs=1e-7)
    assert containment_ratio(diamond2d(), b) == pytest.approx(1.0, abs=1e-7)


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


def test_hausdorff_requires_nesting():
    with pytest.raises(ValueError):
        hausdorff_nested(interval(-2, 2), interval(-1, 1))


def test_empty_propagation():
    E = HPolytope.empty(2)
    assert E.is_empty()
    assert intersect(E, unit_box(2)).is_empty()
    assert remove_redundancy(E).is_empty()
    assert project(E, 1).is_empty()


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
    with pytest.raises(ValueError):
        intersect(unit_box(2), unit_box(3))
