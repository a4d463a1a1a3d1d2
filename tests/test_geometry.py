"""Tests for the convex polygon type and half-plane clipping kernel."""

import numpy as np
import pytest

import support
from equicell import ConvexPolygon
from equicell.geometry import clip_tagged, polygon_area, polygon_perimeter

SQUARE = support.UNIT_SQUARE


class TestConvexPolygon:
    def test_square_measurements(self):
        assert SQUARE.area == pytest.approx(1.0, abs=1e-15)
        assert polygon_perimeter(SQUARE.vertices) == pytest.approx(4.0, abs=1e-15)
        assert SQUARE.centroid == pytest.approx((0.5, 0.5), abs=1e-15)
        assert SQUARE.bbox == (0.0, 0.0, 1.0, 1.0)

    def test_triangle_measurements(self):
        tri = support.UNIT_TRIANGLE
        assert tri.area == pytest.approx(np.sqrt(3.0) / 4, rel=1e-14)
        assert polygon_perimeter(tri.vertices) == pytest.approx(3.0, rel=1e-14)

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))

    def test_clockwise_reversed(self):
        # the whole list is reversed, so its last vertex, which fixes the
        # frame of every build, comes first
        cw = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0))
        assert ConvexPolygon(cw).vertices == cw[::-1]

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (1.0, 0.2), (2.0, 2.0),
                           (0.0, 2.0)))

    @pytest.mark.parametrize("s", [1e-5, 1e-3, 1.0, 1e5])
    def test_nonconvex_rejected_at_every_size(self, s):
        # the convexity tolerance scales with the polygon; it used to stop
        # scaling below unit size, so this arrow passed at s = 1e-5
        arrow = ((0.0, 0.0), (s, 0.0), (s, s), (0.5 * s, 0.3 * s), (0.0, s))
        with pytest.raises(ValueError, match="not convex at index 3"):
            ConvexPolygon(arrow)

    def test_extent_is_taken_in_the_polygon_frame(self):
        # a triangle of side 1e140 at (1e153, 1e153): every square a build
        # forms is of its own size, so it is accepted; it used to be refused
        # because the origin was put in the box
        o, a = 1e153, 1e140
        far = ConvexPolygon(((o, o), (o + a, o), (o, o + a)))
        side = (o + a) - o   # a to the 2e137 resolution of doubles near o
        assert far.area == pytest.approx(0.5 * side * side, rel=1e-14)
        with pytest.raises(ValueError, match="extent of the input overflows"):
            ConvexPolygon(((o, o), (o + 1e200, o), (o, o + 1e200)))
        with pytest.raises(ValueError, match="extent of the input overflows"):
            ConvexPolygon(((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize("side", [1e103, 1e150])
    def test_centroid_of_a_huge_polygon(self, side):
        # the moments are cubic in the coordinates and overflowed above about
        # 1e102 across; scaling by a power of two keeps them finite
        tri = ConvexPolygon(((0.0, 0.0), (side, 0.0), (0.0, side)))
        assert tri.centroid == pytest.approx((side / 3, side / 3), rel=1e-14)

    def test_centroid_scaling_is_exact(self):
        # scaling by 2^-k changes no bit: the same sums, unscaled, agree
        rng = np.random.default_rng(5)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-6, 60)
            poly = support.random_convex_polygon(rng, scale=scale,
                                                 offset=scale * rng.uniform(-3, 3, 2))
            ox, oy = poly.vertices[0]
            pts = poly.local
            a2 = cx = cy = 0.0
            for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
                w = x0 * y1 - x1 * y0
                a2 += w
                cx += (x0 + x1) * w
                cy += (y0 + y1) * w
            assert poly.centroid == (cx / (3.0 * a2) + ox, cy / (3.0 * a2) + oy)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(ValueError):
            ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, bad), (0.0, 1.0)))

    def test_duplicate_vertices_merged(self):
        poly = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0 + 1e-15),
                              (1.0, 1.0), (0.0, 1.0)))
        assert len(poly.vertices) == 4
        assert poly.area == pytest.approx(1.0, abs=1e-12)

    def test_collinear_vertex_tolerated(self):
        poly = ConvexPolygon(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 1.0),
                              (0.0, 1.0)))
        assert poly.area == pytest.approx(1.0, abs=1e-14)
        assert polygon_perimeter(poly.vertices) == pytest.approx(4.0, abs=1e-14)

    def test_raw_helpers_agree(self):
        verts = list(SQUARE.vertices)
        assert polygon_area(verts) == pytest.approx(SQUARE.area, abs=1e-15)
        assert polygon_perimeter(verts) == pytest.approx(4.0, abs=1e-15)


def clip(poly, a, c):
    """Vertices of poly clipped to a . x <= c by clip_tagged; [] when empty."""
    pts, _ = clip_tagged(list(poly.vertices), [0] * len(poly.vertices), a, c, 1)
    return pts


class TestClipHalfplane:
    def test_left_half(self):
        half = clip(SQUARE, (1.0, 0.0), 0.5)
        assert half != []
        assert polygon_area(half) == pytest.approx(0.5, abs=1e-14)
        assert support.vertex_set_close(
            ConvexPolygon(tuple(half)),
            ConvexPolygon(((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0))),
            1e-12)

    def test_no_cut(self):
        same = clip(SQUARE, (1.0, 0.0), 2.0)
        assert same != []
        assert support.vertex_set_close(ConvexPolygon(tuple(same)), SQUARE, 1e-12)

    def test_everything_cut(self):
        assert clip(SQUARE, (1.0, 0.0), -1.0) == []

    def test_cut_through_vertex(self):
        tri = clip(SQUARE, (1.0, 1.0), 1.0)
        assert tri != []
        assert polygon_area(tri) == pytest.approx(0.5, abs=1e-12)

    def test_holding_half_plane_returns_input(self):
        pts, tags = list(SQUARE.vertices), [-1, -2, -3, -4]
        out = clip_tagged(pts, tags, (1.0, 0.0), 1.0, 7)
        assert out[0] is pts and out[1] is tags
        # an earlier clip result, with a new vertex, is returned as it is too
        cut = clip_tagged(pts, tags, (1.0, 1.0), 1.5, 7)
        assert len(cut[0]) == 5
        again = clip_tagged(cut[0], cut[1], (1.0, 1.0), 1.5, 8)
        assert again[0] is cut[0] and again[1] is cut[1]
        assert support.clip_every_time(cut[0], cut[1], (1.0, 1.0), 1.5, 8) == cut

    def test_in_to_out_edge_with_both_sides_positive(self):
        # (0,0) counts as inside (side 1e-13 <= eps), (1,0) lies outside
        # (side 3e-13); the cut point stays on the edge, at (0,0)
        pts = clip(SQUARE, (2e-13, -1.0), -1e-13)
        assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in pts)
        assert polygon_area(pts) == pytest.approx(1.0, abs=1e-12)

    def test_out_to_in_edge_with_both_sides_positive(self):
        # (0,0) lies outside (side 3e-13), (1,0) counts as inside (side
        # 1e-13); the cut point stays on the edge, at (1,0)
        pts = clip(SQUARE, (-2e-13, -1.0), -3e-13)
        assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in pts)
        assert polygon_area(pts) == pytest.approx(1.0, abs=1e-12)

    def test_sliver_reported_empty(self):
        assert clip(SQUARE, (1.0, 0.0), 1e-16) == []

    def test_composition(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            poly = support.random_convex_polygon(rng)
            theta = rng.uniform(0, 2 * np.pi)
            a = (np.cos(theta), np.sin(theta))
            cx, cy = poly.centroid
            c = a[0] * cx + a[1] * cy + rng.uniform(-0.2, 0.2)
            pts = clip(poly, a, c)
            if pts == []:
                continue
            cut = ConvexPolygon(tuple(pts))
            assert cut.area <= poly.area + 1e-12
            # the polygon lies in the unit square, so its edges are below
            # sqrt(2), and a distance of -5e-10 keeps every cross product
            # above -1e-9
            for v in cut.vertices:
                assert a[0] * v[0] + a[1] * v[1] <= c + 1e-9
                assert support.boundary_distance(poly, v) >= -5e-10
            # cutting again with the same half-plane changes nothing
            again = clip(cut, a, c)
            assert again != []
            assert polygon_area(again) == pytest.approx(cut.area, rel=1e-12)

    def test_area_additivity(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            poly = support.random_convex_polygon(rng)
            theta = rng.uniform(0, 2 * np.pi)
            a = (np.cos(theta), np.sin(theta))
            cx, cy = poly.centroid
            c = a[0] * cx + a[1] * cy
            lo = clip(poly, a, c)
            hi = clip(poly, (-a[0], -a[1]), -c)
            total = polygon_area(lo) + polygon_area(hi)
            assert total == pytest.approx(poly.area, rel=1e-12)
