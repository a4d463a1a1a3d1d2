"""Tests for power diagrams: cell construction, the partition property,
wall bookkeeping, equivariance under motions and relabelings, and
bit-for-bit agreement of the clip-skipping build with all-pairs clipping."""

from math import dist

import numpy as np
import pytest

import support
from equicell import (ConvexPolygon, PowerDiagram, Sites,
                      perimeter_spread, power_diagram,
                      solve_equal_measure_weights)
from equicell import powerdiagram
from equicell import weights as weight_solver

SQUARE = support.UNIT_SQUARE


def wall_lengths(diagram, i):
    """{j: length of the wall between cells i and j}, summed over the edges
    of cell i's outline that are tagged j."""
    pts, walls = diagram.outlines[i], {}
    for e, j in enumerate(diagram.edge_tags[i]):
        if j >= 0:
            walls[j] = walls.get(j, 0.0) + dist(pts[e], pts[(e + 1) % len(pts)])
    return walls


class TestSitesWeights:
    def test_distinct_sites_required(self):
        with pytest.raises(ValueError):
            Sites(((0.3, 0.3), (0.3, 0.3)))
        Sites(((0.3, 0.3), (0.4, 0.3)))

    def test_coincidence_matches_all_pairs(self):
        # plant exact copies, pairs just inside or outside 1e-12, pairs
        # closer than that in x alone, and rows and columns of equal y or x;
        # in the unit square 1e-12 is far above an ulp, at scale 1e3 a few
        rng = np.random.default_rng(149)
        verdicts = set()
        for trial in range(300):
            n = int(rng.integers(2, 30))
            pts = rng.random((n, 2)) * (1.0 if trial % 2 else 1e3)
            for _ in range(int(rng.integers(0, 6))):
                i, j = rng.choice(n, 2, replace=False)
                offset = [(0.0, 0.0), rng.uniform(-1.5e-12, 1.5e-12, 2),
                          (rng.uniform(-1e-12, 1e-12), rng.random()),
                          (0.0, rng.random()), (rng.random(), 0.0)][rng.integers(5)]
                pts[j] = pts[i] + offset
            pts = tuple(map(tuple, pts))
            want = support.coincident_pair(pts)
            verdicts.add(want is None)
            if want is None:
                Sites(pts)
            else:
                with pytest.raises(ValueError, match="^sites %d and %d coincide$" % want):
                    Sites(pts)
        assert verdicts == {True, False}

    def test_degenerate_sets_match_the_x_order_scan(self):
        rng = np.random.default_rng(151)
        line = np.linspace(0.0, 1.0, 400)
        sets = [rng.random((400, 2)),
                # five clusters, each of 20 points 1e-14 to 1e-10 from its centre
                (rng.random((5, 1, 2)) + 10.0 ** rng.uniform(-14, -10, (5, 20, 1))
                 * rng.normal(size=(5, 20, 2))).reshape(-1, 2)]
        for x, y in ((np.full(400, 0.5), line), (line, np.full(400, 0.5))):
            sets.append(np.column_stack([x, y]))
            duplicated = np.column_stack([x, y])
            duplicated[rng.integers(400)] = duplicated[rng.integers(400)]
            sets.append(duplicated)
        # clusters of identical points: among points 1e-13 to 1e-11 from
        # them, and as two groups of copies, interleaved, 5e-13 or 2e-12 apart
        centre = rng.random(2)
        near = centre + 10.0 ** rng.uniform(-13, -11, (60, 1)) * rng.normal(size=(60, 2))
        sets.append(np.vstack([np.tile(centre, (60, 1)), near, rng.random((20, 2))]))
        for gap in (5e-13, 2e-12):
            pair = np.vstack([centre, centre + gap])
            sets.append(np.vstack([np.tile(pair, (100, 1)), rng.random((20, 2))]))
        # one float step onto 2^13 (2^-40) and onto 2^14 (2^-39), along y
        # and along x, where the grid cell of a coordinate changes form
        for edge in (2.0**13, 2.0**14):
            below = np.nextafter(edge, 0.0)
            sets.append([(0.5, below), (0.5, edge), *rng.random((20, 2))])
            sets.append([(-below, 0.5), (-edge, 0.5), *rng.random((20, 2))])
        # steps within a few ulp of 1e-12, along x, along y and diagonally
        steps = 1e-12 * (1.0 + np.arange(-4, 5) * 2e-16)
        for direction in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            sets.append(np.cumsum(np.outer(steps, direction), axis=0))
        # near the largest floats, where a difference overflows, and among
        # the subnormals, where every point is within 1e-12 of every other
        huge = rng.choice([-1.7e308, -1e300, 1e300, 1.7e308], (60, 2))
        sets.append(huge * (1.0 + rng.integers(0, 3, (60, 2)) * 1e-15))
        sets.append(rng.integers(0, 9, (30, 2)) * 5e-324)
        sets.append(np.vstack([rng.integers(1, 9, (3, 2)) * 5e-324, rng.random((30, 2))]))
        verdicts = set()
        for pts in sets:
            pts = tuple(map(tuple, rng.permutation(pts).tolist()))
            want = support.x_order_coincident_pair(pts)
            verdicts.add(want is None)
            if want is None:
                Sites(pts)
            else:
                with pytest.raises(ValueError, match="^sites %d and %d coincide$" % want):
                    Sites(pts)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_site_rejected(self, bad):
        with pytest.raises(ValueError):
            Sites(((0.3, 0.3), (bad, 0.3)))


class TestPowerDiagram:
    def test_symmetric_split(self):
        pd = power_diagram(SQUARE, ((0.25, 0.5), (0.75, 0.5)))
        assert pd.areas == pytest.approx((0.5, 0.5), abs=1e-14)
        assert pd.perimeters == pytest.approx((3.0, 3.0), abs=1e-14)
        left = ConvexPolygon(((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0)))
        assert support.vertex_set_close(ConvexPolygon(pd.cells[0]), left, 1e-12)

    def test_weighted_split_rebalances(self):
        w = (0.02625, -0.02625)
        pd = power_diagram(SQUARE, ((0.25, 0.5), (0.6, 0.5)), w)
        assert pd.areas == pytest.approx((0.5, 0.5), abs=1e-12)
        for v in pd.cells[0]:
            assert v[0] <= 0.5 + 1e-12

    def test_weight_shift_invariance(self):
        rng = np.random.default_rng(47)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 4)
        w = rng.normal(scale=0.01, size=4)
        w -= w.mean()
        a = power_diagram(poly, sites, tuple(w))
        b = power_diagram(poly, sites, tuple(w + 0.37))
        for ca, cb in zip(a.cells, b.cells):
            if ca is None or cb is None:
                assert ca is cb
                continue
            assert support.vertex_set_close(ConvexPolygon(ca), ConvexPolygon(cb), 1e-9)

    def test_coincident_sites_rejected(self):
        with pytest.raises(ValueError):
            power_diagram(SQUARE, ((0.5, 0.5), (0.5, 0.5)))

    def test_far_site_gets_empty_cell(self):
        pd = power_diagram(SQUARE, ((0.5, 0.5), (0.5, 0.52)), (0.4, -0.4))
        assert pd.cells[1] is None
        assert pd.areas[1] == 0.0
        assert pd.areas[0] == pytest.approx(1.0, abs=1e-12)

    def test_partition_property(self):
        # random instances: areas sum to the polygon area, and sampled points
        # land in the cell whose power distance is smallest
        rng = np.random.default_rng(53)
        total_samples = 0
        for _ in range(20):
            poly = support.random_convex_polygon(rng)
            n = int(rng.integers(2, 7))
            sites = support.random_sites_inside(rng, poly, n)
            w = rng.normal(scale=0.003, size=n)
            pd = power_diagram(poly, sites, tuple(w - w.mean()))
            assert sum(pd.areas) == pytest.approx(poly.area, rel=1e-12)
            xs = np.array(sites)
            x0, y0, x1, y1 = poly.bbox
            # 1e-9 over the shortest edge keeps every cross product above 1e-9
            edges = np.diff(np.array(poly.vertices + poly.vertices[:1]), axis=0)
            inner = 1e-9 / np.hypot(*edges.T).min()
            kept = []
            need = 5000
            while need > 0:
                batch = rng.uniform((x0, y0), (x1, y1), size=(9000, 2))
                mask = support.boundary_distance(poly, batch.T) > inner
                kept.append(batch[mask])
                need -= int(mask.sum())
            pts = np.concatenate(kept)[:5000]
            power = ((pts[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2) \
                - (w - w.mean())[None, :]
            order = np.argsort(power, axis=1)
            best = order[:, 0]
            rows = np.arange(len(pts))
            gap = power[rows, order[:, 1]] - power[rows, best]
            # gap < 1e-9: on a bisector, assignment is a tie; the cells lie in
            # the unit square, so their edges are below sqrt(2), and a distance
            # of -5e-10 keeps every cross product above -1e-9
            for i, cell in enumerate(pd.cells):
                mine = pts[(best == i) & (gap >= 1e-9)]
                if len(mine):
                    assert cell is not None
                    assert (support.boundary_distance(ConvexPolygon(cell), mine.T)
                            >= -5e-10).all()
            total_samples += len(pts)
        assert total_samples >= 100000

    def test_interfaces_symmetric(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            poly = support.random_convex_polygon(rng)
            sites = support.random_sites_inside(rng, poly, 5)
            pd = power_diagram(poly, sites)
            seen = {}
            for i in range(pd.n):
                for j, length in wall_lengths(pd, i).items():
                    seen[(i, j)] = length
            for (i, j), length in seen.items():
                assert (j, i) in seen
                assert seen[(j, i)] == pytest.approx(length, rel=1e-9, abs=1e-12)

    def test_interface_plus_boundary_is_perimeter(self):
        rng = np.random.default_rng(61)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 4)
        pd = power_diagram(poly, sites)
        for i in range(pd.n):
            inner = sum(wall_lengths(pd, i).values())
            assert inner <= pd.perimeters[i] + 1e-9


class TestPerimeterSpread:
    def test_grid_partition(self):
        sites = ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75))
        pd = power_diagram(SQUARE, sites)
        assert perimeter_spread(pd) == pytest.approx(0.0, abs=1e-12)
        assert pd.areas == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_off_center_split(self):
        pd = power_diagram(SQUARE, ((0.15, 0.5), (0.45, 0.5)))
        assert perimeter_spread(pd) == pytest.approx(0.8, abs=1e-12)

    def test_single_cell(self):
        pd = power_diagram(SQUARE, ((0.4, 0.6),))
        assert perimeter_spread(pd) == 0.0

    def test_empty_cell_rejected(self):
        pd = power_diagram(SQUARE, ((0.5, 0.5), (0.5, 0.52)), (0.4, -0.4))
        with pytest.raises(ValueError):
            perimeter_spread(pd)


class TestEquivariance:
    def test_rigid_motion(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            poly = support.random_convex_polygon(rng)
            n = int(rng.integers(2, 6))
            sites = support.random_sites_inside(rng, poly, n)
            w = rng.normal(scale=0.002, size=n)
            w = tuple(w - w.mean())
            move = support.rigid_motion(rng.uniform(0, 2 * np.pi),
                                        rng.normal(size=2))
            pd = power_diagram(poly, sites, w)
            moved_poly = ConvexPolygon(tuple(move(v) for v in poly.vertices))
            moved_sites = tuple(move(s) for s in sites)
            pd2 = power_diagram(moved_poly, moved_sites, w)
            for ca, cb in zip(pd.cells, pd2.cells):
                if ca is None or cb is None:
                    assert ca is cb
                    continue
                image = ConvexPolygon(tuple(move(v) for v in ca))
                assert support.vertex_set_close(image, ConvexPolygon(cb), 1e-9)

    def test_relabeling_sites(self):
        rng = np.random.default_rng(71)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 5)
        w = rng.normal(scale=0.002, size=5)
        w = w - w.mean()
        perm = list(rng.permutation(5))
        pd = power_diagram(poly, sites, tuple(w))
        pd2 = power_diagram(poly, tuple(sites[k] for k in perm),
                            tuple(w[k] for k in perm))
        for new_i, old_i in enumerate(perm):
            ca, cb = pd.cells[old_i], pd2.cells[new_i]
            if ca is None or cb is None:
                assert ca is cb
                continue
            assert support.vertex_set_close(ConvexPolygon(ca), ConvexPolygon(cb), 1e-9)
            assert pd2.areas[new_i] == pytest.approx(pd.areas[old_i], rel=1e-9)


def outside_sites(rng, polygon, n):
    """n random points of the polygon's bounding box, doubled, that lie
    outside the polygon."""
    x0, y0, x1, y1 = polygon.bbox
    dx, dy = x1 - x0, y1 - y0
    out = []
    while len(out) < n:
        p = (float(rng.uniform(x0 - dx / 2, x1 + dx / 2)),
             float(rng.uniform(y0 - dy / 2, y1 + dy / 2)))
        if support.boundary_distance(polygon, p) < 0:
            out.append(p)
    return tuple(out)


class TestSkippedClips:
    """Skipped clips must be exactly those that would change nothing: every
    diagram equals the all-pairs reference, which clips in the same
    threshold order, down to the last bit (repr of a float round-trips).
    Sizes straddle powerdiagram.SKIP_FROM."""

    def assert_exact(self, poly, sites, weights=None):
        got = power_diagram(poly, sites, weights)
        want = support.all_pairs_power_diagram(poly, sites, weights)
        assert repr(got) == repr(want)
        return got

    @pytest.mark.parametrize("n", [3, 9, 40, 90])
    def test_random_interior_sites(self, n):
        rng = np.random.default_rng(300 + n)
        for offset in ((0.0, 0.0), (0.0, 0.0), (1e3, -2e3)):
            poly = support.random_convex_polygon(rng, offset=offset)
            sites = support.random_sites_inside(rng, poly, n)
            w = rng.normal(scale=0.2 * poly.area / n, size=n)
            self.assert_exact(poly, sites)
            self.assert_exact(poly, sites, tuple(w - w.mean()))

    def test_solved_weights(self):
        rng = np.random.default_rng(311)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 60)
        solved, _ = solve_equal_measure_weights(poly, sites)
        diagram = self.assert_exact(poly, sites, solved.weights)
        assert max(diagram.areas) - min(diagram.areas) < 1e-8

    @pytest.mark.parametrize("n", [6, 60])
    def test_half_outside_sites(self, n):
        rng = np.random.default_rng(320 + n)
        poly = support.random_convex_polygon(rng)
        sites = (support.random_sites_inside(rng, poly, n // 2)
                 + outside_sites(rng, poly, n - n // 2))
        w = rng.normal(scale=0.1 * poly.area / n, size=n)
        self.assert_exact(poly, sites)
        self.assert_exact(poly, sites, tuple(w))

    @pytest.mark.parametrize("n", [7, 70])
    def test_weights_that_empty_cells(self, n):
        rng = np.random.default_rng(330 + n)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, n)
        w = rng.normal(scale=0.2, size=n)
        diagram = self.assert_exact(poly, sites, tuple(w))
        assert any(c is None for c in diagram.cells)
        assert any(c is not None for c in diagram.cells)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_weights_spread_over_three_decades(self, scale):
        rng = np.random.default_rng(340)
        n = 50
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, n)
        w = scale * rng.choice((-1.0, 1.0), size=n) * 10.0 ** rng.uniform(-3, 0, size=n)
        self.assert_exact(poly, sites, tuple(w))

    @pytest.mark.parametrize("pairs", [2, 20])
    def test_near_coincident_sites_with_large_weights(self, pairs):
        rng = np.random.default_rng(350 + pairs)
        poly = support.random_convex_polygon(rng)
        base = support.random_sites_inside(rng, poly, pairs)
        sites = tuple(q for x, y in base for q in ((x, y), (x + 1e-11, y)))
        w = rng.normal(scale=0.5, size=2 * pairs)
        self.assert_exact(poly, sites)
        self.assert_exact(poly, sites, tuple(w))

    def test_one_and_two_sites(self):
        rng = np.random.default_rng(360)
        poly = support.random_convex_polygon(rng)
        one = self.assert_exact(poly, ((0.3, 0.4),))
        assert one.cells[0] == poly.vertices
        self.assert_exact(poly, ((0.3, 0.4), (0.6, 0.5)))
        self.assert_exact(poly, ((0.3, 0.4), (0.6, 0.5)), (0.05, -0.05))
        self.assert_exact(poly, ((0.3, 0.4), (0.6, 0.5)), (3.0, -3.0))

    def test_clips_scale_with_neighbours(self, monkeypatch):
        # a finished cell has about 6 walls; in threshold order the clips
        # stop soon after them, with no weights and with solved weights.
        # Lockstep rounds call no clip_tagged, so the cells are clipped one
        # by one, which visits the same (cell, site) pairs
        monkeypatch.setattr(powerdiagram, "LOCKSTEP_FROM", 10**9)
        calls = []
        clip = powerdiagram.clip_tagged

        def counted(*args):
            calls.append(1)
            return clip(*args)

        for n in (150, 600):
            rng = np.random.default_rng(370 + n)
            sites = support.jittered_grid_sites(rng, SQUARE, n)
            solved, _ = solve_equal_measure_weights(SQUARE, sites)
            for weights in (None, solved.weights):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(powerdiagram, "clip_tagged", counted)
                    diagram = power_diagram(SQUARE, sites, weights)
                assert sum(diagram.areas) == pytest.approx(1.0, rel=1e-12)
                assert len(calls) < 16 * n

    def test_huge_weights_give_nan_thresholds(self):
        # w_j - w_i and the margin overflow to opposite infinities, so some
        # thresholds are NaN; those sites are clipped, never skipped
        rng = np.random.default_rng(375)
        poly = support.random_convex_polygon(rng)
        n = 40
        sites = support.random_sites_inside(rng, poly, n)
        w = tuple(1e308 * s for s in rng.choice((-1.0, 1.0), size=n))
        assert min(w) < 0 < max(w)
        with np.errstate(all="ignore"):  # w_j - w_i = -inf, margin = +inf
            big = np.float64(1e308)
            margin = powerdiagram.SKIP_MARGIN * (big + big)
            assert np.isnan(0.25 - (-big - big) - margin)
        diagram = self.assert_exact(poly, sites, w)
        assert any(c is None for c in diagram.cells)
        assert any(c is not None for c in diagram.cells)

    def test_overflowing_distance_gives_nan_thresholds(self):
        # d^2 and the margin overflow, so the far site's thresholds are all
        # NaN; they must clip it, or the far cell would keep the polygon
        rng = np.random.default_rng(376)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 40) + ((1e155, 0.3),)
        diagram = self.assert_exact(poly, sites)
        assert diagram.cells[-1] is None
        assert sum(diagram.areas) == pytest.approx(poly.area, rel=1e-12)


class TestLockstep:
    """Lockstep rounds cut every live cell with clip_tagged's operations in
    its order, so with the crossover at one site every diagram from
    SKIP_FROM sites on is built in lockstep and must still equal the
    all-pairs reference bit for bit.  A head of 2 sends nearly every cell
    past its head to the scalar loop with its tail; an unbounded head keeps
    the cells in lockstep to the end of their rows.  Below SKIP_FROM every
    diagram takes the scalar loop."""

    @pytest.fixture(params=[2, 10**6], autouse=True)
    def lockstep(self, request, monkeypatch):
        monkeypatch.setattr(powerdiagram, "LOCKSTEP_FROM", 1)
        monkeypatch.setattr(powerdiagram, "HEAD", request.param)

    assert_exact = TestSkippedClips.assert_exact

    def test_sizes_around_skip_from(self):
        rng = np.random.default_rng(410)
        for n in (5, powerdiagram.SKIP_FROM - 1, powerdiagram.SKIP_FROM, 40):
            poly = support.random_convex_polygon(rng, offset=(1e3, -2e3))
            sites = support.random_sites_inside(rng, poly, n)
            w = rng.normal(scale=0.2 * poly.area / n, size=n)
            self.assert_exact(poly, sites)
            self.assert_exact(poly, sites, tuple(w - w.mean()))

    def test_degenerate_site_sets(self):
        rng = np.random.default_rng(411)
        poly = support.random_convex_polygon(rng)
        for sites in threshold_order_sites(rng, poly, 24):
            self.assert_exact(poly, sites)

    def test_lattice_with_exact_ties(self):
        w = np.random.default_rng(412).normal(scale=0.2 / 64, size=64)
        self.assert_exact(SQUARE, lattice(8))
        self.assert_exact(SQUARE, lattice(8, transpose=True), tuple(w - w.mean()))

    def test_merge_rows(self, monkeypatch):
        # cuts near sites 2e-12 and 1e-11 apart put vertices within
        # MERGE_EPS of each other.  With unbounded heads and finite inputs
        # only such a row leaves lockstep for the scalar loop
        handed = []
        clip_cell = powerdiagram._clip_cell

        def counted(pts, wvals, i, *cell_and_row):
            handed.append(i)
            return clip_cell(pts, wvals, i, *cell_and_row)

        monkeypatch.setattr(powerdiagram, "_clip_cell", counted)
        rng = np.random.default_rng(413)
        poly = support.random_convex_polygon(rng)
        base = support.random_sites_inside(rng, poly, 8)
        w = tuple(rng.normal(scale=0.5, size=16))
        for gap in (2e-12, 1e-11):
            sites = tuple(q for x, y in base for q in ((x, y), (x + gap, y)))
            self.assert_exact(poly, sites)
            self.assert_exact(poly, sites, w)
        assert handed

    def test_non_finite_thresholds_and_sides(self):
        # huge weights and a site at 1e155 give NaN thresholds and infinite
        # side values.  A site at 1.5e308 overflows x_j - x_i, so against it
        # the polygon's first vertex, at the origin of the build's frame, has
        # a NaN side value, on which clip_tagged's max and a numpy test of
        # the side values disagree: such a row is left to clip_tagged
        rng = np.random.default_rng(414)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 20)
        huge = tuple(1e308 * s for s in rng.choice((-1.0, 1.0), size=20))
        diagram = self.assert_exact(poly, sites, huge)
        assert any(c is None for c in diagram.cells)
        diagram = self.assert_exact(poly, sites + ((1e155, 0.3),))
        assert diagram.cells[-1] is None
        kite = ConvexPolygon(((0.0, 0.0), (1.0, 0.2), (0.4, 1.0), (-0.6, 0.7)))
        sites = support.random_sites_inside(rng, kite, 20)
        for far in ((1.5e308, 0.3), (0.3, -1.5e308)):
            self.assert_exact(kite, sites + (far,))

    def test_empty_cells(self):
        rng = np.random.default_rng(415)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 30)
        diagram = self.assert_exact(poly, sites, tuple(rng.normal(scale=0.2, size=30)))
        assert any(c is None for c in diagram.cells)

    def test_cells_outgrow_the_polygon_and_their_heads(self, monkeypatch):
        # cells of a triangle outgrow its 3 vertices, the arrays' first
        # width, and solved weights leave cells that need more clips than a
        # head of 2 holds
        tails = []
        rows_tails = powerdiagram._Rows.tails

        def counted(rows, which):
            tails.extend(which)
            return rows_tails(rows, which)

        monkeypatch.setattr(powerdiagram._Rows, "tails", counted)
        rng = np.random.default_rng(416)
        sites = support.random_sites_inside(rng, support.UNIT_TRIANGLE, 30)
        solved, _ = solve_equal_measure_weights(support.UNIT_TRIANGLE, sites)
        diagram = self.assert_exact(support.UNIT_TRIANGLE, sites, solved.weights)
        assert max(map(len, diagram.outlines)) > 3
        assert tails or powerdiagram.HEAD > len(sites)


def lattice(k, transpose=False):
    """The k x k cell centres of the unit square, rows or columns first."""
    pts = [((a + 0.5) / k, (b + 0.5) / k) for a in range(k) for b in range(k)]
    return tuple((y, x) for x, y in pts) if transpose else tuple(pts)


def threshold_order_sites(rng, poly, n):
    """Site sets on which threshold order meets ties and degeneracies:
    random interior sites, half outside, collinear, clustered within 1e-4
    widths, and spread over a width 40 widths away."""
    x0, y0, x1, y1 = poly.bbox
    width = max(x1 - x0, y1 - y0)
    c = np.array(poly.centroid)
    line = rng.normal(size=2)
    line /= np.hypot(*line)
    along = 0.25 * width * np.linspace(-1.0, 1.0, n)
    cloud = rng.uniform(-0.5e-4 * width, 0.5e-4 * width, (n, 2))
    far = c + 40.0 * width * line + rng.uniform(-0.5 * width, 0.5 * width, (n, 2))
    return (support.random_sites_inside(rng, poly, n),
            support.random_sites_inside(rng, poly, n // 2)
            + outside_sites(rng, poly, n - n // 2),
            tuple(map(tuple, c + along[:, None] * line)),
            tuple(map(tuple, c + cloud)),
            tuple(map(tuple, far)))


class TestThresholdOrder:
    """Visiting each cell's sites in threshold order changes only the last
    bits against the index-order build: areas agree to 1e-12 of the
    polygon's, and the same cells are empty and meet the same neighbours."""

    def assert_agree(self, poly, sites, weights=None):
        got = power_diagram(poly, sites, weights)
        want = support.index_order_power_diagram(poly, sites, weights)
        assert [c is None for c in got.cells] == [c is None for c in want.cells]
        assert np.abs(np.subtract(got.areas, want.areas)).max() <= 1e-12 * poly.area
        for i in range(got.n):
            assert sorted(wall_lengths(got, i)) == sorted(wall_lengths(want, i))

    @pytest.mark.parametrize("n", [40, 120, 300])
    def test_random_and_degenerate_sites(self, n):
        rng = np.random.default_rng(390 + n)
        poly = support.random_convex_polygon(rng)
        for sites in threshold_order_sites(rng, poly, n):
            w = rng.normal(scale=0.2 * poly.area / n, size=n)
            self.assert_agree(poly, sites)
            self.assert_agree(poly, sites, tuple(w - w.mean()))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_lattice_with_exact_ties(self, transpose):
        # equal distances tie in the sort, and four cells meet at each
        # inner lattice point
        sites = lattice(8, transpose)
        rng = np.random.default_rng(399)
        w = rng.normal(scale=0.2 / 64, size=64)
        self.assert_agree(SQUARE, sites)
        self.assert_agree(SQUARE, sites, tuple(w - w.mean()))
        assert power_diagram(SQUARE, sites).areas == pytest.approx((1 / 64,) * 64,
                                                                   abs=1e-15)

    def test_newton_iterations_unchanged(self, monkeypatch):
        rng = np.random.default_rng(398)
        sites = support.jittered_grid_sites(rng, SQUARE, 150)
        solved, iterations = solve_equal_measure_weights(SQUARE, sites)
        self.assert_agree(SQUARE, sites, solved.weights)
        monkeypatch.setattr(weight_solver, "power_diagram",
                            support.index_order_power_diagram)
        by_index, iterations_index = solve_equal_measure_weights(SQUARE, sites)
        assert iterations_index == iterations
        assert np.abs(np.subtract(solved.weights, by_index.weights)).max() <= 1e-12


class TestCellsAreClipResults:
    """Cells are the clipped vertex lists moved back by the polygon's first
    vertex, as tuples of (x, y) float tuples that ConvexPolygon validates
    and keeps unchanged for these polygons near the origin, and the
    outlines, edge tags and perimeters are those of all-pairs clipping, the
    perimeters measured with polygon_perimeter."""

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 80])
    def test_cells_pass_validation_unchanged(self, n):
        rng = np.random.default_rng(380 + n)
        for _ in range(3):
            poly = support.random_convex_polygon(rng)
            sites = support.random_sites_inside(rng, poly, n)
            w = rng.normal(scale=0.3 * poly.area / n, size=n)
            got = power_diagram(poly, sites, tuple(w))
            want = support.all_pairs_power_diagram(poly, sites, tuple(w))
            assert got.outlines == want.outlines
            assert got.edge_tags == want.edge_tags
            assert got.perimeters == want.perimeters
            assert any(c is not None for c in got.cells)
            ox, oy = poly.vertices[0]
            for cell, pts in zip(got.cells, got.outlines):
                if cell is None:
                    assert pts == ()
                else:
                    assert all(type(x) is float and type(y) is float for x, y in cell)
                    assert ConvexPolygon(cell).vertices == cell
                    assert cell == tuple((x + ox, y + oy) for x, y in pts)


class TestSupport:
    def test_random_sites_inside_a_tiny_triangle(self):
        # the spacing floor scales with the polygon, so a triangle 1e-6
        # across still takes five sites
        tiny = ConvexPolygon(((0.0, 0.0), (1e-6, 0.0), (0.0, 1e-6)))
        sites = support.random_sites_inside(np.random.default_rng(0), tiny, 5)
        assert len(set(sites)) == 5
        assert all(support.boundary_distance(tiny, p) > 0 for p in sites)
