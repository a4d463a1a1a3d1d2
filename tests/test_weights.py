"""Tests for the area Jacobian and the equal-area weight solver."""

import time
import warnings

import numpy as np
import pytest

import support
from equicell import (ConvexPolygon, Sites, WeightSolveError, area_jacobian,
                      equalize_perimeters, power_diagram, solve_equal_measure_weights)
from equicell import weights as weight_solver
from equicell.geometry import polygon_perimeter
from equicell.weights import _voronoi_seed

SQUARE = support.UNIT_SQUARE
RIGHT_TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def pulled_sites(poly, sites):
    """The sites moved toward the centroid c by half the largest factor s
    (capped at 1) with every c + s (x - c) inside, found edge by edge from
    the signed distances to the edge lines."""
    cx, cy = poly.centroid
    verts = poly.vertices
    s = np.inf
    for x, y in sites:
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            inside = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            rate = (bx - ax) * (y - cy) - (by - ay) * (x - cx)
            if rate < 0:
                s = min(s, inside / -rate)
    t = min(1.0, 0.5 * s)
    return tuple((cx + t * (x - cx), cy + t * (y - cy)) for x, y in sites)


def random_instance(rng, n=None):
    poly = support.random_convex_polygon(rng)
    n = n or int(rng.integers(3, 7))
    sites = support.random_sites_inside(rng, poly, n)
    w = rng.normal(scale=0.002, size=n)
    return poly, sites, tuple(w - w.mean())


class TestAreaJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        step = 1e-6
        for _ in range(6):
            poly, sites, w = random_instance(rng)
            n = len(sites)
            pd = power_diagram(poly, sites, w)
            if any(c is None for c in pd.cells):
                continue
            jac = area_jacobian(pd)
            assert jac.shape == (n, n)
            for j in range(n):
                bump = np.zeros(n)
                bump[j] = step
                hi = np.array(power_diagram(poly, sites,
                                            tuple(np.add(w, bump))).areas)
                lo = np.array(power_diagram(poly, sites,
                                            tuple(np.subtract(w, bump))).areas)
                fd = (hi - lo) / (2 * step)
                assert np.abs(fd - jac[:, j]).max() < 1e-5

    def test_symmetric_with_constant_kernel(self):
        rng = np.random.default_rng(79)
        for _ in range(8):
            poly, sites, w = random_instance(rng)
            pd = power_diagram(poly, sites, w)
            if any(c is None for c in pd.cells):
                continue
            jac = area_jacobian(pd)
            assert np.abs(jac - jac.T).max() < 1e-9
            # raising every weight together moves nothing
            assert np.abs(jac.sum(axis=1)).max() < 1e-9

    def test_dual_curvature_sign(self):
        # growing a cell's own weight grows its area: the area map is
        # monotone, so the concave dual objective has a negative-semidefinite
        # Hessian (the negated, rescaled Jacobian) on the zero-sum subspace
        rng = np.random.default_rng(83)
        for _ in range(8):
            poly, sites, w = random_instance(rng)
            pd = power_diagram(poly, sites, w)
            if any(c is None for c in pd.cells):
                continue
            jac = area_jacobian(pd)
            eigs = np.linalg.eigvalsh((jac + jac.T) / 2)
            assert eigs.min() > -1e-9
            assert (np.diag(jac) >= -1e-12).all()
            dual_hessian = -jac / poly.area
            assert np.linalg.eigvalsh((dual_hessian + dual_hessian.T) / 2).max() \
                < 1e-9


class TestSolve:
    def test_symmetric_pair_gets_zero_weights(self):
        pd, _ = solve_equal_measure_weights(SQUARE, ((0.25, 0.5), (0.75, 0.5)))
        assert pd.weights == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_closed_form_pair(self):
        pd, _ = solve_equal_measure_weights(SQUARE, ((0.25, 0.5), (0.6, 0.5)),
                                            tol=1e-12)
        assert pd.weights[0] == pytest.approx(0.02625, abs=1e-9)
        assert pd.weights[1] == pytest.approx(-0.02625, abs=1e-9)

    def test_threefold_symmetry_gets_zero_weights(self):
        tri = support.UNIT_TRIANGLE
        cx, cy = tri.centroid
        p = (cx + 0.11, cy + 0.05)
        sites = [p]
        for angle in (2 * np.pi / 3, 4 * np.pi / 3):
            c, s = np.cos(angle), np.sin(angle)
            dx, dy = p[0] - cx, p[1] - cy
            sites.append((cx + c * dx - s * dy, cy + s * dx + c * dy))
        pd, _ = solve_equal_measure_weights(tri, tuple(sites), tol=1e-12)
        assert np.abs(pd.weights).max() < 1e-9

    def test_random_instances_hit_tight_tolerance(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            poly = support.random_convex_polygon(rng)
            sites = support.random_sites_inside(rng, poly, 5)
            t0 = time.time()
            solved, _ = solve_equal_measure_weights(poly, sites, tol=1e-10)
            elapsed = time.time() - t0
            pd = power_diagram(poly, sites, solved.weights)
            frac = np.array(pd.areas) / poly.area
            assert np.abs(frac - 0.2).max() <= 1e-9
            assert elapsed < 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(97)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 4)
        a, _ = solve_equal_measure_weights(poly, sites)
        b, _ = solve_equal_measure_weights(poly, sites)
        assert a == b

    def test_unique_across_restarts(self):
        rng = np.random.default_rng(101)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 5)
        tol = 1e-10
        base = np.array(
            solve_equal_measure_weights(poly, sites, tol=tol)[0].weights)
        for _ in range(10):
            w0 = rng.normal(scale=0.05 * np.sqrt(poly.area), size=5)
            w0 -= w0.mean()
            pd, _ = solve_equal_measure_weights(poly, sites, tol=tol,
                                                w0=tuple(w0))
            assert np.abs(np.array(pd.weights) - base).max() <= 10 * tol

    def test_continuity_in_sites(self):
        rng = np.random.default_rng(103)
        delta = 1e-6
        for _ in range(6):
            poly = support.random_convex_polygon(rng)
            sites = support.random_sites_inside(rng, poly, 4)
            base = np.array(
                solve_equal_measure_weights(poly, sites, tol=1e-12)[0].weights)
            bump = rng.normal(size=(4, 2))
            bump *= delta / np.abs(bump).max()
            moved = tuple((s[0] + b[0], s[1] + b[1])
                          for s, b in zip(sites, bump))
            shifted = np.array(
                solve_equal_measure_weights(poly, moved, tol=1e-12)[0].weights)
            assert np.abs(shifted - base).max() < 1e3 * delta

    def test_relabeling_sites_relabels_weights(self):
        rng = np.random.default_rng(107)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 5)
        base = np.array(solve_equal_measure_weights(poly, sites,
                                                    tol=1e-12)[0].weights)
        perm = list(rng.permutation(5))
        moved = tuple(sites[k] for k in perm)
        permuted = np.array(solve_equal_measure_weights(poly, moved,
                                                        tol=1e-12)[0].weights)
        assert np.abs(permuted - base[perm]).max() < 1e-8

    def test_single_site(self):
        pd, _ = solve_equal_measure_weights(SQUARE, ((0.3, 0.7),))
        assert pd.weights == (0.0,)

    @pytest.mark.parametrize("site", [(0.3, 0.7), (3.0, -2.0)])
    @pytest.mark.parametrize("w0", [None, (0.7,)])
    def test_single_site_needs_no_iteration(self, site, w0):
        pd, iterations = solve_equal_measure_weights(SQUARE, (site,), w0=w0)
        assert pd.weights == (0.0,)
        assert iterations == 0 and support.area_residual(pd) == 0.0
        assert pd.cells == (SQUARE.vertices,)

    def test_single_site_checks_w0_length(self):
        with pytest.raises(ValueError, match="one entry per site"):
            solve_equal_measure_weights(SQUARE, ((0.3, 0.7),), w0=(0.0, 0.0))

    def test_rescues_far_site(self):
        # one site far in a corner still ends with equal areas
        sites = ((0.01, 0.01), (0.6, 0.55), (0.55, 0.6))
        solved, _ = solve_equal_measure_weights(SQUARE, sites, tol=1e-10)
        pd = power_diagram(SQUARE, sites, solved.weights)
        assert np.abs(np.array(pd.areas) - 1 / 3).max() <= 1e-9

    @pytest.mark.parametrize("sites", [
        ((-0.6, -0.5), (0.9, 1.7), (1.0, 1.8)),
        ((1.9, -0.7), (-0.8, -1.0), (1.8, -0.8), (1.0, -0.1)),
        ((1.8, 1.5), (1.7, 0.7), (0.9, 1.0), (1.9, 1.6), (0.8, 0.9)),
    ])
    def test_sites_outside_converge(self, sites):
        # every site outside the triangle, most cells empty unweighted
        solved, _ = solve_equal_measure_weights(RIGHT_TRIANGLE, sites, tol=1e-10)
        areas = np.array(power_diagram(RIGHT_TRIANGLE, sites, solved.weights).areas)
        assert np.abs(areas - 0.5 / len(sites)).max() <= 1e-9

    def test_seed_is_voronoi_of_pulled_sites(self):
        rng = np.random.default_rng(113)
        for k in range(8):
            poly = support.random_convex_polygon(rng)
            x0, y0, x1, y1 = poly.bbox
            n = int(rng.integers(2, 12))
            grow = 5.0 * (x1 - x0 + y1 - y0)
            centre = rng.uniform(-grow, grow, 2) + poly.centroid
            spread = grow if k % 2 else 0.01 * (x1 - x0)
            sites = tuple(map(tuple, centre + rng.uniform(-spread, spread, (n, 2))))
            seed = _voronoi_seed(poly, sites)
            assert abs(seed.sum()) <= 1e-12 * np.abs(seed).max()
            pulled = pulled_sites(poly, sites)
            assert min(support.boundary_distance(poly, p) for p in pulled) > 0
            areas = np.array(power_diagram(poly, sites, seed).areas)
            want = np.array(power_diagram(poly, pulled).areas)
            assert np.abs(areas - want).max() <= 1e-12
            assert areas.min() > 0

    def test_warm_start_emptying_a_cell(self):
        rng = np.random.default_rng(127)
        tol = 1e-10
        for _ in range(4):
            poly = support.random_convex_polygon(rng)
            sites = support.random_sites_inside(rng, poly, 5)
            base = np.array(solve_equal_measure_weights(poly, sites, tol=tol)[0].weights)
            w0 = np.zeros(5)
            w0[0] = -10.0 * poly.area
            assert power_diagram(poly, sites, w0).cells[0] is None
            pd, _ = solve_equal_measure_weights(poly, sites, tol=tol, w0=tuple(w0))
            assert np.abs(np.array(pd.weights) - base).max() <= 10 * tol

    def test_nonconvergence_reports_best(self):
        # a two-cell instance converges in one exact Newton step, so use five
        # cells, where three iterations cannot reach an impossible tolerance
        rng = np.random.default_rng(109)
        poly = support.random_convex_polygon(rng)
        sites = support.random_sites_inside(rng, poly, 5)
        with pytest.raises(WeightSolveError) as info:
            solve_equal_measure_weights(poly, sites, tol=1e-30, max_iter=3)
        err = info.value
        assert len(err.diagram.weights) == 5
        assert err.iterations <= 3
        assert support.area_residual(err.diagram) > 0
        assert err.diagram == power_diagram(poly, sites, err.diagram.weights)

    def test_line_search_stall_reports_last_iterate(self):
        # an impossible tolerance: once the residual is at rounding level no
        # step can lower it, so the line search halves down to its floor
        sites = ((0.2, 0.3), (0.7, 0.2), (0.5, 0.8), (0.3, 0.6))
        with pytest.raises(WeightSolveError) as info:
            solve_equal_measure_weights(SQUARE, sites, tol=1e-30)
        err = info.value
        assert str(err).startswith("line search stalled")
        assert support.area_residual(err.diagram) > 0
        assert power_diagram(SQUARE, sites, err.diagram.weights) == err.diagram

    def test_singular_newton_system_reports_last_iterate(self, monkeypatch):
        # a wall graph in two components leaves J + 11^T/n singular; this one
        # is exactly singular in doubles, so the LU factorization meets a
        # zero pivot
        sites = ((0.2, 0.3), (0.7, 0.2), (0.5, 0.8), (0.3, 0.6))
        two_pairs = np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]])
        monkeypatch.setattr(weight_solver, "area_jacobian", lambda diagram: two_pairs)
        with pytest.raises(WeightSolveError) as info:
            solve_equal_measure_weights(SQUARE, sites)
        err = info.value
        assert str(err).startswith("singular area Jacobian")
        assert err.iterations == 1
        assert err.diagram.weights == (0.0,) * 4
        assert support.area_residual(err.diagram) > 0
        assert power_diagram(SQUARE, sites, err.diagram.weights) == err.diagram

    def test_coincident_sites_rejected(self):
        with pytest.raises(ValueError):
            solve_equal_measure_weights(SQUARE, ((0.5, 0.5), (0.5, 0.5)))

    def test_sites_beyond_double_precision_rejected(self):
        # the seed pulls both sites by t ~ 5e-151 onto the centroid, so no
        # start in doubles gives both cells area
        with pytest.raises(ValueError, match="7.07e[+]149 polygon diameters"):
            solve_equal_measure_weights(SQUARE, ((0.2, 0.2), (1e150, 0.3)))

    def test_seed_cell_below_the_area_floor_named(self):
        # equal cells of 1.2e-15 clear AREA_EPS, but the seed's cell right of
        # the close pair (4.5e-16) does not; the refusal names that area, not
        # distance alone, and the same sites solve in the unit square
        side, sites = 6e-8, ((1e-8, 3e-8), (5e-8, 3e-8), (5.5e-8, 3e-8))
        tiny = ConvexPolygon(((0.0, 0.0), (side, 0.0), (side, side), (0.0, side)))
        with pytest.raises(ValueError, match=r"^even the Voronoi seed leaves a cell of"
                           r" area 0, not above AREA_EPS = 1e-15; the sites reach"
                           r" 0\.295 polygon diameters from its centroid$"):
            solve_equal_measure_weights(tiny, sites)
        diag, _ = solve_equal_measure_weights(SQUARE, [(x / side, y / side)
                                                       for x, y in sites])
        assert support.area_residual(diag) <= 1e-10

    @pytest.mark.parametrize("far", [1e155, 1e160, 1e200, 1.7e308])
    @pytest.mark.parametrize("layout", ["single", "opposite", "all"])
    def test_sites_beyond_the_extent_bound_rejected(self, far, layout):
        # one refusal, one message, and no numpy warning on the way
        sites = {"single": ((0.2, 0.2), (far, 0.3)),
                 "opposite": ((far, far), (-far, -far), (0.5, 0.5)),
                 "all": ((far, far), (-far, far), (far, -far))}[layout]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="polygon diameters from its centroid"):
                solve_equal_measure_weights(SQUARE, sites)

    def test_many_far_sites_rejected_without_warning(self):
        # inside the extent bound, but 2,100 squared distances near max/1024
        # overflow the seed's mean: the seed is not finite, so the solve
        # refuses it with the one message
        sites = [(3.9e152, k * 1e140) for k in range(2100)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="polygon diameters from its centroid"):
                solve_equal_measure_weights(SQUARE, sites)

    def test_cells_below_the_area_floor_rejected(self):
        # the same refusal and text as the CLI's, before any build
        tiny = ConvexPolygon(((0.0, 0.0), (5e-8, 0.0), (5e-8, 5e-8), (0.0, 5e-8)))
        with pytest.raises(ValueError, match=r"^each of n=3 cells would have area"
                                             r" 8.33e-16, not above AREA_EPS"):
            solve_equal_measure_weights(tiny, ((1e-8, 1e-8), (2e-8, 4e-8), (4e-8, 1e-8)))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0, -1])
    def test_bad_tol_rejected_before_any_build(self, monkeypatch, tol):
        # with NaN the solve used to return its start as converged and the
        # search to spend all its 40,000 weight solves
        def no_build(*args):
            raise AssertionError("a diagram was built")

        monkeypatch.setattr(weight_solver, "power_diagram", no_build)
        for solve in (lambda: solve_equal_measure_weights(SQUARE, ((0.2, 0.3), (0.7, 0.2),
                                                                   (0.5, 0.8)), tol=tol),
                      lambda: equalize_perimeters(SQUARE, 3, tol=tol)):
            with pytest.raises(ValueError, match="^tol must be a positive finite number$"):
                solve()

    def test_check_tol_verdicts(self):
        # the CLI's verdict on every JSON value; a 400-digit int once ended
        # the CLI's test in an OverflowError
        for tol in (1e-10, 1, 1e300, 10 ** 400):
            weight_solver.check_tol(tol)
        for tol in (True, False, None, "1e-6", [1e-6], 0, 0.0, -1e-6):
            with pytest.raises(ValueError):
                weight_solver.check_tol(tol)

    def test_iterations_and_residual(self):
        pd, iterations = solve_equal_measure_weights(
            SQUARE, ((0.25, 0.5), (0.6, 0.5)))
        assert iterations >= 1
        assert support.area_residual(pd) <= 1e-10
        assert pd.weights[0] == pytest.approx(0.02625, abs=1e-8)

    def test_returned_diagram_rebuilds_from_its_weights(self):
        # the diagram's weights rebuild it bit for bit, and they sum to zero
        # within the bound the solve's centring keeps: from zero, from w0,
        # through the Voronoi seed and for a single site
        inside = ((0.2, 0.3), (0.7, 0.2), (0.5, 0.8))
        half_outside = ((0.2, 0.3), (3.0, 0.2), (0.5, 3.0), (0.4, 0.6))
        assert None in power_diagram(SQUARE, half_outside).cells
        for sites, w0 in ((inside, None), (inside, (0.3, -0.1, 0.05)),
                          (half_outside, None), (((0.3, 0.7),), None)):
            pd, _ = solve_equal_measure_weights(SQUARE, sites, w0=w0)
            assert power_diagram(SQUARE, sites, pd.weights) == pd
            scale = 1.0 + max(abs(v) for v in pd.weights)
            assert abs(sum(pd.weights)) <= 1e-9 * len(sites) * scale


class TestNewtonStep:
    """The step solves (J + 11^T/n) delta = A r; it must be the recentred
    least-squares step of J delta = A r, up to rounding amplified by the
    conditioning of the system."""

    @staticmethod
    def first_step(monkeypatch, poly, sites):
        """The start diagram and the first Newton step of the solve."""
        with pytest.raises(WeightSolveError) as info:
            solve_equal_measure_weights(poly, sites, tol=1e-30, max_iter=0)
        steps = []
        solve = np.linalg.solve

        def spy(a, b):
            steps.append(solve(a, b))
            return steps[-1]
        with monkeypatch.context() as patch, pytest.raises(WeightSolveError):
            patch.setattr(np.linalg, "solve", spy)
            solve_equal_measure_weights(poly, sites, tol=1e-30, max_iter=1)
        return info.value.diagram, steps[0]

    @staticmethod
    def lstsq_step(diagram):
        n, A = diagram.n, diagram.polygon.area
        r = 1.0 / n - np.array(diagram.areas) / A
        delta = np.linalg.lstsq(area_jacobian(diagram) / A, r, rcond=None)[0]
        return delta - delta.mean()

    def check(self, monkeypatch, poly, sites, bound):
        diagram, step = self.first_step(monkeypatch, poly, sites)
        assert all(c is not None for c in diagram.cells)
        want = self.lstsq_step(diagram)
        J = area_jacobian(diagram)
        cond = np.linalg.cond(J + 1.0 / len(sites))
        assert abs(step.sum()) <= bound(cond) * np.abs(step).sum()
        assert np.abs(step - want).max() <= bound(cond) * np.abs(want).max()
        return cond

    def test_well_conditioned(self, monkeypatch):
        rng = np.random.default_rng(137)
        pentagon = ConvexPolygon(((0.0, 0.0), (1.8, 0.1), (2.2, 1.0),
                                  (1.0, 1.9), (-0.3, 1.1)))
        grid = support.jittered_grid_sites(rng, pentagon, 300)
        x0, y0, x1, y1 = pentagon.bbox
        box = rng.uniform((x0 - 0.4, y0 - 0.4), (x1 + 0.4, y1 + 0.4), (100, 2))
        half_outside = tuple(map(tuple, box))
        assert None in power_diagram(pentagon, half_outside).cells
        xs = np.linspace(0.05, 0.95, 20)
        collinear = tuple(zip(xs, 0.5 + 1e-6 * rng.standard_normal(20)))
        for poly, sites in ((pentagon, grid), (pentagon, half_outside),
                            (SQUARE, collinear)):
            self.check(monkeypatch, poly, sites, lambda cond: 1e-10)

    @pytest.mark.parametrize("spread", [1e-6, 1e-9])
    def test_ill_conditioned(self, monkeypatch, spread):
        # a tight cluster, or a close pair, makes short walls between near
        # sites: J has entries of order 1/spread and a large condition number
        rng = np.random.default_rng(139)
        if spread == 1e-9:
            near = ((0.5, 0.5), (0.5 + spread, 0.5))
        else:
            near = tuple(map(tuple, 0.5 + rng.uniform(-spread, spread, (5, 2))))
        sites = support.random_sites_inside(rng, SQUARE, 5) + near
        cond = self.check(monkeypatch, SQUARE, sites, lambda cond: 1e-12 * cond)
        assert cond > 1e5


class TestTranslatedPolygon:
    """Builds, areas and centroids are taken relative to the polygon's first
    vertex, so a polygon far from the origin solves as it does at the
    origin.  In absolute coordinates the squared norms of a build carry an
    error of about offset * ulp(offset), which stalled these solves (at
    residual 5e-9 for offset 1e4 and 4e-5 for 1e6) and left equalize with no
    equal-area diagram at offset 1e3."""

    OFFSETS = [1e3, 1e4, 1e6]
    PENTAGON = ((0.0, 0.0), (1.8, 0.1), (2.2, 1.0), (1.0, 1.9), (-0.3, 1.1))

    @staticmethod
    def moved(points, offset):
        return tuple((x + offset, y - offset) for x, y in points)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_weight_solves_converge(self, offset):
        pentagon = ConvexPolygon(self.PENTAGON)
        sites = support.jittered_grid_sites(np.random.default_rng(5), pentagon, 300)
        for poly, pts in ((SQUARE, ((0.2, 0.3), (0.7, 0.4), (0.5, 0.8))),
                          (pentagon, sites)):
            far = ConvexPolygon(self.moved(poly.vertices, offset))
            pd, _ = solve_equal_measure_weights(far, self.moved(pts, offset),
                                                tol=1e-10)
            assert support.area_residual(pd) <= 1e-10

    @pytest.mark.parametrize("offset", OFFSETS + [1e8])
    def test_equalize_converges(self, offset):
        res = equalize_perimeters(ConvexPolygon(self.moved(SQUARE.vertices, offset)),
                                  3, tol=1e-6, max_evals=200)
        assert res.converged and support.area_residual(res.diagram) <= 1e-11

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_areas_match_the_untranslated_diagram(self, offset):
        # in the first vertex's frame each translated coordinate is the
        # untranslated one moved by at most ulp(offset) (one rounding of
        # x + offset, then an exact difference), so every cell boundary moves
        # by a few ulp(offset) and an area by that times the perimeter
        rng = np.random.default_rng(41)
        for n in (3, 20, 100):
            poly = support.random_convex_polygon(rng)
            sites = support.random_sites_inside(rng, poly, n)
            near, _ = solve_equal_measure_weights(poly, sites)
            far = power_diagram(ConvexPolygon(self.moved(poly.vertices, offset)),
                                self.moved(sites, offset), near.weights)
            bound = 4.0 * np.spacing(offset) * polygon_perimeter(poly.vertices)
            assert np.abs(np.subtract(far.areas, near.areas)).max() <= bound
            assert far.polygon.area == pytest.approx(poly.area, abs=bound)
