"""Tests for the outer site search that equalizes cell perimeters."""

from dataclasses import replace

import numpy as np
import pytest

import support
from equicell import (ConvexPolygon, Sites, WeightSolveError, area_jacobian,
                      equalize_perimeters, perimeter_spread, power_diagram,
                      solve_equal_measure_weights)
from equicell import equalize
from equicell.equalize import EqualizeError, _gauge_complement, site_jacobian

SQUARE = support.UNIT_SQUARE
QUADRILATERAL = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (1.6, 1.1), (0.2, 0.8)))
PENTAGON = ConvexPolygon(((0.0, 0.0), (1.8, 0.1), (2.2, 1.0), (1.0, 1.9), (-0.3, 1.1)))
# the unit square with a vertex halfway along its bottom edge
COLLINEAR = ConvexPolygon(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


class TestEqualize:
    def test_square_halves(self):
        res = equalize_perimeters(SQUARE, 2, tol=1e-6, seed=0)
        assert res.converged
        assert perimeter_spread(res.diagram) <= 1e-6
        assert np.abs(np.array(res.diagram.areas) - 0.5).max() <= 1e-9

    def test_triangle_halves(self):
        res = equalize_perimeters(support.UNIT_TRIANGLE, 2, tol=1e-6, seed=0)
        assert res.converged
        assert perimeter_spread(res.diagram) <= 1e-6
        area = support.UNIT_TRIANGLE.area
        assert np.abs(np.array(res.diagram.areas) - area / 2).max() <= 1e-9 * area

    def test_deterministic(self):
        a = equalize_perimeters(SQUARE, 2, tol=1e-6, seed=0)
        b = equalize_perimeters(SQUARE, 2, tol=1e-6, seed=0)
        assert a == b

    def test_result_reproducible_from_parts(self):
        res = equalize_perimeters(SQUARE, 2, tol=1e-6, seed=0)
        diag = res.diagram
        assert power_diagram(SQUARE, diag.sites, diag.weights) == diag
        assert res.converged == (perimeter_spread(diag) <= 1e-6)

    def test_needs_two_parts(self):
        with pytest.raises(ValueError):
            equalize_perimeters(SQUARE, 1)

    def test_tiny_budget_reports_best_effort(self):
        # no random start solves the triangle at once, so a three-eval
        # budget must come back unconverged but still carry the best attempt
        res = equalize_perimeters(support.UNIT_TRIANGLE, 3, tol=1e-12,
                                  max_evals=3)
        assert not res.converged
        assert res.evaluations <= 3
        assert res.diagram.n == 3
        assert perimeter_spread(res.diagram) > 0.0

    def test_other_seed_still_converges(self):
        res = equalize_perimeters(SQUARE, 2, tol=1e-6, seed=1)
        assert res.converged

    def test_quadrilateral_three_parts(self):
        # n = 3 is prime, so a solution exists; most random starts stall
        # where two walls meet on the boundary, so this needs restarts
        res = equalize_perimeters(QUADRILATERAL, 3, tol=1e-6)
        assert res.converged
        assert perimeter_spread(res.diagram) <= 1e-6
        area = QUADRILATERAL.area
        assert np.abs(np.array(res.diagram.areas) - area / 3).max() <= 1e-9 * area

    def test_quadrilateral_three_parts_across_seeds(self):
        # most starts stall at a fold, so the budget bounds the restarts;
        # uniform draws inside the polygon needed up to 6316 weight solves
        # at seeds 0-6
        for seed in range(5):
            res = equalize_perimeters(QUADRILATERAL, 3, tol=1e-6, seed=seed,
                                      max_evals=3000)
            assert res.converged


class TestSiteJacobian:
    """site_jacobian against central differences of the perimeters and
    weights re-solved for equal areas, in steps of 1e-6 of the diameter."""

    @staticmethod
    def sites(rng, polygon, n, outside):
        # n - outside sites inside; the rest on a circle about the centroid
        # that holds the whole polygon, so they lie outside it
        c = np.array(polygon.centroid)
        reach = max(np.hypot(*(np.array(v) - c)) for v in polygon.vertices)
        turn = rng.uniform(0.0, 2.0 * np.pi, outside)
        far = c + reach * rng.uniform(1.2, 1.6, (outside, 1)) * np.column_stack(
            [np.cos(turn), np.sin(turn)])
        return np.vstack([support.random_sites_inside(rng, polygon, n - outside), far])

    @pytest.mark.parametrize("polygon", [PENTAGON, COLLINEAR], ids=["pentagon", "collinear"])
    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    @pytest.mark.parametrize("outside", [False, True], ids=["interior", "half-outside"])
    def test_matches_central_differences(self, polygon, n, outside):
        x = self.sites(np.random.default_rng(n), polygon, n, n // 2 if outside else 0)
        x0, y0, x1, y1 = polygon.bbox
        h = 1e-6 * np.hypot(x1 - x0, y1 - y0)

        def solve(y, w0=None):
            diag, _ = solve_equal_measure_weights(polygon, tuple(map(tuple, y)),
                                                  tol=1e-13, w0=w0)
            return np.array(diag.perimeters), np.array(diag.weights), diag

        _, w, diag = solve(x)
        dP, dW = site_jacobian(diag)
        fd_p, fd_w = np.empty((n, 2 * n)), np.empty((n, 2 * n))
        for k in range(2 * n):
            move = h * np.eye(2 * n)[k].reshape(n, 2)
            p_hi, w_hi, _ = solve(x + move, w)
            p_lo, w_lo, _ = solve(x - move, w)
            fd_p[:, k] = (p_hi - p_lo) / (2.0 * h)
            fd_w[:, k] = (w_hi - w_lo) / (2.0 * h)
        for exact, fd in ((dP, fd_p), (dW, fd_w)):
            assert np.abs(exact - fd).max() <= 1e-5 * np.abs(fd).max()

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8, 1e10])
    def test_exact_at_any_offset(self, offset):
        # multiples of 2^-19, so moving them and the square is exact: the
        # build's outlines, and with them the weights and the Jacobian, are
        # those at the origin bit for bit
        sites = ((0.44149208068847656, 0.6251258850097656),
                 (0.7454624176025391, 0.4757347106933594),
                 (0.6143779754638672, 0.36865806579589844),
                 (0.4785499572753906, 0.6790771484375),
                 (0.4768943786621094, 0.6024379730224609))

        def solve(d):
            square = ConvexPolygon(tuple((x + d, y + d) for x, y in SQUARE.vertices))
            return solve_equal_measure_weights(
                square, tuple((x + d, y + d) for x, y in sites), tol=1e-11)[0]

        here, there = solve(0.0), solve(offset)
        assert there.weights == here.weights
        for moved, at_origin in zip(site_jacobian(there), site_jacobian(here)):
            assert np.array_equal(moved, at_origin)

    def test_vertex_between_coincident_lines(self):
        # a wall of cell 0 split at its midpoint: the new vertex lies between
        # two edges on one line (det == 0), which moves it along itself only,
        # so both Jacobians are the unsplit diagram's
        diag, _ = solve_equal_measure_weights(SQUARE, ((0.2, 0.3), (0.7, 0.25), (0.5, 0.8)))
        vs, tags = diag.outlines[0], diag.edge_tags[0]
        e = next(e for e, t in enumerate(tags) if t >= 0)
        p, q = vs[e], vs[(e + 1) % len(vs)]
        split = replace(
            diag,
            outlines=(tuple(vs[:e + 1]) + ((0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])),)
                      + tuple(vs[e + 1:]),) + diag.outlines[1:],
            edge_tags=(tuple(tags[:e + 1]) + (tags[e],) + tuple(tags[e + 1:]),)
            + diag.edge_tags[1:])
        for got, want in zip(site_jacobian(split), site_jacobian(diag)):
            assert np.abs(got - want).max() <= 1e-12
        assert np.abs(area_jacobian(split) - area_jacobian(diag)).max() <= 1e-12

    def test_a_step_solves_only_its_trials(self, monkeypatch):
        # the log holds "J" per Jacobian, that is per Gauss-Newton step, and
        # "s" per weight solve: each step's solves are its trials, one to five
        # (t = 1 down to 1/16), where differencing would add 2n - 3 = 9
        log = []

        def logged(name, fn):
            def call(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(equalize, "site_jacobian",
                            logged("J", equalize.site_jacobian))
        monkeypatch.setattr(equalize, "solve_equal_measure_weights",
                            logged("s", solve_equal_measure_weights))
        res = equalize_perimeters(PENTAGON, 6, tol=1e-6, seed=0)
        assert res.converged and res.start_index == 0
        assert log.count("s") == res.evaluations and log[0] == "s"
        steps = "".join(log[1:]).split("J")[1:]
        assert steps and all(1 <= len(trials) <= 5 for trials in steps)

    def test_singular_weight_system_ends_the_start(self, monkeypatch):
        # with no walls J is zero and J + 11^T / n has rank one: each start
        # ends after its first solve instead of raising LinAlgError
        monkeypatch.setattr(equalize, "area_jacobian", lambda diag: np.zeros((diag.n,) * 2))
        res = equalize_perimeters(SQUARE, 3, tol=1e-12, max_evals=4)
        assert not res.converged and res.evaluations == 4


class TestSearchEnds:
    def test_no_equal_area_diagram_is_an_equalize_error(self, monkeypatch):
        with pytest.raises(EqualizeError):
            equalize_perimeters(SQUARE, 2, max_evals=0)

        def never(*args, **kwargs):
            raise WeightSolveError("no weights")

        monkeypatch.setattr(equalize, "solve_equal_measure_weights", never)
        with pytest.raises(EqualizeError, match="in 50 weight solves"):
            equalize_perimeters(SQUARE, 3, max_evals=50)

    def test_overflowing_polygon_rejected(self):
        # the polygon refuses its own extent, so no search starts on it
        with pytest.raises(ValueError, match="extent of the input overflows"):
            ConvexPolygon(((0.0, 0.0), (1e200, 0.0), (0.0, 1e200)))


    def test_cells_below_the_area_floor_rejected_at_once(self):
        # this search used to run all 40000 weight solves (about 11 s), each
        # of which failed, and then raise EqualizeError
        tiny = ConvexPolygon(((0.0, 0.0), (5e-8, 0.0), (5e-8, 5e-8), (0.0, 5e-8)))
        with pytest.raises(ValueError, match=r"^each of n=3 cells would have area"
                                             r" 8.33e-16, not above AREA_EPS"):
            equalize_perimeters(tiny, 3)

    def test_huge_polygon_converges(self):
        # the centroid of a triangle of side 1e103 used to overflow, so every
        # start drew infinite sites and no solve had an equal-area diagram
        side = 1e103
        tri = ConvexPolygon(((0.0, 0.0), (side, 0.0), (0.0, side)))
        res = equalize_perimeters(tri, 3, tol=1e97)
        assert res.converged
        assert np.abs(np.array(res.diagram.areas) - tri.area / 3).max() <= 1e-9 * tri.area


class TestGauge:
    def test_step_basis_avoids_the_gauge(self):
        x = np.array([(0.4, 0.3), (1.5, 0.4), (0.9, 0.8), (0.2, 0.1)])
        Q = _gauge_complement(x)
        assert Q.shape == (8, 5)
        assert np.abs(Q.T @ Q - np.eye(5)).max() <= 1e-12
        gauge = np.column_stack([np.tile([1.0, 0.0], 4), np.tile([0.0, 1.0], 4),
                                 (x - x.mean(axis=0)).ravel()])
        assert np.abs(gauge.T @ Q).max() <= 1e-12

    def test_dilated_sites_give_the_same_diagram(self):
        # scaling the sites about any point gives the same walls at other
        # weights, which is why the search needs no gauge fixing
        sites = np.array([(0.4, 0.3), (1.5, 0.4), (0.9, 0.8)])
        center = np.array([0.3, 0.9])

        def measures(lam):
            sts = Sites(tuple(map(tuple, center + lam * (sites - center))))
            pd, _ = solve_equal_measure_weights(QUADRILATERAL, sts, tol=1e-12)
            return np.array(pd.areas), np.array(pd.perimeters)

        areas, perims = measures(1.0)
        for lam in (0.2, 3.0):
            a, p = measures(lam)
            assert np.abs(a - areas).max() <= 1e-9
            assert np.abs(p - perims).max() <= 1e-9
