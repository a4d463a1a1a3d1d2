"""Search for equal-area cells with equal perimeters.

The inner problem (areas) is solved exactly for any site placement, so the
outer search only has to steer the n sites until the perimeter residual
r = perimeters - mean(perimeters) vanishes.  That is a Gauss-Newton solve in
all 2n site coordinates.  The equal-area diagram does not change when the
sites are translated or scaled about any point, so J vanishes on those three
moves: it is taken only along an orthonormal basis of the 2n - 3 moves
orthogonal to them, and the step is the min-norm least-squares solution of
J s = r in that basis.  J is exact, from the converged diagram's geometry
(site_jacobian), so a step costs only its trial weight solves, each
warm-started at the weights that J predicts for its sites.  No site is
pinned, and no step moves along the gauge.  A step is halved until |r|
drops; when even a sixteenth of it does not, the linear model is poor there
(a fold of the perimeter map, or a long crawl) and the search restarts from
the next seeded random draw of sites.  The draws are isotropic Gaussian
clouds about the centroid: by the gauge only the shape of a cloud matters,
and clouds stretched like the polygon (uniform draws inside it) mostly put
the walls across its long axis, which on elongated polygons leads nearly
every start into the same fold.  Sites may leave the polygon during the
iteration, and many solutions have sites outside it.  The best
configuration wins; ties keep the earliest start.  Its diagram is the one
its weight solve converged on: nothing is solved or built again.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .geometry import ConvexPolygon, check_cell_area
from .powerdiagram import PowerDiagram, Sites, perimeter_spread
from .weights import (WeightSolveError, area_jacobian, check_tol,
                      solve_equal_measure_weights)


class EqualizeError(RuntimeError):
    """The search found no sites with an equal-area diagram."""


@dataclass(frozen=True)
class EqualizeResult:
    """The best diagram, whose sites and weights are the answer, whether its
    spread reaches tol, the search's weight solves and the start that found it."""

    diagram: PowerDiagram
    converged: bool
    evaluations: int
    start_index: int


def _random_sites(polygon: ConvexPolygon, n: int, rng, diam: float) -> np.ndarray:
    # a small cloud keeps most sites inside, where the unweighted diagram
    # that the weight solve starts from has no empty cell
    return np.array(polygon.centroid) + 0.05 * diam * rng.standard_normal((n, 2))


def _gauge_complement(x: np.ndarray) -> np.ndarray:
    # orthonormal columns spanning the site moves (flattened) that are
    # orthogonal to translating the sites and scaling them about their mean
    n = len(x)
    gauge = np.column_stack([np.tile([1.0, 0.0], n), np.tile([0.0, 1.0], n),
                             (x - x.mean(axis=0)).ravel()])
    return np.linalg.qr(gauge, mode="complete")[0][:, 3:]


def site_jacobian(diagram: PowerDiagram) -> tuple[np.ndarray, np.ndarray]:
    """(dP, dW): the derivatives of the perimeters and of the centred weights
    in the 2n site coordinates (x_0, y_0, x_1, ...), with the weights
    re-solved for equal areas, at an equal-area diagram without empty cells.

    Each cell vertex v lies on the lines of its two edges (edge_tags).  A
    polygon edge stays put, and the wall between cells i and j moves by
    (x_j - x_i) . dv = (x_j - v) . dx_j - (x_i - v) . dx_i - (dw_j - dw_i) / 2,
    the derivative of its equation 2 (x_j - x_i) . v = |x_j|^2 - |x_i|^2 -
    w_j + w_i.  A perimeter moves by the sum over its vertices of (u_in -
    u_out) . dv, u the unit directions of the edges into and out of v, so a
    vertex adds lam_a times its first line's right-hand side and lam_b times
    its second's, where lam_a n_a + lam_b n_b = u_in - u_out for the lines'
    normals n.  A vertex between two polygon edges does not move, and one
    whose two lines coincide has u_in = u_out and adds nothing.  A wall of
    length L at distance d = |x_j - x_i| adds L / d times its right-hand side
    at its midpoint to the area of cell i.  Equal areas then give the weights'
    derivative dW from (J + 11^T / n) dW = -dA/dx, J = area_jacobian, the
    weight solve's own system: dW sums to zero, as the weights do.  All of it
    is taken in the polygon's frame, on the build's own outlines.  Raises
    numpy.linalg.LinAlgError when that system is singular.
    """
    n = diagram.n
    ox, oy = diagram.polygon.vertices[0]
    pts = [(x - ox, y - oy) for x, y in diagram.sites.points]
    poly = diagram.polygon.local
    edge_normal = [(q[1] - p[1], p[0] - q[0]) for p, q in zip(poly, poly[1:] + poly[:1])]
    dPx, dPw, dA = np.zeros((n, 2 * n)), np.zeros((n, n)), np.zeros((n, 2 * n))

    def add_wall(row, i, j, v, coef):
        # coef times the site part of the right-hand side of wall (i, j) at v
        (xi, yi), (xj, yj) = pts[i], pts[j]
        row[2 * j:2 * j + 2] += coef * (xj - v[0]), coef * (yj - v[1])
        row[2 * i:2 * i + 2] -= coef * (xi - v[0]), coef * (yi - v[1])

    for i, (vs, tags) in enumerate(zip(diagram.outlines, diagram.edge_tags)):
        xi, yi = pts[i]
        k = len(vs)
        units = []
        for e in range(k):
            (px, py), (qx, qy) = vs[e], vs[(e + 1) % k]
            length = ((qx - px) ** 2 + (qy - py) ** 2) ** 0.5
            units.append(((qx - px) / length, (qy - py) / length))
            j = tags[e]
            if j >= 0:
                dist_ij = ((pts[j][0] - xi) ** 2 + (pts[j][1] - yi) ** 2) ** 0.5
                mid = (0.5 * (px + qx), 0.5 * (py + qy))
                add_wall(dA[i], i, j, mid, length / dist_ij)
        for e in range(k):
            a, b = tags[e - 1], tags[e]
            if a < 0 and b < 0:
                continue
            (nax, nay), (nbx, nby) = [(pts[t][0] - xi, pts[t][1] - yi) if t >= 0
                                      else edge_normal[-t - 1] for t in (a, b)]
            det = nax * nby - nay * nbx
            if det == 0.0:
                continue
            gx = units[e - 1][0] - units[e][0]
            gy = units[e - 1][1] - units[e][1]
            lams = ((gx * nby - gy * nbx) / det, (nax * gy - nay * gx) / det)
            for t, lam in zip((a, b), lams):
                if t >= 0:
                    add_wall(dPx[i], i, t, vs[e], lam)
                    dPw[i, t] -= 0.5 * lam
                    dPw[i, i] += 0.5 * lam
    dW = np.linalg.solve(area_jacobian(diagram) + 1.0 / n, -dA)
    return dPx + dPw @ dW, dW


def equalize_perimeters(polygon: ConvexPolygon, n: int, tol: float = 1e-6,
                        seed: int = 0, max_evals: int = 40000) -> EqualizeResult:
    """Equal-area decomposition with perimeter spread at most tol, if found.

    Deterministic for fixed arguments.  max_evals bounds the weight solves of
    the search, and evaluations counts them.  The result holds the best
    evaluation's diagram as its weight solve returned it, sites and weights
    included, with converged = False when none reached tol.  EqualizeError
    means no configuration had an equal-area diagram; ValueError, raised
    before any build, a bad tol (weights.check_tol), n < 2 or cells below
    AREA_EPS (geometry.check_cell_area).  Sites that a step flings too far
    out for doubles fail their weight solve, a failed evaluation, and a step
    whose weight system (site_jacobian) is singular ends its start.
    """
    check_tol(tol)
    if n < 2:
        raise ValueError("need n >= 2")
    check_cell_area(polygon, n)
    bb = polygon.bbox
    diam = ((bb[2] - bb[0]) ** 2 + (bb[3] - bb[1]) ** 2) ** 0.5
    rng = np.random.default_rng(seed)
    evals = 0
    best = (np.inf, None, 0)   # (spread, diagram, start index)

    def evaluate(x, w0):
        # (perimeters - mean, diagram) at sites x; None when the budget is
        # spent, the sites coincide or the weight solve fails
        nonlocal evals
        if evals >= max_evals:
            return None
        evals += 1
        try:
            sts = Sites(tuple(map(tuple, x)))
            diag, _ = solve_equal_measure_weights(polygon, sts, tol=1e-11,
                                                  max_iter=400, w0=w0)
        except (WeightSolveError, ValueError):
            return None
        p = np.array(diag.perimeters)
        return p - p.mean(), diag

    def gauss_newton_step(x, r, diag):
        # sites after a backtracked min-norm step and their evaluation, which
        # is None when the weights' system is singular or every trial fails
        Q = _gauge_complement(x)
        try:
            dP, dW = site_jacobian(diag)
        except np.linalg.LinAlgError:
            return x, None
        J = (dP - dP.mean(axis=0)) @ Q
        # r sums to zero, so its last row only adds rounding, which the
        # least-squares solve would amplify into a spurious step
        s = Q @ np.linalg.lstsq(J[:-1], r[:-1], rcond=None)[0]
        step, dw = s.reshape(n, 2), dW @ s
        w = np.array(diag.weights)
        norm = np.linalg.norm(r)
        t = 1.0
        while t >= 1.0 / 16.0:
            trial = evaluate(x - t * step, w - t * dw)
            if trial is not None and np.linalg.norm(trial[0]) <= (1.0 - 0.1 * t) * norm:
                return x - t * step, trial
            t *= 0.5
        return x, None

    for start in count():
        if evals >= max_evals or best[0] <= tol:
            break
        x = _random_sites(polygon, n, rng, diam)
        got = evaluate(x, None)
        while got is not None:
            r, diag = got
            spread = perimeter_spread(diag)
            if spread < best[0]:
                best = (spread, diag, start)
            if spread <= tol:
                break
            x, got = gauss_newton_step(x, r, diag)

    spread, diag, start = best
    if diag is None:
        raise EqualizeError("no equal-area diagram in %d weight solves" % evals)
    return EqualizeResult(diagram=diag, converged=spread <= tol,
                          evaluations=evals, start_index=start)
