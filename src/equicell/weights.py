"""Weight solve: make every cell capture an equal share of the polygon.

Equal shares are the maximizer of a concave dual function whose gradient is
(1/n - share_i); we drive that gradient to zero with a damped Newton
iteration on the share map.  Its Jacobian comes from the wall geometry:
moving w_i shifts the wall between cells i and j at rate 1/(2 |x_i - x_j|),
so d(area_i)/d(w_i) = sum_j len_ij / (2 dist_ij) and d(area_i)/d(w_j) is the
negative single term.  This J is the Laplacian of the wall graph, which is
connected for nonempty cells tiling a convex polygon, so J is singular only
along constant shifts and each Newton step solves the nonsingular
(J + 11^T/n) delta = A r for the share residual r.  Since r and the columns
of J sum to zero, delta does too: it is the minimum-norm solution of
J delta = A r.  Walls merged below MERGE_EPS can still disconnect the graph
in doubles; a singular system then ends the solve with WeightSolveError.

Safeguards: Newton needs every cell to hold area, since an empty cell has
no walls and so no Jacobian row.  The iteration starts from w0, or from
zero, and only when a cell is empty there from a closed-form seed.  Pull
the sites toward the polygon's centroid c, to y_i = c + t (x_i - c), with t
half the largest factor that keeps every y_i inside, capped at 1.  At
w_i = (1 - t) |x_i - c|^2 the power diagram of the x_i is the Voronoi
diagram of the y_i: |x - x_i|^2 - w_i and |x - y_i|^2 / t differ by terms
that do not depend on i.  Distinct sites inside the polygon own cells of
positive area, so for any distinct sites the seed has no empty cell (up to
rounding: sites far outside, or clusters far smaller than the polygon, can
give cells below AREA_EPS).  Sites whose box with the polygon overflows
(geometry.extent_overflows, in the polygon's frame) are refused before any
build and sites whose seed overflows (not finite) before its build, with one
ValueError naming the site extent in polygon diameters; sites that leave a
cell below AREA_EPS even from the seed are refused after it, naming that
cell's area, AREA_EPS and the site extent.  From there the iteration is
the damped Newton method of Kitagawa, Merigot and Thibert: a step is halved
until every cell keeps at least half of min(least share, 1/n) and the
residual drops, so every accepted iterate has every cell nonempty.
"""
from __future__ import annotations

from math import dist, inf

import numpy as np

from .geometry import (AREA_EPS, ConvexPolygon, check_cell_area, extent_overflows,
                       relative_to_first)
from .powerdiagram import PowerDiagram, _as_site_tuple, power_diagram


class WeightSolveError(RuntimeError):
    """Non-convergence; carries the last diagram, whose weights are the last
    iterate, and the iteration count."""

    def __init__(self, message, diagram=None, iterations=0):
        super().__init__(message)
        self.diagram = diagram
        self.iterations = iterations


def area_jacobian(diagram: PowerDiagram) -> np.ndarray:
    """d(area_i)/d(w_j) assembled from shared wall lengths: the lengths of
    cell i's edges tagged j, summed in edge order on its outline."""
    n = diagram.n
    pts = diagram.sites.points
    J = np.zeros((n, n))
    for i, (cpts, tags) in enumerate(zip(diagram.outlines, diagram.edge_tags)):
        shared: dict[int, float] = {}
        k = len(cpts)
        for e, j in enumerate(tags):
            if j >= 0:
                (x0, y0), (x1, y1) = cpts[e], cpts[(e + 1) % k]
                shared[j] = shared.get(j, 0.0) + ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
        for j, length in sorted(shared.items()):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            v = length / (2.0 * (dx * dx + dy * dy) ** 0.5)
            J[i, j] -= v
            J[i, i] += v
    return J


def _voronoi_seed(polygon: ConvexPolygon, sites) -> np.ndarray:
    """Zero-mean weights whose power diagram is the Voronoi diagram of the
    sites pulled toward the centroid until all lie strictly inside, so that
    every cell has positive area (see the module docstring)."""
    c = np.array(polygon.centroid)
    v = np.array(polygon.vertices)
    e = np.roll(v, -1, axis=0) - v
    normal = np.column_stack([e[:, 1], -e[:, 0]])      # outward: vertices run ccw
    room = ((v - c) * normal).sum(axis=1)               # > 0: c is interior
    x = np.array(_as_site_tuple(sites).points) - c
    out = x @ normal.T                                  # (sites, edges)
    pull = np.divide(room, out, out=np.full(out.shape, np.inf), where=out > 0.0)
    # half the largest pull keeps the pulled sites clear of the edges
    t = min(1.0, 0.5 * float(pull.min()))
    w = (1.0 - t) * (x * x).sum(axis=1)
    with np.errstate(over="ignore"):   # many far sites: the mean overflows
        return w - w.mean()


def check_tol(tol) -> None:
    """ValueError unless tol is a positive finite int or float (not a bool)."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < inf:
        raise ValueError("tol must be a positive finite number")


def solve_equal_measure_weights(polygon: ConvexPolygon, sites, tol: float = 1e-10,
                                max_iter: int = 10000, w0=None):
    """The diagram whose cells each hold area(polygon)/n, to
    |share - 1/n| <= tol, and the Newton iterations it took.

    tol, a positive finite number (check_tol), bounds the infinity norm of the
    normalized area residual max |1/n - area_i / A|.  w0 seeds the iteration
    (any float vector; it is recentered); the maximizer itself is unique once
    centered, so different seeds land on the same answer.  Returns (diagram,
    iterations): the solved weights are diagram.weights, centered as every
    iterate is, and power_diagram(polygon, sites, diagram.weights) rebuilds
    the diagram bit for bit.  Raises ValueError for a bad tol, when the sites
    coincide or are not finite, when the n cells would not each hold more than
    AREA_EPS (geometry.check_cell_area), when the sites are too far out for
    doubles (their box with the polygon overflows, or the seed is not finite),
    and when even the seed leaves a cell below AREA_EPS.  Raises
    WeightSolveError when the Newton system is singular, the line search
    stalls or the iteration cap is hit; it carries the last diagram and the
    iteration count.
    """
    check_tol(tol)
    sts = _as_site_tuple(sites)
    n = len(sts)
    check_cell_area(polygon, n)
    A = polygon.area
    target = 1.0 / n
    if w0 is None:
        w = np.zeros(n)
    else:
        w = np.array([float(v) for v in w0], dtype=float)
        if w.shape != (n,):
            raise ValueError("w0 must have one entry per site")
        w -= w.mean()

    def build(wv):
        d = power_diagram(polygon, sts, wv)
        f = np.array(d.areas) / A
        return d, f

    too_far = extent_overflows(relative_to_first(polygon.vertices + sts.points))
    if not too_far:
        diag, frac = build(w)
        if frac.min() <= 0.0:
            w = _voronoi_seed(polygon, sts)
            too_far = not np.isfinite(w).all()
            if not too_far:
                diag, frac = build(w)
    if too_far or frac.min() <= 0.0:
        diam = max(dist(p, q) for p in polygon.vertices for q in polygon.vertices)
        far = max(dist(p, polygon.centroid) for p in sts.points) / diam
        if too_far:
            raise ValueError("the sites reach %.3g polygon diameters from its centroid,"
                             " too far for doubles to give every cell area" % far)
        raise ValueError("even the Voronoi seed leaves a cell of area %.3g, not above"
                         " AREA_EPS = %g; the sites reach %.3g polygon diameters from"
                         " its centroid" % (frac.min() * A, AREA_EPS, far))

    r = target - frac
    rn = float(np.abs(r).max())
    iters = 0
    while rn > tol:
        if iters >= max_iter:
            raise WeightSolveError("no convergence in %d iterations" % max_iter,
                                   diag, iters)
        iters += 1
        try:
            delta = np.linalg.solve((area_jacobian(diag) + target) / A, r)
        except np.linalg.LinAlgError:
            raise WeightSolveError("singular area Jacobian at residual %.3e" % rn,
                                   diag, iters) from None
        floor = 0.5 * min(float(frac.min()), target)
        t = 1.0
        while t >= 1e-12:
            w2 = w + t * delta
            w2 -= w2.mean()
            d2, f2 = build(w2)
            r2 = target - f2
            rn2 = float(np.abs(r2).max())
            if f2.min() >= floor and rn2 <= (1.0 - 0.1 * t) * rn:
                w, diag, frac, r, rn = w2, d2, f2, r2, rn2
                break
            t *= 0.5
        else:
            raise WeightSolveError("line search stalled at residual %.3e" % rn,
                                   diag, iters)

    return diag, iters
