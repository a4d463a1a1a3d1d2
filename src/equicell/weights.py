"""Weight solve: make every cell capture an equal share of the polygon.

Equal shares are the maximizer of a concave dual function whose gradient is
(1/n - share_i); we drive that gradient to zero with a damped Newton
iteration on the share map.  Its Jacobian comes from the wall geometry:
moving w_i shifts the wall between cells i and j at rate 1/(2 |x_i - x_j|),
so d(area_i)/d(w_i) = sum_j len_ij / (2 dist_ij) and d(area_i)/d(w_j) is the
negative single term.  The matrix is symmetric, positive semidefinite, and
singular exactly along constant shifts, which the zero-sum normalization
quotients away.

Safeguards: seed weights that blank out cells are first pulled back toward
zero (the unweighted diagram is safe for interior sites), then any cell still
empty is grown until it captures area.  A Newton step is only accepted when
no cell dies and the residual drops; otherwise the step is halved, falling
back to plain ascent.
"""
from __future__ import annotations

import numpy as np

from .geometry import ConvexPolygon
from .powerdiagram import PowerDiagram, Sites, Weights, _as_site_tuple, power_diagram


class WeightSolveError(RuntimeError):
    """Non-convergence; carries the best weights seen."""

    def __init__(self, message, weights=None, residual=None, iterations=0):
        super().__init__(message)
        self.weights = weights
        self.residual = residual
        self.iterations = iterations


def area_jacobian(diagram: PowerDiagram) -> np.ndarray:
    """d(area_i)/d(w_j) assembled from shared wall lengths."""
    n = diagram.n
    pts = diagram.sites.points
    J = np.zeros((n, n))
    for i, row in enumerate(diagram.interfaces):
        for j, length in row:
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            v = length / (2.0 * (dx * dx + dy * dy) ** 0.5)
            J[i, j] -= v
            J[i, i] += v
    return J


def solve_equal_measure_weights(polygon: ConvexPolygon, sites, tol: float = 1e-10,
                                max_iter: int = 10000, w0=None,
                                return_stats: bool = False):
    """Weights whose cells each hold area(polygon)/n, to |share - 1/n| <= tol.

    tol bounds the infinity norm of the normalized area residual.  w0 seeds
    the iteration (any float vector; it is recentered); the maximizer itself
    is unique once centered, so different seeds land on the same answer.
    Raises WeightSolveError when the iteration cap is hit.  return_stats
    adds a dict with the iteration count, the final residual and the
    diagram at the final weights, so callers need not build it again.
    """
    sts = _as_site_tuple(sites)
    n = len(sts)
    if n == 1:
        w = Weights((0.0,))
        if return_stats:
            return w, {"iterations": 0, "residual": 0.0,
                       "diagram": power_diagram(polygon, sts, w)}
        return w

    A = polygon.area
    target = 1.0 / n
    if w0 is None:
        w = np.zeros(n)
    else:
        w = np.array([float(v) for v in w0], dtype=float)
        if w.shape != (n,):
            raise ValueError("w0 must have one entry per site")
        w -= w.mean()

    x0, y0, x1, y1 = polygon.bbox
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    reach = max(((px - cx) ** 2 + (py - cy) ** 2) ** 0.5 for px, py in sts.points)
    scale2 = ((x1 - x0) ** 2 + (y1 - y0) ** 2) + 4.0 * reach * reach

    def build(wv):
        d = power_diagram(polygon, sts, wv)
        f = np.array(d.areas) / A
        return d, f

    diag, frac = build(w)

    # a cell empty at the seed weights cannot inform the Jacobian; retreat
    # toward the unweighted diagram first, which has every cell nonempty
    # whenever the sites sit inside the polygon
    if frac.min() <= 0.0 and np.abs(w).max() > 0.0:
        shrink = w.copy()
        for _ in range(80):
            shrink *= 0.5
            d3, f3 = build(shrink)
            if f3.min() > 0.0:
                w, diag, frac = shrink, d3, f3
                break
        else:
            w = np.zeros(n)
            diag, frac = build(w)

    # sites outside the polygon may leave cells empty even unweighted; grow
    # those weights until they capture something, restarting the increment
    # whenever the empty set changes so overshoots cannot see-saw
    grow0 = scale2 / (16.0 * n)
    grow = grow0
    rescues = 0
    prev_empty = None
    while frac.min() <= 0.0:
        if rescues >= 300:
            raise WeightSolveError("could not give every cell positive area",
                                   weights=tuple(w - w.mean()),
                                   residual=float(np.abs(target - frac).max()),
                                   iterations=rescues)
        empty = frac <= 0.0
        key = tuple(np.nonzero(empty)[0])
        if key != prev_empty:
            grow = grow0
            prev_empty = key
        w = w + np.where(empty, grow, 0.0)
        w -= w.mean()
        diag, frac = build(w)
        grow *= 1.4
        rescues += 1

    r = target - frac
    rn = float(np.abs(r).max())
    iters = 0
    while rn > tol:
        if iters >= max_iter:
            raise WeightSolveError("no convergence in %d iterations" % max_iter,
                                   weights=tuple(w - w.mean()), residual=rn,
                                   iterations=iters)
        iters += 1
        J = area_jacobian(diag) / A
        delta = np.linalg.lstsq(J, r, rcond=None)[0]
        delta -= delta.mean()
        floor = 0.5 * min(float(frac.min()), target)
        accepted = False
        t = 1.0
        while t >= 1e-12:
            w2 = w + t * delta
            w2 -= w2.mean()
            d2, f2 = build(w2)
            r2 = target - f2
            rn2 = float(np.abs(r2).max())
            if f2.min() >= floor and rn2 <= (1.0 - 0.1 * t) * rn:
                w, diag, frac, r, rn = w2, d2, f2, r2, rn2
                accepted = True
                break
            t *= 0.5
        if accepted:
            continue
        # ascent fallback; the residual itself is an ascent direction
        t = 1.0
        while t >= 1e-14:
            w2 = w + t * scale2 * r
            w2 -= w2.mean()
            d2, f2 = build(w2)
            r2 = target - f2
            rn2 = float(np.abs(r2).max())
            if f2.min() > 0.0 and rn2 < rn:
                w, diag, frac, r, rn = w2, d2, f2, r2, rn2
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise WeightSolveError("line search stalled at residual %.3e" % rn,
                                   weights=tuple(w - w.mean()), residual=rn,
                                   iterations=iters)

    weights = Weights.normalized(w)
    if return_stats:
        return weights, {"iterations": iters, "residual": rn, "diagram": diag}
    return weights
