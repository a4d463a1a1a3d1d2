"""Search for equal-area cells with equal perimeters.

The inner problem (areas) is solved exactly for any site placement, so the
outer search only has to steer the n sites until the perimeter residual
r = perimeters - mean(perimeters) vanishes.  That is a Gauss-Newton solve in
all 2n site coordinates.  The equal-area diagram does not change when the
sites are translated or scaled about any point, so J vanishes on those three
moves: it is differenced forward only along an orthonormal basis of the
2n - 3 moves orthogonal to them, each column one weight solve warm-started
at the current weights, and the step is the min-norm least-squares solution
of J s = r in that basis.  No site is pinned, and no step moves along the
gauge.  A step is halved until |r| drops; when even a sixteenth of it
does not, the linear model is poor there (a fold of the perimeter map, or a
long crawl) and the search restarts from the next seeded random draw of
sites.  The draws are isotropic Gaussian clouds about the centroid: by the
gauge only the shape of a cloud matters, and clouds stretched like the
polygon (uniform draws inside it) mostly put the walls across its long
axis, which on elongated polygons leads nearly every start into the same
fold.  Sites may leave the polygon during the iteration, and many solutions
have sites outside it.  The best configuration wins; ties keep the earliest
start.  Its diagram is the one its weight solve converged on: nothing is
solved or built again.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .geometry import ConvexPolygon, check_cell_area
from .powerdiagram import PowerDiagram, Sites, perimeter_spread
from .weights import WeightSolveError, check_tol, solve_equal_measure_weights


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
    out for doubles fail their weight solve, a failed evaluation.  Jacobians
    are differenced with steps of 1e-7 of the polygon's diameter, so the
    coordinates must resolve that much for the search to converge.
    """
    check_tol(tol)
    if n < 2:
        raise ValueError("need n >= 2")
    check_cell_area(polygon, n)
    bb = polygon.bbox
    diam = ((bb[2] - bb[0]) ** 2 + (bb[3] - bb[1]) ** 2) ** 0.5
    h = 1e-7 * diam
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

    def gauss_newton_step(x, r, w):
        # sites after a backtracked min-norm step and their evaluation, which
        # is None when a Jacobian column or every trial step fails
        Q = _gauge_complement(x)
        J = np.empty((n, Q.shape[1]))
        for k in range(Q.shape[1]):
            col = evaluate(x + h * Q[:, k].reshape(n, 2), w)
            if col is None:
                return x, None
            J[:, k] = (col[0] - r) / h
        # r sums to zero, so its last row only adds rounding, which the
        # least-squares solve would amplify into a spurious step
        step = (Q @ np.linalg.lstsq(J[:-1], r[:-1], rcond=None)[0]).reshape(n, 2)
        norm = np.linalg.norm(r)
        t = 1.0
        while t >= 1.0 / 16.0:
            trial = evaluate(x - t * step, w)
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
            x, got = gauss_newton_step(x, r, diag.weights)

    spread, diag, start = best
    if diag is None:
        raise EqualizeError("no equal-area diagram in %d weight solves" % evals)
    return EqualizeResult(diagram=diag, converged=spread <= tol,
                          evaluations=evals, start_index=start)
