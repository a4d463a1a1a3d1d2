"""Additively weighted nearest-site decompositions of a convex polygon.

Cell i collects the points x with |x - x_i|^2 - w_i minimal.  Against site j
that is the half-plane 2 (x_j - x_i) . x <= |x_j|^2 - |x_i|^2 - w_j + w_i, so
each cell is an intersection of half-planes with the polygon and is computed
by iterated clipping against the other sites in turn.  Only weight
differences matter; shifting all weights by a constant leaves every cell
unchanged.  A build works relative to the polygon's first vertex, where x
and |x|^2 below are taken (see geometry.relative_to_first), and keeps each
cell in that frame, as it computed it.

Most of those clips leave the cell as it is, and the build skips the ones
that provably do.  Write d = |x_j - x_i| and let R bound the distance from x_i
to every vertex of the current cell.  A vertex x_i + u has the side value
2 (x_j - x_i) . u - d^2 + w_j - w_i <= d (2R - d) + w_j - w_i against site j,
so when d (d - 2R) exceeds w_j - w_i every vertex is inside, and clipping
returns the cell unchanged (clip_tagged returns its input when every side
value is <= 0).  The skip demands a margin of 1e-9 (d^2 + |x_i|^2 + |x_j|^2 +
|w_i| + |w_j|).  When it passes, 2 d R is below d^2 + |w_i| + |w_j|, so each
term of a side value is bounded by that sum and its rounding is below 2e-15
times it: a skipped clip is one whose computed side values would all have
been <= 0, and cells, areas and perimeters are exactly those of clipping
against every site in the same order.  R is measured from the
current vertices, so this holds however the cell was cut.  Per site the test
is R < t_j = (d^2 - (w_j - w_i) - margin) / (2 d), a threshold computed with
numpy for a block of sites at a time.  Each cell visits the sites in
ascending order of t_j and stops at the first t_j above R: R never grows, so
every later site is skipped by the same test.  The nearest walls cut first,
and at n = 300 about 9 (no weights) to 10-14 (equal-area weights) of 299
clips per cell remain, against 42 to 60 in index order.  The order depends
only on the sites and weights, so they reproduce a diagram bit for bit.
What stays O(n^2) is the numpy thresholds and their per-row sort.  Below
SKIP_FROM sites every cell is clipped against every other site in index
order: timed on three polygons with zero and with equal-area weights (2
cores, CPython 3.11), the threshold build took 1.1-1.4 times as long at 6
sites, broke even at 9-11, and took at most 0.95 times as long from 12
sites on (0.4-0.5 at 31).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import dist, floor, inf, isfinite

import numpy as np

from .geometry import ConvexPolygon, clip_tagged, polygon_area, polygon_perimeter

SKIP_MARGIN = 1e-9   # relative slack of the skip test, far above its rounding
SKIP_FROM = 12       # fewer sites: thresholds save no time over index order
_BLOCK = 32          # sites per numpy block of skip thresholds


def _cell(c):
    """A coordinate's cell in a grid of spacing 2^-39 (about 1.8e-12).  A
    float of size 2^14 or more is 2^-39 or more from every other float, so
    there a coordinate is its own cell: sites closer than 1e-12 share it."""
    return floor(c * 2**39) if -2**14 < c < 2**14 else c


@dataclass(frozen=True)
class Sites:
    """Pairwise distinct planar points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("need at least one site")
        if not all(isfinite(x) and isfinite(y) for x, y in pts):
            raise ValueError("sites must be finite")
        # sites closer than 1e-12 coincide.  They are joined by steps below
        # 1e-12 in the x order, and lie in the same or adjacent cells of a
        # 2^-39 grid (_cell).  The least pair is the first site with a close
        # neighbour, with its least one.  A site without one is 1e-12 from
        # every other, so few such sites meet any cell: the scan is linear.
        order = sorted(range(len(pts)), key=lambda k: pts[k][0])
        xs = [pts[k][0] for k in order]
        near = {order[e + s] for e, (u, v) in enumerate(zip(xs, xs[1:]))
                if (v - u) * (v - u) < 1e-24 for s in (0, 1)}
        if not near:
            return
        grid = {}
        for k in near:
            grid.setdefault((_cell(pts[k][0]), _cell(pts[k][1])), []).append(k)
        for i in sorted(near):
            xi, yi = pts[i]
            cx, cy = _cell(xi), _cell(yi)
            close = []
            for cell in product((cx - 1, cx, cx + 1), (cy - 1, cy, cy + 1)):
                for j in grid.get(cell, ()):
                    dx, dy = xi - pts[j][0], yi - pts[j][1]
                    if dx * dx + dy * dy < 1e-24 and j != i:
                        close.append(j)
            if close:
                raise ValueError("sites %d and %d coincide" % (i, min(close)))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class PowerDiagram:
    """Each cell once, as the build computed it, plus its measures.

    outlines[i] holds cell i's counterclockwise vertices relative to the
    polygon's first vertex; it is empty when cell i misses the polygon.
    edge_tags[i][e] names the line that edge e of cell i (from vertex e to
    vertex e + 1) lies on: the neighbour j across a wall, or -k - 1 for
    polygon edge k.  areas and perimeters are measured on the outlines, and
    cells[i] is outline i moved back to absolute coordinates, a tuple of
    (x, y) tuples, or None for an empty cell.
    """

    polygon: ConvexPolygon
    sites: Sites
    weights: tuple[float, ...]
    outlines: tuple[tuple[tuple[float, float], ...], ...]
    areas: tuple[float, ...]
    perimeters: tuple[float, ...]
    edge_tags: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def cells(self) -> tuple[tuple[tuple[float, float], ...] | None, ...]:
        ox, oy = self.polygon.vertices[0]
        return tuple(tuple((x + ox, y + oy) for x, y in pts) if pts else None
                     for pts in self.outlines)


def _as_site_tuple(sites) -> Sites:
    if isinstance(sites, Sites):
        return sites
    return Sites(tuple(sites))


def _reach_rows(pts, wvals):
    """Yield per site i the sites j to clip its cell against, in ascending
    order of their thresholds t_j, and those thresholds: site j cannot change
    a cell whose vertices all lie within R < t_j of x_i.  t_i is +inf, so the
    own site comes last and ends the row; a NaN threshold becomes -inf and
    never skips.  Below SKIP_FROM sites the row is the other sites in index
    order, each with threshold -inf."""
    m = len(pts)
    if m < SKIP_FROM:
        ts = [-inf] * (m - 1)
        for i in range(m):
            yield [*range(i), *range(i + 1, m)], ts
        return
    xy = np.array(pts)
    x, y = xy[:, 0], xy[:, 1]
    w = np.array(wvals)
    with np.errstate(all="ignore"):  # overflow gives inf or NaN thresholds
        own = x * x + y * y + np.abs(w)
    for lo in range(0, m, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        bx, by = x[blk, None], y[blk, None]
        with np.errstate(all="ignore"):
            d2 = (x - bx) ** 2 + (y - by) ** 2
            margin = SKIP_MARGIN * (d2 + own[blk, None] + own)
            num = d2 - (w - w[blk, None]) - margin
            den = 2.0 * np.sqrt(d2)
            reach = np.divide(num, den, out=np.full(num.shape, inf), where=den > 0.0)
        reach[np.isnan(reach)] = -inf
        order = np.argsort(reach, axis=1, kind="stable")
        yield from zip(order.tolist(), np.take_along_axis(reach, order, 1).tolist())


def power_diagram(polygon: ConvexPolygon, sites, weights=None) -> PowerDiagram:
    """Decompose the polygon by weighted nearest site.

    weights is None (all zero) or any float sequence, used as given (the
    decomposition only sees differences).
    """
    sts = _as_site_tuple(sites)
    m = len(sts)
    wvals = (0.0,) * m if weights is None else tuple(float(v) for v in weights)
    if len(wvals) != m:
        raise ValueError("need one weight per site")

    ox, oy = polygon.vertices[0]
    pts = [(x - ox, y - oy) for x, y in sts.points]
    base_pts = polygon.local
    base_tags = [-(e + 1) for e in range(len(base_pts))]

    outlines = []
    areas = []
    perims = []
    edge_tags = []
    for i, (order, reach) in enumerate(_reach_rows(pts, wvals)):
        site = pts[i]
        xi, yi = site
        qi = xi * xi + yi * yi
        cpts, ctags = base_pts, base_tags
        r, measured = inf, None  # R of `measured`, taken when a t_j > -inf needs it
        for j, t in zip(order, reach):
            if measured is not cpts and t > -inf:
                r, measured = max(dist(p, site) for p in cpts), cpts
            if r < t:  # R only shrinks, so every later site is out of reach
                break
            xj, yj = pts[j]
            a = (2.0 * (xj - xi), 2.0 * (yj - yi))
            c = xj * xj + yj * yj - qi - wvals[j] + wvals[i]
            npts, ctags = clip_tagged(cpts, ctags, a, c, j)
            if npts is not cpts:
                cpts = npts
                if not cpts:
                    break
        # an empty cell has no vertices or edges, area 0.0 and perimeter 0.0
        outlines.append(tuple(cpts))
        areas.append(polygon_area(cpts))
        perims.append(polygon_perimeter(cpts))
        edge_tags.append(tuple(ctags))
    return PowerDiagram(polygon=polygon, sites=sts, weights=wvals,
                        outlines=tuple(outlines), areas=tuple(areas),
                        perimeters=tuple(perims), edge_tags=tuple(edge_tags))


def perimeter_spread(diagram: PowerDiagram) -> float:
    """max - min of cell perimeters; zero for a single cell."""
    if not all(diagram.outlines):
        raise ValueError("spread undefined: some cell is empty")
    return max(diagram.perimeters) - min(diagram.perimeters)

