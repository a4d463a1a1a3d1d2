"""Additively weighted nearest-site decompositions of a convex polygon.

Cell i collects the points x with |x - x_i|^2 - w_i minimal.  Against site j
that is the half-plane 2 (x_j - x_i) . x <= |x_j|^2 - |x_i|^2 - w_j + w_i, so
each cell is an intersection of half-planes with the polygon and is computed
by iterated clipping.  Only weight differences matter; shifting all weights by
a constant leaves every cell unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .geometry import ConvexPolygon, clip_tagged, polygon_area, polygon_perimeter


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
        m = len(pts)
        for i in range(m):
            for j in range(i + 1, m):
                dx = pts[i][0] - pts[j][0]
                dy = pts[i][1] - pts[j][1]
                if dx * dx + dy * dy < 1e-24:
                    raise ValueError("sites %d and %d coincide" % (i, j))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class Weights:
    """Weight vector normalized to sum zero."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("need at least one weight")
        scale = 1.0 + max(abs(v) for v in vals)
        if abs(sum(vals)) > 1e-9 * len(vals) * scale:
            raise ValueError("weights must sum to zero; use Weights.normalized")

    @classmethod
    def normalized(cls, values) -> "Weights":
        vals = [float(v) for v in values]
        mean = sum(vals) / len(vals)
        return cls(tuple(v - mean for v in vals))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PowerDiagram:
    """The clipped cells plus their measures and pairwise interface lengths.

    cells[i] is None when cell i misses the polygon.  interfaces[i] lists
    (j, length) for the straight wall between cells i and j, as measured on
    cell i's boundary.
    """

    polygon: ConvexPolygon
    sites: Sites
    weights: tuple[float, ...]
    cells: tuple[ConvexPolygon | None, ...]
    areas: tuple[float, ...]
    perimeters: tuple[float, ...]
    interfaces: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n(self) -> int:
        return len(self.sites)


def _as_site_tuple(sites) -> Sites:
    if isinstance(sites, Sites):
        return sites
    return Sites(tuple(sites))


def power_diagram(polygon: ConvexPolygon, sites, weights=None) -> PowerDiagram:
    """Decompose the polygon by weighted nearest site.

    weights may be a Weights instance or any float sequence; values are used
    as given (the decomposition only sees differences).
    """
    sts = _as_site_tuple(sites)
    pts = sts.points
    m = len(pts)
    if weights is None:
        wvals = (0.0,) * m
    elif isinstance(weights, Weights):
        wvals = weights.values
    else:
        wvals = tuple(float(v) for v in weights)
    if len(wvals) != m:
        raise ValueError("need one weight per site")

    base_pts = list(polygon.vertices)
    base_tags = [-(e + 1) for e in range(len(base_pts))]

    cells = []
    areas = []
    perims = []
    interfaces = []
    for i in range(m):
        xi, yi = pts[i]
        qi = xi * xi + yi * yi
        cpts, ctags = base_pts, base_tags
        for j in range(m):
            if j == i or not cpts:
                continue
            xj, yj = pts[j]
            a = (2.0 * (xj - xi), 2.0 * (yj - yi))
            c = xj * xj + yj * yj - qi - wvals[j] + wvals[i]
            cpts, ctags = clip_tagged(cpts, ctags, a, c, j)
        if not cpts:
            cells.append(None)
            areas.append(0.0)
            perims.append(0.0)
            interfaces.append(())
            continue
        cells.append(ConvexPolygon(tuple(cpts)))
        areas.append(polygon_area(cpts))
        perims.append(polygon_perimeter(cpts))
        shared: dict[int, float] = {}
        k = len(cpts)
        for e in range(k):
            t = ctags[e]
            if t < 0:
                continue
            x0, y0 = cpts[e]
            x1, y1 = cpts[(e + 1) % k]
            shared[t] = shared.get(t, 0.0) + ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
        interfaces.append(tuple(sorted(shared.items())))
    return PowerDiagram(polygon=polygon, sites=sts, weights=wvals,
                        cells=tuple(cells), areas=tuple(areas),
                        perimeters=tuple(perims), interfaces=tuple(interfaces))


def perimeter_spread(diagram: PowerDiagram) -> float:
    """max - min of cell perimeters; zero for a single cell."""
    if diagram.n == 1:
        return 0.0
    if any(c is None for c in diagram.cells):
        raise ValueError("spread undefined: some cell is empty")
    return max(diagram.perimeters) - min(diagram.perimeters)


def point_cell_index(diagram: PowerDiagram, point) -> int:
    """Index of the cell owning a point; ties go to the lowest site index."""
    px, py = float(point[0]), float(point[1])
    best_i = 0
    best = None
    for i, (x, y) in enumerate(diagram.sites.points):
        v = (px - x) ** 2 + (py - y) ** 2 - diagram.weights[i]
        if best is None or v < best:
            best, best_i = v, i
    return best_i
