"""Convex polygon primitives: shoelace area, perimeter, half-plane clipping."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import frexp, isfinite, ldexp

AREA_EPS = 1e-15    # clip results with less area than this count as empty
MERGE_EPS = 1e-12   # consecutive vertices closer than this are merged
EXTENT_HEADROOM = 1024.0   # squared extent kept this far below overflow, in the
                           # polygon's frame (see extent_overflows)


def polygon_area(pts) -> float:
    s = 0.0
    m = len(pts)
    for i in range(m):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % m]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def relative_to_first(pts) -> list[tuple[float, float]]:
    """The points less the first one.  Shoelace sums and the squared
    coordinates of a power-diagram build are taken in this frame, so their
    rounding follows the polygon's size, not its distance from the origin."""
    ox, oy = pts[0]
    return [(x - ox, y - oy) for x, y in pts]


def polygon_perimeter(pts) -> float:
    s = 0.0
    m = len(pts)
    for i in range(m):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % m]
        s += ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
    return s


def _merge_close(pts, tags, eps=MERGE_EPS):
    # drop vertices within eps of their predecessor (cyclically); the
    # surviving vertex keeps the leaving tag of the dropped one
    keep_pts, keep_tags = [], []
    for p, t in zip(pts, tags):
        if keep_pts:
            q = keep_pts[-1]
            if abs(p[0] - q[0]) <= eps and abs(p[1] - q[1]) <= eps:
                keep_tags[-1] = t
                continue
        keep_pts.append(p)
        keep_tags.append(t)
    # cyclic closure: last may coincide with first; its leaving edge is
    # degenerate, so its tag just drops
    while len(keep_pts) > 1 and (abs(keep_pts[-1][0] - keep_pts[0][0]) <= eps
                                 and abs(keep_pts[-1][1] - keep_pts[0][1]) <= eps):
        keep_pts.pop()
        keep_tags.pop()
    return keep_pts, keep_tags


def check_cell_area(polygon, n: int) -> None:
    """ValueError unless each of n equal cells of the polygon would have area
    above AREA_EPS, below which a clip counts as empty."""
    if polygon.area / n <= AREA_EPS:
        raise ValueError("each of n=%d cells would have area %.3g, not above"
                         " AREA_EPS = %g" % (n, polygon.area / n, AREA_EPS))


def extent_overflows(pts) -> bool:
    """Whether the box around pts has a squared diagonal less than
    EXTENT_HEADROOM times below overflow.  Inside a box that passes, areas,
    perimeters and every sum of squared coordinates and weights that a
    power-diagram build forms stay finite."""
    xs, ys = zip(*pts)
    dx, dy = max(xs) - min(xs), max(ys) - min(ys)
    return not isfinite(EXTENT_HEADROOM * (dx * dx + dy * dy))


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon of positive area with counterclockwise vertices (a clockwise
    list is reversed) whose extent from the first does not overflow (extent_overflows).

    Clipping may leave collinear triples of vertices; they are tolerated.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = [(float(x), float(y)) for x, y in self.vertices]
        if not all(isfinite(x) and isfinite(y) for x, y in pts):
            raise ValueError("vertices must be finite")
        if polygon_area(relative_to_first(pts)) < 0:
            pts.reverse()
        pts, _ = _merge_close(pts, [None] * len(pts))
        if len(pts) < 3:
            raise ValueError("need at least 3 distinct vertices")
        local = relative_to_first(pts)
        if polygon_area(local) <= AREA_EPS:
            raise ValueError("vertices must enclose positive area")
        scale = max(max(abs(x), abs(y)) for x, y in local)
        tol = 1e-9 * scale * scale
        m = len(local)
        for i in range(m):
            ax, ay = local[i]
            bx, by = local[(i + 1) % m]
            cx, cy = local[(i + 2) % m]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -tol:
                raise ValueError("vertices are not convex at index %d" % ((i + 1) % m))
        if extent_overflows(local):
            raise ValueError("extent of the input overflows")
        object.__setattr__(self, "vertices", tuple(pts))

    @cached_property
    def local(self) -> tuple[tuple[float, float], ...]:
        """The vertices relative to the first (see relative_to_first)."""
        return tuple(relative_to_first(self.vertices))

    @property
    def area(self) -> float:
        return polygon_area(self.local)

    @property
    def centroid(self) -> tuple[float, float]:
        # the moments are cubic in the coordinates, so they are taken on
        # local scaled by 2^-k to at most 1 in size, which is exact
        k = frexp(max(max(abs(x), abs(y)) for x, y in self.local))[1]
        pts = [(ldexp(x, -k), ldexp(y, -k)) for x, y in self.local]
        a2 = 0.0
        cx = cy = 0.0
        m = len(pts)
        for i in range(m):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % m]
            w = x0 * y1 - x1 * y0
            a2 += w
            cx += (x0 + x1) * w
            cy += (y0 + y1) * w
        ox, oy = self.vertices[0]
        return (ldexp(cx / (3.0 * a2), k) + ox, ldexp(cy / (3.0 * a2), k) + oy)

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))


def clip_tagged(pts, tags, a, c, new_tag):
    """Clip a tagged convex polygon to the half-plane a . x <= c.

    tags[i] labels the edge leaving pts[i]; cut edges get new_tag.  Returns
    (pts, tags), possibly empty.  pts must be merged and non-degenerate, as
    ConvexPolygon vertices and earlier results are: no vertex within
    MERGE_EPS of its predecessor and area at least AREA_EPS.  A half-plane
    that holds every vertex then returns the inputs themselves, which is what
    rebuilding, merging and re-measuring them would give.
    """
    ax, ay = a
    m = len(pts)
    sides = [ax * p[0] + ay * p[1] - c for p in pts]
    if max(sides, default=0.0) <= 0.0:
        return pts, tags
    scale = abs(ax) + abs(ay)
    out_p, out_t = [], []
    for i in range(m):
        p, sp, tp = pts[i], sides[i], tags[i]
        q, sq = pts[(i + 1) % m], sides[(i + 1) % m]
        eps = 1e-13 * scale * (1.0 + abs(p[0]) + abs(p[1]) + abs(q[0]) + abs(q[1]))
        p_in, q_in = sp <= eps, sq <= eps
        if p_in:
            out_p.append(p)
            out_t.append(tp)
        if p_in != q_in:
            t = sp / (sp - sq)
            if not 0.0 <= t <= 1.0:
                # both sides positive, one within eps: keep the point on the edge
                t = 0.0 if t < 0.0 else 1.0
            ip = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            out_p.append(ip)
            out_t.append(new_tag if p_in else tp)
    out_p, out_t = _merge_close(out_p, out_t)
    if len(out_p) < 3 or polygon_area(out_p) < AREA_EPS:
        return [], []
    return out_p, out_t
