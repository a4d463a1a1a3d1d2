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
Below SKIP_FROM sites every cell is clipped against every other site in
index order: timed on three polygons with zero and with equal-area weights
(2 cores, CPython 3.11), the threshold build took 1.1-1.4 times as long at
6 sites, broke even at 9-11, and took at most 0.95 times as long from 12
sites on (0.4-0.5 at 31).

The thresholds are computed per _BLOCK rows, and only a row's head is
sorted: np.partition finds its HEAD least (t_j, j), ties at the HEAD-th
threshold taken in index order, and a stable sort orders them.  A cell
that runs past its head has the rest of its row sorted then, which
continues the same order.

From LOCKSTEP_FROM sites on, all cells are clipped in lockstep, as padded
numpy arrays.  Round k retires each live cell whose R is below its k-th
threshold and cuts all others by their k-th site in one pass that does
clip_tagged's float operations in clip_tagged's order: side values,
per-edge eps, t = s_p / (s_p - s_q) clamped to [0, 1], p + t (q - p),
in-order compaction, and the sequential shoelace sum for the AREA_EPS test.
R is taken there in numpy, as the root of the largest squared distance,
which may be an ulp from math.dist's, or +inf where a square overflows.
But R only decides whether a clip is made: a larger R adds clips against
sites whose t_j is above the true R, an R an ulp smaller drops clips whose
t_j is within an ulp of it, and by the skip test's margin all of these
provably return the cell unchanged.  So outlines, edge tags, areas and
perimeters are bit for bit those of clipping one cell at a time.  The
one scalar loop, _clip_cell, takes every diagram below LOCKSTEP_FROM
sites, the cells still live once fewer than LOCKSTEP_FROM are, the cells
that run past their head, and the rare cut that would merge vertices
within MERGE_EPS or meets a non-finite side value (with a NaN among them,
clip_tagged's max depends on where it stands).  Timed on equal-area solves
on a pentagon (every build of two solves per size, 2 cores, CPython 3.11),
lockstep took 1.7, 1.27, 1.05 and 0.93 times as long as the scalar loop at
24, 32, 48 and 64 sites, 0.75 at 96 and 0.37 at 300: below about 64 live
cells a round costs more than clipping them one at a time.  With heads of
8, 16, 24, 32 and 48 entries an n = 300 build of the benchmark's solves
took 25, 16, 14, 13 and 13 ms: shorter heads send more cells to their
tails, and longer ones sort entries that no cell reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import dist, floor, inf, isfinite

import numpy as np

from .geometry import (AREA_EPS, MERGE_EPS, ConvexPolygon, clip_tagged, polygon_area,
                       polygon_perimeter)

SKIP_MARGIN = 1e-9   # relative slack of the skip test, far above its rounding
SKIP_FROM = 12       # fewer sites: thresholds save no time over index order
_BLOCK = 32          # sites per numpy block of skip thresholds
LOCKSTEP_FROM = 64   # fewer sites or live cells: clipped one at a time
HEAD = 32            # entries per row sorted before any cell reads them


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


class _Rows:
    """Per site i, the sites j in ascending order of (t_j, j), with their
    thresholds t_j: site j cannot change a cell whose vertices all lie
    within R < t_j of x_i.  t_i is +inf, so the own site ends the row, and a
    NaN threshold becomes -inf and never skips.  order and reach hold each
    row's head, its first HEAD entries, found per _BLOCK rows by
    np.partition and sorted alone; tails(rows) sorts the rest of rows."""

    def __init__(self, pts, wvals):
        m = len(pts)
        xy = np.array(pts)
        self.x, self.y, self.w = xy[:, 0], xy[:, 1], np.array(wvals)
        with np.errstate(all="ignore"):
            self.own = self.x * self.x + self.y * self.y + np.abs(self.w)
        k = min(HEAD, m)
        self.order = np.empty((m, k), dtype=np.intp)
        self.reach = np.empty((m, k))
        for lo in range(0, m, _BLOCK):
            t = self.thresholds(slice(lo, lo + _BLOCK))
            cols = np.broadcast_to(np.arange(m), t.shape)  # k = m: whole rows
            if k < m:
                kth = np.partition(t, k - 1, axis=1)[:, k - 1:k]
                head = t <= kth
                extra = head.sum(1, keepdims=True) - k
                if extra.any():  # ties at the k-th threshold join in index order
                    tie = t == kth
                    head &= ~tie | (np.cumsum(tie, 1) <= tie.sum(1, keepdims=True) - extra)
                cols = np.flatnonzero(head).reshape(-1, k) % m
                t = np.take_along_axis(t, cols, 1)
            by = np.argsort(t, axis=1, kind="stable")
            self.order[lo:lo + _BLOCK] = np.take_along_axis(cols, by, 1)
            self.reach[lo:lo + _BLOCK] = np.take_along_axis(t, by, 1)

    def thresholds(self, rows):
        """The rows (a slice or index array) of the threshold matrix."""
        x, y, w, own = self.x, self.y, self.w, self.own
        bx, by = x[rows, None], y[rows, None]
        with np.errstate(all="ignore"):  # overflow gives inf or NaN thresholds
            d2 = (x - bx) ** 2 + (y - by) ** 2
            margin = SKIP_MARGIN * (d2 + own[rows, None] + own)
            num = d2 - (w - w[rows, None]) - margin
            den = 2.0 * np.sqrt(d2)
            reach = np.divide(num, den, out=np.full(num.shape, inf), where=den > 0.0)
        reach[np.isnan(reach)] = -inf
        return reach

    def tails(self, rows):
        """Yield for each of rows an iterator over its (j, t_j) past the head."""
        k = self.order.shape[1]
        for lo in range(0, len(rows), _BLOCK):
            t = self.thresholds(np.array(rows[lo:lo + _BLOCK]))
            by = np.argsort(t, axis=1, kind="stable")[:, k:]
            yield from map(zip, by.tolist(), np.take_along_axis(t, by, 1).tolist())


def _clip_cell(pts, wvals, i, cpts, ctags, row):
    """Cell i, from the vertices cpts and edge tags ctags, clipped by
    clip_tagged against the sites of row, (j, t_j) pairs in threshold order,
    until the first t_j above R: R only shrinks, so every later site is out
    of reach.  Returns (vertices, tags, whether the cell is finished), which
    is false when the row ran out first."""
    site = pts[i]
    xi, yi = site
    qi = xi * xi + yi * yi
    r, measured = inf, None  # R of `measured`, taken when a t_j > -inf needs it
    for j, t in row:
        if measured is not cpts and t > -inf:
            r, measured = max(dist(p, site) for p in cpts), cpts
        if r < t:
            return cpts, ctags, True
        xj, yj = pts[j]
        a = (2.0 * (xj - xi), 2.0 * (yj - yi))
        c = xj * xj + yj * yj - qi - wvals[j] + wvals[i]
        npts, ctags = clip_tagged(cpts, ctags, a, c, j)
        if npts is not cpts:
            cpts = npts
            if not cpts:
                return cpts, ctags, True
    return cpts, ctags, False


def _slots(a, b):
    """(m, w) arrays a and b interleaved by column into one (m, 2w) array."""
    out = np.empty(a.shape + (2,), dtype=a.dtype)
    out[..., 0], out[..., 1] = a, b
    return out.reshape(len(a), -1)


def _cut(x, y, t, n, s, scale, j):
    """clip_tagged's cut of each row's cell: vertices x, y with edge tags t,
    the first n of each row valid, side values s, scale = |a_x| + |a_y| and
    new edges tagged j, in clip_tagged's float operations and order.
    Returns the cut cells as (x, y, t, n), whether a cut would merge
    vertices within MERGE_EPS, and whether it leaves fewer than 3 vertices
    or less area than AREA_EPS."""
    rr, col = np.arange(len(x))[:, None], np.arange(x.shape[1])
    nxt = np.where(col + 1 < n[:, None], col + 1, 0)
    qx, qy, qs = x[rr, nxt], y[rr, nxt], s[rr, nxt]
    eps = 1e-13 * scale[:, None] * (1.0 + np.abs(x) + np.abs(y) + np.abs(qx) + np.abs(qy))
    p_in, q_in = s <= eps, qs <= eps
    f = s / (s - qs)
    f = np.where(f < 0.0, 0.0, np.where(f <= 1.0, f, 1.0))
    # edge e fills slot 2e with its start if inside and slot 2e + 1 with its
    # crossing if any; the filled slots, in order, are the cut cell
    keep = _slots(p_in, p_in != q_in) & _slots(*(col < n[:, None],) * 2)
    n = keep.sum(1)
    width = max(n.max(), 1)
    key = ~keep + np.arange(0, 2 * len(x), 2)[:, None]
    by = np.argsort(key, None, kind="stable").reshape(keep.shape)[:, :width]
    x, y, t = (_slots(p, q).ravel()[by] for p, q in (
        (x, x + f * (qx - x)), (y, y + f * (qy - y)), (t, np.where(p_in, j[:, None], t))))
    col = np.arange(width)
    valid = col < n[:, None]
    nxt = np.where(col + 1 < n[:, None], col + 1, 0)
    qx, qy = x[rr, nxt], y[rr, nxt]
    merge = (valid & (np.abs(qx - x) <= MERGE_EPS) & (np.abs(qy - y) <= MERGE_EPS)).any(1)
    area = 0.5 * np.cumsum(np.where(valid, x * qy - qx * y, 0.0), 1)[:, -1]
    return x, y, t, n, merge, (n < 3) | (area < AREA_EPS)


@np.errstate(all="ignore")  # overflow and NaN rows are left to _clip_cell
def _lockstep(rows, base_pts, base_tags, cells):
    """Clip all cells at once, one numpy pass per round.  Round k retires the
    cells whose R is below their k-th threshold and cuts each other cell by
    its k-th site (_cut).  Puts each finished cell into cells as (vertices,
    tags) and returns (i, k, vertices, tags) for each cell that _clip_cell
    must go on with from entry k of its row: those live once the heads run
    out or fewer than LOCKSTEP_FROM are live, and those whose cut meets a
    non-finite side value or would merge vertices."""
    m, heads = rows.order.shape
    sx, sy, w = rows.x, rows.y, rows.w
    # round k's site, threshold and half-plane a . x <= c per cell
    J, TH, xj, yj = rows.order.T, rows.reach.T, sx[rows.order.T], sy[rows.order.T]
    AX, AY = 2.0 * (xj - sx), 2.0 * (yj - sy)
    C = xj * xj + yj * yj - (sx * sx + sy * sy) - w[J] + w
    X = np.tile([p[0] for p in base_pts], (m, 1))
    Y = np.tile([p[1] for p in base_pts], (m, 1))
    dx, dy = X - sx[:, None], Y - sy[:, None]
    # the live cells' indices, vertices, edge tags, vertex counts and R
    state = [np.arange(m), X, Y, np.tile(base_tags, (m, 1)), np.full(m, len(base_pts)),
             np.sqrt((dx * dx + dy * dy).max(1))]
    left = []

    def leave(out, k):  # out: 0 stays, 1 finished, 2 left to _clip_cell at k
        ids, X, Y, T, cnt, _ = state
        go = np.flatnonzero(out)
        if not len(go):
            return state
        for i, o, n, x, y, t in zip(ids[go].tolist(), out[go].tolist(), cnt[go].tolist(),
                                    X[go].tolist(), Y[go].tolist(), T[go].tolist()):
            cell = list(zip(x[:n], y[:n])), t[:n]
            if o == 1:
                cells[i] = cell
            else:
                left.append((i, k, *cell))
        stay = out == 0
        return [a[stay] for a in state]

    k = 0
    while k < heads and len(state[0]) >= LOCKSTEP_FROM:
        ids, X, Y, T, cnt, R = state
        out = (R < TH[k, ids]).astype(np.int8)
        j, ax, ay, c = J[k, ids], AX[k, ids], AY[k, ids], C[k, ids]
        valid = np.arange(X.shape[1]) < cnt[:, None]
        S = ax[:, None] * X + ay[:, None] * Y - c[:, None]
        out[(out == 0) & (valid & ~np.isfinite(S)).any(1)] = 2
        cut = np.flatnonzero((out == 0) & (valid & (S > 0.0)).any(1))
        if len(cut):
            x, y, t, n, merge, empty = _cut(X[cut], Y[cut], T[cut], cnt[cut], S[cut],
                                            np.abs(ax[cut]) + np.abs(ay[cut]), j[cut])
            width, fine = x.shape[1], ~merge
            if width > X.shape[1]:
                grow = ((0, 0), (0, width - X.shape[1]))
                X, Y, T = np.pad(X, grow), np.pad(Y, grow), np.pad(T, grow)
            ok = cut[fine]
            X[ok, :width], Y[ok, :width], T[ok, :width] = x[fine], y[fine], t[fine]
            cnt[ok] = np.where(empty, 0, n)[fine]
            dx, dy = x - sx[ids[cut], None], y - sy[ids[cut], None]
            R[cut] = np.sqrt(np.where(np.arange(width) < n[:, None], dx * dx + dy * dy,
                                      0.0).max(1))
            out[cut[merge]] = 2
            out[cut[empty & fine]] = 1
            state = [ids, X, Y, T, cnt, R]
        state = leave(out, k)
        k += 1
    leave(np.full(len(state[0]), 2), k)
    return left


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

    cells = [None] * m
    if m < SKIP_FROM:  # every other site in index order, never skipped
        ts = [-inf] * (m - 1)
        for i in range(m):
            row = zip([*range(i), *range(i + 1, m)], ts)
            cells[i] = _clip_cell(pts, wvals, i, base_pts, base_tags, row)
    else:
        rows = _Rows(pts, wvals)
        left = ([(i, 0, base_pts, base_tags) for i in range(m)] if m < LOCKSTEP_FROM
                else _lockstep(rows, base_pts, base_tags, cells))
        ids = [i for i, *_ in left]
        heads = zip(rows.order[ids].tolist(), rows.reach[ids].tolist())
        for (i, k, cpts, ctags), (order, reach) in zip(left, heads):
            cells[i] = _clip_cell(pts, wvals, i, cpts, ctags, zip(order[k:], reach[k:]))
        past = [i for i in ids if not cells[i][2]]
        for i, tail in zip(past, rows.tails(past)):
            cells[i] = _clip_cell(pts, wvals, i, *cells[i][:2], tail)

    # an empty cell has no vertices or edges, area 0.0 and perimeter 0.0
    outlines = tuple(tuple(cell[0]) for cell in cells)
    return PowerDiagram(polygon=polygon, sites=sts, weights=wvals, outlines=outlines,
                        areas=tuple(map(polygon_area, outlines)),
                        perimeters=tuple(map(polygon_perimeter, outlines)),
                        edge_tags=tuple(tuple(cell[1]) for cell in cells))


def perimeter_spread(diagram: PowerDiagram) -> float:
    """max - min of cell perimeters; zero for a single cell."""
    if not all(diagram.outlines):
        raise ValueError("spread undefined: some cell is empty")
    return max(diagram.perimeters) - min(diagram.perimeters)

