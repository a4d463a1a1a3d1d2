"""Shared helpers for the test suite: poset property checks, random convex
polygon generation, rigid-motion utilities, the all-pairs power diagram
that the clip-skipping build must reproduce bit for bit, with the full
per-row threshold sort (`reach_rows`) that its partial rows must match, the
index-order build that it must agree with to rounding, and the forward witness
construction that the backward pass must reproduce.

It also holds scalar oracles for the cell complex, written apart from the
library's row-wise code: `governing_row` and `cond_pair`, the pairwise face
criterion one label pair at a time; `facet_incidence_vector`, a facet's
ridge classes read off stored poset covers, each class by
`ridge_orbit_index`, the position of the ridge's one lowered separator;
and `ridge_cells`, the ridges picked out of all enumerated labels.

The all-facet oracles check the S_n-orbit argument behind the library's
one-facet incidence: `top_cells` lists all n! facets,
`all_facet_class_counts` counts the ridge classes of every facet, each
ridge confirmed by the face test facet by facet, and `facet_coboundaries`
evaluates a cochain's coboundary on every facet from those counts."""

from itertools import permutations
from math import dist

import numpy as np
from scipy.spatial import ConvexHull

from equicell import (CellLabel, ConvexPolygon, InvalidLabelError, KIND_COMPLEMENT,
                      PowerDiagram, enumerate_labels)
from equicell.geometry import (AREA_EPS, _merge_close, clip_tagged, polygon_area,
                               polygon_perimeter)
from equicell.obstruction import _extended_gcd
from equicell.poset import boundary, cond_rows, face_matrix, gov_rows
from equicell import powerdiagram
from equicell.powerdiagram import _as_site_tuple


def as_tuples(arr):
    """A poset's dims or covers array as the tuple of ints or of (lo, hi)
    pairs that the poset held before it held arrays."""
    return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())


def order_matrix(poset):
    """Reflexive boolean matrix L with L[i, j] = (element i <= element j)."""
    els = enumerate_labels(poset.d, poset.n, poset.kind)
    mat = face_matrix(els, els, poset.kind)
    np.fill_diagonal(mat, True)
    return mat


def governing_row(label):
    """Governing indices of a label, flattened: entry (a-1)*n + (b-1) is the
    least separator strictly between letters a and b when a precedes b in
    sigma, else 0.  A running minimum per letter, O(n^2) in all."""
    sigma, seps, n = label.sigma, label.seps, label.n
    gov = [0] * (n * n)
    for k in range(n):
        lo = None
        for m in range(k + 1, n):
            lo = seps[m - 1] if lo is None else min(lo, seps[m - 1])
            gov[(sigma[k] - 1) * n + sigma[m] - 1] = lo
    return tuple(gov)


def cond_pair(x, y):
    """cond(x, y): every pair of letters that x orders is ordered by y at
    least as tightly, or reversed in y strictly below x's separator."""
    n = x.n
    gx, gy = governing_row(x), governing_row(y)
    for a in range(n):
        for b in range(n):
            jx = gx[a * n + b]
            if jx == 0:
                continue
            jy, jyo = gy[a * n + b], gy[b * n + a]
            if not ((jy and jy <= jx) or (jyo and jyo < jx)):
                return False
    return True


def scalar_leq(poset, a, b):
    """Pairwise order via the scalar criterion (independent of face_matrix)."""
    if a == b:
        return True
    if poset.kind == KIND_COMPLEMENT:
        return cond_pair(b, a)
    return cond_pair(a, b)


def ridge_cells(d, n):
    """All ridges (one separator d-1, the rest d), lexicographic (sigma, seps)."""
    return [lab for lab in enumerate_labels(d, n) if sum(lab.seps) == d * (n - 1) - 1]


def top_cells(d, n):
    """All facets (every separator equal to d), in lexicographic sigma order."""
    return [CellLabel(sigma, (d,) * (n - 1), d)
            for sigma in permutations(range(1, n + 1))]


def all_facet_class_counts(d, n, boundary=boundary):
    """Matrix (facets x classes) counting the boundary ridges of every facet,
    rows in `top_cells` order.  The faces of the identity facet are applied
    to all n! facets as position maps, and a ridge counts only once the face
    test confirms, facet by facet, that it lies in the facet."""
    top = (d,) * (n - 1)
    facets = np.array([lab.sigma + lab.seps for lab in top_cells(d, n)])
    gov = gov_rows(facets)
    counts = np.zeros((len(facets), n - 1), dtype=np.int64)
    for places, seps in boundary(tuple(range(1, n + 1)), top):
        if sum(seps) != len(seps) * d - 1:
            continue  # not one dimension down: no ridge
        cls = seps.index(d - 1)  # the one separator the move lowered
        ridges = np.column_stack([facets[:, np.array(places) - 1],
                                  np.tile(np.array(seps, facets.dtype), (len(facets), 1))])
        counts[:, cls] += cond_rows(gov, gov_rows(ridges))
    return counts


def facet_coboundaries(d, n, cochain):
    """The coboundary of a ridge-class cochain on each facet, keyed by facet:
    `all_facet_class_counts` times the class values, in exact ints."""
    counts = all_facet_class_counts(d, n).astype(object)
    return dict(zip(top_cells(d, n), counts @ cochain.values))


def ridge_orbit_index(ridge: CellLabel) -> int:
    """Class index of a ridge: the position (1-based) of its lone d-1 separator."""
    d = ridge.d
    if d < 2:
        raise InvalidLabelError("ridges need d >= 2")
    if not ridge.is_cell:
        raise InvalidLabelError("not a cell label")
    low = [k for k, s in enumerate(ridge.seps) if s == d - 1]
    rest_ok = all(s == d for k, s in enumerate(ridge.seps) if k not in low)
    if len(low) != 1 or not rest_ok:
        raise InvalidLabelError("label %s is not one dimension below the top" % ridge)
    return low[0] + 1


def facet_incidence_vector(facet, poset):
    """Count boundary ridges of a facet by class, read off the poset covers."""
    n = facet.n
    top = np.flatnonzero(poset.dims == (facet.d - 1) * (n - 1))
    i = top[(poset.labels[top] == facet.sigma + facet.seps).all(axis=1)]
    if poset.kind != KIND_COMPLEMENT or len(i) != 1:
        raise ValueError("expected a top cell of a cell-kind poset")
    counts = [0] * (n - 1)
    lower = np.flatnonzero(poset.covers[:, 1] == i[0])
    for row in poset.labels[poset.covers[lower, 0]].tolist():
        counts[ridge_orbit_index(CellLabel(row[:n], row[n:], facet.d)) - 1] += 1
    return tuple(counts)


def check_partial_order(poset, sample_rng=None):
    """Assert reflexivity, antisymmetry, transitivity, dimension monotonicity.

    Runs on the full vectorized order matrix, cross-checked against the
    scalar predicate on a random sample of pairs.
    """
    mat = order_matrix(poset)
    els = enumerate_labels(poset.d, poset.n, poset.kind)
    size = len(els)
    # reflexivity comes through the scalar predicate as well
    for lab in els:
        assert scalar_leq(poset, lab, lab)
    both = mat & mat.T
    assert not (both & ~np.eye(size, dtype=bool)).any(), "antisymmetry failed"
    closure = (mat.astype(np.int64) @ mat.astype(np.int64)) > 0
    assert not (closure & ~mat).any(), "transitivity failed"
    dims = np.array(poset.dims)
    strict = mat & ~np.eye(size, dtype=bool)
    lo_idx, hi_idx = np.nonzero(strict)
    assert (dims[lo_idx] < dims[hi_idx]).all(), "dimension monotonicity failed"
    rng = sample_rng or np.random.default_rng(0)
    for _ in range(min(200, size * size)):
        i = int(rng.integers(size))
        j = int(rng.integers(size))
        want = scalar_leq(poset, els[i], els[j])
        assert bool(mat[i, j]) == want, f"matrix/scalar mismatch at ({i},{j})"


def check_diamond(poset):
    """Assert every closed interval of length 2 has exactly 2 midpoints."""
    mat = order_matrix(poset)
    size = len(poset.labels)
    dims = np.array(poset.dims)
    strict = mat & ~np.eye(size, dtype=bool)
    checked = 0
    for i in range(size):
        for j in range(size):
            if strict[i, j] and dims[j] == dims[i] + 2:
                mids = int(np.count_nonzero(strict[i] & strict[:, j]))
                assert mids == 2, f"interval ({i},{j}) has {mids} midpoints"
                checked += 1
    assert checked > 0
    return checked


def random_convex_polygon(rng, points=10, scale=1.0, offset=(0.0, 0.0)):
    """Convex hull of random points, returned as a ccw ConvexPolygon."""
    pts = rng.random((points, 2)) * scale + np.asarray(offset, dtype=float)
    hull = ConvexHull(pts)
    verts = [tuple(pts[i]) for i in hull.vertices]  # ccw for 2-D hulls
    return ConvexPolygon(tuple(verts))


def boundary_distance(polygon, p):
    """Distance from an interior point p = (x, y) to the polygon boundary
    (negative outside); x and y may also be arrays, one entry per point."""
    verts = polygon.vertices
    m = len(verts)
    best = np.inf
    for i in range(m):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % m]
        edge = np.hypot(x1 - x0, y1 - y0)
        cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
        best = np.minimum(best, cross / edge)
    return best


def random_sites_inside(rng, polygon, n, margin=0.03):
    """n distinct random points inside the polygon via rejection sampling.

    The boundary margin halves whenever draws starve, so thin polygons still
    terminate.  Sites are at least 1e-3 * sqrt(area) apart, which scales
    with the polygon.
    """
    x0, y0, x1, y1 = polygon.bbox
    floor = margin * np.sqrt(polygon.area)
    apart = 1e-6 * polygon.area
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries % 2000 == 0:
            floor *= 0.5
        p = (float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
        if boundary_distance(polygon, p) < floor:
            continue
        if any((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 < apart for q in out):
            continue
        out.append(p)
    return tuple(out)


def jittered_grid_sites(rng, polygon, n):
    """n points inside the polygon, one uniform point in each of n cells of
    a k x k grid over its bounding box, taken in random order (k grows until
    n of them fall inside): evenly spread, like a solved partition's sites."""
    x0, y0, x1, y1 = polygon.bbox
    k = int(np.sqrt(n - 1)) + 1
    while True:
        cells = rng.permutation(k * k)
        jitter = rng.random((k * k, 2))
        out = []
        for c, (u, v) in zip(cells, jitter):
            p = (x0 + (c // k + u) * (x1 - x0) / k, y0 + (c % k + v) * (y1 - y0) / k)
            if boundary_distance(polygon, p) > 0:
                out.append(p)
                if len(out) == n:
                    return tuple(out)
        k += 1


def coincident_pair(points):
    """The first pair (i, j), i < j, of points closer than 1e-12, found by
    testing every pair in index order; None when there is none.  Sites
    must reject exactly these point sets and name this pair."""
    m = len(points)
    for i in range(m):
        for j in range(i + 1, m):
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            if dx * dx + dy * dy < 1e-24:
                return i, j
    return None


def x_order_coincident_pair(points):
    """coincident_pair by the scan Sites ran before it cut the x order into
    runs: in x order, each point meets the next ones only while the x gap
    allows, so it is quadratic on a vertical line."""
    m = len(points)
    order = sorted(range(m), key=lambda k: points[k][0])
    close = []
    for a, i in enumerate(order):
        xi, yi = points[i]
        for b in range(a + 1, m):
            j = order[b]
            dx, dy = xi - points[j][0], yi - points[j][1]
            if dx * dx >= 1e-24:
                break
            if dx * dx + dy * dy < 1e-24:
                close.append((min(i, j), max(i, j)))
    return min(close) if close else None


def rigid_motion(angle, shift):
    """Return a point map applying rotation by angle then translation."""
    c, s = np.cos(angle), np.sin(angle)

    def move(p):
        x, y = p
        return (c * x - s * y + shift[0], s * x + c * y + shift[1])

    return move


def vertex_set_close(poly_a, poly_b, tol):
    """True when two polygons have the same vertex set within tol."""
    va = list(poly_a.vertices)
    vb = list(poly_b.vertices)
    if len(va) != len(vb):
        return False
    used = [False] * len(vb)
    for p in va:
        hit = False
        for k, q in enumerate(vb):
            if used[k]:
                continue
            if abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol:
                used[k] = True
                hit = True
                break
        if not hit:
            return False
    return True


UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
UNIT_TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3.0) / 2)))


def area_residual(diagram):
    """max |1/n - area_i / A|, the share residual the weight solve drives
    below its tol, as the solve computes it."""
    frac = np.array(diagram.areas) / diagram.polygon.area
    return float(np.abs(1.0 / diagram.n - frac).max())


def clip_every_time(pts, tags, a, c, new_tag):
    """clip_tagged without its shortcut for a half-plane holding every vertex:
    the result is always rebuilt, merged and re-measured."""
    ax, ay = a
    m = len(pts)
    if m == 0:
        return [], []
    scale = abs(ax) + abs(ay)
    out_p, out_t = [], []
    sides = [ax * p[0] + ay * p[1] - c for p in pts]
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
                t = 0.0 if t < 0.0 else 1.0
            ip = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            out_p.append(ip)
            out_t.append(new_tag if p_in else tp)
    out_p, out_t = _merge_close(out_p, out_t)
    if len(out_p) < 3 or polygon_area(out_p) < AREA_EPS:
        return [], []
    return out_p, out_t


def reach_rows(pts, wvals):
    """Yield per site i the sites j in the order the build clips them, with
    their skip thresholds: the full rows the build's heads and tails must
    reproduce.  Per 32 rows of the threshold matrix, computed with the
    build's formula, a stable argsort orders each whole row by threshold,
    ties by index; t_i is +inf and a NaN threshold becomes -inf.  Below
    powerdiagram.SKIP_FROM sites the row is the other sites in index order,
    each with threshold -inf."""
    m = len(pts)
    if m < powerdiagram.SKIP_FROM:
        for i in range(m):
            yield [*range(i), *range(i + 1, m)], [-np.inf] * (m - 1)
        return
    xy = np.array(pts)
    x, y = xy[:, 0], xy[:, 1]
    w = np.array(wvals)
    with np.errstate(all="ignore"):
        own = x * x + y * y + np.abs(w)
    for lo in range(0, m, 32):
        blk = slice(lo, lo + 32)
        bx, by = x[blk, None], y[blk, None]
        with np.errstate(all="ignore"):
            d2 = (x - bx) ** 2 + (y - by) ** 2
            margin = powerdiagram.SKIP_MARGIN * (d2 + own[blk, None] + own)
            num = d2 - (w - w[blk, None]) - margin
            den = 2.0 * np.sqrt(d2)
            reach = np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0.0)
        reach[np.isnan(reach)] = -np.inf
        order = np.argsort(reach, axis=1, kind="stable")
        yield from zip(order.tolist(), np.take_along_axis(reach, order, 1).tolist())


def _reference_diagram(polygon, sites, weights, clip_cell) -> PowerDiagram:
    """The diagram whose cell i is clip_cell(i, order, reach, start, r,
    halfplane), as (points, tags), measured with the geometry module's own
    functions.  order and reach are cell i's row of reach_rows, start is the
    polygon with its edge tags, r(points) is the largest distance from site
    i to a point, and halfplane(j) gives the (a, c) that the build clips with against site j.
    Like the build, it clips in the frame of the polygon's first vertex and
    keeps the outlines there; each cell, moved back, must pass ConvexPolygon's
    validation unchanged."""
    sts = _as_site_tuple(sites)
    ox, oy = polygon.vertices[0]
    pts = [(x - ox, y - oy) for x, y in sts.points]
    wvals = (0.0,) * len(pts) if weights is None else tuple(float(v) for v in weights)
    start = (list(polygon.local), [-(e + 1) for e in range(len(polygon.vertices))])

    outlines = []
    areas = []
    perims = []
    edge_tags = []
    for i, (order, reach) in enumerate(reach_rows(pts, wvals)):
        xi, yi = pts[i]
        qi = xi * xi + yi * yi

        def halfplane(j):
            xj, yj = pts[j]
            return ((2.0 * (xj - xi), 2.0 * (yj - yi)),
                    xj * xj + yj * yj - qi - wvals[j] + wvals[i])

        def r(cpts):
            return max(dist(p, pts[i]) for p in cpts)

        cpts, ctags = clip_cell(i, order, reach, start, r, halfplane)
        if cpts:
            # a clipped cell moved back passes validation unchanged
            cell = tuple((x + ox, y + oy) for x, y in cpts)
            assert ConvexPolygon(cell).vertices == cell
        outlines.append(tuple(cpts))
        areas.append(polygon_area(cpts))
        perims.append(polygon_perimeter(cpts))
        edge_tags.append(tuple(ctags))
    return PowerDiagram(polygon=polygon, sites=sts, weights=wvals,
                        outlines=tuple(outlines), areas=tuple(areas),
                        perimeters=tuple(perims), edge_tags=tuple(edge_tags))


def all_pairs_power_diagram(polygon, sites, weights=None) -> PowerDiagram:
    """Reference build: every cell clipped by clip_every_time against all
    other sites, skipping none, in the order the build visits them
    (ascending skip threshold), so its cells must equal the build's bit for
    bit."""

    def clip_cell(i, order, reach, start, r, halfplane):
        cpts, ctags = start
        for j in order:
            if j == i or not cpts:
                continue
            cpts, ctags = clip_every_time(cpts, ctags, *halfplane(j), j)
        return cpts, ctags

    return _reference_diagram(polygon, sites, weights, clip_cell)


def index_order_power_diagram(polygon, sites, weights=None) -> PowerDiagram:
    """The build as it clipped before it sorted by threshold: each cell cut
    by clip_tagged against the sites in index order, skipping site j while
    every vertex lies within R < t_j of the own site, but never stopping
    early.  Its cells may differ from the build's in the last bits only."""

    def clip_cell(i, order, reach, start, r, halfplane):
        t = dict(zip(order, reach))
        cpts, ctags = start
        radius = r(cpts)
        for j in sorted(order):
            if radius < t[j]:
                continue
            npts, ctags = clip_tagged(cpts, ctags, *halfplane(j), j)
            if npts is not cpts:
                cpts = npts
                if not cpts:
                    break
                radius = r(cpts)
        return cpts, ctags

    return _reference_diagram(polygon, sites, weights, clip_cell)


def forward_witness(n):
    """Witness values x_1..x_{n-1} with sum x_j C(n, j) = 1, built left to
    right: each extended-gcd step rescales every earlier coefficient by s_j
    and appends t_j.  Raises ValueError when n is a prime power."""
    coeffs = [1]
    g = c = n
    for j in range(2, n):
        if g == 1:
            coeffs.append(0)
            continue
        c = c * (n - j + 1) // j
        g, s, t = _extended_gcd(g, c)
        coeffs = [s * x for x in coeffs]
        coeffs.append(t)
    if g != 1:
        raise ValueError("no witness: gcd of the binomial row is %d" % g)
    return tuple(coeffs)
