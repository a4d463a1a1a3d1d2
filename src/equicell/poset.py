"""Closure posets of labeled strata and of the compact cell complex.

Both face tests reduce to one pairwise criterion on governing indices.  Write
gov_X(a, b) = j when a precedes b in label X with smallest in-between separator
j.  Then "every point order that X forces is forced at least as strongly by Y"
reads: for all a, b with gov_X(a, b) = j', either gov_Y(a, b) <= j' or
gov_Y(b, a) < j'.  Call that cond(X, Y).

* stratification kind: fine lies in the closure of coarse iff cond(fine, coarse)
* cell (complement) kind: lower lies in the closed cell of upper iff
  cond(upper, lower)

The opposite argument order is not an accident: refining a stratum weakens
strict column comparisons into ties, while shrinking a cell strengthens the
separator a pair of points must realize.

Hence one boundary operator serves both kinds.  gov rows ignore d, so by
cond(fine, coarse) the strata whose closure holds a stratum are the faces of
its label read as a cell of the (d+1)-complex.  Stratum dimension
(d+1)(n-1) - sum(seps) falls as cell dimension sum(seps) - (n-1) rises, so
`boundary` lists a cell's lower covers and a stratum's upper covers.  Those
faces are normalized: a run of d+1 is only cut, at j = d+1, into single
letters kept in order.

The poset is built columnar.  Its labels are the rows (sigma, seps) of one
small-int array in lexicographic order, so with W separator words the label
(sigma, seps) has key lexrank(sigma) * W + rank(seps), which is its index for
cells; strata drop the rows that break the increasing-tie rule and are
numbered through the running count of the rows kept.  `boundary` depends on
sigma only through positions: the faces of (sigma, seps) read sigma through
the position maps that are the faces of (identity, seps).  So the covers of
all n! labels with one separator word come from applying each position map
to the whole permutation array and ranking the rows.  The face test runs the
same way, over gov rows built once per label by `_leq`: a word's running
minima between positions, scattered through sigma.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import factorial

import numpy as np

from .labels import CellLabel, InvalidLabelError

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV = "EQUICELL_BUDGET"

KIND_COMPLEMENT = "complement"
KIND_STRATIFICATION = "stratification"
_KINDS = (KIND_COMPLEMENT, KIND_STRATIFICATION)


class BudgetExceededError(RuntimeError):
    """Requested enumeration is larger than the configured budget."""


def resolve_budget(budget: int | None = None) -> int:
    """The budget: the argument, else EQUICELL_BUDGET, else the default.
    A negative budget is a ValueError."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise ValueError("bad %s value %r" % (BUDGET_ENV, env)) from None
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be non-negative, got %d" % budget)
    return budget


def _top(d: int, kind: str) -> int:
    # largest separator of the kind's labels
    return d if kind == KIND_COMPLEMENT else d + 1


def label_count(d: int, n: int, kind: str = KIND_COMPLEMENT) -> int:
    """Exact label count: n! d^(n-1) cells.  A stratum is an ordered
    partition of 1..n into k tied blocks, k! S(n, k) of them, with k - 1
    separators in 1..d between the blocks."""
    if kind == KIND_COMPLEMENT:
        return factorial(n) * d ** (n - 1)
    # onto[k] = k! S(m, k) after m passes: k ((k-1)! S(m-1, k-1) + k! S(m-1, k))
    onto = [1]
    for _ in range(n):
        onto = [0] + [k * (a + b)
                      for k, (a, b) in enumerate(zip(onto, onto[1:] + [0]), 1)]
    return sum(c * d ** (k - 1) for k, c in enumerate(onto) if k)


def charge(budget: int | None, task: str, unit: str, need: int | None = None) -> int:
    """The budget (see `resolve_budget`), once `need` `unit` fit in it.
    need=None, a count too large to form, never fits; `unit` alone names it."""
    limit = resolve_budget(budget)
    if need is None or need > limit:
        raise BudgetExceededError("%s needs %s, budget is %d" % (
            task, unit if need is None else "%d %s" % (need, unit), limit))
    return limit


def _check_budget(d, n, kind, budget) -> tuple[int, str]:
    """The budget and its task text, once the labels of (d, n, kind) fit in it."""
    limit = resolve_budget(budget)
    task = "enumeration of (d=%d, n=%d, %s)" % (d, n, kind)
    # labels >= n! d^(n-1) >= 2^((n-1) bitlen(d)) > budget: refuse unformed
    if (n - 1) * d.bit_length() >= limit.bit_length():
        charge(limit, task, ("" if kind == KIND_COMPLEMENT else "more than ")
               + "n! %d^(n-1) labels" % d)
    charge(limit, task, "labels", label_count(d, n, kind))
    return limit, task


def _check_args(d, n, kind):
    if kind not in _KINDS:
        raise ValueError("kind must be one of %r" % (_KINDS,))
    if d < 1 or n < 2:
        raise ValueError("need d >= 1 and n >= 2")


def is_face_stratification(coarse: CellLabel, fine: CellLabel) -> bool:
    """True when the stratum of `fine` lies in the closure of that of `coarse`."""
    return bool(_leq(KIND_STRATIFICATION, _rows([fine, coarse]), [0], [1])[0])


def is_face_complement(lower: CellLabel, upper: CellLabel) -> bool:
    """True when the cell of `lower` lies in the closed cell of `upper`."""
    rows = _rows([lower, upper])
    if not (lower.is_cell and upper.is_cell):
        raise InvalidLabelError("cell face test needs separators <= d")
    return bool(_leq(KIND_COMPLEMENT, rows, [0], [1])[0])


def _grid(d: int, n: int, kind: str):
    """The permutations of 1..n and the kind's separator words as arrays,
    both in lexicographic order, and the (n!, W) mask of the labels in which
    no tie, separator d+1, sits between decreasing letters."""
    dtype = np.min_scalar_type(max(n, d + 1))
    perms = np.array(list(permutations(range(1, n + 1))), dtype=dtype)
    words = np.array(list(product(range(1, _top(d, kind) + 1), repeat=n - 1)),
                     dtype=dtype)
    keep = ~((perms[:, :-1] > perms[:, 1:]) @ (words == d + 1).T)
    return perms, words, keep


def _label_rows(perms, words, keep) -> np.ndarray:
    """Label rows (sigma, seps) of every permutation with every word that
    keep admits, in lexicographic order."""
    i, j = np.nonzero(keep)
    return np.concatenate([perms[i], words[j]], axis=1)


def _lexrank(perms: np.ndarray) -> np.ndarray:
    """Rank of each row among the permutations of its letters, in
    lexicographic order: its Lehmer code read in the factorial base."""
    n = perms.shape[1]
    rank = np.zeros(len(perms), dtype=np.int64)
    for k in range(n - 1):
        rank = rank * (n - k) + (perms[:, k + 1:] < perms[:, k:k + 1]).sum(axis=1)
    return rank


def enumerate_labels(d: int, n: int, kind: str = KIND_COMPLEMENT,
                     budget: int | None = None) -> list[CellLabel]:
    """All labels of the given kind, ordered lexicographically by (sigma, seps)."""
    _check_args(d, n, kind)
    _check_budget(d, n, kind, budget)
    return [CellLabel(r[:n], r[n:], d) for r in _label_rows(*_grid(d, n, kind)).tolist()]


@dataclass(frozen=True, eq=False)
class FacePoset:
    """Graded face poset, held as the arrays `enumerate_cells` builds.

    labels has one row (sigma, seps) per element, in lexicographic order, the
    order in which `enumerate_labels` lists them as CellLabels; the int64
    dims holds the dimensions, so np.flatnonzero(dims == k) lists dimension k.
    covers is an (M, 2) int64 array of index pairs (lo, hi), sorted, with
    dim(hi) = dim(lo) + 1 and lo a face of hi: covers[covers[:, 1] == i, 0]
    are the lower covers of element i.
    """

    kind: str
    d: int
    n: int
    labels: np.ndarray
    dims: np.ndarray
    covers: np.ndarray

    def f_vector(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.dims).tolist())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector()))


def gov_rows(rows: np.ndarray) -> np.ndarray:
    """Governing indices of label rows (sigma, seps) as an (M, n, n) array:
    entry [k, m] of a row's position matrix, the least separator between
    positions k < m, lands at [sigma[k] - 1, sigma[m] - 1]."""
    n = (rows.shape[1] + 1) // 2
    sigma = rows[:, :n].astype(np.intp) - 1
    pos = np.zeros((len(rows), n, n), dtype=rows.dtype)
    for k in range(n - 1):
        pos[:, k, k + 1:] = np.minimum.accumulate(rows[:, n + k:], axis=1)
    gov = np.empty_like(pos)
    gov[np.arange(len(rows))[:, None, None], sigma[:, :, None], sigma[:, None, :]] = pos
    return gov


def cond_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cond(x, y) on gov arrays from `gov_rows`, broadcast over all but
    the last two axes."""
    yt = np.swapaxes(y, -1, -2)
    ok = (x == 0) | ((y > 0) & (y <= x)) | ((yt > 0) & (yt < x))
    return ok.all(axis=(-2, -1))


def _rows(labels) -> np.ndarray:
    """The rows (sigma, seps) of a nonempty list of CellLabels as one
    small-int array; InvalidLabelError unless they share one (d, n)."""
    d, n = labels[0].d, labels[0].n
    if any(lab.d != d or lab.n != n for lab in labels):
        raise InvalidLabelError("labels live on different (d, n)")
    return np.array([lab.sigma + lab.seps for lab in labels],
                    dtype=np.min_scalar_type(max(n, d + 1)))


def face_matrix(lowers, uppers, kind: str) -> np.ndarray:
    """Boolean matrix F with F[i, j] = (lowers[i] is a face of uppers[j]),
    from `_leq` on every index pair."""
    if not lowers or not uppers:
        return np.zeros((len(lowers), len(uppers)), dtype=bool)
    i, j = np.divmod(np.arange(len(lowers) * len(uppers)), len(uppers))
    return _leq(kind, _rows([*lowers, *uppers]), i,
                len(lowers) + j).reshape(len(lowers), len(uppers))


def _leq(kind: str, rows: np.ndarray, lower, upper, chunk: int = 1 << 15) -> np.ndarray:
    """For each i, whether label row rows[lower[i]] lies in the closure of
    rows[upper[i]], from gov arrays built once per row; both loops take `chunk`
    rows or index pairs at a time to bound their temporaries."""
    gov = np.empty((len(rows),) + (rows.shape[1] // 2 + 1,) * 2, dtype=rows.dtype)
    for s in range(0, len(rows), chunk):
        gov[s:s + chunk] = gov_rows(rows[s:s + chunk])
    out = np.empty(len(lower), dtype=bool)
    for s in range(0, len(lower), chunk):
        lo, hi = gov[lower[s:s + chunk]], gov[upper[s:s + chunk]]
        out[s:s + chunk] = (cond_rows(hi, lo) if kind == KIND_COMPLEMENT
                            else cond_rows(lo, hi))
    return out


def _moves(seps) -> list:
    """The faces of `boundary` for the separator word seps, as pairs
    (places, face seps), where places lists the 0-based positions in sigma
    of the face's letters."""
    n = len(seps) + 1
    moves = []
    for j in sorted(set(seps) - {1}):
        ends = [k + 1 for k in range(n - 1) if seps[k] < j] + [n]
        for lo, hi in zip([0] + ends, ends):
            # letters lo..hi-1 span a maximal run of gaps >= j
            cuts = [lo] + [k + 1 for k in range(lo, hi - 1) if seps[k] == j] + [hi]
            blocks = [(tuple(range(a, b)), seps[a:b - 1]) for a, b in zip(cuts, cuts[1:])]
            for mask in range(1, 2 ** len(blocks) - 1):
                front = [blk for i, blk in enumerate(blocks) if mask >> i & 1]
                back = [blk for i, blk in enumerate(blocks) if not mask >> i & 1]
                places, gaps = tuple(range(lo)), seps[:lo]
                for pos, (block_places, block_gaps) in enumerate(front + back):
                    if pos:
                        gaps += (j - 1 if pos == len(front) else j,)
                    places += block_places
                    gaps += block_gaps
                moves.append((places + tuple(range(hi, n)), gaps + seps[hi - 1:]))
    return moves


def boundary(sigma, seps) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Lower covers of the complement-kind cell (sigma, seps), as (sigma, seps).

    For each j >= 2, every maximal run of gaps whose separators are all >= j
    is cut at its j-gaps into blocks.  Each proper nonempty subset of the
    blocks moves, in order, in front of the rest across a new separator j-1;
    the blocks on either side stay joined by j.  For a facet these are the
    C(n, i) unshuffles with the lowered separator in gap i.
    """
    return [(tuple(sigma[p] for p in places), gaps)
            for places, gaps in _moves(tuple(seps))]


def _covers(perms, words, keep, up: bool) -> np.ndarray:
    """Covering pairs (lo, hi), sorted, of the labels of `_label_rows`: each
    label's `boundary` faces are its lower covers, or its upper covers when
    `up`.  The faces' position maps from `_moves` are each applied to all
    permutations at once and ranked, once per distinct map.  A label
    has index `number` at its key lexrank(sigma) * W + rank(seps)."""
    width = len(words)
    word_rank = {w: i for i, w in enumerate(map(tuple, words.tolist()))}
    number = np.cumsum(keep.ravel()) - 1
    base = np.arange(len(perms), dtype=np.int64) * width
    ranks = {}
    ends = ([], [])
    for i, word in enumerate(word_rank):
        rows = keep[:, i]
        labels = number[base[rows] + i]
        for places, face in _moves(word):
            if places not in ranks:
                ranks[places] = _lexrank(perms[:, places]) * width
            faces = number[ranks[places][rows] + word_rank[face]]
            ends[0].append(labels if up else faces)
            ends[1].append(faces if up else labels)
    if not ends[0]:
        return np.zeros((0, 2), dtype=np.int64)
    count = int(number[-1]) + 1
    key = np.concatenate(ends[0]) * count + np.concatenate(ends[1])
    key.sort()
    return np.stack(np.divmod(key, count), axis=1)


def enumerate_cells(d: int, n: int, kind: str = KIND_COMPLEMENT,
                    budget: int | None = None) -> FacePoset:
    """Build the full graded poset with covering relations.

    Both kinds take their covers from `boundary`: the faces it lists are a
    cell's lower covers and a stratum's upper covers (see the module
    docstring).  The budget bounds the labels and, counted on their grid, the covers.
    """
    _check_args(d, n, kind)
    limit, task = _check_budget(d, n, kind, budget)
    perms, words, keep = _grid(d, n, kind)
    charge(limit, task, "covers",
           int(keep.sum(axis=0) @ [_cover_count(w) for w in map(tuple, words.tolist())]))
    labels = _label_rows(perms, words, keep)
    total = labels[:, n:].sum(axis=1, dtype=np.int64)
    dims = total - (n - 1) if kind == KIND_COMPLEMENT else (d + 1) * (n - 1) - total
    covers = _covers(perms, words, keep, up=kind == KIND_STRATIFICATION)
    return FacePoset(kind=kind, d=d, n=n, labels=labels, dims=dims, covers=covers)


def _cover_count(seps) -> int:
    """Closed form of len(boundary(sigma, seps)): every maximal run of gaps
    >= j, for j >= 2, cut at its j-gaps into b blocks gives 2**b - 2 faces."""
    total = 0
    for j in set(seps) - {1}:
        blocks = 1
        for s in seps + (0,):
            if s >= j:
                blocks += s == j
            else:
                total += 2 ** blocks - 2
                blocks = 1
    return total


def validate_covers(poset: FacePoset) -> None:
    """Check the stored covering pairs locally, independently of `boundary`.

    Raises ValueError if a pair is stored twice, is not one dimension apart
    or fails the face test; if an element has other than `_cover_count(seps)`
    covers below it (cells) or above it (strata); or if an interval of length
    two through stored covers has other than two middle elements.  Passing
    pairs are true covers, so the counts show none is missing.  Nothing can
    lie strictly between a face pair one dimension apart, as dimension grows
    strictly along the order, so that goes unscanned.
    """
    labels, dims, size = poset.labels, poset.dims, len(poset.labels)
    lo, hi = poset.covers.T
    key = np.sort(lo * size + hi)
    if (key[1:] == key[:-1]).any():
        raise ValueError("a cover is stored twice")
    for c in np.flatnonzero(dims[hi] != dims[lo] + 1)[:1]:
        raise ValueError(f"cover ({lo[c]},{hi[c]}) has dimension gap != 1")
    for c in np.flatnonzero(np.logical_not(_leq(poset.kind, labels, lo, hi)))[:1]:
        raise ValueError(f"cover ({lo[c]},{hi[c]}) is not a face pair")
    words, of_word = np.unique(labels[:, poset.n:], axis=0, return_inverse=True)
    want = np.array([_cover_count(w) for w in map(tuple, words.tolist())])[of_word]
    have = np.bincount(hi if poset.kind == KIND_COMPLEMENT else lo, minlength=size)
    for i in np.flatnonzero(have != want)[:1]:
        raise ValueError(f"element {i} has {have[i]} covers, expected {want[i]}")
    # every path x < y < z through stored covers, as the pair (x, z)
    below, ups = np.divmod(key, size)   # each element's upper covers, in a run
    starts = np.searchsorted(below, np.arange(size + 1))
    steps = starts[hi + 1] - starts[hi]
    first = np.cumsum(steps) - steps
    z = ups[np.repeat(starts[hi] - first, steps) + np.arange(steps.sum())]
    ends, mids = np.unique(np.repeat(lo, steps) * size + z, return_counts=True)
    for e in np.flatnonzero(mids != 2)[:1]:
        x, z = divmod(int(ends[e]), size)
        raise ValueError(f"interval ({x},{z}) has {mids[e]} middle elements")


def f_vector(d: int, n: int) -> tuple[int, ...]:
    """Cell counts of the compact complex by dimension 0..(d-1)(n-1): each of
    n - 1 separators adds 0..d-1, so n! (1 + x + ... + x^(d-1))^(n-1)."""
    _check_args(d, n, KIND_COMPLEMENT)
    coeffs = [1]
    for _ in range(n - 1):  # times 1 + x + ... + x^(d-1)
        coeffs = [sum(coeffs[max(k - d + 1, 0):k + 1])
                  for k in range(len(coeffs) + d - 1)]
    return tuple(factorial(n) * c for c in coeffs)


def euler_characteristic(d: int, n: int) -> int:
    """n! for odd d, 0 for even d: the f-vector polynomial at x = -1."""
    _check_args(d, n, KIND_COMPLEMENT)
    return factorial(n) if d % 2 else 0


def _filled(template: str, sep: str, rows: np.ndarray, chunk: int = 4096):
    """Text of `template`, whose only % directives are %d fields, filled
    from each row of non-negative ints and joined by sep, in chunks of up to
    `chunk` rows: the text of `sep.join([template] * len(rows)) %
    tuple(rows.ravel())`.

    The bytes are laid out in numpy.  One row is laid out once, sep first,
    with each %d field NUL-filled to its column's widest value; each chunk
    tiles that row and writes every value right-aligned into its field from
    a digit table, in which leading zeros are NUL and 0 is written 0.  A
    value wider than 4 digits is written in base-10^4 groups: a group below
    a nonzero one is zero-padded, a group above the value all NUL.  Each
    chunk's bytes, stripped of NULs, are its text.  A negative entry is a
    ValueError.
    """
    if not len(rows):
        return
    if rows.min() < 0:
        raise ValueError("cannot write negative entries")
    widths = [len(str(col.max())) for col in rows.T]  # max(axis=0) is slow on few columns
    pieces, sep = template.encode().split(b"%d"), sep.encode()
    unit, starts = bytearray(sep), []
    for piece, w in zip(pieces, widths):
        unit += piece
        starts.append(len(unit))
        unit += bytes(w)
    unit = np.frombuffer(bytes(unit + pieces[-1]), dtype=np.uint8)
    fields = []  # (width, its columns, their byte positions in a row)
    for w in set(widths):
        cols = np.flatnonzero(np.equal(widths, w))
        fields.append((w, cols, (np.array(starts)[cols, None] + np.arange(w)).ravel()))
    for s in range(0, len(rows), chunk):
        part = rows[s:s + chunk]
        out = np.tile(unit, (len(part), 1))
        for w, cols, at in fields:
            out[:, at] = _digits(part[:, cols], w).reshape(len(part), -1)
        yield out.ravel()[0 if s else len(sep):].tobytes().translate(None, b"\0").decode()


@cache
def _digit_table() -> np.ndarray:
    # (10^4, 4) ASCII digits of 0..9999 right-aligned, leading zeros NUL
    v = np.arange(10_000)[:, None]
    return np.where(v < [1000, 100, 10, 0], 0, v // [1000, 100, 10, 1] % 10 + 48
                    ).astype(np.uint8)


def _digits(v: np.ndarray, w: int) -> np.ndarray:
    """The non-negative ints v, none of more than w digits, as ASCII digits
    right-aligned in w bytes, NUL before them; shape v.shape + (w,)."""
    table = _digit_table()
    if w <= 4:
        return table.take(v, axis=0)[..., 4 - w:]
    # base-10^4 groups, low first, each 4 table bytes read as one word
    words, groups, rest = table.view(np.uint32)[:, 0], [], v
    while len(groups) * 4 < w:
        high = rest // 10_000
        g = words.take(rest - high * 10_000)
        g |= (high > 0) * np.uint32(0x30303030)  # zero-padded below a nonzero group
        if groups:
            g *= rest > 0                         # all NUL above the value
        groups.insert(0, g)
        rest = high
    return np.stack(groups, axis=-1).view(np.uint8)[..., -w:]


def _json_ints(k: int, pad: int) -> str:
    # template of a JSON list of k ints laid out as json.dumps(..., indent=2)
    return ("[\n" + ",\n".join([" " * (pad + 2) + "%d"] * k) + "\n"
            + " " * pad + "]")


def poset_json_chunks(poset: FacePoset):
    """The JSON export of a poset, in chunks of text: d, n, kind, then each
    element's sigma, seps and dim, then the covering pairs.  The per-n
    templates reproduce `json.dumps(..., indent=2)` of the same document."""
    n = poset.n
    element = ('    {\n      "sigma": ' + _json_ints(n, 6) + ',\n      "seps": '
               + _json_ints(n - 1, 6) + ',\n      "dim": %d\n    }')
    yield ('{\n  "d": %d,\n  "n": %d,\n  "kind": %s,\n  "elements": [\n'
           % (poset.d, n, json.dumps(poset.kind)))
    yield from _filled(element, ",\n", np.column_stack([poset.labels, poset.dims]))
    if not len(poset.covers):
        yield '\n  ],\n  "covers": []\n}\n'
        return
    yield '\n  ],\n  "covers": [\n'
    yield from _filled("    " + _json_ints(2, 4), ",\n", poset.covers)
    yield "\n  ]\n}\n"


def poset_csv_chunks(poset: FacePoset):
    """The CSV export of a poset, in chunks of text: one `index,dim,label`
    row per element, the label as `CellLabel.to_string` writes it."""
    n = poset.n
    order = [c for k in range(n - 1) for c in (k, n + k)] + [n - 1]
    rows = np.column_stack([np.arange(len(poset.labels)), poset.dims,
                            poset.labels[:, order]])
    yield "index,dim,label\n"
    yield from _filled("%d,%d," + "%d<%d " * (n - 1) + "%d", "\n", rows)
    yield "\n"

