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
"""
from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations, product
from math import factorial
from operator import itemgetter

import numpy as np

from .labels import CellLabel, InvalidLabelError, cell_dimension, stratum_dimension

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV = "EQUICELL_BUDGET"

KIND_COMPLEMENT = "complement"
KIND_STRATIFICATION = "stratification"
_KINDS = (KIND_COMPLEMENT, KIND_STRATIFICATION)


class BudgetExceededError(RuntimeError):
    """Requested enumeration is larger than the configured label budget."""


def resolve_budget(budget: int | None = None) -> int:
    """The label budget: the argument, else EQUICELL_BUDGET, else the default.
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


def label_count_bound(d: int, n: int, kind: str = KIND_COMPLEMENT) -> int:
    """Exact label count for the cell kind; an upper bound for strata."""
    base = d if kind == KIND_COMPLEMENT else d + 1
    return factorial(n) * base ** (n - 1)


def _check_budget(d, n, kind, budget):
    limit = resolve_budget(budget)
    bound = label_count_bound(d, n, kind)
    if bound > limit:
        raise BudgetExceededError(
            "enumeration of (d=%d, n=%d, %s) needs %d labels, budget is %d"
            % (d, n, kind, bound, limit))
    return limit


def _check_args(d, n, kind):
    if kind not in _KINDS:
        raise ValueError("kind must be one of %r" % (_KINDS,))
    if d < 1 or n < 2:
        raise ValueError("need d >= 1 and n >= 2")


def _cond_pair(x: CellLabel, y: CellLabel) -> bool:
    # cond(x, y): every pair ordered by x is compatible, at least as tightly, in y
    n = x.n
    gx, gy = x.gov, y.gov
    for a in range(n):
        row = a * n
        for b in range(n):
            jx = gx[row + b]
            if jx == 0:
                continue
            jy = gy[row + b]
            if jy and jy <= jx:
                continue
            jyo = gy[b * n + a]
            if jyo and jyo < jx:
                continue
            return False
    return True


def _check_pair_compat(x: CellLabel, y: CellLabel):
    if x.d != y.d or x.n != y.n:
        raise InvalidLabelError("labels live on different (d, n)")


def is_face_stratification(coarse: CellLabel, fine: CellLabel) -> bool:
    """True when the stratum of `fine` lies in the closure of that of `coarse`."""
    _check_pair_compat(coarse, fine)
    return _cond_pair(fine, coarse)


def is_face_complement(lower: CellLabel, upper: CellLabel) -> bool:
    """True when the cell of `lower` lies in the closed cell of `upper`."""
    _check_pair_compat(lower, upper)
    if not (lower.is_cell and upper.is_cell):
        raise InvalidLabelError("cell face test needs separators <= d")
    return _cond_pair(upper, lower)


def enumerate_labels(d: int, n: int, kind: str = KIND_COMPLEMENT,
                     budget: int | None = None) -> list[CellLabel]:
    """All labels of the given kind, ordered lexicographically by (sigma, seps)."""
    _check_args(d, n, kind)
    _check_budget(d, n, kind, budget)
    out = []
    if kind == KIND_COMPLEMENT:
        seps_choices = list(product(range(1, d + 1), repeat=n - 1))
        for sigma in permutations(range(1, n + 1)):
            for seps in seps_choices:
                out.append(CellLabel(sigma, seps, d))
        return out
    top = d + 1
    seps_choices = list(product(range(1, top + 1), repeat=n - 1))
    for sigma in permutations(range(1, n + 1)):
        for seps in seps_choices:
            ok = True
            for k, s in enumerate(seps):
                if s == top and sigma[k] > sigma[k + 1]:
                    ok = False
                    break
            if ok:
                out.append(CellLabel(sigma, seps, d))
    return out


@dataclass(frozen=True)
class FacePoset:
    """Graded face poset: labels, their dimensions, and covering pairs.

    covers holds index pairs (lo, hi) with dim(hi) = dim(lo) + 1 and the lo
    element a face of the hi element; elements are in lexicographic
    (sigma, seps) order.
    """

    kind: str
    d: int
    n: int
    elements: tuple[CellLabel, ...]
    dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @cached_property
    def _index(self) -> dict[CellLabel, int]:
        return {lab: i for i, lab in enumerate(self.elements)}

    @cached_property
    def _adjacent(self) -> tuple[list[list[int]], list[list[int]]]:
        # each element's lower covers and upper covers, in covers order
        lower = [[] for _ in self.elements]
        upper = [[] for _ in self.elements]
        for lo, hi in self.covers:
            lower[hi].append(lo)
            upper[lo].append(hi)
        return lower, upper

    def index(self, label: CellLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError("label %s not in poset" % label) from None

    def elements_of_dim(self, k: int) -> list[int]:
        return [i for i, dim in enumerate(self.dims) if dim == k]

    def f_vector(self) -> tuple[int, ...]:
        top = max(self.dims)
        counts = [0] * (top + 1)
        for dim in self.dims:
            counts[dim] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector()))

    def lower_covers(self, i: int) -> list[int]:
        return list(self._adjacent[0][i])

    def upper_covers(self, i: int) -> list[int]:
        return list(self._adjacent[1][i])


def _dimension(label: CellLabel, kind: str) -> int:
    if kind == KIND_COMPLEMENT:
        return cell_dimension(label)
    return stratum_dimension(label)


def gov_arrays(labels) -> tuple[np.ndarray, np.ndarray]:
    """Stacked governing-index rows and their transposed-pair companions."""
    n = labels[0].n
    g = np.array([lab.gov for lab in labels], dtype=np.int16)
    perm = np.arange(n * n).reshape(n, n).T.reshape(-1)
    return g, g[:, perm]


def cond_block(quant: np.ndarray, against: np.ndarray, against_t: np.ndarray,
               chunk: int = 64) -> np.ndarray:
    """Boolean matrix C with C[i, j] = cond(label_i of quant, label_j of against).

    quant rows supply the quantified pairs; against/against_t are the gov rows
    of the other side and their transposed-pair rearrangement.
    """
    q = quant.shape[0]
    a = against.shape[0]
    out = np.empty((q, a), dtype=bool)
    same = (against > 0)
    opp = (against_t > 0)
    for s in range(0, q, chunk):
        blk = quant[s:s + chunk][:, None, :]          # (c, 1, p)
        ok = ((blk == 0)
              | (same[None, :, :] & (against[None, :, :] <= blk))
              | (opp[None, :, :] & (against_t[None, :, :] < blk)))
        out[s:s + chunk] = ok.all(axis=2)
    return out


def face_matrix(lowers, uppers, kind: str) -> np.ndarray:
    """Boolean matrix F with F[i, j] = (lowers[i] is a face of uppers[j])."""
    if not lowers or not uppers:
        return np.zeros((len(lowers), len(uppers)), dtype=bool)
    g_lo, gt_lo = gov_arrays(lowers)
    g_hi, gt_hi = gov_arrays(uppers)
    if kind == KIND_COMPLEMENT:
        # quantify over the upper label's pairs, test against the lower label
        return cond_block(g_hi, g_lo, gt_lo).T
    return cond_block(g_lo, g_hi, gt_hi)


@lru_cache(maxsize=None)
def _moves(seps) -> tuple:
    """The faces of `boundary` for the separator word seps, as pairs
    (getter, face seps), where getter picks the face's letters from sigma by
    position.  Cached, one entry per separator word."""
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
                moves.append((itemgetter(*places, *range(hi, n)), gaps + seps[hi - 1:]))
    return tuple(moves)


def boundary(sigma, seps) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Lower covers of the complement-kind cell (sigma, seps), as (sigma, seps).

    For each j >= 2, every maximal run of gaps whose separators are all >= j
    is cut at its j-gaps into blocks.  Each proper nonempty subset of the
    blocks moves, in order, in front of the rest across a new separator j-1;
    the blocks on either side stay joined by j.  For a facet these are the
    C(n, i) unshuffles with the lowered separator in gap i.
    """
    return [(get(sigma), gaps) for get, gaps in _moves(tuple(seps))]


def enumerate_cells(d: int, n: int, kind: str = KIND_COMPLEMENT,
                    budget: int | None = None) -> FacePoset:
    """Build the full graded poset with covering relations.

    Both kinds take their covers from `boundary`: the faces it lists are a
    cell's lower covers and a stratum's upper covers (see the module
    docstring).
    """
    labels = enumerate_labels(d, n, kind, budget=budget)
    dims = tuple(_dimension(lab, kind) for lab in labels)
    index = {(lab.sigma, lab.seps): i for i, lab in enumerate(labels)}
    up = kind == KIND_STRATIFICATION
    covers = sorted((i, j) if up else (j, i) for i, lab in enumerate(labels)
                    for j in map(index.__getitem__, boundary(lab.sigma, lab.seps)))
    return FacePoset(kind=kind, d=d, n=n, elements=tuple(labels), dims=dims,
                     covers=tuple(covers))


def _leq(kind: str, a: CellLabel, b: CellLabel) -> bool:
    """Non-strict order used by both posets: a lies in the closure of b."""
    if a == b:
        return True
    if kind == KIND_COMPLEMENT:
        return is_face_complement(a, b)
    return is_face_stratification(b, a)


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
    or fails the scalar face test; if an element has other than
    `_cover_count(seps)` covers below it (cells) or above it (strata); or if
    an interval of length two through stored covers has other than two
    middle elements.  Passing pairs are true covers, so the counts show none
    is missing.  Nothing can lie strictly between a face pair one dimension
    apart, as dimension grows strictly along the order, so that goes unscanned.
    """
    elems, dims, kind = poset.elements, poset.dims, poset.kind
    if len(set(poset.covers)) != len(poset.covers):
        raise ValueError("a cover is stored twice")
    for lo, hi in poset.covers:
        if dims[hi] != dims[lo] + 1:
            raise ValueError(f"cover ({lo},{hi}) has dimension gap != 1")
        if not _leq(kind, elems[lo], elems[hi]):
            raise ValueError(f"cover ({lo},{hi}) is not a face pair")
    lower, upper = poset._adjacent
    faces = lower if kind == KIND_COMPLEMENT else upper
    for i, lab in enumerate(elems):
        want = _cover_count(lab.seps)
        if len(faces[i]) != want:
            raise ValueError(f"element {i} has {len(faces[i])} covers, expected {want}")
    for x in range(len(elems)):
        mids = Counter(z for y in upper[x] for z in upper[y])
        for z, count in mids.items():
            if count != 2:
                raise ValueError(f"interval ({x},{z}) has {count} middle elements")


def f_vector(d: int, n: int, budget: int | None = None) -> tuple[int, ...]:
    """Cell counts of the compact complex by dimension 0..(d-1)(n-1)."""
    labels = enumerate_labels(d, n, KIND_COMPLEMENT, budget=budget)
    top = (d - 1) * (n - 1)
    counts = [0] * (top + 1)
    for lab in labels:
        counts[cell_dimension(lab)] += 1
    return tuple(counts)


def euler_characteristic(d: int, n: int, budget: int | None = None) -> int:
    fv = f_vector(d, n, budget=budget)
    return sum((-1) ** k * c for k, c in enumerate(fv))


def poset_payload(poset: FacePoset) -> dict:
    """Plain-data form of a poset, matching the JSON export schema."""
    return {
        "d": poset.d,
        "n": poset.n,
        "kind": poset.kind,
        "elements": [
            {"sigma": list(lab.sigma), "seps": list(lab.seps), "dim": dim}
            for lab, dim in zip(poset.elements, poset.dims)
        ],
        "covers": [[lo, hi] for lo, hi in poset.covers],
    }


def poset_to_json(poset: FacePoset) -> str:
    """Serialize a poset deterministically (17 significant digit reals are
    irrelevant here, but the shared encoder keeps key order and layout fixed)."""
    from .jsonio import dumps
    return dumps(poset_payload(poset))


def poset_from_json(data) -> FacePoset:
    """Rebuild a poset from the JSON export (accepts text or parsed dict)."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    d, n, kind = data["d"], data["n"], data["kind"]
    labels = tuple(CellLabel(tuple(e["sigma"]), tuple(e["seps"]), d)
                   for e in data["elements"])
    dims = tuple(e["dim"] for e in data["elements"])
    covers = tuple((int(lo), int(hi)) for lo, hi in data["covers"])
    return FacePoset(kind=kind, d=d, n=n, elements=labels, dims=dims, covers=covers)
