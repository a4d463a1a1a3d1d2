"""Combinatorial labels for ordered point configurations on a line of vectors.

A label is a pair (sigma, seps): sigma lists the n point indices in the order
their coordinate columns appear under lexicographic comparison, and seps[k]
records the first coordinate (1-based) in which the k-th and (k+1)-th columns
differ.  A separator value of d+1 means the two columns coincide entirely; a
value j <= d means they agree in coordinates 1..j-1 and differ in coordinate j.

Labels with separators in {1..d} index the cells of the compact complex built
from strictly-separated configurations; labels allowing d+1 index strata of the
ambient stratified vector space.  Runs of d+1 separators carry a normalization:
the letters they span must increase, so each label names its stratum uniquely.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Sequence


class InvalidLabelError(ValueError):
    """Label data that violates the combinatorial rules."""


@dataclass(frozen=True)
class CellLabel:
    """An ordered-partition label (sigma, seps) over 1..n with 1 <= sep <= d+1.

    sigma must be a permutation of 1..n and seps must have length n-1.  Any
    maximal run of separators equal to d+1 must span an increasing stretch of
    sigma; constructing a label that breaks this rule raises InvalidLabelError
    rather than silently reordering.
    """

    sigma: tuple[int, ...]
    seps: tuple[int, ...]
    d: int

    def __post_init__(self):
        sigma = tuple(int(v) for v in self.sigma)
        seps = tuple(int(v) for v in self.seps)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "seps", seps)
        n = len(sigma)
        if n < 1:
            raise InvalidLabelError("empty permutation")
        if self.d < 1:
            raise InvalidLabelError("need d >= 1, got %r" % (self.d,))
        if sorted(sigma) != list(range(1, n + 1)):
            raise InvalidLabelError("sigma %r is not a permutation of 1..%d" % (sigma, n))
        if len(seps) != n - 1:
            raise InvalidLabelError(
                "expected %d separators, got %d" % (n - 1, len(seps)))
        top = self.d + 1
        for s in seps:
            if not 1 <= s <= top:
                raise InvalidLabelError("separator %r outside 1..%d" % (s, top))
        # ties (separator d+1) must list their letters in increasing order
        for k, s in enumerate(seps):
            if s == top and sigma[k] > sigma[k + 1]:
                raise InvalidLabelError(
                    "letters %d,%d tied by separator %d must increase"
                    % (sigma[k], sigma[k + 1], top))

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def is_cell(self) -> bool:
        """True when every separator is at most d (no coincident columns)."""
        return max(self.seps, default=0) <= self.d

    def to_string(self) -> str:
        parts = []
        for k in range(self.n - 1):
            parts.append("%d<%d" % (self.sigma[k], self.seps[k]))
        parts.append(str(self.sigma[-1]))
        return " ".join(parts)

    def to_bar_string(self) -> str:
        """Planar shorthand: bar = separator 1, absence = separator 2."""
        if self.d != 2 or not self.is_cell:
            raise InvalidLabelError("bar shorthand needs d = 2 and separators <= 2")
        if self.n > 9:
            raise InvalidLabelError("bar shorthand is single-digit only")
        out = []
        for k in range(self.n - 1):
            out.append(str(self.sigma[k]))
            if self.seps[k] == 1:
                out.append("|")
        out.append(str(self.sigma[-1]))
        return "".join(out)

    @classmethod
    def from_bar_string(cls, text: str, d: int = 2) -> "CellLabel":
        if d != 2:
            raise InvalidLabelError("bar shorthand needs d = 2")
        text = text.strip()
        # digits split by single bars: framed in bars, an empty slot shows as ||
        if set(text) - set("0123456789|") or "||" in "|%s|" % text:
            raise InvalidLabelError("bad bar string %r" % text)
        # separators default to 2; a bar between two digits lowers it to 1
        sigma, seps = [], []
        pending_bar = False
        for ch in text:
            if ch == "|":
                pending_bar = True
            else:
                if sigma:
                    seps.append(1 if pending_bar else 2)
                pending_bar = False
                sigma.append(int(ch))
        return cls(tuple(sigma), tuple(seps), 2)

    def __str__(self) -> str:
        return self.to_string()


def stratum_dimension(label: CellLabel) -> int:
    """Dimension of the stratum named by `label` inside the ambient space."""
    return (label.d + 1) * (label.n - 1) - sum(label.seps)


def cell_dimension(label: CellLabel) -> int:
    """Dimension of the compact-complex cell named by `label`."""
    if not label.is_cell:
        raise InvalidLabelError("separator %d exceeds d = %d: not a cell label"
                                % (max(label.seps), label.d))
    return sum(label.seps) - (label.n - 1)


def separator_min(label: CellLabel, a: int, b: int) -> tuple[str, int]:
    """Relative order of letters a, b and the smallest separator between them.

    Returns ("before", j) when a precedes b in sigma and ("after", j)
    otherwise; j is the minimum separator value strictly between the two
    positions, i.e. the first coordinate in which the corresponding columns
    differ (d+1 when they coincide).
    """
    n = label.n
    if a == b or not (1 <= a <= n) or not (1 <= b <= n):
        raise InvalidLabelError("need two distinct letters in 1..%d" % n)
    i, k = label.sigma.index(a), label.sigma.index(b)
    return ("before" if i < k else "after", min(label.seps[min(i, k):max(i, k)]))


def group_action(pi: Sequence[int], label: CellLabel) -> CellLabel:
    """Relabel the letters of a cell label by the permutation pi (1..n -> 1..n)."""
    n = label.n
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise InvalidLabelError("pi %r is not a permutation of 1..%d" % (pi, n))
    if not label.is_cell:
        # relabeling can break the increasing-run normalization of tied letters
        raise InvalidLabelError("group action is defined on cell labels only")
    return CellLabel(tuple(pi[s - 1] for s in label.sigma), label.seps, label.d)


@dataclass(frozen=True)
class Configuration:
    """n labeled points in R^d, stored as n coordinate columns of length d.

    Entries may be floats or Fractions, but not NaN or infinite.  Distinctness
    of the columns is not enforced here: labeled-configuration-space membership
    requires it, but the labeling map below accepts coincident points and
    reports them with separator d+1.
    """

    points: tuple[tuple, ...]

    def __post_init__(self):
        pts = tuple(tuple(col) for col in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("empty configuration")
        # not math.isfinite, which overflows on a large Fraction
        if any(v != v or v in (inf, -inf) for col in pts for v in col):
            raise ValueError("coordinates must be finite numbers")
        d = len(pts[0])
        if d < 1 or any(len(col) != d for col in pts):
            raise ValueError("columns must share a positive length")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])


def vertex_coordinates(label: CellLabel) -> Configuration:
    """A rational configuration lying in the stratum/cell named by `label`.

    Column sigma[1] sits at the origin and each later column adds the unit
    vector e_{seps[k]} (the zero vector for separator d+1); the whole family is
    then translated so the columns sum to zero.  Exact arithmetic throughout.
    """
    d, n = label.d, label.n
    cols = [None] * n
    cur = [Fraction(0)] * d
    cols[label.sigma[0] - 1] = tuple(cur)
    for k in range(1, n):
        s = label.seps[k - 1]
        cur = list(cur)
        if s <= d:
            cur[s - 1] += 1
        cols[label.sigma[k] - 1] = tuple(cur)
    mean = [sum(col[i] for col in cols) / n for i in range(d)]
    centered = tuple(tuple(col[i] - mean[i] for i in range(d)) for col in cols)
    return Configuration(centered)


def fox_neuwirth_label(config) -> CellLabel:
    """Label of the stratum containing a Configuration, or its columns.

    Columns are compared lexicographically and exactly; `sigma` is the
    resulting order (ties broken by point index, which matches the
    increasing-run normalization) and each separator is the first coordinate
    where consecutive columns differ, or d+1 when they coincide.
    """
    if not isinstance(config, Configuration):
        config = Configuration(config)
    cols, n, d = config.points, config.n, config.d

    def first_diff(u, v):
        return next((i + 1 for i in range(d) if u[i] != v[i]), d + 1)

    # stable, so tied points keep increasing index order
    order = sorted(range(n), key=lambda i: cols[i])
    sigma = tuple(i + 1 for i in order)
    seps = tuple(first_diff(cols[order[k]], cols[order[k + 1]]) for k in range(n - 1))
    return CellLabel(sigma, seps, d)
