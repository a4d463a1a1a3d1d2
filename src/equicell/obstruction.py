"""Deciding existence of the symmetric equivariant sphere-valued map.

The decision reduces to integer arithmetic on the top two layers of the
compact cell complex.  Top cells (facets) are indexed by permutations; the
cells one dimension down (ridges) carry one separator lowered to d-1, and the
position of that separator is invariant under the permutation action, so
ridge classes are indexed by 1..n-1.  A class function b assigns an integer
x_j to class j; its coboundary, with every incidence counted +1, takes the
value sum_j x_j * C(n, j) on every facet.  The map exists iff some b reaches
the value 1, i.e. iff gcd{C(n,1), ..., C(n,n-1)} = 1, which happens exactly
when n is not a prime power.

The facets form one free S_n-orbit, and renaming letters commutes with
`boundary` and the face test, so the re-check on the complex reads the
ridges of the identity facet alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .poset import (KIND_COMPLEMENT, BudgetExceededError, _leq, boundary, charge,
                    resolve_budget)


@dataclass(frozen=True)
class RidgeOrbitCochain:
    """Integer assignment to the n-1 ridge classes, plain (untwisted) values."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.n < 2:
            raise ValueError("need n >= 2")
        if len(self.values) != self.n - 1:
            raise ValueError("expected %d values, got %d"
                             % (self.n - 1, len(self.values)))


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the map-existence decision for n points in R^d."""

    d: int
    n: int
    gcd: int
    prime_power: tuple[int, int] | None
    group: str
    map_exists: bool
    witness: RidgeOrbitCochain | None


def binomial_gcd(n: int) -> int:
    """gcd of the middle binomial row C(n,1), ..., C(n,n-1).

    By Kummer's theorem C(n, q**v) is prime to q when q**v is the exact power
    of a prime q dividing n and n != q**v.  So the gcd, a divisor of
    C(n, 1) = n, is 1 unless n = p**k; then C(n, p**(k-1)) has p-valuation 1
    (one carry adding p**(k-1) to (p-1) p**(k-1) in base p), and the gcd is p.
    """
    pp = prime_power(n)
    return pp[0] if pp else 1


def prime_power(n: int, budget: int | None = None) -> tuple[int, int] | None:
    """(p, k) with n = p**k, or None when n has two distinct prime factors.
    Trial division for the least prime factor tries at most budget + 1
    candidates (so a budget of 0 settles even n), or raises
    BudgetExceededError."""
    if n < 2:
        raise ValueError("need n >= 2")
    limit = resolve_budget(budget)
    root = isqrt(n)
    for p in range(2, min(root, limit + 2) + 1):
        if n % p == 0:
            break
    else:
        if root > limit + 2:
            raise BudgetExceededError(
                "factoring n=%d needs up to %d trial divisions, budget is %d"
                % (n, root - 1, limit))
        return (n, 1)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def binomial_valuation(n: int, j: int, p: int) -> int:
    """Exponent of the prime p in C(n, j), via factorial valuations."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if p < 2:
        raise ValueError("p must be a prime")

    def val_factorial(m):
        v, q = 0, p
        while q <= m:
            v += m // q
            q *= p
        return v

    return val_factorial(n) - val_factorial(j) - val_factorial(n - j)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, s, t) with s*a + t*b = g = gcd(a, b), for a, b > 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def coboundary_witness(n: int) -> RidgeOrbitCochain:
    """Integers x_1..x_{n-1} with sum x_j * C(n, j) = 1, exactly.

    The extended Euclidean algorithm folds C(n, j) into the running gcd,
    g_j = s_j g_{j-1} + t_j C(n, j), until g_J = 1.  Unrolled, that gives
    x_j = t_j * prod_{j<k<=J} s_k (t_1 = 1) in one backward pass, and x_j = 0
    beyond J.  Verified against the defining identity before returning;
    ValueError when no witness exists (n a prime power).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    steps = [(1, 1)]  # (s_j, t_j) from j = 1
    g = c = n  # C(n, 1)
    for j in range(2, n):
        if g == 1:
            break
        c = c * (n - j + 1) // j
        g, s, t = _extended_gcd(g, c)
        steps.append((s, t))
    if g != 1:
        raise ValueError("no witness: gcd of the binomial row is %d" % g)
    coeffs, scale = [0] * (n - 1), 1
    for j, (s, t) in reversed(list(enumerate(steps))):
        coeffs[j], scale = t * scale, s * scale
    total = sum(x * comb(n, j) for j, x in enumerate(coeffs, start=1) if x)
    if total != 1:
        raise AssertionError("witness failed verification: got %d" % total)
    return RidgeOrbitCochain(n, tuple(coeffs))


def obstruction_report(d: int, n: int, budget: int | None = None) -> ObstructionReport:
    """Run the full decision for n points in R^d.  The trial divisions that
    factor n, and when the map exists its witness's n - 1 entries, must fit
    in the budget."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    limit = resolve_budget(budget)
    pp = prime_power(n, limit)
    g = pp[0] if pp else 1
    exists = g == 1
    if exists:
        charge(limit, "the witness for n=%d" % n, "entries", n - 1)
    witness = coboundary_witness(n) if exists else None
    group = "trivial" if g == 1 else "Z/%d" % g
    return ObstructionReport(d=d, n=n, gcd=g, prime_power=pp, group=group,
                             map_exists=exists, witness=witness)


def facet_ridge_class_counts(d: int, n: int,
                             budget: int | None = None) -> np.ndarray:
    """Ridges of the identity facet counted by class: the (n - 1,) row that
    every facet shares (see the module docstring).  A move of `boundary`
    counts once the face test confirms that its ridge lies in the facet.  The
    2^n - 2 ridge rows of 2n - 1 entries each must fit in the budget."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    limit, task = resolve_budget(budget), "verifying (d=%d, n=%d)" % (d, n)
    # (2^n - 2)(2n - 1) >= 2^n: a large n is refused without forming the product
    if n > limit.bit_length():
        charge(limit, task, "(2^n - 2)(2n - 1) ridge row entries")
    charge(limit, task, "ridge row entries", (2 ** n - 2) * (2 * n - 1))
    identity, top = tuple(range(1, n + 1)), (d,) * (n - 1)
    rows = np.array([identity + top] + [p + s for p, s in boundary(identity, top)],
                    dtype=np.min_scalar_type(max(n, d + 1)))  # facet, then ridges
    inside = _leq(KIND_COMPLEMENT, rows, range(1, len(rows)), [0] * (len(rows) - 1))
    lowered = rows[1:, n:].argmin(axis=1)  # a ridge's class: its one d - 1 separator
    return np.bincount(lowered[inside], minlength=n - 1)


def verify_coboundary_on_complex(d: int, n: int, cochain: RidgeOrbitCochain,
                                 budget: int | None = None) -> int:
    """The coboundary of a ridge-class cochain on every facet, as one exact
    int: the class counts of `facet_ridge_class_counts` times the values."""
    if cochain.n != n:
        raise ValueError("cochain is for n = %d, complex has n = %d" % (cochain.n, n))
    counts = facet_ridge_class_counts(d, n, budget).tolist()
    return sum(c * x for c, x in zip(counts, cochain.values))


def expected_incidence_row(n: int) -> tuple[int, ...]:
    """The predicted per-facet class counts C(n,1), ..., C(n,n-1)."""
    return tuple(comb(n, j) for j in range(1, n))
