"""Counting orphan PLFTs with a fixed determinant.

Writing h(D) for the number of orphans with determinant D (D and -D
give mirror-image counts, so only D >= 1 is considered), three
independent routes are provided:

  * h_closed   -- nu2(D) + 2*sigma(D) - tau(D), where nu2 counts the
                  partitions of D using exactly two distinct part sizes
                  and sigma/tau are the divisor sum and count;
  * h_direct   -- the double sum over matrix entries b, c >= 0 with
                  b + c < D of the divisor pairs of D + b*c lying in
                  the orphan cone a > c, d > b;
  * enumerate_orphans -- literally building the matrices.

The summatory function of h grows like x^2 * log(x)^2 / 4; the series
helpers emit the data behind that comparison, and `harmonic_double_sum` is the
double harmonic sum whose leading term log(x)^2 / 2 drives it.

nu2 is evaluated through an exact divisor-convolution identity: pairing
a partition's two part totals A + B = D and choosing which divisor of A
and of B serves as the part size gives

    sum_{A+B=D} tau(A)*tau(B)  =  2*nu2(D) + sigma(D) - tau(D),

where the diagonal (equal part sizes) contributes sigma - tau.  A
brute-force partition enumerator in the test suite pins the identity
down.  Summed over D <= x the convolution becomes

    sum_{A+B<=x} tau(A)*tau(B)  =  sum_{A<x} tau(A)*T(x-A),

with T the prefix sum of tau, so the summatory function takes O(x)
exact integer steps once the sieves reach x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import InternalInvariantError
from .plft import Plft


# ---------------------------------------------------------------------------
# sieves (grow-on-demand module caches)
# ---------------------------------------------------------------------------

# Caches are swapped in as whole objects (single reference assignment),
# so concurrent readers always see a consistent tau/sigma pair.
_sieve_cache: tuple[list[int], list[int]] = ([0], [0])
_divisor_lists: list[list[int]] = [[]]


def _sieves(n: int) -> tuple[list[int], list[int]]:
    """tau[0..n] and sigma[0..n] (index 0 unused)."""
    global _sieve_cache
    cache = _sieve_cache
    if len(cache[0]) <= n:
        tau = [0] * (n + 1)
        sigma = [0] * (n + 1)
        for d in range(1, n + 1):
            for multiple in range(d, n + 1, d):
                tau[multiple] += 1
                sigma[multiple] += d
        cache = (tau, sigma)
        _sieve_cache = cache
    return cache


def _divisors_upto(n: int) -> list[list[int]]:
    global _divisor_lists
    if len(_divisor_lists) <= n:
        lists: list[list[int]] = [[] for _ in range(n + 1)]
        for d in range(1, n + 1):
            for multiple in range(d, n + 1, d):
                lists[multiple].append(d)
        _divisor_lists = lists
    return _divisor_lists


def _check_positive(d: int) -> int:
    if d < 1:
        raise ValueError(f"argument must be a positive integer, got {d}")
    return d


# ---------------------------------------------------------------------------
# arithmetic functions
# ---------------------------------------------------------------------------

def divisor_tau(d: int) -> int:
    """Number of positive divisors, by trial division to sqrt(d)."""
    _check_positive(d)
    count = 0
    k = 1
    while k * k < d:
        if d % k == 0:
            count += 2
        k += 1
    if k * k == d:
        count += 1
    return count


def divisor_sigma(d: int) -> int:
    """Sum of positive divisors, by trial division to sqrt(d)."""
    _check_positive(d)
    total = 0
    k = 1
    while k * k < d:
        if d % k == 0:
            total += k + d // k
        k += 1
    if k * k == d:
        total += k
    return total


def nu2(d: int) -> int:
    """Partitions of d with exactly two distinct part sizes.

    Counts quadruples s1 > s2 >= 1, m1, m2 >= 1 with
    m1*s1 + m2*s2 = d, via the divisor-convolution identity in the
    module docstring.
    """
    _check_positive(d)
    tau, sigma = _sieves(d)
    conv = sum(map(mul, tau[1:d], tau[d - 1:0:-1]))
    paired = conv + tau[d] - sigma[d]
    if paired % 2:
        raise InternalInvariantError(f"odd distinct-size pair count {paired} at D={d}")
    return paired // 2


def h_closed(d: int) -> int:
    """Orphan count by the closed formula nu2 + 2*sigma - tau.

    Negative determinants count like their absolute value; zero is not
    a PLFT determinant and is rejected.
    """
    if d == 0:
        raise ValueError("determinant zero does not occur")
    d = abs(d)
    return nu2(d) + 2 * divisor_sigma(d) - divisor_tau(d)


def _entry_bound(d: int) -> int:
    # b + c <= d - 1 is forced for orphans of determinant d, so the
    # products b*c, and with them D + b*c, are bounded.
    half = (d - 1) // 2
    return d + half * (d - 1 - half)


def h_direct(d: int) -> int:
    """Orphan count by direct summation over the (b, c) grid.

    For each b, c >= 0 with b + c < d, counts divisor pairs
    a * d' = D + b*c with a > c and d' > b.
    """
    _check_positive(d)
    divisors = _divisors_upto(_entry_bound(d))
    count = 0
    for b in range(d):
        for c in range(d - b):
            n = d + b * c
            for a in divisors[n]:
                if a > c and n // a > b:
                    count += 1
    return count


def enumerate_orphans(d: int) -> list[Plft]:
    """All orphans with determinant d in the a > c, b < d' cone.

    (The opposite cone holds their reciprocals, with determinant -d.)
    The list has exactly h_closed(d) members; order is by (b, c, a).
    """
    _check_positive(d)
    divisors = _divisors_upto(_entry_bound(d))
    found = []
    for b in range(d):
        for c in range(d - b):
            n = d + b * c
            for a in divisors[n]:
                dd = n // a
                if a > c and dd > b:
                    found.append(Plft(a, b, c, dd))
    return found


# ---------------------------------------------------------------------------
# verified census rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusRow:
    """One determinant's census, with all three routes recorded."""

    D: int
    nu2: int
    sigma: int
    tau: int
    h_closed: int
    h_direct: int
    orphan_count: int

    def __post_init__(self) -> None:
        if self.h_closed != self.nu2 + 2 * self.sigma - self.tau:
            raise InternalInvariantError(f"closed formula broken at D={self.D}")
        if not (self.h_closed == self.h_direct == self.orphan_count):
            raise InternalInvariantError(
                f"route disagreement at D={self.D}: "
                f"{self.h_closed} / {self.h_direct} / {self.orphan_count}"
            )


def census_row(d: int) -> CensusRow:
    """Compute one row by all three routes; raises if they disagree."""
    _check_positive(d)
    return CensusRow(
        D=d,
        nu2=nu2(d),
        sigma=divisor_sigma(d),
        tau=divisor_tau(d),
        h_closed=h_closed(d),
        h_direct=h_direct(d),
        orphan_count=len(enumerate_orphans(d)),
    )


def census_rows(dmax: int) -> list[CensusRow]:
    _check_positive(dmax)
    return [census_row(d) for d in range(1, dmax + 1)]


# ---------------------------------------------------------------------------
# summatory function and series data
# ---------------------------------------------------------------------------

def _summatory(xs: list[int]) -> list[int]:
    """sum_{D<=x} h(D) for each x in xs, by the prefix-sum identity in the module docstring."""
    top = max(xs)
    tau, sigma = _sieves(top)
    tau_prefix = list(accumulate(tau[: top + 1]))
    sums = []
    for x in xs:
        conv = sum(map(mul, tau[1:x], tau_prefix[x - 1:0:-1]))
        sigma_sum = sum(sigma[1:x + 1])
        paired = conv + tau_prefix[x] - sigma_sum
        if paired % 2:
            raise InternalInvariantError(f"odd distinct-size pair count {paired} summed to x={x}")
        sums.append(paired // 2 + 2 * sigma_sum - tau_prefix[x])
    return sums


def summatory_h(x: int) -> int:
    """Exact sum of h(D) over D <= x."""
    _check_positive(x)
    return _summatory([x])[0]


@dataclass(frozen=True)
class SeriesPoint:
    """One summatory sample against the reference curve x^2 log(x)^2 / 4."""

    x: int
    summatory: int
    reference: float
    ratio: float


def ratio_series(xs: list[int]) -> list[SeriesPoint]:
    """Summatory samples at the given points (natural logarithm)."""
    if not xs:
        return []
    for x in xs:
        _check_positive(x)
    points = []
    for x, s in zip(xs, _summatory(xs)):
        reference = 0.25 * x * x * math.log(x) ** 2
        ratio = s / reference if reference > 0 else math.inf
        points.append(SeriesPoint(x=x, summatory=s, reference=reference, ratio=ratio))
    return points


def harmonic_double_sum(x: int) -> float:
    """The double sum of 1/(a*(a-c)) over 1 <= c <= x-1, c < a <= x.

    Grows like log(x)^2 / 2; `harmonic_double_sum_reference` gives that comparison
    value.  Floating point, in O(x) steps: for fixed a the inner sum over c
    is H_{a-1}/a, with H the harmonic numbers.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    total = harmonic = 0.0
    for a in range(2, x + 1):
        harmonic += 1.0 / (a - 1)
        total += harmonic / a
    return total


def harmonic_double_sum_reference(x: int) -> float:
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    return 0.5 * math.log(x) ** 2
