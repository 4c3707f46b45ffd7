"""Counting orphan PLFTs with a fixed determinant.

Writing h(D) for the number of orphans with determinant D (D and -D
give mirror-image counts, so only D >= 1 is considered), three
independent routes are provided:

  * h_closed   -- nu2(D) + 2*sigma(D) - tau(D), where nu2 counts the
                  partitions of D using exactly two distinct part sizes
                  and sigma/tau are the divisor sum and count;
  * h_direct   -- the definition read with d as an interval: for
                  each a > c >= 0 and b >= 0 the determinants a*d - b*c
                  over d > b form a progression with step a that starts
                  at D0 = a + b*(a - c).  One pass marks every start up
                  to N and a prefix sum with stride a counts, for every
                  D <= N at once, the orphans with that a.  It takes no
                  gcd, no modular inverse, no divisor test and no
                  residue class;
  * count_orphans -- the column differences p = a - c, q = d - b >= 1
                  turn the determinant into p*q + p*b + q*c = D, so
                  that for each p, q the entry b runs over one residue
                  class modulo q/gcd(p, q) and c follows from it.  One
                  pass takes each pair p <= q once, with one gcd and one
                  modular inverse, and adds the size of its class to
                  every D <= N; the equation is symmetric under
                  (p, b) <-> (q, c), so a pair with p < q counts twice.
                  It builds no matrix.  (The literal list of the
                  matrices is a test oracle.)

The two passes solve one equation, D = a*q + p*b with 1 <= p <= a,
q >= 1 and b >= 0, and share no loop and no table; they differ in the
loop order and the arithmetic.  The direct pass walks a, c and b, lets
d run and only adds; the count pass walks p and q, lets D run and
solves for b by a gcd and a modular inverse.  Counting the starts of
one a as the divisors a - c of D0 - a, or the class sizes as marks with
a stride prefix sum, would make them one computation checked twice.

The summatory function of h grows like x^2 * log(x)^2 / 4; the series
helpers emit the data behind that comparison, and `harmonic_double_sum` is the
double harmonic sum whose leading term log(x)^2 / 2 drives it.

nu2 is evaluated through an exact divisor-convolution identity: pairing
a partition's two part totals A + B = D and choosing which divisor of A
and of B serves as the part size gives

    sum_{A+B=D} tau(A)*tau(B)  =  2*nu2(D) + sigma(D) - tau(D),

where the diagonal (equal part sizes) contributes sigma - tau.  The
sum is symmetric under A <-> D - A, so nu2 takes twice the sum over
A < D/2, plus tau(D/2)^2 for even D.  A brute-force partition
enumerator in the test suite pins the identity down.  Summed over
D <= x the convolution becomes

    sum_{A+B<=x} tau(A)*tau(B)  =  sum_{B<x} T(B)*tau(x-B),

with T the prefix sum of tau, taken as a running sum while tau is read
backwards, so the summatory function takes O(x) exact integer steps
once the sieve reaches x and keeps no table of T.  The sum of sigma it
needs is sum_{k<=x} k * (x // k), which takes O(sqrt(x)) steps, so no
table of sigma is kept: nu2 takes sigma(D) from trial division.

tau comes from a linear sieve, which reaches each n once through its
least prime factor, and is held in an array('I'), four bytes an entry.
That is exact: tau(n) <= 2*sqrt(n) < 2^32 for n < 2^62, far beyond any
table that fits in memory, and an array raises OverflowError on a
value that does not fit rather than wrap it.

One module cache serves the census rows, which ask for one D after
another: `_tables` maps each builder (the sieve's tau for nu2, and the
direct and the count pass for h_direct and count_orphans) to its latest
table.  A request beyond a table rebuilds it to at least twice its
length and swaps the new table in whole, so rows 1..N cost O(log N)
builds, and census_rows(N) sizes both pass tables to N in one pass
each.  A row runs each trial division and each route once, and checks
their agreement itself; a CensusRow only holds the seven numbers, so
building or unpickling one reads no table.  The summatory function
sieves to its own top and keeps nothing.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate, islice
from operator import add, mul

from .errors import InternalInvariantError, Value


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _check_indexable(n: int) -> int:
    if n >= sys.maxsize:
        raise ValueError(f"a {n.bit_length()}-bit size is too large for a table (indices stop at {sys.maxsize})")
    return n


def _sieve(n: int) -> array:
    """tau[0..n] (index 0 unused) by a linear sieve.

    Each composite m is marked once, as i*p with p its least prime
    factor (Gries and Misra, CACM 1978), so the sieve takes O(n) steps.
    exponent[m] is the exponent e of that prime in m.  tau is
    multiplicative with tau(p^e) = e + 1, so tau(i*p) = 2*tau(i) when p
    does not divide i and tau(i) // (e + 1) * (e + 2) when p^e is the
    part of i at its least prime p.  (e <= log2(n) fits a byte.)
    """
    tau = array("I", [0]) * (_check_indexable(n) + 1)
    exponent = bytearray(n + 1)
    if n >= 1:
        tau[1] = 1
    primes = []
    for i in range(2, n + 1):
        if not exponent[i]:
            primes.append(i)
            exponent[i] = 1
            tau[i] = 2
        t = tau[i]
        for p in primes:
            m = i * p
            if m > n:
                break
            if i % p:
                exponent[m] = 1
                tau[m] = 2 * t
            else:
                e = exponent[i]
                exponent[m] = e + 1
                tau[m] = t // (e + 1) * (e + 2)
                break
    return tau


# Each table is swapped in as a whole object (one reference assignment),
# so a reader never sees a table half built.
_tables = {}


def _table(build, n: int):
    """build's table from the module cache if it reaches index n, else build(max(n, 2*len)) swapped in.

    For nu2 and the census rows, which ask for one D after another: a
    rebuild at least doubles the table, so asking for n = 1, 2, 3, ... in
    turn builds to 2, 6, 14, 30, ..., and rows 1..200 cost 7 builds, the
    last one to 254.
    """
    table = _tables.get(build, (0,))
    if len(table) <= n:
        table = _tables[build] = build(max(n, 2 * len(table)))
    return table


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
    _table(_sieve, _check_positive(d))  # refuses a size past any table before trial division
    return _nu2(d, divisor_sigma(d))


def _nu2(d: int, sigma: int) -> int:
    # nu2(d) from the cached sieve, given sigma(d)
    tau = _table(_sieve, d)
    half = d // 2
    conv = 2 * sum(map(mul, tau[1:d - half], tau[d - 1:half:-1]))  # A < D/2 against D - A
    if d % 2 == 0:
        conv += tau[half] ** 2  # A = B = D/2
    paired = conv + tau[d] - sigma
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
    _table(_sieve, d)  # as in nu2
    sigma = divisor_sigma(d)
    return _nu2(d, sigma) + 2 * sigma - divisor_tau(d)


def _direct_pass(n: int) -> list[int]:
    """h(D) for every D <= n (index 0 unused), by the orphan cone's progressions.

    An orphan has a > c >= 0 and d > b >= 0.  With a, b, c fixed, its
    determinant a*d - b*c runs over D0, D0 + a, D0 + 2a, ... as d runs
    from b + 1 up, where D0 = a + b*(a - c).  For each a the pass marks
    every start D0 <= n, one mark per (b, c), and a prefix sum with
    stride a turns the marks into the number of orphans with that a at
    every D <= n.  That is about n^2 log(n) / 2 marks and n^2 / 2 sums.
    """
    total = [0] * (_check_indexable(n) + 1)
    for a in range(1, n + 1):
        starts = [0] * (n + 1)
        for c in range(a):
            for d0 in range(a, n + 1, a - c):  # d0 = a + b*(a - c), b = 0, 1, ...
                starts[d0] += 1
        # no start lies below a, so starts[a:2a] are already final
        for lo in range(2 * a, n + 1, a):
            starts[lo:lo + a] = map(add, starts[lo:lo + a], starts[lo - a:lo])
        total = list(map(add, total, starts))
    return total


def h_direct(d: int) -> int:
    """Orphan count read from the definition: entry d of the cached direct pass.

    The pass is `_direct_pass`; see the module docstring for why it
    shares no loop or table with `count_orphans`.
    """
    _check_positive(d)
    return _table(_direct_pass, d)[d]


def _count_pass(n: int) -> list[int]:
    """h(D) for every D <= n (index 0 unused), by the sizes of residue classes.

    For each p <= q with p*q <= n, only D = p*q + j*g (g = gcd(p, q)) has
    a solution, and there the admissible b, from 0 to (D - p*q)//p, form
    one residue class modulo q/g.  About n^2 log(n) / 2 steps.
    """
    counts = [0] * (_check_indexable(n) + 1)
    for p in range(1, math.isqrt(n) + 1):
        for q in range(p, n // p + 1):
            g = math.gcd(p, q)
            step = q // g
            inv = pow(p // g, -1, step)
            weight = 1 if p == q else 2
            pq = p * q
            for j, d in enumerate(range(pq, n + 1, g)):
                first = j * inv % step  # (D - p*q)/g * (p/g)^-1 mod q/g
                top = (d - pq) // p
                # 0 <= first < step and top >= 0, so an empty class (first > top) adds 0
                counts[d] += weight * ((top - first) // step + 1)
    return counts


def count_orphans(d: int) -> int:
    """Number of orphans with determinant d: entry d of the cached `_count_pass`."""
    _check_positive(d)
    return _table(_count_pass, d)[d]


# ---------------------------------------------------------------------------
# verified census rows
# ---------------------------------------------------------------------------

class CensusRow(Value):
    """One determinant's census, with all three routes recorded; `census_row` computes and checks it."""

    __slots__ = ("D", "nu2", "sigma", "tau", "h_closed", "h_direct", "orphan_count")

    def __init__(
        self, D: int, nu2: int, sigma: int, tau: int, h_closed: int, h_direct: int, orphan_count: int
    ) -> None:
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "nu2", nu2)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "h_closed", h_closed)
        object.__setattr__(self, "h_direct", h_direct)
        object.__setattr__(self, "orphan_count", orphan_count)
        self.__post_init__()


def census_row(d: int) -> CensusRow:
    """Compute one row by all three routes; raises InternalInvariantError if they disagree.

    sigma(D) and tau(D) come from trial division, once each.  nu2 reads
    tau from the sieve, so the sieve's tau(D) must equal the trial
    division's.  sigma has no second source: a wrong sigma moves h_closed
    by 3/2 of the error (nu2 takes half of it away, the formula adds twice
    it), which the route check catches.
    """
    sieved = _table(_sieve, _check_positive(d))[d]  # as in nu2
    sigma, tau = divisor_sigma(d), divisor_tau(d)
    if sieved != tau:
        raise InternalInvariantError(f"sieve and trial division disagree at D={d}: tau {sieved} / {tau}")
    nu2 = _nu2(d, sigma)
    closed = nu2 + 2 * sigma - tau
    direct, count = h_direct(d), count_orphans(d)
    if not closed == direct == count:
        raise InternalInvariantError(f"route disagreement at D={d}: {closed} / {direct} / {count}")
    return CensusRow(D=d, nu2=nu2, sigma=sigma, tau=tau, h_closed=closed, h_direct=direct, orphan_count=count)


def census_rows(dmax: int) -> list[CensusRow]:
    """Rows 1..dmax, with the direct and the class counts of all of them from one pass each."""
    _check_positive(dmax)
    _table(_direct_pass, dmax)
    _table(_count_pass, dmax)
    return [census_row(d) for d in range(1, dmax + 1)]


# ---------------------------------------------------------------------------
# summatory function and series data
# ---------------------------------------------------------------------------

def _sigma_summatory(x: int) -> int:
    """sum_{n<=x} sigma(n) = sum_{k<=x} k * (x // k), in O(sqrt(x)) steps.

    x // k takes fewer than 2*sqrt(x) values, each on a run of
    consecutive k, and each run adds its quotient times its sum of k.
    """
    total = 0
    k = 1
    while k <= x:
        quotient = x // k
        last = x // quotient
        total += quotient * (k + last) * (last - k + 1) // 2
        k = last + 1
    return total


def _summatory(xs: list[int]) -> list[int]:
    """sum_{D<=x} h(D) for each x in xs, by the prefix-sum identity in the module docstring."""
    tau = _sieve(max(xs))
    sums = []
    for x in xs:
        # T(1..x-1) as a running sum against tau[x-1..1], read in place
        # through a memoryview: neither a copy of tau nor a table of T is made
        conv = sum(map(mul, accumulate(islice(tau, 1, x)), memoryview(tau)[x - 1:0:-1]))
        tau_sum = sum(islice(tau, 1, x + 1))
        sigma_sum = _sigma_summatory(x)
        paired = conv + tau_sum - sigma_sum
        if paired % 2:
            raise InternalInvariantError(f"odd distinct-size pair count {paired} summed to x={x}")
        sums.append(paired // 2 + 2 * sigma_sum - tau_sum)
    return sums


def summatory_h(x: int) -> int:
    """Exact sum of h(D) over D <= x."""
    _check_positive(x)
    return _summatory([x])[0]


class SeriesPoint(Value):
    """One summatory sample against the reference curve x^2 log(x)^2 / 4."""

    __slots__ = ("x", "summatory", "reference", "ratio")

    def __init__(self, x: int, summatory: int, reference: float, ratio: float) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "summatory", summatory)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "ratio", ratio)
        self.__post_init__()


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
