"""Continued fractions of rationals and PLFTs, and orphan-root location.

A positive rational has the usual Euclidean expansion [q0, q1, ..., qk]
(two standard representations, differing in whether the last term is
split as qk = (qk-1) + 1/1).  A PLFT w has an analogous expansion

    w = q0 + 1/(q1 + ... + 1/(q_{k-1} + 1/q))

produced by a division algorithm whose tail q is an orphan PLFT; the
root of the tree containing w is q when k is even and 1/q when k is
odd.  The quotients are the lengths of the runs of identical moves on
the parent walk, so the expansion and the root walk share one loop,
`plft.parent_runs`.  The same root can be found a second way, from the
rational expansions of a/c and b/d alone: for a pair of their standard
representations, peel the shared prefix and the pivot off column-wise,
and the residual matrix is the tail.  `orphan_root_cf` returns the first
verified pair, the first whose tail is an orphan and whose expansion
multiplies back out to the input exactly.  No other pair could give a
different answer: a verified pair writes the input as R^q0 L^q1 ...
applied to an orphan, and the parent walk, which is unique, then climbs
exactly those runs to exactly that orphan.  The two routes must agree.

Rational continued fractions are plain tuples of ints.  Membership in
the monoid generated by L1 and R1 is `decompose_special`, and one walk
up the tree of positive rationals gives ancestors and descent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalInvariantError, Value
from .plft import IDENTITY, Plft, RunSteps, _orphan, parent_runs, word_of_runs

Quotients = tuple[int, ...]


# ---------------------------------------------------------------------------
# rational continued fractions
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" as an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def cf_of_rational(r: Fraction) -> Quotients:
    """Canonical Euclidean expansion of a positive rational.

    The last term is >= 2 unless the expansion has length 1, and
    evaluating the expansion returns r exactly.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"continued fractions are defined for positive rationals, got {r}")
    return _cf_of_nonneg(r.numerator, r.denominator)


def _cf_of_nonneg(n: int, d: int) -> Quotients:
    # Euclidean algorithm; accepts 0 (expansion (0,)) for internal use.
    terms = []
    while True:
        q, rem = divmod(n, d)
        terms.append(q)
        if rem == 0:
            return tuple(terms)
        n, d = d, rem


def _validate_cf(terms: Quotients) -> None:
    if not terms:
        raise ValueError("empty continued fraction")
    if terms[0] < 0 or any(t < 1 for t in terms[1:]):
        raise ValueError(f"invalid partial quotients {terms}: need q0 >= 0 and qi >= 1")


def _cf_column(terms: Quotients) -> tuple[int, int]:
    # Column vector (numerator, denominator) of a bracket, folding
    # x -> t + 1/x from the terminal 1/0.
    n, d = 1, 0
    for t in reversed(terms):
        n, d = t * n + d, n
    g = gcd(n, d)
    return n // g, d // g


# ---------------------------------------------------------------------------
# PLFT continued fractions
# ---------------------------------------------------------------------------

class PlftContinuedFraction(Value):
    """Partial quotients plus an orphan tail.

    Stands for q0 + 1/(q1 + ... + 1/(q_{k-1} + 1/tail)); a plain orphan
    has no quotients at all.
    """

    __slots__ = ("quotients", "tail")

    def __init__(self, quotients: Quotients, tail: Plft) -> None:
        object.__setattr__(self, "quotients", quotients)
        object.__setattr__(self, "tail", tail)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.quotients:
            _validate_cf(self.quotients)
        if not self.tail.is_orphan:
            raise ValueError(f"tail {self.tail.coeffs()} is not an orphan")

    def __str__(self) -> str:
        if not self.quotients:
            return f"[| {self.tail.coeffs()}]"
        head = str(self.quotients[0])
        if len(self.quotients) > 1:
            head += ";" + ",".join(str(q) for q in self.quotients[1:])
        return f"[{head},| {self.tail.coeffs()}]"


def format_rational_cf(terms: Quotients) -> str:
    """Text form "[q0;q1,q2,...]" (just "[q0]" for a single term)."""
    _validate_cf(terms)
    if len(terms) == 1:
        return f"[{terms[0]}]"
    return f"[{terms[0]};{','.join(str(t) for t in terms[1:])}]"


def plft_cf_expand(w: Plft) -> PlftContinuedFraction:
    """Division-algorithm expansion of a PLFT.

    Repeatedly subtract the integer part (the least defined floor of a/c
    and b/d); once the remainder is an orphan, stop with tail = reciprocal
    of the remainder, otherwise invert and continue.  An orphan input
    expands to itself with no quotients.  `evaluate_plft_cf` inverts this
    exactly.

    The quotients are the run lengths of the parent walk, read as
    alternating R, L, R, ... runs, and the tail is the root or its
    reciprocal by parity, so both come from the one division loop in
    `parent_runs`.
    """
    root, runs = parent_runs(w)
    return PlftContinuedFraction(runs, root if len(runs) % 2 == 0 else root.reciprocal())


def evaluate_plft_cf(cf: PlftContinuedFraction) -> Plft:
    """Multiply the expansion back out."""
    t = cf.tail
    a, b, c, d = t.a, t.b, t.c, t.d
    for q in reversed(cf.quotients):
        a, b, c, d = c + q * a, d + q * b, a, b
    return Plft(a, b, c, d)


# ---------------------------------------------------------------------------
# orphan root from the rational expansions of a/c and b/d
# ---------------------------------------------------------------------------

class RootReport(Value):
    """Result of the continued-fraction route to the orphan root.

    ``cf`` is the verified expansion of the PLFT after the one
    pre-normalization, the reciprocal taken when c = 0 or d = 0
    (``reciprocal_applied``), and it equals `plft_cf_expand` of that PLFT.
    Its last quotient is the pivot, and the normalized root is its tail,
    or the tail's reciprocal when the number of quotients is odd.
    ``root`` is always expressed in the original variable.
    """

    __slots__ = ("root", "cf", "reciprocal_applied")

    def __init__(self, root: Plft, cf: PlftContinuedFraction, reciprocal_applied: bool = False) -> None:
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "cf", cf)
        object.__setattr__(self, "reciprocal_applied", reciprocal_applied)
        self.__post_init__()


def _residual_column(terms: Quotients, shared: int, pivot: int, scale: int) -> tuple[int, int]:
    # Peel `shared` full terms plus `pivot` off a rational expansion and
    # return the leftover column, rescaled by the gcd the expansion lost.
    # A fully consumed expansion leaves the terminal column (1, 0).
    if shared == len(terms):
        return scale, 0
    rest = (terms[shared] - pivot,) + terms[shared + 1:]
    n, d = _cf_column(rest)
    return scale * n, scale * d


def orphan_root_cf(w: Plft) -> RootReport:
    """Locate the orphan root from the expansions of a/c and b/d.

    After the reciprocal pre-normalization (when c = 0 or d = 0), the
    pairs drawn from the two standard representations of a/c and of b/d
    are tried in order, canonical first.  A pair's shared prefix plus its
    pivot, the smaller of the first differing terms, are the candidate
    quotients, and its residual columns, scaled by gcd(a, c) and
    gcd(b, d), are the reciprocal of the candidate tail.  The first pair
    whose tail is an orphan and whose expansion multiplies back out to
    the input exactly is the answer: it writes the input as
    R^q0 L^q1 ... applied to an orphan, and since the parent walk is
    unique, that orphan is the root and the quotients are the walk's runs,
    whichever pair produced them.
    """
    if w.is_orphan:
        return RootReport(root=w, cf=PlftContinuedFraction((), w))

    reciprocal_applied = w.c == 0 or w.d == 0
    v = w.reciprocal() if reciprocal_applied else w
    g_ac = gcd(v.a, v.c)
    g_bd = gcd(v.b, v.d)
    for qa in _variant_list(v.a, v.c):
        for qb in _variant_list(v.b, v.d):
            # qa != qb, as a/c = b/d would make the determinant zero
            shared = 0
            while shared < len(qa) and shared < len(qb) and qa[shared] == qb[shared]:
                shared += 1
            if shared == len(qa):
                pivot = qb[shared]
            elif shared == len(qb):
                pivot = qa[shared]
            else:
                pivot = min(qa[shared], qb[shared])
            if pivot < 1:
                continue
            a1, c1 = _residual_column(qa, shared, pivot, g_ac)
            b1, d1 = _residual_column(qb, shared, pivot, g_bd)
            # an orphan's determinant is never zero, so Plft accepts it
            if not _orphan(a1, b1, c1, d1):
                continue
            cf = PlftContinuedFraction(qa[:shared] + (pivot,), Plft(c1, d1, a1, b1))
            if evaluate_plft_cf(cf) != v:
                continue
            # the root is the tail's reciprocal for an odd number of
            # quotients, and the reciprocal again undoes the pre-normalization
            odd = len(cf.quotients) % 2 == 1
            root = cf.tail.reciprocal() if odd != reciprocal_applied else cf.tail
            return RootReport(root=root, cf=cf, reciprocal_applied=reciprocal_applied)

    raise InternalInvariantError(
        f"no representation pair for {w.coeffs()} yields a verified orphan tail"
    )


def _variant_list(n: int, d: int) -> list[Quotients]:
    # n/d's two standard representations, [..., q] (q >= 2 or length 1)
    # first, then [..., q-1, 1]; zero's (0,) is alone.
    canonical = _cf_of_nonneg(n, d)
    if canonical == (0,):
        return [canonical]
    return [canonical, canonical[:-1] + (canonical[-1] - 1, 1)]


# ---------------------------------------------------------------------------
# words and monoid membership
# ---------------------------------------------------------------------------

def decompose_special(m: Plft) -> "RunSteps | None":
    """Write m as a word over {L1, R1}, or None when impossible.

    The word satisfies ``apply_word(IDENTITY, word) == m``.  Membership
    is decided by the parent walk, one run at a time, and a member's word
    is `plft.word_of_runs` of its runs, so the cost is O(bit size).

    Every input is cross-checked against its determinant: m is a member
    exactly when det m = 1.  Parent steps keep the determinant, so the
    root's is det m.  An orphan with a > c >= 0 and d > b >= 0 has
    ad - bc >= (c + 1)(b + 1) - bc = b + c + 1, and one with a < c and
    b > d has ad <= (c - 1)(b - 1) < bc, so the only orphan of
    determinant 1 is IDENTITY.  A walk that disagrees raises
    InternalInvariantError.
    """
    root, runs = parent_runs(m)
    in_monoid = root == IDENTITY
    if in_monoid != (m.det == 1):
        raise InternalInvariantError(
            f"the parent walk of {m.coeffs()} ends at {root.coeffs()}, against its determinant {m.det}"
        )
    return word_of_runs(runs) if in_monoid else None


# ---------------------------------------------------------------------------
# ancestors and descendants of rationals in the classic tree
# ---------------------------------------------------------------------------

def is_descendant_rational(ancestor: Fraction, target: Fraction) -> bool:
    """Is target a proper descendant of ancestor in the rational tree?

    Asks whether ancestor = P/Q lies on a run of the target's walk up to
    1/1, in one Euclid loop that takes the same floors as
    `ancestors_of_rational` (so it is no check of that function) and
    returns at the first run that holds the ancestor.  An R-run of
    length k from (p, q) holds P/Q iff Q = q, 0 < p - P <= k*q and
    q | p - P; an L-run iff P = p, 0 < q - Q <= k*p and p | q - Q.  So the
    call costs O(bit size), however long the runs are.  No value is its
    own descendant.
    """
    ancestor, target = Fraction(ancestor), Fraction(target)
    if ancestor <= 0 or target <= 0:
        raise ValueError("descendant test is defined for positive rationals")
    P, Q = ancestor.numerator, ancestor.denominator
    p, q = target.numerator, target.denominator
    while p != q:
        if p > q:
            k = (p - 1) // q
            if Q == q and 0 < p - P <= k * q and (p - P) % q == 0:
                return True
            p -= k * q
        else:
            k = (q - 1) // p
            if P == p and 0 < q - Q <= k * p and (q - Q) % p == 0:
                return True
            q -= k * p
    return False


def ancestors_of_rational(w: Fraction) -> RunSteps:
    """Proper ancestors of w, nearest first, ending at the root 1/1.

    The parent of p/q is (p-q)/q when p > q and p/(q-p) otherwise, so the
    chain is a sequence of runs whose lengths are the quotients of
    `cf_of_rational(w)`, the last one less one.  Each run is one integer
    division, and the answer is a `plft.RunSteps` over the runs, in
    `parent_runs`' form, that keeps (p, q) at the start of each run: the
    j-th ancestor of an R-run is (p - j*q)/q and of an L-run p/(q - j*p),
    built as a Fraction only when it is read.  So the call costs
    O(bit size), however long the runs are.
    """
    w = Fraction(w)
    if w <= 0:
        raise ValueError("ancestors are defined for positive rationals")
    p, q = w.numerator, w.denominator
    runs, starts = [], []  # Euclid on p/q, one run per division, and (p, q) at each run's start
    while p != q:
        starts.append((p, q))
        if len(runs) % 2 == 0:
            k = (p - 1) // q
            p -= k * q
        else:
            k = (q - 1) // p
            q -= k * p
        runs.append(k)

    def step(i: int, j: int) -> Fraction:
        p, q = starts[i]
        return Fraction(p - j * q, q) if i % 2 == 0 else Fraction(p, q - j * p)

    return RunSteps(tuple(runs), step)
