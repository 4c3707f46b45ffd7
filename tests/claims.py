"""Checks of the paper's claims that only the tests run: the library's routes are checked against them."""

import math
from fractions import Fraction

from plft_forest import IDENTITY, LEFT, RIGHT, InternalInvariantError, Plft, cf_of_rational
from plft_forest import orphan_root_cf
from plft_forest.cf import PlftContinuedFraction, _cf_column, _validate_cf, _variant_list


def evaluate_cf(terms) -> Fraction:
    """Exact value of a finite continued fraction."""
    _validate_cf(terms)
    return Fraction(*_cf_column(terms))


def cf_variants(terms) -> set:
    """The two standard representations of a continued fraction's value.

    [..., q] with q >= 2 pairs with [..., q-1, 1]; the expansion (0,)
    of zero is alone.  Both members evaluate to the same rational.
    """
    _validate_cf(terms)
    return set(_variant_list(*_cf_column(terms)))


def is_descendant_by_splice(ancestor: Fraction, target: Fraction) -> bool:
    """Is target a proper descendant of ancestor, by the continued-fraction splice rule?

    For some representation pair [q0..qr] of the ancestor and [p0..ps]
    of the target, s >= r with s - r even, the last r - 1 terms match,
    and the splice point satisfies p_{s-r} >= q0 with p_{s-r+1} = q1
    (q0 nonzero) or p_{s-r+1} >= q1 (q0 zero).  The relation is strict:
    no value is its own descendant.  It shares no walk with the run test.
    """
    ancestor, target = Fraction(ancestor), Fraction(target)
    if ancestor <= 0 or target <= 0:
        raise ValueError("descendant test is defined for positive rationals")
    if ancestor == target:
        return False
    for qs in cf_variants(cf_of_rational(ancestor)):
        r = len(qs) - 1
        for ps in cf_variants(cf_of_rational(target)):
            s = len(ps) - 1
            if s < r or (s - r) % 2:
                continue
            if any(ps[s - r + i] != qs[i] for i in range(2, r + 1)):
                continue
            if qs[0] != 0:
                if ps[s - r] >= qs[0] and (r < 1 or ps[s - r + 1] == qs[1]):
                    return True
            elif ps[s - r + 1] >= qs[1]:
                return True
    return False


def lr_on_cf(cf: PlftContinuedFraction, move) -> PlftContinuedFraction:
    """``plft_cf_expand`` of the left or right child, on quotients alone.

    R increments q0; L increments q1 when q0 = 0 and otherwise prepends
    [0, 1].  On a bare orphan, R flips the tail into 1 + 1/tail' form.
    """
    q = cf.quotients
    if move == RIGHT:
        if not q:
            return PlftContinuedFraction((1,), cf.tail.reciprocal())
        return PlftContinuedFraction((q[0] + 1,) + q[1:], cf.tail)
    if move == LEFT:
        if not q:
            return PlftContinuedFraction((0, 1), cf.tail)
        if q[0] == 0:
            if len(q) == 1:
                raise ValueError("degenerate expansion [0 | tail] has no second quotient")
            return PlftContinuedFraction((0, q[1] + 1) + q[2:], cf.tail)
        return PlftContinuedFraction((0, 1) + q, cf.tail)
    raise ValueError(f"move must be 'L' or 'R', got {move!r}")


def limit_checks(w: Plft, cf: PlftContinuedFraction) -> bool:
    """The limit identities: the tail's value at infinity, folded into the
    quotients, gives a/c, and its value at zero gives b/d (the fold is
    projective, so a tail heading to infinity at zero truncates the
    expansion by itself).  Requires c, d nonzero.
    """
    if w.c == 0 or w.d == 0:
        raise ValueError("limit identities need c and d nonzero")

    def fold(n: int, d: int) -> tuple:
        for q in reversed(cf.quotients):
            n, d = q * n + d, n
        return n, d

    n_inf, d_inf = fold(cf.tail.a, cf.tail.c)
    n_zero, d_zero = fold(cf.tail.b, cf.tail.d)
    return w.a * d_inf == w.c * n_inf and w.b * d_zero == w.d * n_zero


def prefix_extension_pair(m: Plft) -> bool:
    """Does some representation pair make one of a/c, b/d exactly one
    term longer than the other, which is a full prefix?

    Words ending in L have a/c as the longer side, words ending in R have
    b/d, so both orientations are tried.  With determinant +1 this is the
    expansion condition for membership in the monoid of {L1, R1}.
    Requires c, d nonzero.
    """
    for qa in _variant_list(m.a, m.c):
        for qb in _variant_list(m.b, m.d):
            if len(qa) == len(qb) + 1 and qa[: len(qb)] == qb:
                return True
            if len(qb) == len(qa) + 1 and qb[: len(qa)] == qa:
                return True
    return False


def rootz_check(w: Plft) -> bool:
    """True when the orphan root of w is z or 1/z.

    Defined for c, d nonzero and determinant +-1; anything else raises
    ValueError.
    """
    if w.c == 0 or w.d == 0 or abs(w.det) != 1:
        raise ValueError(f"rootz_check needs c, d nonzero and determinant +-1 (determinant is {w.det})")
    root = orphan_root_cf(w).root
    result = root in (IDENTITY, IDENTITY.reciprocal())
    if prefix_extension_pair(w) and not result:
        raise InternalInvariantError(
            f"{w.coeffs()} satisfies the expansion condition but has root {root.coeffs()}"
        )
    return result


def epsilon_u(u: int, y) -> float:
    """Least gain in Im of an L-parent step at height y, as a float.

    2y/(1 + sqrt(1 - 4*u^2*y^2)) - y for 0 < y <= 1/(2u); equals y at the
    right endpoint.  Chain termination is argued in `ancestor_runs` without it.
    """
    if not isinstance(u, int) or isinstance(u, bool) or u < 1:
        raise ValueError(f"u must be a positive integer, got {u!r}")
    y_exact = Fraction(y)
    if not 0 < y_exact <= Fraction(1, 2 * u):
        raise ValueError(f"need 0 < y <= 1/(2u) = 1/{2 * u}, got {y}")
    yf = float(y_exact)
    return 2.0 * yf / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * u * u * yf * yf))) - yf
