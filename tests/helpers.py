"""Shared strategies and independent oracles for the test suite."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest

from plft_forest import LEFT, RIGHT, Plft, complex_parent

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

moves = st.sampled_from([LEFT, RIGHT])


def words(max_size=50):
    return st.lists(moves, max_size=max_size).map(tuple)


def plfts(max_coeff=10**6):
    return (
        st.tuples(*(st.integers(min_value=0, max_value=max_coeff),) * 4)
        .filter(lambda t: t[0] * t[3] != t[1] * t[2])
        .map(lambda t: Plft(*t))
    )


@st.composite
def orphans(draw, size=30):
    """Random orphan: a > c and b < d always satisfy the determinant bound.

    Columns are optionally scaled by common factors, since orphanhood is
    column-scale invariant and scaled columns exercise the gcd handling
    in the root machinery.
    """
    c = draw(st.integers(0, size))
    b = draw(st.integers(0, size))
    a = c + draw(st.integers(1, size))
    d = b + draw(st.integers(1, size))
    g1 = draw(st.integers(1, 6))
    g2 = draw(st.integers(1, 6))
    o = Plft(a * g1, b * g2, c * g1, d * g2)
    return o.reciprocal() if draw(st.booleans()) else o


def positive_rationals(max_part=200):
    return st.tuples(
        st.integers(min_value=1, max_value=max_part),
        st.integers(min_value=1, max_value=max_part),
    ).map(lambda t: Fraction(*t))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def root_by_unary_walk(w: Plft):
    """Climb ``Plft.parent()`` one step at a time: (root, word of moves taken).

    The per-step route to the root, independent of the run-length
    division loop.  Its cost grows with the size of the coefficients, so
    use it on small inputs only.
    """
    word = []
    node = w
    while (up := node.parent()) is not None:
        node, move = up
        word.append(move)
    return node, tuple(word)


def chain_by_unary_walk(z, params):
    """Climb ``complex_parent`` one step at a time: (root, [(value, move, im_increase), ...]).

    The per-step route up the complex forest, independent of the
    run-length loop of ``ancestor_runs``.  Its cost grows with the
    length of the runs, so use it on small inputs only.
    """
    steps = []
    node = z
    while (up := complex_parent(node, params)) is not None:
        parent, move = up
        steps.append((parent, move, parent.im - node.im))
        node = parent
    return node, steps


def ancestors_by_unary_walk(w: Fraction) -> list:
    """Climb the rational tree one parent at a time: w - 1 above 1, w/(1 - w) below.

    The literal per-step route, in Fraction arithmetic, independent of
    the run-length division of ``ancestors_of_rational``.  Its cost
    grows with the length of the runs, so use it on small inputs only.
    """
    chain = []
    while w != 1:
        w = w - 1 if w > 1 else w / (1 - w)
        chain.append(w)
    return chain


def check_reads_as(seq, expected: list) -> None:
    """A sequence read by index, negative index, slice and iteration equals ``expected``."""
    n = len(expected)
    assert len(seq) == n
    assert [seq[i] for i in range(n)] == expected
    assert [seq[i] for i in range(-n, 0)] == expected
    assert list(seq) == expected
    for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(n // 2, None, 3)):
        assert seq[cut] == expected[cut]
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[outside]


def nu2_brute(d: int) -> int:
    """Count partitions with exactly two distinct part sizes by enumeration.

    Walks every triple (larger size s1, its multiplicity m1, smaller
    size s2) and checks that the leftover is a positive multiple of s2.
    Shares nothing with the divisor-convolution route.
    """
    count = 0
    for s1 in range(2, d):
        for m1 in range(1, d // s1 + 1):
            rest = d - m1 * s1
            if rest < 1:
                break
            for s2 in range(1, s1):
                if rest % s2 == 0:
                    count += 1
    return count


def orphans_by_definition(d: int) -> set:
    """Orphans of determinant d in the a > c, d' > b cone, by a literal scan.

    Bound on the scan: a > c and d' > b give a >= c + 1 and d' >= b + 1,
    so D = a*d' - b*c >= (c+1)*(b+1) - b*c = b + c + 1, that is
    b + c <= D - 1.  Then b*c <= (D-1)**2 / 4, and a*d' = D + b*c bounds
    a and d' by D + (D-1)**2 // 4 as well.  Every entry is scanned over
    0..that bound and only the determinant and the cone are tested.
    The scan is quartic in that bound, so use it for small d only.
    """
    top = range(d + (d - 1) ** 2 // 4 + 1)
    return {
        Plft(a, b, c, dd)
        for a in top for b in top for c in top for dd in top
        if a * dd - b * c == d and a > c and dd > b
    }


def iter_partitions(d: int, largest=None):
    """All partitions of d in (part, multiplicity) form, largest part first."""
    if largest is None:
        largest = d
    if d == 0:
        yield ()
        return
    for part in range(min(d, largest), 0, -1):
        for mult in range(d // part, 0, -1):
            for rest in iter_partitions(d - mult * part, part - 1):
                yield ((part, mult),) + rest


def rational_tree_paths(depth: int) -> dict:
    """Breadth-first rational tree from 1/1: value -> root path (L/R tuple)."""
    paths = {Fraction(1): ()}
    frontier = [(Fraction(1), ())]
    for _ in range(depth):
        nxt = []
        for value, path in frontier:
            for child, move in ((value / (value + 1), LEFT), (value + 1, RIGHT)):
                child_path = path + (move,)
                paths[child] = child_path
                nxt.append((child, child_path))
        frontier = nxt
    return paths


def first_rows_rationals(rows: int) -> list:
    """The rationals of the first `rows` rows of the tree, in order."""
    out = [Fraction(1)]
    frontier = [Fraction(1)]
    for _ in range(rows - 1):
        nxt = []
        for value in frontier:
            nxt.extend((value / (value + 1), value + 1))
        out.extend(nxt)
        frontier = nxt
    return out
