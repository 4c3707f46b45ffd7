"""Shared strategies and independent oracles for the test suite."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import hypothesis.strategies as st
import pytest

from plft_forest import LEFT, RIGHT, GaussianRational, Plft, word_of_runs

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

def word_of_letters(letters):
    """The library's word for a sequence of 'R' and 'L' letters, grouped into runs.

    Runs alternate R, L, R, ... as in ``parent_runs``, so a word whose
    first letter is L starts with an empty R-run.
    """
    runs = []
    for letter, group in groupby(letters):
        if letter not in (LEFT, RIGHT):
            raise ValueError(f"move must be 'L' or 'R', got {letter!r}")
        if not runs and letter == LEFT:
            runs.append(0)
        runs.append(len(list(group)))
    return word_of_runs(tuple(runs))


def left_child(w: Plft) -> Plft:
    """f/(f+1); as a matrix, L1 times w."""
    return Plft(w.a, w.b, w.a + w.c, w.b + w.d)


def right_child(w: Plft) -> Plft:
    """f+1; as a matrix, R1 times w."""
    return Plft(w.a + w.c, w.b + w.d, w.c, w.d)


def child(w: Plft, move) -> Plft:
    """One child step, the per-step oracle for ``apply_word``."""
    if move == LEFT:
        return left_child(w)
    if move == RIGHT:
        return right_child(w)
    raise ValueError(f"move must be 'L' or 'R', got {move!r}")


def parent(w: Plft):
    """Invert the child rules one step: (parent, move) or None for an orphan.

    ``child(parent, move) == w``.  At most one branch can apply: if both
    subtractions were legal the determinant would vanish.  Boundary
    cases (a == c or b == d) subtract to a zero coefficient, which is
    still a valid PLFT.  The per-step oracle for ``parent_runs``.
    """
    if w.a >= w.c and w.b >= w.d:
        return Plft(w.a - w.c, w.b - w.d, w.c, w.d), RIGHT
    if w.c >= w.a and w.d >= w.b:
        return Plft(w.a, w.b, w.c - w.a, w.d - w.b), LEFT
    return None


def root_by_unary_walk(w: Plft):
    """Climb ``parent`` one step at a time: (root, word of moves taken).

    The per-step route to the root, independent of the run-length
    division loop.  Its cost grows with the size of the coefficients, so
    use it on small inputs only.
    """
    word = []
    node = w
    while (up := parent(node)) is not None:
        node, move = up
        word.append(move)
    return node, tuple(word)


def complex_parent(z, params):
    """The parent in D0 by one step in Fraction arithmetic, or None for orphans.

    Right children (Re(z) > v) step back by v; left children (inside the
    disk |2uz - 1| < 1, which Re(z) > v >= 1 keeps out) invert z -> z/(1 - u*z).
    """
    if not (z.re > 0 and z.im > 0):
        raise ValueError(f"{z} is outside the open first quadrant")
    u, v = params.u, params.v
    x, y = z.re, z.im
    if x > v:
        return GaussianRational(x - v, y), RIGHT
    if (2 * u * x - 1) ** 2 + (2 * u * y) ** 2 < 1:  # inside the disk, exclusive of the circle
        denom = (1 - u * x) ** 2 + (u * y) ** 2
        return GaussianRational((x * (1 - u * x) - u * y * y) / denom, y / denom), LEFT
    return None


def apply_complex_move(z, move, params):
    """Child action by one step in Fraction arithmetic: L_u sends z to z/(u*z + 1), R_v to z + v."""
    if move == RIGHT:
        return GaussianRational(z.re + params.v, z.im)
    if move == LEFT:
        u = params.u
        x, y = z.re, z.im
        denom = (u * x + 1) ** 2 + (u * y) ** 2
        return GaussianRational((x * (u * x + 1) + u * y * y) / denom, y / denom)
    raise ValueError(f"move must be 'L' or 'R', got {move!r}")


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


def nu2_by_full_convolution(n: int) -> list:
    """nu2(D) for every D <= n (index 0 unused), from the convolution over every ordered pair.

    sum_{A=1}^{D-1} tau(A)*tau(D - A) = 2*nu2(D) + sigma(D) - tau(D), with
    tau and sigma from ``sieve_by_divisor_multiples``: the full-length
    reference for the library's sum over A < D/2.
    """
    tau, sigma = sieve_by_divisor_multiples(n)
    counts = [0]
    for d in range(1, n + 1):
        paired = sum(tau[a] * tau[d - a] for a in range(1, d)) + tau[d] - sigma[d]
        assert paired % 2 == 0, d
        counts.append(paired // 2)
    return counts


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


def enumerate_orphans(d: int) -> list[Plft]:
    """All orphans with determinant d in the a > c, b < d' cone.

    (The opposite cone holds their reciprocals, with determinant -d.)
    Writing a = c + p and d' = b + q with p, q >= 1 turns the
    determinant into p*q + p*b + q*c = D.  For each p, q with p*q <= D
    the admissible b form one residue class modulo q/gcd(p, q), and c
    follows from b.  The list has exactly h_closed(d) members; order
    is by (a - c, d' - b, b).
    """
    found = []
    for p in range(1, d + 1):
        for q in range(1, d // p + 1):
            rest = d - p * q
            g = math.gcd(p, q)
            if rest % g:
                continue
            step = q // g
            first = (rest // g) * pow(p // g, -1, step) % step
            for b in range(first, rest // p + 1, step):
                c = (rest - p * b) // q
                found.append(Plft(c + p, b, c, b + q))
    return found


def sieve_by_divisor_multiples(n: int) -> tuple:
    """tau[0..n] and sigma[0..n] (index 0 unused): each d adds itself to its multiples.

    O(n log n) steps; the reference for the linear sieve.
    """
    tau = [0] * (n + 1)
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for multiple in range(d, n + 1, d):
            tau[multiple] += 1
            sigma[multiple] += d
    return tau, sigma


def constructions(monkeypatch, fn, *args, cls=Plft):
    """fn(*args) and the number of ``cls`` values constructed while it ran."""
    count = 0
    original = cls.__post_init__

    def counting(self):
        nonlocal count
        count += 1
        original(self)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "__post_init__", counting)
        result = fn(*args)
    return result, count


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


# ---------------------------------------------------------------------------
# fresh interpreters
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def run_python(*argv, cwd=None):
    """Run ``python *argv`` in a fresh interpreter that imports this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
