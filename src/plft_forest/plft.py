"""Exact arithmetic on positive linear fractional transformations (PLFTs).

A PLFT is a map f(z) = (a*z + b)/(c*z + d) whose coefficients are
nonnegative integers with nonzero determinant a*d - b*c.  Under the
child rules

    left(f)  = f/(f + 1)          right(f) = f + 1

every PLFT generates an infinite binary tree, and the set of all PLFTs
is partitioned into a forest of such trees.  The roots of the forest,
the PLFTs that are not the child of anything, are called orphans; they
are exactly the maps with a < c and b > d, or a > c and b < d.

Identifying f with the matrix [[a, b], [c, d]], the child rules are
left multiplication by L1 = [[1, 0], [1, 1]] and R1 = [[1, 1], [0, 1]].
Coefficients are arbitrary precision: a path of length n inflates them
roughly like the n-th Fibonacci number, so 64-bit integers would
already overflow for words of modest length.

A word of moves is a `RunSteps` over its runs (`word_of_runs`), so
`apply_word`, the child action, and `parent_runs`, the parent walk,
cost O(bit size) per word, however long its runs are.

PLFTs are deliberately NOT reduced to projective representatives:
(2z+0)/(0z+2) and z agree pointwise but are distinct vertices here, with
distinct positions in the forest.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, chain, cycle, repeat
from operator import eq

from .errors import Value

LEFT = "L"
RIGHT = "R"

Move = str


class Plft(Value):
    """The transformation (a*z + b)/(c*z + d), stored as [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        self.__post_init__()

    # Plft equality checks every orphan_root_cf answer and every CLI root;
    # Value.__eq__, with its two attrgetter calls, would double its cost.
    # Defining __eq__ drops the inherited hash, so it is restored below.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c and self.d == other.d

    __hash__ = Value.__hash__

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"coefficient {name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"coefficient {name} must be nonnegative, got {value}")
        if self.a * self.d == self.b * self.c:
            raise ValueError(
                f"determinant of {self.coeffs()} is zero; not a linear fractional transformation"
            )

    # -- structure ------------------------------------------------------

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def is_orphan(self) -> bool:
        """True when this PLFT is not the left or right child of any PLFT."""
        return _orphan(self.a, self.b, self.c, self.d)

    def reciprocal(self) -> "Plft":
        """1/f, i.e. the rows swapped."""
        return Plft(self.c, self.d, self.a, self.b)

    # -- text forms -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Plft":
        """Parse the interchange form "a,b,c,d" (four decimal integers)."""
        parts = [p.strip() for p in text.strip().split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected four comma-separated integers, got {text!r}")
        try:
            a, b, c, d = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"expected four comma-separated integers, got {text!r}") from None
        return cls(a, b, c, d)

    def coeffs(self) -> str:
        """The interchange form "a,b,c,d"."""
        return f"{self.a},{self.b},{self.c},{self.d}"

    def __str__(self) -> str:
        num = _linear_str(self.a, self.b)
        den = _linear_str(self.c, self.d)
        if den == "1":
            return num
        if "+" in num:
            num = f"({num})"
        if den not in ("z",) and not den.isdigit():
            den = f"({den})"
        return f"{num}/{den}"


def _linear_str(coeff_z: int, const: int) -> str:
    z_part = "" if coeff_z == 0 else ("z" if coeff_z == 1 else f"{coeff_z}z")
    if not z_part:
        return str(const)
    if const == 0:
        return z_part
    return f"{z_part}+{const}"


IDENTITY = Plft(1, 0, 0, 1)


def format_word(word: RunSteps) -> str:
    """The letters of a word, such as "RLLRRR": one repeated letter per run."""
    return "".join((LEFT if i % 2 else RIGHT) * k for i, k in enumerate(word.runs))


def apply_word(root: Plft, word: RunSteps) -> Plft:
    """Apply a word of moves, from `word_of_runs`, to a root, a run at a time.

    Words are written like compositions: RLR, ``word_of_runs((1, 1, 1))``,
    sends g to R(L(R(g))), so the last letter is the first step taken at
    the root and ``word[0]`` is the move nearest the resulting node.  The
    result's matrix is the left-to-right product of the word's factors
    times the root's.  A run of k moves is one multiplication, by
    R1^k = [[1, k], [0, 1]] or L1^k = [[1, 0], [k, 1]], however large k
    is, and one `Plft` is built at the end.
    """
    a, b, c, d = root.a, root.b, root.c, root.d
    runs = word.runs
    for i in reversed(range(len(runs))):
        k = runs[i]
        if i % 2:
            c, d = c + k * a, d + k * b
        else:
            a, b = a + k * c, b + k * d
    return Plft(a, b, c, d)


def parent_runs(w: Plft) -> tuple[Plft, tuple[int, ...]]:
    """Climb to the orphan root a whole run of parent steps at a time.

    Returns (root, runs): the parent walk from w takes runs[0] R-steps,
    then runs[1] L-steps, then runs[2] R-steps, and so on.  Only runs[0]
    can be 0 (when the first step is L); an orphan gives ().

    At [[a, b], [c, d]] an R-step subtracts the second row from the first
    and applies while a >= c and b >= d, so a maximal R-run has length
    min(a // c, b // d), taking only the floor whose divisor is nonzero
    (c and d are never both zero, as the determinant stays nonzero).  The
    walk swaps the rows after each run, so the next run, of L-steps, is
    measured by the same floor.  This is the division algorithm of
    `plft_cf_expand`: the runs are its partial quotients and the final
    matrix is its tail.

    Termination, run by run: a run is finite because each step lowers the
    coefficient sum, and every run after the first has k >= 1, so the
    sum falls with each run.  After the first run, each run is one step of
    Euclid's algorithm on both columns at once (a column may take its last
    quotient q as (q - 1) + 1), so there are at most two more runs than
    terms in the shorter Euclidean expansion of a/c and b/d: O(bit size)
    by Lame's theorem.  The walk stops at a matrix with no parent in either
    orientation, since the orphan condition is symmetric under swapping
    rows.
    """
    a, b, c, d = w.a, w.b, w.c, w.d
    runs = []
    while (a >= c or b <= d) and (a <= c or b >= d):  # not _orphan(a, b, c, d), inlined
        k = min(a // c, b // d) if c and d else (a // c if c else b // d)
        runs.append(k)
        a, b, c, d = c, d, a - k * c, b - k * d
    if not runs:
        return w, ()
    root = Plft(a, b, c, d) if len(runs) % 2 == 0 else Plft(c, d, a, b)
    return root, tuple(runs)


def root_by_iteration(w: Plft) -> tuple[Plft, RunSteps]:
    """Climb the parent map until an orphan is reached.

    Returns (root, word) with ``apply_word(root, word) == w``; word[0] is
    the first parent step taken from w.  The climb goes one maximal run
    of identical moves at a time (see `parent_runs`), and the word is
    `word_of_runs` of those runs, so the call ends after O(bit size)
    divisions, however long the runs are.
    """
    root, runs = parent_runs(w)
    return root, word_of_runs(runs)


def word_of_runs(runs: tuple[int, ...]) -> RunSteps:
    """The word of alternating R, L, R, ... runs of the given lengths: a
    `RunSteps` of the letters 'R' and 'L', equal to the tuple it spells.

    The runs are in `parent_runs`' form, ints with ``runs[0] >= 0`` and
    every later run ``>= 1``; anything else raises ValueError.
    """
    for i, k in enumerate(runs):
        if not isinstance(k, int) or isinstance(k, bool) or k < (1 if i else 0):
            raise ValueError(f"run {i} of a word must be an int >= {1 if i else 0}, got {k!r}")
    return _Word(runs, lambda i, j: LEFT if i % 2 else RIGHT)


class RunSteps(Sequence):
    """The steps of a walk, read from its runs; a step is built when it is read.

    ``runs`` is in `parent_runs`' form, and ``step(i, j)`` builds the
    j-th step of run i, for 1 <= j <= runs[i].  The sequence holds the
    runs and a list of their cumulative ends, so its length is O(1), an
    index costs a bisection over the runs plus one ``step`` call, and
    iterating goes run by run.  Slices give lists.  Its length is the
    sum of the runs, which ``len()`` can report only up to
    ``sys.maxsize``; indexing and iterating have no such limit.  It
    equals any sequence but a ``str`` with the same length, compared at
    once, and the same items, read step by step; like ``list``, it is
    unhashable.
    """

    __slots__ = ("runs", "_ends", "_step")

    def __init__(self, runs: tuple[int, ...], step: Callable[[int, int], object]) -> None:
        self.runs = runs
        self._ends = [0, *accumulate(runs)]  # run i covers _ends[i] <= index < _ends[i + 1]
        self._step = step

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, index):
        where = range(self._ends[-1])[index]
        if isinstance(where, range):
            return [self[i] for i in where]
        i = bisect_right(self._ends, where) - 1
        return self._step(i, where - self._ends[i] + 1)

    def __iter__(self) -> Iterator:
        step = self._step
        for i, k in enumerate(self.runs):
            yield from map(step, repeat(i, k), range(1, k + 1))

    def __eq__(self, other):
        if isinstance(other, str) or not isinstance(other, Sequence):
            return NotImplemented
        # _ends[-1], not len(), which overflows past sys.maxsize
        length = other._ends[-1] if isinstance(other, RunSteps) else len(other)
        return length == self._ends[-1] and all(map(eq, self, other))


class _Word(RunSteps):
    # every step of a run is the run's letter, so iterating repeats it in C
    __slots__ = ()

    def __iter__(self) -> Iterator:
        return chain.from_iterable(map(repeat, cycle((RIGHT, LEFT)), self.runs))


def _orphan(a: int, b: int, c: int, d: int) -> bool:
    return (a < c and b > d) or (a > c and b < d)
