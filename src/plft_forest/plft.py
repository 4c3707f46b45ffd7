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

PLFTs are deliberately NOT reduced to projective representatives:
(2z+0)/(0z+2) and z agree pointwise but are distinct vertices here, with
distinct positions in the forest.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, groupby

LEFT = "L"
RIGHT = "R"

Move = str
Word = tuple[str, ...]


def _check_move(move: str) -> str:
    if move not in (LEFT, RIGHT):
        raise ValueError(f"move must be 'L' or 'R', got {move!r}")
    return move


@dataclass(frozen=True)
class Plft:
    """The transformation (a*z + b)/(c*z + d), stored as [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

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

    def left_child(self) -> "Plft":
        """f/(f+1); as a matrix, L1 times self."""
        return Plft(self.a, self.b, self.a + self.c, self.b + self.d)

    def right_child(self) -> "Plft":
        """f+1; as a matrix, R1 times self."""
        return Plft(self.a + self.c, self.b + self.d, self.c, self.d)

    def child(self, move: Move) -> "Plft":
        return self.left_child() if _check_move(move) == LEFT else self.right_child()

    def parent(self) -> "tuple[Plft, Move] | None":
        """Invert the child rules.

        Returns (parent, move) where ``parent.child(move) == self``, or
        None when self is an orphan.  At most one branch can apply: if
        both subtractions were legal the determinant would vanish.
        Boundary cases (a == c or b == d) subtract to a zero coefficient,
        which is still a valid PLFT.
        """
        if self.a >= self.c and self.b >= self.d:
            return Plft(self.a - self.c, self.b - self.d, self.c, self.d), RIGHT
        if self.c >= self.a and self.d >= self.b:
            return Plft(self.a, self.b, self.c - self.a, self.d - self.b), LEFT
        return None

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


def parse_word(text: str) -> Word:
    """Parse a word like "RLR" into a tuple of moves."""
    return tuple(_check_move(ch) for ch in text.strip())


def format_word(word: Word) -> str:
    return "".join(_check_move(m) for m in word)


def apply_word(root: Plft, word: Word) -> Plft:
    """Apply a word of moves to a root.

    Words are written like compositions: ``apply_word(g, ("R", "L", "R"))``
    is R(L(R(g))), so the last element is the first step taken at the
    root and ``word[0]`` is the move nearest the resulting node.  The
    matrix of the result is the left-to-right product of the factors
    named by the word, times the root's matrix.

    Each run of k identical moves is one multiplication, by
    R1^k = [[1, k], [0, 1]] or L1^k = [[1, 0], [k, 1]], so the
    arithmetic is per run, and one `Plft` is built at the end.  Raises
    ValueError on a move other than 'L' or 'R'.
    """
    a, b, c, d = root.a, root.b, root.c, root.d
    for move, run in groupby(reversed(word)):
        k = len(list(run))
        if _check_move(move) == RIGHT:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
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
    while not _orphan(a, b, c, d):
        k = min(a // c, b // d) if c and d else (a // c if c else b // d)
        runs.append(k)
        a, b, c, d = c, d, a - k * c, b - k * d
    if not runs:
        return w, ()
    root = Plft(a, b, c, d) if len(runs) % 2 == 0 else Plft(c, d, a, b)
    return root, tuple(runs)


def root_by_iteration(w: Plft) -> tuple[Plft, Word]:
    """Climb the parent map until an orphan is reached.

    Returns (root, word) with ``apply_word(root, word) == w``; word[0] is
    the first parent step taken from w.  The climb goes one maximal run
    of identical moves at a time (see `parent_runs`), so it ends after
    O(bit size) divisions, however long the runs are; the word itself is
    then spelled out by repetition.
    """
    root, runs = parent_runs(w)
    return root, word_of_runs(runs)


def word_of_runs(runs: tuple[int, ...]) -> Word:
    """Spell out alternating R, L, R, ... runs of the given lengths as a word."""
    return tuple("".join((LEFT if i % 2 else RIGHT) * k for i, k in enumerate(runs)))


class RunSteps(Sequence):
    """The steps of a walk, read from its runs; a step is built when it is read.

    ``runs`` is in `parent_runs`' form, and ``step(i, j)`` builds the
    j-th step of run i, for 1 <= j <= runs[i].  The sequence holds the
    runs and a list of their cumulative ends, so its length is O(1), an
    index costs a bisection over the runs plus one ``step`` call, and
    iterating goes run by run.  Slices give lists.  Its length is the
    sum of the runs, which ``len()`` can report only up to
    ``sys.maxsize``; indexing and iterating have no such limit.
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
            for j in range(1, k + 1):
                yield step(i, j)


def _orphan(a: int, b: int, c: int, d: int) -> bool:
    return (a < c and b > d) or (a > c and b < d)
