"""The complex (u, v)-forest on the open first quadrant.

For positive integers u and v, the generators L_u = [[1, 0], [u, 1]] and
R_v = [[1, v], [0, 1]] act on complex numbers by z -> z/(u*z + 1) and
z -> z + v.  Starting anywhere in the open quadrant D0 (both parts
positive), these child moves generate a forest; a point with no parent
inside D0 is a (u, v)-orphan.  The orphan region is exactly

    Re(z) <= v   and   |2*u*z - 1| >= 1,

the quadrant minus a translation strip and an open disk.  Every
membership test here works on squared moduli in exact rational
arithmetic, so the circle boundary lands with the orphans and no square
roots are ever taken.

Walking upward goes a whole run of identical moves at a time
(`ancestor_runs`).  An R-run subtracts a multiple of v from the real
part, and an L-run, since the disk |2uz - 1| < 1 is the half-plane
Re(1/z) > u, translates 1/z by a multiple of -u.  Each run is maximal,
so the runs alternate, as Euclid's quotients do, and each L-run strictly
raises the imaginary part.  That bounds the number of runs by
2 + log_phi(max(1, 1/Im z)), so every walk ends after O(bit size) runs,
however long they are.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InternalInvariantError, Value
from .plft import LEFT, RIGHT, Move, RunSteps

_PART = r"[+-]?\d+(?:/\d+)?"
_SIGNED_PART = r"[+-]\d+(?:/\d+)?"
_GAUSSIAN_RE = re.compile(rf"^({_PART})({_SIGNED_PART})\*i$")
_ZERO = Fraction(0)


class GaussianRational(Value):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        self.__post_init__()

    def __post_init__(self) -> None:
        for name in ("re", "im"):
            value = getattr(self, name)
            if isinstance(value, float):
                raise ValueError(
                    f"{name} must be exact (int, Fraction, or 'p/q' string), got float {value!r}"
                )
            object.__setattr__(self, name, Fraction(value))

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse the form "p/q+r/s*i" (integer parts and signs allowed)."""
        m = _GAUSSIAN_RE.match(text.strip().replace(" ", ""))
        if not m:
            raise ValueError(f"not of the form p/q+r/s*i: {text!r}")
        try:
            return cls(Fraction(m.group(1)), Fraction(m.group(2)))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else ""
        return f"{self.re}{sign}{self.im}*i"


class OrphanParams(Value):
    """The generator pair (u, v), both positive integers."""

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        self.__post_init__()

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


class ChainStep(Value):
    """One upward step: the parent reached, and how the child hangs off it.

    ``move`` is the child relation (the parent's L- or R-child is the
    previous chain value); ``im_increase`` is the exact gain in
    imaginary part, zero for R steps and strictly positive for L steps.
    """

    __slots__ = ("value", "move", "im_increase")

    def __init__(self, value: GaussianRational, move: Move, im_increase: Fraction) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "im_increase", im_increase)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.move == RIGHT and self.im_increase != 0:
            raise ValueError("an R step cannot change the imaginary part")
        if self.move == LEFT and self.im_increase <= 0:
            raise ValueError("an L step must strictly raise the imaginary part")


def _require_d0(z: GaussianRational) -> None:
    # the strict open first quadrant
    if not (z.re > 0 and z.im > 0):
        raise ValueError(f"{z} is outside the open first quadrant")


def _in_disk(z: GaussianRational, u: int) -> bool:
    # |2uz - 1| < 1, squared and exact; the boundary circle is excluded.
    x, y = z.re, z.im
    return (2 * u * x - 1) ** 2 + (2 * u * y) ** 2 < 1


def is_complex_orphan(z: GaussianRational, params: OrphanParams) -> bool:
    """Membership in the (u, v)-orphan region, exactly."""
    _require_d0(z)
    return z.re <= params.v and not _in_disk(z, params.u)


def _parts(z: GaussianRational) -> tuple[int, int, int]:
    # (X, Y, Q) in lowest terms with z = (X + iY)/Q and Q > 0
    q = z.re.denominator * z.im.denominator // math.gcd(z.re.denominator, z.im.denominator)
    return z.re.numerator * (q // z.re.denominator), z.im.numerator * (q // z.im.denominator), q


def _point(x: int, y: int, q: int) -> GaussianRational:
    return GaussianRational(Fraction(x, q), Fraction(y, q))


def _shift_inverse(x: int, y: int, q: int, t: int) -> tuple[int, int, int]:
    # (X, Y, Q) of 1/(1/z + t) for z = (X + iY)/Q, in lowest terms:
    # 1/z + t = (A - iB)/N with N = X^2 + Y^2, A = QX + tN, B = QY.
    n = x * x + y * y
    a, b = q * x + t * n, q * y
    x, y, q = n * a, n * b, a * a + b * b
    g = math.gcd(x, y, q)
    return x // g, y // g, q // g


def _apply_runs(parts: tuple[int, int, int], runs, params: OrphanParams) -> tuple[int, int, int]:
    # Child action of (move, k) pairs, in the order taken: R^k adds k*v to
    # Re z, and L^k adds k*u to 1/z.
    x, y, q = parts
    for move, k in runs:
        if move == RIGHT:
            x += k * params.v * q
        else:
            x, y, q = _shift_inverse(x, y, q, k * params.u)
    return x, y, q


def _downward(runs: tuple[int, ...]):
    # (move, k) pairs of parent_runs-form runs, in the order the child
    # moves are taken from the root down.
    return ((LEFT if i % 2 else RIGHT, runs[i]) for i in reversed(range(len(runs))))


def ancestor_runs(z: GaussianRational, params: OrphanParams) -> tuple[GaussianRational, tuple[int, ...]]:
    """Climb to the orphan root a whole run of parent steps at a time.

    Returns (root, runs) in the form of `plft.parent_runs`: the parent
    walk from z takes runs[0] R-steps, then runs[1] L-steps, then
    runs[2] R-steps, and so on; only runs[0] can be 0, an orphan gives
    (), and `plft.word_of_runs(runs)` is the word of the moves.

    The point is kept as integers (X, Y, Q) with z = (X + iY)/Q.  An
    R-step applies while Re z > v, so a maximal R-run has length
    k = (X - 1) // (vQ) and subtracts k*v*Q from X.  An L-step applies
    inside the disk |2uz - 1| < 1, which is exactly the half-plane
    Re(1/z) > u, and it maps 1/z to 1/z - u.  Since
    Re(1/z) = QX/(X^2 + Y^2), a maximal L-run has length
    k = (QX - 1) // (u(X^2 + Y^2)) and is one translation of 1/z by -k*u.

    Termination and the run count, run by run.  Each run is maximal, so
    an R-run leaves Re z <= v and an L-run leaves Re(1/z) <= u: the runs
    alternate, every run after the first has k >= 1, and the walk stops
    when both floors are 0, that is at an orphan.  Each L-run strictly
    raises Im z and an R-run keeps it, so every point z' reached has
    Im z' >= Im z.  After j runs, z = M(z') with
    M = R_v^k0 L_u^k1 R_v^k2 ... = [[a, b], [c, d]], of determinant 1
    and entries >= 0.  From Im z = Im z' / |cz' + d|^2 and
    Im z' = Im z / |a - cz|^2 follow c <= 1/Im z and, when c > 0,
    d <= 1/(c Im z); when c = 0, d = 1.  The runs after the first
    multiply to L_u^k1 R_v^k2 ..., whose bottom row is (c, d) and
    dominates its top row, and which is entrywise at least the
    alternating product L1 R1 L1 ... of j - 1 factors, whose largest
    entry is the Fibonacci number F(j).  So F(j) <= max(1, 1/Im z): the
    walk ends after at most 2 + log_phi(max(1, 1/Im z)) runs, O(bit
    size), however long the runs are.  Every point reached is M^-1(z)
    with entries of M polynomial in the input's parts, so each run costs
    a few products of O(bit size)-bit integers.

    The answer is verified by replaying the runs from the root, one
    closed form per run; a mismatch raises InternalInvariantError.
    """
    root, runs, _ = _climb(z, params)
    return _point(*root), runs


def _climb(z: GaussianRational, params: OrphanParams):
    # The climb of ancestor_runs: the root's (X, Y, Q), the runs, and the
    # (X, Y, Q) at the start of each run, with the runs verified once.
    _require_d0(z)
    u, v = params.u, params.v
    x, y, q = start = _parts(z)
    runs, starts = [], []
    while True:
        starts.append((x, y, q))
        k = (x - 1) // (v * q)
        x -= k * v * q
        runs.append(k)
        k = (q * x - 1) // (u * (x * x + y * y))
        if not k:
            break
        starts.append((x, y, q))
        runs.append(k)
        x, y, q = _shift_inverse(x, y, q, -k * u)
    if not runs[-1]:
        runs.pop()
        starts.pop()
    runs = tuple(runs)
    if _apply_runs((x, y, q), _downward(runs), params) != start:
        raise InternalInvariantError(f"the runs {runs} from {_point(x, y, q)} do not give back {z}")
    return (x, y, q), runs, starts


def replay_chain(root: GaussianRational, steps: RunSteps, params: OrphanParams) -> GaussianRational:
    """Walk back down the steps that `ancestor_chain` returns, to z.

    Reads ``steps.runs`` and applies one closed form per run, from the
    root down: R^k adds k*v to Re z, and L^k adds k*u to 1/z.  No step
    is built.
    """
    return _point(*_apply_runs(_parts(root), _downward(steps.runs), params))


def ancestor_chain(z: GaussianRational, params: OrphanParams) -> tuple[GaussianRational, RunSteps]:
    """The parent walk from z up to its orphan root, one step per move.

    Returns (root, steps), where steps is a `plft.RunSteps` over the
    runs of `ancestor_runs` and steps[i] is the `ChainStep` of the
    (i+1)-th parent reached; ``replay_chain(root, steps, params)``
    restores z exactly.  It reads the climb of `ancestor_runs`, which
    keeps (X, Y, Q) at the start of each run, with z = (X + iY)/Q, and a
    step is built only when it is read, in closed form from its run's
    start: R-step j is (X - j*v*Q)/Q + i*Y/Q, and L-step j is
    1/(1/z - j*u), whose denominator is a_j^2 + (QY)^2 with
    a_j = QX - j*u*N, N = X^2 + Y^2.

    L-step j raises Im z when a_j^2 < a_(j-1)^2, which a_j >= 1 ensures
    as a_j < a_(j-1).  Since a_j falls as j grows, a_k >= 1 covers the
    whole run, so it is checked once per run, at call time, and its
    failure raises InternalInvariantError.  A step that is built also
    checks its own gain in Im z.
    """
    root, runs, starts = _climb(z, params)
    u, v = params.u, params.v
    im, ims = z.im, []
    for i, (k, (x, y, q)) in enumerate(zip(runs, starts)):
        if i % 2:
            if q * x - k * u * (x * x + y * y) < 1:
                raise InternalInvariantError(f"left run {i} from {z} is too long to raise Im at every step")
        elif i:
            im = Fraction(y, q)  # an R-run after an L-run starts higher
        ims.append(im)

    def step(i: int, j: int) -> ChainStep:
        x, y, q = starts[i]
        im = ims[i]
        if i % 2 == 0:
            return ChainStep(GaussianRational(Fraction(x - j * v * q, q), im), RIGHT, _ZERO)
        n, b = x * x + y * y, q * y
        a = q * x - j * u * n
        d = a * a + b * b
        value = GaussianRational(Fraction(n * a, d), Fraction(n * b, d))
        below = im if j == 1 else Fraction(n * b, (a + u * n) ** 2 + b * b)
        gain = value.im - below
        if gain <= 0:
            raise InternalInvariantError(f"left step {j} of run {i} from {z} failed to raise Im")
        return ChainStep(value, LEFT, gain)

    return _point(*root), RunSteps(runs, step)
