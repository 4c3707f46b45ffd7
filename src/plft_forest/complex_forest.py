"""The complex (u, v)-forest on the open first quadrant.

For positive integers u and v, the generators L_u = [[1, 0], [u, 1]] and
R_v = [[1, v], [0, 1]] act on complex numbers by z -> z/(u*z + 1) and
z -> z + v.  Starting anywhere in the open quadrant D0 (both parts
positive), these child moves generate a forest; a point with no parent
inside D0 is a (u, v)-orphan.  The orphan region is exactly

    Re(z) <= v   and   |2*u*z - 1| >= 1,

the quadrant minus a translation strip and an open disk.  Every
membership test here works on squared moduli in exact integer
arithmetic, so the circle boundary lands with the orphans and no square
roots are ever taken.

Walking upward goes a whole run of identical moves at a time
(`ancestor_runs`), on a projective pair of Gaussian integers,
z = beta/gamma.  An R-run subtracts a multiple of v*gamma from beta, and
an L-run, since the disk |2uz - 1| < 1 is the half-plane Re(1/z) > u,
subtracts a multiple of u*beta from gamma.  Each run is maximal, so the
runs alternate, as Euclid's quotients do, and each L-run strictly raises
the imaginary part.  That bounds the number of runs by
2 + log_phi(max(1, 1/Im z)), so every walk ends after O(bit size) runs,
however long they are; (beta, gamma) = M^-1(X + iY, Q) for
z = (X + iY)/Q and the runs' matrix M, of determinant 1, so the pair
stays O(bit size) too.  The answer is certified apart from the climb:
M must carry the root, an orphan, back to z in one Moebius evaluation.
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


def _orphan(x: int, y: int, q: int, params: OrphanParams) -> bool:
    # (x + iy)/q, q > 0, has 0 < Re <= v and lies off the open disk |2uz - 1| < 1
    u = params.u
    return 0 < x <= params.v * q and (2 * u * x - q) ** 2 + (2 * u * y) ** 2 >= q * q


def is_complex_orphan(z: GaussianRational, params: OrphanParams) -> bool:
    """Membership in the (u, v)-orphan region, exactly."""
    _require_d0(z)
    return _orphan(*_parts(z), params)


def _parts(z: GaussianRational) -> tuple[int, int, int]:
    # (X, Y, Q) in lowest terms with z = (X + iY)/Q and Q > 0
    q = z.re.denominator * z.im.denominator // math.gcd(z.re.denominator, z.im.denominator)
    return z.re.numerator * (q // z.re.denominator), z.im.numerator * (q // z.im.denominator), q


def _point(x: int, y: int, q: int) -> GaussianRational:
    return GaussianRational(Fraction(x, q), Fraction(y, q))


def _run_matrix(runs: tuple[int, ...], params: OrphanParams) -> tuple[int, int, int, int]:
    # M = R_v^k0 L_u^k1 R_v^k2 ... = (a, b, c, d), multiplied forward: z = M(root)
    u, v = params.u, params.v
    a, b, c, d = 1, 0, 0, 1
    for i, k in enumerate(runs):
        if i % 2:
            a, c = a + k * u * b, c + k * u * d
        else:
            b, d = b + k * v * a, d + k * v * c
    return a, b, c, d


def ancestor_runs(z: GaussianRational, params: OrphanParams) -> tuple[GaussianRational, tuple[int, ...]]:
    """Climb to the orphan root a whole run of parent steps at a time.

    Returns (root, runs) in the form of `plft.parent_runs`: the parent
    walk from z takes runs[0] R-steps, then runs[1] L-steps, then
    runs[2] R-steps, and so on; only runs[0] can be 0, an orphan gives
    (), and `plft.word_of_runs(runs)` is the word of the moves.

    The point is a projective pair of Gaussian integers, z = beta/gamma,
    from beta = X + iY and gamma = Q for z = (X + iY)/Q, and both floors
    read P = Re(beta conj(gamma)).  An R-step applies while
    Re z = P/|gamma|^2 > v, so a maximal R-run has length
    k = (P - 1) // (v|gamma|^2) and sets beta to beta - k*v*gamma.  An
    L-step applies inside the disk |2uz - 1| < 1, which is exactly the
    half-plane Re(1/z) = P/|beta|^2 > u, and maps 1/z = gamma/beta to
    1/z - u, so a maximal L-run has length k = (P - 1) // (u|beta|^2) and
    sets gamma to gamma - k*u*beta.  No run takes a gcd; the root is
    reduced once, from beta conj(gamma)/|gamma|^2.

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
    size), however long the runs are.

    The answer is certified in arithmetic the climb does not share: the
    root (X' + iY')/Q' passes the orphan test 0 < X' <= vQ' and
    (2uX' - Q')^2 + (2uY')^2 >= Q'^2, every run after the first is >= 1,
    and z = M(root) for M multiplied forward from the runs, checked by
    cross-multiplying Gaussian integers.  As each point has one parent,
    the walk from such a z takes exactly these runs to this root, so a
    run cut short fails it too, with InternalInvariantError.
    """
    root, runs, _ = _climb(z, params)
    return _point(*root), runs


def _climb(z: GaussianRational, params: OrphanParams):
    # ancestor_runs' climb, certified once: the root's (X, Y, Q), the runs,
    # and (Re beta, Im beta, Re gamma, Im gamma) at the start of each run.
    _require_d0(z)
    u, v = params.u, params.v
    start = b1, b2, g1 = _parts(z)
    g2, p = 0, b1 * g1  # p = Re(beta conj(gamma)), kept up to date by both updates
    runs, starts = [], []
    while True:
        starts.append((b1, b2, g1, g2))
        n = g1 * g1 + g2 * g2
        k = (p - 1) // (v * n)
        b1, b2, p = b1 - k * v * g1, b2 - k * v * g2, p - k * v * n
        runs.append(k)
        m = b1 * b1 + b2 * b2
        k = (p - 1) // (u * m)
        if not k:
            break
        starts.append((b1, b2, g1, g2))
        runs.append(k)
        g1, g2, p = g1 - k * u * b1, g2 - k * u * b2, p - k * u * m
    if not runs[-1]:
        runs.pop()
        starts.pop()
    runs, y = tuple(runs), b2 * g1 - b1 * g2
    g = math.gcd(p, y, n)
    root = p // g, y // g, n // g
    _certify(start, root, runs, params)
    return root, runs, starts


def _certify(start, root, runs: tuple[int, ...], params: OrphanParams) -> None:
    # ancestor_runs' certificate: raise unless the root is an orphan, every run after
    # the first is >= 1 and the runs' matrix carries the root to the start.
    if not _orphan(*root, params) or min(runs[1:], default=1) < 1:
        raise InternalInvariantError(f"the climb from {_point(*start)} ends at {_point(*root)} by runs {runs}")
    a, b, c, d = _run_matrix(runs, params)
    x, y, q = root
    n1, n2, d1, d2 = a * x + b * q, a * y, c * x + d * q, c * y  # M(root) = (n1 + i*n2)/(d1 + i*d2)
    x, y, q = start
    if n1 * q != x * d1 - y * d2 or n2 * q != x * d2 + y * d1:
        raise InternalInvariantError(f"the runs {runs} from {_point(*root)} do not give back {_point(*start)}")


def replay_chain(root: GaussianRational, steps: RunSteps, params: OrphanParams) -> GaussianRational:
    """Walk back down the steps that `ancestor_chain` returns, to z.

    Reads ``steps.runs`` only: z = M(root) for M = R_v^k0 L_u^k1 ...,
    multiplied forward from the runs, and M is applied to the root in
    one Moebius evaluation.  No step is built.
    """
    a, b, c, d = _run_matrix(steps.runs, params)
    x, y, q = _parts(root)
    n1, n2, d1, d2 = a * x + b * q, a * y, c * x + d * q, c * y
    return _point(n1 * d1 + n2 * d2, n2 * d1 - n1 * d2, d1 * d1 + d2 * d2)


def ancestor_chain(z: GaussianRational, params: OrphanParams) -> tuple[GaussianRational, RunSteps]:
    """The parent walk from z up to its orphan root, one step per move.

    Returns (root, steps), where steps is a `plft.RunSteps` over the
    runs of `ancestor_runs` and steps[i] is the `ChainStep` of the
    (i+1)-th parent reached; ``replay_chain(root, steps, params)``
    restores z exactly.  It reads the climb of `ancestor_runs`, which
    keeps the pair (beta, gamma) at the start of each run, and a step is
    built only when it is read, in closed form from its run's start.
    Let P + iC = beta conj(gamma); no update changes C.  R-step j is
    (beta - j*v*gamma)/gamma = (P - j*v|gamma|^2 + iC)/|gamma|^2, and
    L-step j is beta/gamma_j = (a_j + iC)/|gamma_j|^2, with
    gamma_j = gamma - j*u*beta and a_j = P - j*u|beta|^2.

    L-step j raises Im z = C/|gamma_j|^2 when |gamma_j|^2 < |gamma_(j-1)|^2.
    As |beta|^2 |gamma_j|^2 = a_j^2 + C^2, that is when a_j^2 < a_(j-1)^2,
    which a_j >= 1 ensures as a_j < a_(j-1).  Since a_j falls as j grows,
    a_k >= 1 covers the whole run, and the climb's run length
    k = (P - 1) // (u|beta|^2) gives a_k = P - k*u|beta|^2 >= 1.  So every
    L-step raises Im z, by the gain its ChainStep records.
    """
    root, runs, starts = _climb(z, params)
    u, v = params.u, params.v

    def step(i: int, j: int) -> ChainStep:
        b1, b2, g1, g2 = starts[i]
        p, c = b1 * g1 + b2 * g2, b2 * g1 - b1 * g2
        if i % 2 == 0:
            n = g1 * g1 + g2 * g2
            return ChainStep(GaussianRational(Fraction(p - j * v * n, n), Fraction(c, n)), RIGHT, _ZERO)
        r1, r2 = g1 - j * u * b1, g2 - j * u * b2
        n, below = r1 * r1 + r2 * r2, (r1 + u * b1) ** 2 + (r2 + u * b2) ** 2
        value = GaussianRational(Fraction(p - j * u * (b1 * b1 + b2 * b2), n), Fraction(c, n))
        return ChainStep(value, LEFT, Fraction(c * (below - n), n * below))

    return _point(*root), RunSteps(runs, step)
