"""The complex (u, v)-forest on the open first quadrant.

For positive integers u and v, the generators L_u = [[1, 0], [u, 1]] and
R_v = [[1, v], [0, 1]] act on complex numbers by z -> z/(u*z + 1) and
z -> z + v.  Starting anywhere in the open quadrant D0 (both parts
positive), these child moves generate a forest; a point with no parent
inside D0 is a (u, v)-orphan.  The orphan region is exactly

    Re(z) <= v   and   |2*u*z - 1| >= 1,

the quadrant minus a translation strip and an open disk.

A point is one integer triple, (x, y, q) in lowest terms with
z = (x + iy)/q and q > 0.  Every test works on its squared moduli in
exact integer arithmetic, so the circle boundary lands with the orphans;
Fractions appear only in the public constructor, `re`, `im` and `parse`.

Walking upward goes a whole run of identical moves at a time
(`ancestor_runs`), on a projective pair of Gaussian integers,
z = beta/gamma, from beta = x + iy and gamma = q.  An R-run subtracts a
multiple of v*gamma from beta, and an L-run, since the disk
|2uz - 1| < 1 is the half-plane Re(1/z) > u, subtracts a multiple of
u*beta from gamma.  Each run is maximal, so the runs alternate, as
Euclid's quotients do, and each L-run strictly raises the imaginary
part.  That bounds the number of runs by 2 + log_phi(max(1, 1/Im z)), so
every walk ends after O(bit size) runs, however long they are;
(beta, gamma) = M^-1(x + iy, q) for the runs' matrix M, of determinant
1, so the pair stays O(bit size) too.  The answer is certified apart
from the climb: M must carry the root, an orphan, back to z in one
Moebius evaluation.
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
    """Exact complex number z = (x + iy)/q, stored with gcd(x, y, q) = 1 and q > 0.

    x and y are exact rationals (int, Fraction or 'p/q' string), so
    GaussianRational(re, im) is re + i*im, and q is a nonzero int.  From
    ints, the library's own path, no Fraction is built.
    """

    __slots__ = ("x", "y", "q")

    def __init__(self, x: int | Fraction, y: int | Fraction, q: int = 1) -> None:
        if q.__class__ is not int or not q:
            raise ValueError(f"q must be a nonzero int, got {q!r}")
        if x.__class__ is not int or y.__class__ is not int:
            for name, part in (("x", x), ("y", y)):
                if isinstance(part, float):
                    raise ValueError(f"{name} must be exact (int, Fraction, or 'p/q' string), got float {part!r}")
            a, b = (part if isinstance(part, (int, Fraction)) else Fraction(part) for part in (x, y))
            x, y, q = a.numerator * b.denominator, b.numerator * a.denominator, q * a.denominator * b.denominator
        g = math.gcd(x, y, q) if q > 0 else -math.gcd(x, y, q)
        object.__setattr__(self, "x", x // g)
        object.__setattr__(self, "y", y // g)
        object.__setattr__(self, "q", q // g)
        self.__post_init__()

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.q)

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
        sign = "+" if self.y >= 0 else ""
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
    imaginary part, zero for R steps and strictly positive for L steps,
    as the docstring of `ancestor_chain`, its only builder, proves.
    """

    __slots__ = ("value", "move", "im_increase")

    def __init__(self, value: GaussianRational, move: Move, im_increase: Fraction) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "im_increase", im_increase)
        self.__post_init__()


def _require_d0(z: GaussianRational) -> None:
    # the strict open first quadrant
    if not (z.x > 0 and z.y > 0):
        raise ValueError(f"{z} is outside the open first quadrant")


def _orphan(z: GaussianRational, params: OrphanParams) -> bool:
    # z = (x + iy)/q, q > 0, has 0 < Re <= v and lies off the open disk |2uz - 1| < 1
    x, y, q, u = z.x, z.y, z.q, params.u
    return 0 < x <= params.v * q and (2 * u * x - q) ** 2 + (2 * u * y) ** 2 >= q * q


def is_complex_orphan(z: GaussianRational, params: OrphanParams) -> bool:
    """Membership in the (u, v)-orphan region, exactly."""
    _require_d0(z)
    return _orphan(z, params)


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
    from beta = x + iy and gamma = q for z = (x + iy)/q, and both floors
    read P = Re(beta conj(gamma)).  An R-step applies while
    Re z = P/|gamma|^2 > v, so a maximal R-run has length
    k = (P - 1) // (v|gamma|^2) and sets beta to beta - k*v*gamma.  An
    L-step applies inside the disk |2uz - 1| < 1, which is exactly the
    half-plane Re(1/z) = P/|beta|^2 > u, and maps 1/z = gamma/beta to
    1/z - u, so a maximal L-run has length k = (P - 1) // (u|beta|^2) and
    sets gamma to gamma - k*u*beta.  No run takes a gcd; the root is
    reduced once, by its constructor, from beta conj(gamma)/|gamma|^2.

    Termination and the run count, run by run.  Each run is maximal, so
    an R-run leaves Re z <= v and an L-run leaves Re(1/z) <= u: the runs
    alternate, every run after the first has k >= 1, and the walk stops
    when both floors are 0, that is at an orphan.  Each L-run strictly
    raises Im z and an R-run keeps it, so every point z' reached has
    Im z' >= Im z.  After j runs, z = M(z') for
    M = R_v^k0 L_u^k1 R_v^k2 ... = [[a, b], [c, d]], of determinant 1
    and entries >= 0.  Its bottom row starts at (0, 1) and, past R_v^k0,
    each factor sends it to (c + k*u*d, d) or (c, d + k*v*c), entrywise
    at least what L1 or R1 gives.  Along L1 R1 L1 ... each factor
    replaces the smaller entry by the sum: (0, 1), (1, 1), (1, 2), (3, 2).
    So c >= F(j - 1) and max(c, d) >= F(j), Fibonacci numbers.  From
    Im z = Im z'/|cz' + d|^2 and Im z' = Im z/|a - cz|^2 follow
    c <= 1/Im z and, when c > 0, d <= 1/(c Im z); when c = 0, d = 1.  So
    F(j) <= max(1, 1/Im z): the walk ends after at most
    2 + log_phi(max(1, 1/Im z)) runs, O(bit size), however long the runs
    are.  Sharper, as |cz' + d| >= c Im z', c^2 Im z Im z' <= 1, so
    F(j - 1)^2 Im z Im root <= 1, which alternating runs of 1 meet within
    a constant factor.

    The answer is certified in arithmetic the climb does not share: the
    root (x' + iy')/q' passes the orphan test 0 < x' <= vq' and
    (2ux' - q')^2 + (2uy')^2 >= q'^2, every run after the first is >= 1,
    and z = M(root) for M multiplied forward from the runs, checked by
    cross-multiplying Gaussian integers.  As each point has one parent,
    the walk from such a z takes exactly these runs to this root, so a
    run cut short fails it too, with InternalInvariantError.
    """
    return _climb(z, params)[:2]


def _climb(z: GaussianRational, params: OrphanParams):
    # ancestor_runs' climb, certified once: the root, the runs, and
    # (Re beta, Im beta, Re gamma, Im gamma) at the start of each run.
    _require_d0(z)
    u, v = params.u, params.v
    b1, b2, g1 = z.x, z.y, z.q
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
    runs, root = tuple(runs), GaussianRational(p, b2 * g1 - b1 * g2, n)
    _certify(z, root, runs, params)
    return root, runs, starts


def _certify(z: GaussianRational, root: GaussianRational, runs: tuple[int, ...], params: OrphanParams) -> None:
    # ancestor_runs' certificate: raise unless the root is an orphan, every run after
    # the first is >= 1 and the runs' matrix carries the root to z.
    if not _orphan(root, params) or min(runs[1:], default=1) < 1:
        raise InternalInvariantError(f"the climb from {z} ends at {root} by runs {runs}")
    a, b, c, d = _run_matrix(runs, params)  # M(root) = (n1 + i*n2)/(d1 + i*d2)
    n1, n2, d1, d2 = a * root.x + b * root.q, a * root.y, c * root.x + d * root.q, c * root.y
    if n1 * z.q != z.x * d1 - z.y * d2 or n2 * z.q != z.x * d2 + z.y * d1:
        raise InternalInvariantError(f"the runs {runs} from {root} do not give back {z}")


def replay_chain(root: GaussianRational, steps: RunSteps, params: OrphanParams) -> GaussianRational:
    """Walk back down the steps that `ancestor_chain` returns, to z.

    Reads ``steps.runs`` only: z = M(root) for M = R_v^k0 L_u^k1 ...,
    multiplied forward from the runs, and M is applied to the root in
    one Moebius evaluation.  No step is built.
    """
    a, b, c, d = _run_matrix(steps.runs, params)
    n1, n2, d1, d2 = a * root.x + b * root.q, a * root.y, c * root.x + d * root.q, c * root.y
    return GaussianRational(n1 * d1 + n2 * d2, n2 * d1 - n1 * d2, d1 * d1 + d2 * d2)


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
            return ChainStep(GaussianRational(p - j * v * n, c, n), RIGHT, _ZERO)
        r1, r2 = g1 - j * u * b1, g2 - j * u * b2
        n, below = r1 * r1 + r2 * r2, (r1 + u * b1) ** 2 + (r2 + u * b2) ** 2
        value = GaussianRational(p - j * u * (b1 * b1 + b2 * b2), c, n)
        return ChainStep(value, LEFT, Fraction(c * (below - n), n * below))

    return root, RunSteps(runs, step)
