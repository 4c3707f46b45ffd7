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

Walking upward terminates: an R-parent subtracts v from the real part,
and an L-parent strictly increases the imaginary part, by at least
epsilon_u(y) = 2y/(1 + sqrt(1 - 4*u^2*y^2)) - y for points at height y
(a float diagnostic only; the exact strict increase is what the chain
logic relies on).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError
from .plft import LEFT, RIGHT, Move

_PART = r"[+-]?\d+(?:/\d+)?"
_SIGNED_PART = r"[+-]\d+(?:/\d+)?"
_GAUSSIAN_RE = re.compile(rf"^({_PART})({_SIGNED_PART})\*i$")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

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


@dataclass(frozen=True)
class OrphanParams:
    """The generator pair (u, v), both positive integers."""

    u: int
    v: int

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ChainStep:
    """One upward step: the parent reached, and how the child hangs off it.

    ``move`` is the child relation (the parent's L- or R-child is the
    previous chain value); ``im_increase`` is the exact gain in
    imaginary part, zero for R steps and strictly positive for L steps.
    """

    value: GaussianRational
    move: Move
    im_increase: Fraction

    def __post_init__(self) -> None:
        if self.move == RIGHT and self.im_increase != 0:
            raise ValueError("an R step cannot change the imaginary part")
        if self.move == LEFT and self.im_increase <= 0:
            raise ValueError("an L step must strictly raise the imaginary part")


def in_d0(z: GaussianRational) -> bool:
    """Strict open first quadrant."""
    return z.re > 0 and z.im > 0


def _require_d0(z: GaussianRational) -> None:
    if not in_d0(z):
        raise ValueError(f"{z} is outside the open first quadrant")


def _in_disk(z: GaussianRational, u: int) -> bool:
    # |2uz - 1| < 1, squared and exact; the boundary circle is excluded.
    x, y = z.re, z.im
    return (2 * u * x - 1) ** 2 + (2 * u * y) ** 2 < 1


def is_complex_orphan(z: GaussianRational, params: OrphanParams) -> bool:
    """Membership in the (u, v)-orphan region, exactly."""
    _require_d0(z)
    return z.re <= params.v and not _in_disk(z, params.u)


def complex_parent(z: GaussianRational, params: OrphanParams) -> "tuple[GaussianRational, Move] | None":
    """The unique parent in D0, or None for orphans.

    Right children (Re(z) > v) step back by v; left children (inside
    the disk |2uz - 1| < 1) invert z -> z/(1 - u*z).  The two cases are
    mutually exclusive since Re(z) > v >= 1 forces |2uz - 1| > 1.
    """
    _require_d0(z)
    u, v = params.u, params.v
    if z.re > v:
        return GaussianRational(z.re - v, z.im), RIGHT
    if _in_disk(z, u):
        x, y = z.re, z.im
        denom = (1 - u * x) ** 2 + (u * y) ** 2
        return GaussianRational((x * (1 - u * x) - u * y * y) / denom, y / denom), LEFT
    return None


def apply_complex_move(z: GaussianRational, move: Move, params: OrphanParams) -> GaussianRational:
    """Child action: L_u sends z to z/(u*z + 1), R_v to z + v."""
    if move == RIGHT:
        return GaussianRational(z.re + params.v, z.im)
    if move == LEFT:
        u = params.u
        x, y = z.re, z.im
        denom = (u * x + 1) ** 2 + (u * y) ** 2
        return GaussianRational((x * (u * x + 1) + u * y * y) / denom, y / denom)
    raise ValueError(f"move must be 'L' or 'R', got {move!r}")


def replay_chain(root: GaussianRational, steps: list[ChainStep], params: OrphanParams) -> GaussianRational:
    """Walk back down a chain returned by `ancestor_chain`."""
    z = root
    for step in reversed(steps):
        z = apply_complex_move(z, step.move, params)
    return z


def ancestor_chain(
    z: GaussianRational, params: OrphanParams, max_steps: int = 10**6
) -> tuple[GaussianRational, list[ChainStep]]:
    """Iterate `complex_parent` up to the unique orphan root.

    Returns (root, steps) with steps[i] recording the i-th parent
    reached; ``replay_chain`` restores z exactly.  Termination is
    mathematically guaranteed, so hitting ``max_steps`` is reported as
    an internal error rather than an answer.
    """
    _require_d0(z)
    steps: list[ChainStep] = []
    current = z
    for _ in range(max_steps):
        up = complex_parent(current, params)
        if up is None:
            return current, steps
        parent, move = up
        gain = parent.im - current.im
        if move == LEFT and gain <= 0:
            raise InternalInvariantError(f"left step failed to raise Im at {current}")
        steps.append(ChainStep(value=parent, move=move, im_increase=gain))
        current = parent
    raise InternalInvariantError(
        f"no orphan within {max_steps} steps of {z}; the parent map is broken"
    )


def epsilon_u(u: int, y) -> float:
    """Guaranteed minimum Im-gain of an L-parent step at height y.

    Defined for 0 < y <= 1/(2u); equals y at the right endpoint.  Float
    diagnostic only; chain termination rests on the exact comparison in
    `ancestor_chain`.
    """
    if not isinstance(u, int) or isinstance(u, bool) or u < 1:
        raise ValueError(f"u must be a positive integer, got {u!r}")
    y_exact = Fraction(y)
    if not 0 < y_exact <= Fraction(1, 2 * u):
        raise ValueError(f"need 0 < y <= 1/(2u) = 1/{2 * u}, got {y}")
    yf = float(y_exact)
    return 2.0 * yf / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * u * u * yf * yf))) - yf
