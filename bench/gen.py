"""Workload inputs and their expected answers, built without the library.

A PLFT input is a random orphan ``g`` multiplied on the left by a word
written as runs of identical moves, using the closed forms
``R1^k = [[1, k], [0, 1]]`` and ``L1^k = [[1, 0], [k, 1]]`` on plain
integer tuples.  A complex input is a random (u, v)-orphan moved by the
closed forms ``z -> z + k*v`` (an R run) and ``1/z -> 1/z + k*u`` (an L
run).  The orphan is the expected root and the word the expected path,
so every answer the library gives can be checked against numbers this
module computed on its own.

Words follow the library's convention: ``runs[0]`` holds the moves
nearest the node, and the last run is applied to the root first.

The census references use the identity ``h = conv/2 + 3*sigma/2 - tau/2``
with ``conv(D) = sum_{A+B=D} tau(A)*tau(B)``, summed in O(x) through the
prefix sums of tau, and the harmonic double sum as
``sum_{a<=x} H_{a-1}/a``; both are independent of the library's routes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

GOLDEN = (math.sqrt(5) - 1) / 2


class LogUniform:
    """Integers log-uniform on [1, top), drawn as a golden-ratio sequence.

    Successive draws are spread evenly over the log range (a quasi-random
    stratified sample), so any block of consecutive draws carries nearly
    the same total work; only the starting offset depends on the seed.
    """

    def __init__(self, rng: random.Random, top: int):
        self.u = rng.random()
        self.top = top

    def draw(self) -> int:
        self.u = (self.u + GOLDEN) % 1.0
        return max(1, int(self.top ** self.u))


# ---------------------------------------------------------------------------
# PLFT words as runs
# ---------------------------------------------------------------------------

def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def run_matrix(move: str, k: int):
    return (1, k, 0, 1) if move == "R" else (1, 0, k, 1)


def runs_matrix(runs, root=(1, 0, 0, 1)):
    """Matrix of the word ``runs`` applied to ``root``."""
    m = root
    for move, k in reversed(runs):
        m = mat_mul(run_matrix(move, k), m)
    return m


def expand(runs) -> tuple[str, ...]:
    return tuple(move for move, k in runs for _ in range(k))


def drop_moves(runs, j: int):
    """The runs left after removing the first ``j`` moves (the j-th ancestor's word)."""
    out = list(runs)
    while j and out:
        move, k = out[0]
        if k <= j:
            out.pop(0)
            j -= k
        else:
            out[0] = (move, k - j)
            j = 0
    return out


def random_runs(rng: random.Random, draw_length, min_moves: int, max_moves: int = 0, n_runs: int = 0):
    """Alternating runs; stop at ``n_runs`` runs or once ``min_moves`` is reached."""
    target = rng.randint(min_moves, max_moves) if max_moves else 0
    move = rng.choice("LR")
    runs, total = [], 0
    while (n_runs and len(runs) < n_runs) or (not n_runs and total < target):
        k = draw_length()
        runs.append((move, k))
        total += k
        move = "L" if move == "R" else "R"
    return runs


def random_orphan(rng: random.Random, lo_bits: int, hi_bits: int):
    """(a, b, c, d) with a < c and b > d, or a > c and b < d; never singular."""

    def num():
        return rng.getrandbits(rng.randint(lo_bits, hi_bits))

    small1, big1 = sorted((num(), num() + 1))
    small2, big2 = sorted((num(), num() + 1))
    if small1 == big1:
        big1 += 1
    if small2 == big2:
        big2 += 1
    if rng.random() < 0.5:
        return (small1, big2, big1, small2)  # a < c, b > d
    return (big1, small2, small1, big2)  # a > c, b < d


def value_at_one(m) -> Fraction:
    a, b, c, d = m
    return Fraction(a + b, c + d)


# ---------------------------------------------------------------------------
# complex (u, v)-forest
# ---------------------------------------------------------------------------

def _recip(z):
    x, y = z
    n = x * x + y * y
    return (x / n, -y / n)


def complex_apply(z, runs, u: int, v: int):
    """Apply the word ``runs`` to z by the closed forms of whole runs."""
    for move, k in reversed(runs):
        if move == "R":
            z = (z[0] + k * v, z[1])
        else:
            w = _recip(z)
            z = _recip((w[0] + k * u, w[1]))
    return z


def is_complex_orphan(z, u: int, v: int) -> bool:
    x, y = z
    return x > 0 and y > 0 and x <= v and (2 * u * x - 1) ** 2 + (2 * u * y) ** 2 >= 1


def random_complex_orphan(rng: random.Random, u: int, v: int, den_bits: int):
    while True:
        q, s = rng.randint(1, 1 << den_bits), rng.randint(1, 1 << den_bits)
        z = (Fraction(rng.randint(1, v * q), q), Fraction(rng.randint(1, 4 * s), s))
        if is_complex_orphan(z, u, v):
            return z


def format_gaussian(z) -> str:
    return f"{z[0]}+{z[1]}*i"


# ---------------------------------------------------------------------------
# census references
# ---------------------------------------------------------------------------

H_TABLE = (1, 4, 7, 13, 15, 26, 25, 39, 40, 54, 49, 79, 63, 88, 88)
SUMMATORY_ANCHORS = {15: 591, 10**4: 2078383254}


class CensusReference:
    """tau, sigma and h up to ``n`` from plain-Python sieves."""

    def __init__(self, n: int):
        tau = [0] * (n + 1)
        sigma = [0] * (n + 1)
        for d in range(1, n + 1):
            for m in range(d, n + 1, d):
                tau[m] += 1
                sigma[m] += d
        self.n, self.tau, self.sigma = n, tau, sigma
        prefix = [0] * (n + 1)
        for i in range(1, n + 1):
            prefix[i] = prefix[i - 1] + tau[i]
        self.tau_prefix = prefix

    def conv(self, d: int) -> int:
        return sum(self.tau[a] * self.tau[d - a] for a in range(1, d))

    def row(self, d: int) -> tuple[int, int, int, int]:
        """(nu2, sigma, tau, h) for determinant d."""
        conv, s, t = self.conv(d), self.sigma[d], self.tau[d]
        nu2 = (conv + t - s) // 2
        return nu2, s, t, nu2 + 2 * s - t

    def summatory(self, x: int) -> int:
        """sum_{D<=x} h(D), with sum_{A+B<=x} tau(A)tau(B) = sum_A tau(A)*T(x-A)."""
        conv = sum(self.tau[a] * self.tau_prefix[x - a] for a in range(1, x))
        s = sum(self.sigma[1 : x + 1])
        t = self.tau_prefix[x]
        return (conv + 3 * s - t) // 2


def harmonic_reference(x: int) -> float:
    """sum over 1 <= c < a <= x of 1/(a*(a-c)) = sum_a H_{a-1}/a."""
    total, harmonic = 0.0, 0.0
    for a in range(2, x + 1):
        harmonic += 1.0 / (a - 1)
        total += harmonic / a
    return total


def summatory_reference_curve(x: int) -> float:
    return 0.25 * x * x * math.log(x) ** 2
