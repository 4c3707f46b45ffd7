"""Micro-benchmarks of the complex walk, its point value and the descendant test, with pytest-benchmark.

Run with ``python -m pytest tests/bench_complex.py``.  The tier-1 run does
not collect this file: its name does not start with ``test_``.

Three chains: one of 12 runs of 1-3 moves (24 moves, u = 2, v = 3), the
shape of a ``tree_small`` complex op, and one run of 10^18 R-moves and
one of 10^18 L-moves above the orphan 1 + i.  ``ancestor_chain`` and
``replay_chain`` should cost about as much on the huge runs as on the
short chain, since their cost follows the bit size.  The descendant
test takes one yes and one no on the rational that the short chain's
runs reach below 1/1.  The value layer is timed on the short chain's
point: a `GaussianRational` from its integer triple, the library's own
path, one from two Fractions, the public one, and one read of ``.re``.
"""

from fractions import Fraction

import pytest

from helpers import apply_complex_move
from plft_forest import (
    LEFT,
    RIGHT,
    GaussianRational,
    OrphanParams,
    ancestor_chain,
    ancestor_runs,
    ancestors_of_rational,
    is_descendant_rational,
    replay_chain,
)

SHORT_RUNS = (2, 1, 3, 2, 1, 1, 3, 2, 2, 1, 3, 3)
HUGE = 10**18


def _below(root, runs, params):
    """The point the runs, in parent_runs' form, reach below the root, a move at a time."""
    z = root
    for i in reversed(range(len(runs))):
        for _ in range(runs[i]):
            z = apply_complex_move(z, LEFT if i % 2 else RIGHT, params)
    return z


def _huge_l_run(params):
    # 1/(1/z + HUGE*u) below z = 1 + i, where 1/z = (1 - i)/2
    w = GaussianRational(Fraction(1, 2) + HUGE * params.u, Fraction(-1, 2))
    n = w.re * w.re + w.im * w.im
    return GaussianRational(w.re / n, -w.im / n)


ONE = GaussianRational(1, 1)
CHAINS = {
    "short_runs": (_below(GaussianRational(Fraction(1, 2), Fraction(1, 5)), SHORT_RUNS, OrphanParams(2, 3)),
                   OrphanParams(2, 3), SHORT_RUNS),
    "huge_r_run": (GaussianRational(HUGE + 1, 1), OrphanParams(1, 1), (HUGE,)),
    "huge_l_run": (_huge_l_run(OrphanParams(2, 3)), OrphanParams(2, 3), (0, HUGE)),
}


@pytest.fixture(params=sorted(CHAINS))
def chain(request):
    return CHAINS[request.param]


def test_ancestor_chain(benchmark, chain):
    z, params, runs = chain
    root, steps = benchmark(ancestor_chain, z, params)
    assert steps.runs == runs and replay_chain(root, steps, params) == z


def test_ancestor_runs(benchmark, chain):
    z, params, runs = chain
    assert benchmark(ancestor_runs, z, params)[1] == runs


def test_replay_chain(benchmark, chain):
    z, params, runs = chain
    root, steps = ancestor_chain(z, params)
    assert benchmark(replay_chain, root, steps, params) == z


POINT = CHAINS["short_runs"][0]


def test_gaussian_rational_from_ints(benchmark):
    assert benchmark(GaussianRational, POINT.x, POINT.y, POINT.q) == POINT


def test_gaussian_rational_from_fractions(benchmark):
    assert benchmark(GaussianRational, POINT.re, POINT.im) == POINT


def test_gaussian_rational_re(benchmark):
    assert benchmark(lambda: POINT.re) == Fraction(POINT.x, POINT.q)


def _rational_below(runs):
    """The rational the runs reach below 1/1: R sends x to x + 1, L to x/(x + 1)."""
    x = Fraction(1)
    for i in reversed(range(len(runs))):
        for _ in range(runs[i]):
            x = x / (x + 1) if i % 2 else x + 1
    return x


TARGET = _rational_below(SHORT_RUNS)
ANCESTOR = ancestors_of_rational(TARGET)[9]


def _yes_and_no(ancestor, target):
    return is_descendant_rational(ancestor, target), is_descendant_rational(target + 1, target)


def test_is_descendant_rational_yes_and_no(benchmark):
    assert ancestors_of_rational(TARGET).runs == SHORT_RUNS
    assert benchmark(_yes_and_no, ANCESTOR, TARGET) == (True, False)
