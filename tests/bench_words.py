"""Micro-benchmarks of the word calls of the algorithm layer, with pytest-benchmark.

Run with ``python -m pytest tests/bench_words.py``.  The tier-1 run does
not collect this file: its name does not start with ``test_``.

Two inputs: a word of six runs and 11,116 moves, of the size a
``tree_runs`` op of the benchmark draws (runs log-uniform up to 10^4),
and a single run of 10^18 moves.  Each call's cost should follow the
bit size of the coefficients, so the second input costs about as much
as the first.
"""

import pytest

from plft_forest import IDENTITY, Plft, apply_word, decompose_special, root_by_iteration, word_of_runs

ROOT = Plft(23, 5, 9, 31)  # an orphan: a > c and b < d
WORDS = {"six_runs": word_of_runs((3, 2617, 41, 8003, 1, 451)), "one_huge_run": word_of_runs((10**18,))}


@pytest.fixture(params=sorted(WORDS))
def word(request):
    return WORDS[request.param]


def test_root_by_iteration(benchmark, word):
    root, found = benchmark(root_by_iteration, apply_word(ROOT, word))
    assert root == ROOT and found.runs == word.runs


def test_decompose_special(benchmark, word):
    assert benchmark(decompose_special, apply_word(IDENTITY, word)).runs == word.runs


def test_apply_word(benchmark, word):
    w = benchmark(apply_word, ROOT, word)
    assert root_by_iteration(w)[1].runs == word.runs
