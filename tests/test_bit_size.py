"""Tree walks cost O(bit size): a long run of moves is taken whole.

The checks count `Plft`, `GaussianRational` and `Fraction`
constructions, not wall time.  A walk that goes one move at a time
builds a value per move, 10^5 or more on these inputs; a walk by runs
builds a handful.  The complex chain also counts its translations of
1/z, to show that it climbs once.  The walks over a run of 10^18 moves
also bound their peak memory.
"""

import tracemalloc
from fractions import Fraction

import pytest

from helpers import apply_complex_move, constructions, word_of_letters
from plft_forest import (
    IDENTITY,
    LEFT,
    RIGHT,
    GaussianRational,
    OrphanParams,
    Plft,
    ancestor_chain,
    ancestor_runs,
    ancestors_of_rational,
    apply_word,
    decompose_special,
    is_descendant_rational,
    plft_cf_expand,
    replay_chain,
    root_by_iteration,
)
from plft_forest import cf as cf_module
from plft_forest import complex_forest

RUN = 10**5
# word[0] is the move nearest the node: the walk up takes R^2, L^7, R^RUN, L^3
WORD = (RIGHT,) * 2 + (LEFT,) * 7 + (RIGHT,) * RUN + (LEFT,) * 3
ROOT = Plft(2, 1, 1, 2)
MOST_BUILT = 50
HUGE = 10**18
MOST_BYTES = 64 * 1024


def _product(*matrices):
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in matrices:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def _closed_form(root):
    # R1^2 L1^7 R1^RUN L1^3 times the root, with R1^k = [[1,k],[0,1]], L1^k = [[1,0],[k,1]]
    root_matrix = (root.a, root.b, root.c, root.d)
    return Plft(*_product((1, 2, 0, 1), (1, 0, 7, 1), (1, RUN, 0, 1), (1, 0, 3, 1), root_matrix))


def test_apply_word_builds_one_plft_per_call(monkeypatch):
    w, built = constructions(monkeypatch, apply_word, ROOT, word_of_letters(WORD))
    assert w == _closed_form(ROOT)
    assert built <= MOST_BUILT


def test_root_by_iteration_takes_runs_whole(monkeypatch):
    (root, word), built = constructions(monkeypatch, root_by_iteration, _closed_form(ROOT))
    assert root == ROOT and word == WORD
    assert built <= MOST_BUILT


def test_plft_cf_expand_quotients_are_run_lengths(monkeypatch):
    cf, built = constructions(monkeypatch, plft_cf_expand, _closed_form(ROOT))
    assert cf.quotients == (2, 7, RUN, 3) and cf.tail == ROOT
    assert built <= MOST_BUILT


def test_decompose_special_takes_runs_whole(monkeypatch):
    word, built = constructions(monkeypatch, decompose_special, _closed_form(IDENTITY))
    assert word == WORD
    assert built <= MOST_BUILT


def _peak_bytes(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _root_and_back(w):
    root, word = root_by_iteration(w)
    return root, word, apply_word(root, word)


def test_root_by_iteration_and_apply_word_take_a_huge_run(monkeypatch):
    # (10^18 z + 1)/z = 1/z + 10^18: one R-run of 10^18 moves above the orphan 1/z
    w = Plft(HUGE, 1, 1, 0)
    ((root, word, back), peak), built = constructions(monkeypatch, _peak_bytes, _root_and_back, w)
    assert root == Plft(0, 1, 1, 0) and word.runs == (HUGE,) and back == w
    assert built <= 4 and peak <= MOST_BYTES


def test_decompose_special_takes_a_huge_run(monkeypatch):
    (word, peak), built = constructions(monkeypatch, _peak_bytes, decompose_special, Plft(1, HUGE, 0, 1))
    assert word.runs == (HUGE,) and word[0] == word[-1] == RIGHT
    assert built <= 4 and peak <= MOST_BYTES


def test_ancestors_of_rational_long_run():
    # (RUN+1)/RUN -> 1/RUN by one R-step, then L-steps 1/(RUN-1), ..., 1/1
    expected = [Fraction(1, RUN)] + [Fraction(1, n) for n in range(RUN - 1, 0, -1)]
    assert list(ancestors_of_rational(Fraction(RUN + 1, RUN))) == expected


def _fractions_built(monkeypatch, module):
    """A one-item list that counts the Fractions ``module`` builds from now on."""
    built = [0]

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built[0] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(module, "Fraction", Counting)
    return built


@pytest.fixture
def fractions_built(monkeypatch):
    """A one-item list that counts the Fractions `cf` builds from now on."""
    return _fractions_built(monkeypatch, cf_module)


def test_ancestors_of_rational_builds_what_is_read(fractions_built):
    big = 10**6
    ancestors = ancestors_of_rational(Fraction(big + 1, big))
    assert len(ancestors) == big and ancestors.runs == (1, big - 1)
    assert ancestors[0] == Fraction(1, big) and ancestors[-2] == Fraction(1, 2) and ancestors[-1] == 1
    assert fractions_built[0] <= MOST_BUILT
    # only now, so that a walk that builds every ancestor fails above instead
    huge = 10**18
    ancestors = ancestors_of_rational(Fraction(huge + 1, huge))
    assert len(ancestors) == huge and ancestors[-1] == 1


def test_is_descendant_rational_takes_runs_whole(fractions_built):
    # (10^18+1)/10^18 -> 1/10^18 by one R-step, then an L-run of 10^18 - 1 steps to 1/1
    huge = 10**18
    target = Fraction(huge + 1, huge)
    assert is_descendant_rational(Fraction(1, huge // 10), target) is True
    for other in (Fraction(2), Fraction(1, huge + 1), target):
        assert is_descendant_rational(other, target) is False
    assert fractions_built[0] <= MOST_BUILT


def _gaussian(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def _l_run_child(z, k, u):
    """The point k L-moves below z, from 1/(1/z + k*u) in exact arithmetic."""
    n = z.re * z.re + z.im * z.im
    re, im = z.re / n + k * u, z.im / n  # 1/z + k*u = re - i*im
    n = re * re + im * im
    return GaussianRational(re / n, im / n)


@pytest.mark.parametrize(
    "z, params, runs, root",
    [
        (_gaussian(2 * 10**6, 1), OrphanParams(1, 1), (1999999,), _gaussian(1, 1)),
        (
            _gaussian(Fraction(1, 10**6), Fraction(1, 10**12)),
            OrphanParams(1, 1),
            (0, 999999),
            _gaussian(Fraction(999999000001, 1999998000001), Fraction(1000000000000, 1999998000001)),
        ),
        (_l_run_child(_gaussian(1, 1), 10**18, 2), OrphanParams(2, 3), (0, 10**18), _gaussian(1, 1)),
    ],
)
def test_ancestor_runs_takes_runs_whole(monkeypatch, z, params, runs, root):
    result, built = constructions(monkeypatch, ancestor_runs, z, params, cls=GaussianRational)
    assert result == (root, runs)
    assert built <= MOST_BUILT


def _chain_and_replay(z, params):
    root, steps = ancestor_chain(z, params)
    return root, steps, replay_chain(root, steps, params)


def test_ancestor_chain_and_replay_take_runs_whole(monkeypatch):
    z, params = _gaussian(2 * 10**6, 1), OrphanParams(1, 1)
    (root, steps, back), built = constructions(monkeypatch, _chain_and_replay, z, params, cls=GaussianRational)
    assert root == _gaussian(1, 1) and back == z
    assert steps.runs == (1999999,) and len(steps) == 1999999
    assert steps[0].value == _gaussian(2 * 10**6 - 1, 1) and steps[-1].value == root
    assert built <= MOST_BUILT


def _alternating(params, root):
    # 200 runs of one move each: the worst case for the run count at a given bit size
    z = root
    for i in reversed(range(200)):
        z = apply_complex_move(z, LEFT if i % 2 else RIGHT, params)
    return z


@pytest.mark.parametrize("u, v", [(1, 1), (2, 3)])
def test_ancestor_runs_alternating_single_moves(monkeypatch, u, v):
    params, root = OrphanParams(u, v), _gaussian(1, 1)
    z = _alternating(params, root)
    result, built = constructions(monkeypatch, ancestor_runs, z, params, cls=GaussianRational)
    assert result == (root, (1,) * 200)
    assert built <= MOST_BUILT


@pytest.mark.parametrize(
    "z, params",
    [
        (_gaussian(2 * 10**6, 1), OrphanParams(1, 1)),
        (_alternating(OrphanParams(2, 3), _gaussian(1, 1)), OrphanParams(2, 3)),
    ],
    ids=["one_long_r_run", "alternating_2_3"],
)
def test_ancestor_chain_climbs_once(monkeypatch, z, params):
    # one climb and one matrix of the runs, for its certificate: no second walk
    calls = {"_climb": 0, "_run_matrix": 0}
    for name in calls:
        monkeypatch.setattr(complex_forest, name, _counting(calls, name, getattr(complex_forest, name)))
    _, steps = ancestor_chain(z, params)
    assert steps.runs and calls == {"_climb": 1, "_run_matrix": 1}


def _counting(calls, name, fn):
    def counting(*args):
        calls[name] += 1
        return fn(*args)

    return counting


@pytest.mark.parametrize(
    "z, params, runs",
    [
        (_gaussian(HUGE + 1, 1), OrphanParams(1, 1), (HUGE,)),
        (_l_run_child(_gaussian(1, 1), HUGE, 2), OrphanParams(2, 3), (0, HUGE)),
    ],
    ids=["r_run", "l_run"],
)
def test_ancestor_chain_and_replay_take_a_huge_run(monkeypatch, z, params, runs):
    # one run of 10^18 moves above the orphan 1 + i, climbed, read at both ends and replayed
    built = _fractions_built(monkeypatch, complex_forest)
    (root, steps, back), peak = _peak_bytes(_chain_and_replay, z, params)
    assert root == _gaussian(1, 1) and steps.runs == runs and back == z
    assert steps[0].move == steps[-1].move and steps[-1].value == root
    assert built[0] <= MOST_BUILT and peak <= MOST_BYTES
