"""Tree walks cost O(bit size): a long run of moves is taken whole.

The checks count `Plft` and `GaussianRational` constructions, not wall
time.  A walk that goes one move at a time builds a value per move,
10^5 or more on these inputs; a walk by runs builds a handful.
"""

from fractions import Fraction

import pytest

from plft_forest import (
    IDENTITY,
    LEFT,
    RIGHT,
    GaussianRational,
    OrphanParams,
    Plft,
    ancestor_runs,
    ancestors_of_rational,
    apply_complex_move,
    apply_word,
    decompose_special,
    plft_cf_expand,
    root_by_iteration,
)

RUN = 10**5
# word[0] is the move nearest the node: the walk up takes R^2, L^7, R^RUN, L^3
WORD = (RIGHT,) * 2 + (LEFT,) * 7 + (RIGHT,) * RUN + (LEFT,) * 3
ROOT = Plft(2, 1, 1, 2)
MOST_BUILT = 50


def _built(monkeypatch, fn, *args, cls=Plft):
    """fn(*args) and the number of ``cls`` values constructed while it ran."""
    count = 0
    original = cls.__post_init__

    def counting(self):
        nonlocal count
        count += 1
        original(self)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "__post_init__", counting)
        result = fn(*args)
    return result, count


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
    w, built = _built(monkeypatch, apply_word, ROOT, WORD)
    assert w == _closed_form(ROOT)
    assert built <= MOST_BUILT


def test_root_by_iteration_takes_runs_whole(monkeypatch):
    (root, word), built = _built(monkeypatch, root_by_iteration, _closed_form(ROOT))
    assert root == ROOT and word == WORD
    assert built <= MOST_BUILT


def test_plft_cf_expand_quotients_are_run_lengths(monkeypatch):
    cf, built = _built(monkeypatch, plft_cf_expand, _closed_form(ROOT))
    assert cf.quotients == (2, 7, RUN, 3) and cf.tail == ROOT
    assert built <= MOST_BUILT


def test_decompose_special_takes_runs_whole(monkeypatch):
    word, built = _built(monkeypatch, decompose_special, _closed_form(IDENTITY))
    assert word == WORD
    assert built <= MOST_BUILT


def test_ancestors_of_rational_long_run():
    # (RUN+1)/RUN -> 1/RUN by one R-step, then L-steps 1/(RUN-1), ..., 1/1
    expected = [Fraction(1, RUN)] + [Fraction(1, n) for n in range(RUN - 1, 0, -1)]
    assert ancestors_of_rational(Fraction(RUN + 1, RUN)) == expected


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
    result, built = _built(monkeypatch, ancestor_runs, z, params, cls=GaussianRational)
    assert result == (root, runs)
    assert built <= MOST_BUILT


@pytest.mark.parametrize("u, v", [(1, 1), (2, 3)])
def test_ancestor_runs_alternating_single_moves(monkeypatch, u, v):
    # 200 runs of one move each: the worst case for the run count at a given bit size
    params, root = OrphanParams(u, v), _gaussian(1, 1)
    z = root
    for i in reversed(range(200)):
        z = apply_complex_move(z, LEFT if i % 2 else RIGHT, params)
    result, built = _built(monkeypatch, ancestor_runs, z, params, cls=GaussianRational)
    assert result == (root, (1,) * 200)
    assert built <= MOST_BUILT
