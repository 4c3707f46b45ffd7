from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    child,
    left_child,
    orphans,
    parent,
    plfts,
    right_child,
    root_by_unary_walk,
    word_of_letters,
    words,
)
from plft_forest import IDENTITY, LEFT, RIGHT, Plft, apply_word, format_word, root_by_iteration
from plft_forest.plft import parent_runs, word_of_runs


@pytest.mark.parametrize(
    "coeffs, expected",
    [((1, 0, 0, 1), 1), ((7, 8, 4, 5), 3), ((1, 2, 2, 1), -3)],
)
def test_det(coeffs, expected):
    assert Plft(*coeffs).det == expected


@pytest.mark.parametrize("bad", [(1, 2, 2, 4), (0, 0, 1, 1), (2, 3, 4, 6)])
def test_zero_determinant_rejected(bad):
    with pytest.raises(ValueError):
        Plft(*bad)


def test_negative_and_nonint_coefficients_rejected():
    with pytest.raises(ValueError):
        Plft(-1, 0, 0, 1)
    with pytest.raises(ValueError):
        Plft(1, 0, 0, 1.0)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((1, 2, 2, 1), True),
        ((1, 0, 4, 1), False),
        ((1, 0, 0, 1), True),
        ((1, 0, 1, 1), False),
    ],
)
def test_is_orphan(coeffs, expected):
    assert Plft(*coeffs).is_orphan is expected


def test_children_examples():
    assert left_child(Plft(1, 0, 0, 1)) == Plft(1, 0, 1, 1)
    assert right_child(Plft(2, 1, 1, 2)) == Plft(3, 3, 1, 2)
    assert right_child(Plft(1, 0, 0, 1)) == Plft(1, 1, 0, 1)


def test_apply_word_examples():
    assert apply_word(Plft(2, 1, 1, 2), word_of_letters((RIGHT, LEFT, RIGHT))) == Plft(7, 8, 4, 5)
    assert apply_word(IDENTITY, word_of_letters(())) == IDENTITY
    assert apply_word(IDENTITY, word_of_letters((LEFT, LEFT))) == Plft(1, 0, 2, 1)


def test_apply_word_is_composition_order():
    # (R, L) means R(L(g)): the last element is the first step at the root.
    g = IDENTITY
    assert apply_word(g, word_of_letters((RIGHT, LEFT))) == right_child(left_child(g))
    assert apply_word(g, word_of_letters((LEFT, RIGHT))) == left_child(right_child(g))


def test_parent_examples():
    assert parent(Plft(7, 8, 4, 5)) == (Plft(3, 3, 4, 5), RIGHT)
    assert parent(Plft(1, 2, 2, 1)) is None
    assert parent(Plft(1, 1, 0, 1)) == (Plft(1, 0, 0, 1), RIGHT)


def test_parent_boundary_produces_zero_coefficient():
    assert parent(Plft(1, 2, 1, 1)) == (Plft(0, 1, 1, 1), RIGHT)


def test_root_by_iteration_examples():
    assert root_by_iteration(Plft(7, 8, 4, 5)) == (Plft(2, 1, 1, 2), (RIGHT, LEFT, RIGHT))
    assert root_by_iteration(Plft(1, 2, 2, 1)) == (Plft(1, 2, 2, 1), ())
    root, word = root_by_iteration(Plft(43, 10, 30, 7))
    assert root == IDENTITY
    assert word == tuple("RLLRRRLLLL")


def test_parent_runs_examples():
    # RLLRRRLLLL: the walk from w takes 1 R-step, 2 L, 3 R, then 4 L
    assert parent_runs(Plft(43, 10, 30, 7)) == (IDENTITY, (1, 2, 3, 4))
    assert word_of_runs((1, 2, 3, 4)) == tuple("RLLRRRLLLL")
    # a first L-step gives a leading empty R-run
    assert parent_runs(Plft(1, 0, 1, 1)) == (IDENTITY, (0, 1))
    assert word_of_runs((0, 1)) == (LEFT,)
    # a zero coefficient leaves a single floor to take
    assert parent_runs(Plft(1, 7, 0, 2)) == (Plft(1, 1, 0, 2), (3,))
    assert parent_runs(Plft(1, 2, 2, 1)) == (Plft(1, 2, 2, 1), ())


def test_apply_word_rejects_bad_move():
    # a word reaches apply_word only as runs, and word_of_runs refuses
    # a negative run, an empty run after the first, and a non-int
    for bad in ((-1,), (1, 0), (2, 1, 0, 3), (1.0,), (1, "2"), (True,)):
        with pytest.raises(ValueError):
            word_of_runs(bad)


def test_long_words_stay_exact():
    # Alternating L/R inflates coefficients like Fibonacci numbers; a
    # word of length 200 must survive without overflow.
    node = apply_word(IDENTITY, word_of_letters((LEFT, RIGHT) * 100))
    assert node.det == 1
    assert max(node.a, node.b, node.c, node.d) > 2**130


def test_parse_and_coeffs_roundtrip():
    w = Plft.parse(" 7, 8 ,4,5 ")
    assert w == Plft(7, 8, 4, 5)
    assert Plft.parse(w.coeffs()) == w
    with pytest.raises(ValueError):
        Plft.parse("1,2,3")
    with pytest.raises(ValueError):
        Plft.parse("a,b,c,d")


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((2, 1, 1, 2), "(2z+1)/(z+2)"),
        ((1, 0, 0, 1), "z"),
        ((0, 1, 1, 0), "1/z"),
        ((2, 0, 0, 3), "2z/3"),
        ((1, 1, 0, 1), "z+1"),
        ((2, 1, 5, 0), "(2z+1)/(5z)"),
        ((0, 3, 2, 0), "3/(2z)"),
        ((1, 0, 4, 1), "z/(4z+1)"),
    ],
)
def test_display(coeffs, text):
    assert str(Plft(*coeffs)) == text


def test_word_text_roundtrip():
    assert tuple("RLR") == (RIGHT, LEFT, RIGHT)
    assert format_word(word_of_letters((RIGHT, LEFT, RIGHT))) == "RLR"
    assert format_word(word_of_letters(())) == ""
    assert format_word(word_of_runs((0, 2, 3))) == "LLRRR"
    with pytest.raises(ValueError):
        format_word(word_of_runs((1, -1, 1)))


def test_word_equals_the_letters_it_spells():
    word = word_of_runs((0, 2, 1))
    assert word == (LEFT, LEFT, RIGHT) == word
    assert word == [LEFT, LEFT, RIGHT] and word == word_of_letters("LLR")
    assert word != (LEFT, LEFT) and word != (LEFT, LEFT, LEFT) and word != "LLR"
    assert word_of_runs(()) == () and word_of_runs((0,)) == []
    with pytest.raises(TypeError):
        hash(word)
    # lengths past sys.maxsize compare without calling len()
    huge = word_of_runs((10**19, 10**19))
    assert huge != word_of_runs((10**19, 10**19 - 1)) and huge != word and word != huge


# -- properties --------------------------------------------------------------

@given(plfts())
def test_parent_inverts_children(w):
    assert parent(left_child(w)) == (w, LEFT)
    assert parent(right_child(w)) == (w, RIGHT)


@given(plfts())
def test_children_preserve_determinant(w):
    assert left_child(w).det == w.det == right_child(w).det


@given(plfts())
def test_gcd_of_columns_is_preserved_by_children(w):
    for kid in (left_child(w), right_child(w)):
        assert gcd(kid.a, kid.c) == gcd(w.a, w.c)
        assert gcd(kid.b, kid.d) == gcd(w.b, w.d)


@given(plfts())
def test_orphan_iff_parentless(w):
    assert w.is_orphan == (parent(w) is None)


@given(plfts())
def test_child_of_parent_restores(w):
    up = parent(w)
    if up is not None:
        above, move = up
        assert child(above, move) == w


@given(orphans(), words())
def test_apply_word_matches_child_steps(orphan, word):
    node = orphan
    for move in reversed(word):
        node = child(node, move)
    assert apply_word(orphan, word_of_letters(word)) == node


@given(st.one_of(plfts(max_coeff=30), plfts(max_coeff=2000)))
def test_root_by_iteration_matches_unary_walk(w):
    # small coefficients make the zero-coefficient floors common
    assert root_by_iteration(w) == root_by_unary_walk(w)


@given(orphans(), words())
def test_root_by_iteration_inverts_apply_word(orphan, word):
    node = apply_word(orphan, word_of_letters(word))
    root, recovered = root_by_iteration(node)
    assert root == orphan
    assert recovered == word
    assert apply_word(root, recovered) == node
