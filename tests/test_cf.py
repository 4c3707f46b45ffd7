import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ancestors_by_unary_walk,
    check_reads_as,
    first_rows_rationals,
    orphans,
    plfts,
    positive_rationals,
    rational_tree_paths,
    root_by_unary_walk,
    words,
)
from plft_forest import cf as cf_module
from plft_forest import (
    IDENTITY,
    LEFT,
    RIGHT,
    Plft,
    PlftContinuedFraction,
    ancestors_of_rational,
    apply_word,
    cf_of_rational,
    cf_variants,
    decompose_special,
    evaluate_cf,
    evaluate_plft_cf,
    is_descendant_rational,
    limit_checks,
    lr_on_cf,
    orphan_root_cf,
    parse_word,
    plft_cf_expand,
    root_by_iteration,
    rootz_check,
    word_of_runs,
)


# -- rational continued fractions --------------------------------------------

@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(151, 127), (1, 5, 3, 2, 3)),
        (Fraction(10, 7), (1, 2, 3)),
        (Fraction(1), (1,)),
        (Fraction(5, 7), (0, 1, 2, 2)),
        (Fraction(27, 19), (1, 2, 2, 1, 2)),
    ],
)
def test_cf_of_rational(r, expected):
    assert cf_of_rational(r) == expected


def test_cf_of_rational_rejects_nonpositive():
    with pytest.raises(ValueError):
        cf_of_rational(Fraction(0))
    with pytest.raises(ValueError):
        cf_of_rational(Fraction(-3, 2))


@given(positive_rationals())
def test_cf_roundtrip_and_canonical_tail(r):
    terms = cf_of_rational(r)
    assert evaluate_cf(terms) == r
    assert len(terms) == 1 or terms[-1] >= 2


@pytest.mark.parametrize(
    "terms, expected",
    [
        ((1, 2, 3), {(1, 2, 3), (1, 2, 2, 1)}),
        ((1,), {(1,), (0, 1)}),
        ((1, 5, 3, 2, 3), {(1, 5, 3, 2, 3), (1, 5, 3, 2, 2, 1)}),
        ((1, 2, 2, 1), {(1, 2, 3), (1, 2, 2, 1)}),
    ],
)
def test_cf_variants(terms, expected):
    assert cf_variants(terms) == expected


def test_cf_variants_of_extended_form_evaluate_equal():
    for variant in cf_variants((1, 5, 3, 2, 3)):
        assert evaluate_cf(variant) == Fraction(151, 127)


@given(positive_rationals())
def test_cf_variants_evaluate_equal(r):
    variants = cf_variants(cf_of_rational(r))
    assert 1 <= len(variants) <= 2
    for variant in variants:
        assert evaluate_cf(variant) == r


# -- PLFT expansions ----------------------------------------------------------

GOLDEN_EXPANSIONS = [
    ((7, 8, 4, 5), (1, 1, 1), (1, 2, 2, 1)),
    ((43, 10, 30, 7), (1, 2, 3, 4), (1, 0, 0, 1)),
    ((1, 2, 2, 1), (), (1, 2, 2, 1)),
    ((86, 30, 60, 21), (1, 2, 3, 4), (2, 0, 0, 3)),
    ((27, 10, 19, 7), (1, 2, 2, 1, 2), (1, 0, 0, 1)),
    ((151, 119, 127, 100), (1, 5, 3, 1), (3, 4, 4, 1)),
    ((7, 1, 5, 0), (1,), (5, 0, 2, 1)),
]


@pytest.mark.parametrize("coeffs, quotients, tail", GOLDEN_EXPANSIONS)
def test_plft_cf_expand_golden(coeffs, quotients, tail):
    cf = plft_cf_expand(Plft(*coeffs))
    assert cf.quotients == quotients
    assert cf.tail == Plft(*tail)


def test_evaluate_plft_cf_examples():
    assert evaluate_plft_cf(PlftContinuedFraction((1, 1, 1), Plft(1, 2, 2, 1))) == Plft(7, 8, 4, 5)
    assert evaluate_plft_cf(PlftContinuedFraction((), Plft(1, 2, 2, 1))) == Plft(1, 2, 2, 1)
    assert evaluate_plft_cf(PlftContinuedFraction((1, 2, 2, 1, 2), Plft(1, 0, 0, 1))) == Plft(27, 10, 19, 7)


def test_plft_cf_tail_must_be_orphan():
    with pytest.raises(ValueError):
        PlftContinuedFraction((1,), Plft(1, 0, 1, 1))


@given(plfts())
def test_expand_evaluate_roundtrip(w):
    cf = plft_cf_expand(w)
    assert cf.tail.is_orphan
    assert evaluate_plft_cf(cf) == w


def test_lr_on_cf_examples():
    tail = Plft(1, 2, 2, 1)
    base = PlftContinuedFraction((1, 1, 1), tail)
    assert lr_on_cf(base, RIGHT) == PlftContinuedFraction((2, 1, 1), tail)
    assert lr_on_cf(base, LEFT) == PlftContinuedFraction((0, 1, 1, 1, 1), tail)
    low = PlftContinuedFraction((0, 1, 1), tail)
    assert lr_on_cf(low, LEFT) == PlftContinuedFraction((0, 2, 1), tail)


@given(plfts(max_coeff=10**4))
def test_lr_on_cf_matches_children(w):
    cf = plft_cf_expand(w)
    assert lr_on_cf(cf, LEFT) == plft_cf_expand(w.left_child())
    assert lr_on_cf(cf, RIGHT) == plft_cf_expand(w.right_child())


# -- orphan root via rational expansions --------------------------------------

@pytest.mark.parametrize(
    "coeffs, root",
    [
        ((7, 8, 4, 5), (2, 1, 1, 2)),
        ((27, 10, 19, 7), (0, 1, 1, 0)),
        ((43, 10, 30, 7), (1, 0, 0, 1)),
        ((7, 1, 5, 0), (2, 1, 5, 0)),
        ((10, 43, 7, 30), (0, 1, 1, 0)),
        ((86, 30, 60, 21), (2, 0, 0, 3)),
    ],
)
def test_orphan_root_cf_examples(coeffs, root):
    assert orphan_root_cf(Plft(*coeffs)).root == Plft(*root)


def test_orphan_root_cf_matches_iteration_on_dense_example():
    w = Plft(151, 119, 127, 100)
    assert orphan_root_cf(w).root == root_by_iteration(w)[0]


def test_orphan_root_cf_records_pre_normalizations():
    report = orphan_root_cf(Plft(7, 1, 5, 0))
    assert report.reciprocal_applied


def test_orphan_root_cf_on_orphan_is_trivial():
    w = Plft(1, 2, 2, 1)
    report = orphan_root_cf(w)
    assert report.root == w and report.cf.quotients == ()


def _normalized(w, report):
    return w.reciprocal() if report.reciprocal_applied else w


@given(orphans(), words())
@settings(max_examples=300)
def test_root_routes_agree(orphan, word):
    w = apply_word(orphan, word)
    report = orphan_root_cf(w)
    root_iter, word_iter = root_by_iteration(w)
    assert report.root == root_iter == orphan
    # the unary parent walk, independent of the run-length division loop
    assert root_by_unary_walk(w) == (root_iter, word_iter)
    # parity-adjusted tail of the plain expansion
    cf = plft_cf_expand(w)
    tail_route = cf.tail if len(cf.quotients) % 2 == 0 else cf.tail.reciprocal()
    assert tail_route == root_iter
    # report invariants: the normalized root is the tail or its reciprocal,
    # and the reported expansion is the plain expansion of the normalized
    # input and reconstructs it
    odd = len(report.cf.quotients) % 2 == 1
    root_norm = report.cf.tail.reciprocal() if odd else report.cf.tail
    v = _normalized(w, report)
    assert report.cf == plft_cf_expand(v)
    assert evaluate_plft_cf(report.cf) == v
    if report.reciprocal_applied:
        root_norm = root_norm.reciprocal()
    assert root_norm == report.root


def test_orphan_root_cf_exhaustive_small_entries(monkeypatch):
    # Every PLFT with entries 0..10: the root agrees with the unary walk,
    # the reported expansion is the plain one of the normalized input, and
    # a non-orphan costs exactly one reconstruction.
    evaluations = 0

    def counting_evaluate(cf):
        nonlocal evaluations
        evaluations += 1
        return evaluate_plft_cf(cf)

    monkeypatch.setattr(cf_module, "evaluate_plft_cf", counting_evaluate)
    for a, b, c, d in itertools.product(range(11), repeat=4):
        if a * d == b * c:
            continue
        w = Plft(a, b, c, d)
        evaluations = 0
        report = orphan_root_cf(w)
        assert report.root == root_by_unary_walk(w)[0], w
        assert report.cf == plft_cf_expand(_normalized(w, report)), w
        assert evaluations == (0 if w.is_orphan else 1), w


# -- word decomposition --------------------------------------------------------

def test_decompose_special_examples():
    assert decompose_special(Plft(43, 10, 30, 7)) == parse_word("RLLRRRLLLL")
    assert decompose_special(IDENTITY) == ()
    assert decompose_special(Plft(1, 2, 2, 1)) is None


@given(st.one_of(plfts(max_coeff=30), plfts(max_coeff=2000), words().map(lambda word: apply_word(IDENTITY, word))))
def test_decompose_special_matches_unary_walk(m):
    root, word = root_by_unary_walk(m)
    assert decompose_special(m) == (word if root == IDENTITY else None)


@given(words(max_size=20))
def test_decompose_inverts_apply_word(word):
    m = apply_word(IDENTITY, word)
    assert decompose_special(m) == word


def test_rootz_check_examples():
    assert rootz_check(Plft(43, 10, 30, 7)) is True
    assert rootz_check(Plft(27, 10, 19, 7)) is True
    with pytest.warns(UserWarning, match="determinant is -13"):
        assert rootz_check(Plft(151, 119, 127, 100)) is False
    with pytest.warns(UserWarning):
        assert rootz_check(Plft(1, 1, 0, 1)) is False


# -- rational tree ancestry -----------------------------------------------------

def test_descendant_examples():
    assert is_descendant_rational(Fraction(3, 4), Fraction(7, 4)) is True
    assert is_descendant_rational(Fraction(3, 5), Fraction(8, 5)) is True
    assert is_descendant_rational(Fraction(8, 3), Fraction(7, 4)) is False
    assert is_descendant_rational(Fraction(7, 3), Fraction(8, 5)) is False


@given(positive_rationals())
def test_right_child_is_descendant(w):
    assert is_descendant_rational(w, w + 1) is True


@given(positive_rationals())
def test_left_child_is_descendant(w):
    assert is_descendant_rational(w, w / (w + 1)) is True


@given(positive_rationals())
def test_descendant_is_strict(w):
    assert is_descendant_rational(w, w) is False


def test_descendant_agrees_with_tree_paths_depth8():
    paths = rational_tree_paths(8)
    values = first_rows_rationals(4)
    for u in values:
        for t in values:
            expected = paths[u] == paths[t][: len(paths[u])] and u != t
            assert is_descendant_rational(u, t) is expected


def test_ancestors_examples():
    assert list(ancestors_of_rational(Fraction(7, 4))) == [
        Fraction(3, 4),
        Fraction(3),
        Fraction(2),
        Fraction(1),
    ]
    assert list(ancestors_of_rational(Fraction(1))) == []
    assert Fraction(3, 5) in ancestors_of_rational(Fraction(8, 5))


@given(positive_rationals(max_part=60))
@settings(max_examples=120)
def test_ancestors_satisfy_descendant_relation(w):
    for ancestor in ancestors_of_rational(w):
        assert is_descendant_rational(ancestor, w) is True


@given(st.one_of(positive_rationals(max_part=60), positive_rationals(max_part=3000)))
@settings(max_examples=150)
def test_ancestors_match_unary_walk(w):
    want = ancestors_by_unary_walk(w)
    ancestors = ancestors_of_rational(w)
    check_reads_as(ancestors, want)
    assert word_of_runs(ancestors.runs) == tuple(RIGHT if a > 1 else LEFT for a in ([w] + want)[:-1])


def _ancestors_by_splice_enumeration(w):
    # Independent route: every ancestor arises by truncating some
    # representation at position j and lowering that term, inverting for
    # odd j.  Union over both representations.
    found = set()
    for rep in cf_variants(cf_of_rational(w)):
        s = len(rep) - 1
        for j in range(s):
            for k in range(rep[j]):
                value = evaluate_cf((k,) + rep[j + 1:])
                found.add(value if j % 2 == 0 else 1 / value)
    return found


@given(positive_rationals(max_part=60))
@settings(max_examples=120)
def test_ancestors_match_splice_enumeration(w):
    assert set(ancestors_of_rational(w)) == _ancestors_by_splice_enumeration(w)


# -- limit identities ------------------------------------------------------------

@pytest.mark.parametrize("coeffs", [(7, 8, 4, 5), (43, 10, 30, 7), (86, 30, 60, 21)])
def test_limit_checks_golden(coeffs):
    w = Plft(*coeffs)
    assert limit_checks(w, plft_cf_expand(w)) is True


def test_limit_checks_rejects_zero_denominators():
    w = Plft(7, 1, 5, 0)
    with pytest.raises(ValueError):
        limit_checks(w, plft_cf_expand(w))


def test_limit_checks_detects_foreign_expansion():
    w = Plft(7, 8, 4, 5)
    assert limit_checks(w, plft_cf_expand(Plft(43, 10, 30, 7))) is False


@given(plfts(max_coeff=10**4))
def test_limit_checks_accept_own_expansion(w):
    if w.c and w.d:
        assert limit_checks(w, plft_cf_expand(w)) is True
