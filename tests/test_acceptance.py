"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete (without -s they appear in captured output on failure).
"""

import random
import time
from fractions import Fraction

from claims import epsilon_u, is_descendant_by_splice
from helpers import (
    enumerate_orphans,
    first_rows_rationals,
    nu2_brute,
    rational_tree_paths,
    root_by_unary_walk,
    word_of_letters,
)
from plft_forest import (
    IDENTITY,
    LEFT,
    RIGHT,
    GaussianRational,
    OrphanParams,
    Plft,
    ancestor_chain,
    apply_word,
    harmonic_double_sum_reference,
    harmonic_double_sum,
    decompose_special,
    h_closed,
    h_direct,
    is_complex_orphan,
    is_descendant_rational,
    nu2,
    orphan_root_cf,
    plft_cf_expand,
    ratio_series,
    replay_chain,
    root_by_iteration,
    summatory_h,
)
from plft_forest.census import count_orphans, divisor_sigma, divisor_tau

HVALS = [1, 4, 7, 13, 15, 26, 25, 39, 40, 54, 49, 79, 63, 88, 88]


def _report(number, description, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_h_table():
    start = time.perf_counter()
    ok = True
    for d in range(1, 16):
        expected = HVALS[d - 1]
        ok = ok and h_closed(d) == h_direct(d) == count_orphans(d) == len(enumerate_orphans(d)) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"h(1..15) equals the reference table by all three routes and the literal list ({elapsed:.3f}s < 1s)", ok)


def test_criterion_2_oracle_equivalence_to_200():
    start = time.perf_counter()
    ok = all(
        h_closed(d) == h_direct(d) == count_orphans(d) == len(enumerate_orphans(d))
        for d in range(1, 201)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(2, f"three routes and the literal list agree exactly for D <= 200 ({elapsed:.1f}s < 60s)", ok)


def test_criterion_3_nu2_decomposition():
    ok = all(nu2(d) == nu2_brute(d) for d in range(1, 61))
    ok = ok and nu2(6) == 6 == 26 - 2 * 12 + 4
    ok = ok and divisor_sigma(6) == 12 and divisor_tau(6) == 4
    _report(3, "nu2 matches brute-force partition enumeration for D <= 60; nu2(6) = 6", ok)


def test_criterion_4_summatory_asymptotic():
    start = time.perf_counter()
    ok = summatory_h(15) == 591
    points = {p.x: p for p in ratio_series([100, 1000, 10**4])}
    ok = ok and abs(points[10**4].ratio - 1) < abs(points[100].ratio - 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(
        4,
        f"summatory(15) = 591 and |ratio-1| shrinks from x=100 ({abs(points[100].ratio - 1):.4f}) "
        f"to x=10^4 ({abs(points[10 ** 4].ratio - 1):.4f}) ({elapsed:.1f}s < 300s)",
        ok,
    )


def test_criterion_5_aux_sum():
    ratio_1000 = harmonic_double_sum(1000) / harmonic_double_sum_reference(1000)
    ratio_100 = harmonic_double_sum(100) / harmonic_double_sum_reference(100)
    ok = 0.7 <= ratio_1000 <= 1.3 and abs(ratio_1000 - 1) < abs(ratio_100 - 1)
    _report(
        5,
        f"double harmonic sum / (log^2 x / 2) is {ratio_1000:.4f} at x=10^3 (in [0.7, 1.3]) "
        f"and closer to 1 than {ratio_100:.4f} at x=10^2",
        ok,
    )


def test_criterion_6_golden_continued_fractions():
    cases = [
        ((7, 8, 4, 5), (1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2)),
        ((43, 10, 30, 7), (1, 2, 3, 4), (1, 0, 0, 1), (1, 0, 0, 1)),
        ((86, 30, 60, 21), (1, 2, 3, 4), (2, 0, 0, 3), (2, 0, 0, 3)),
        ((27, 10, 19, 7), (1, 2, 2, 1, 2), (1, 0, 0, 1), (0, 1, 1, 0)),
    ]
    ok = True
    for coeffs, quotients, tail, root in cases:
        w = Plft(*coeffs)
        cf = plft_cf_expand(w)
        ok = ok and cf.quotients == quotients and cf.tail == Plft(*tail)
        ok = ok and orphan_root_cf(w).root == Plft(*root)
    _report(6, "expansions of the four golden examples match exactly, roots included", ok)


def test_criterion_7_root_route_agreement():
    rng = random.Random(20260810)
    ok = True
    for _ in range(10**4):
        c = rng.randint(0, 20)
        b = rng.randint(0, 20)
        orphan = Plft(c + rng.randint(1, 20), b, c, b + rng.randint(1, 20))
        if rng.random() < 0.5:
            orphan = orphan.reciprocal()
        word = tuple(rng.choice((LEFT, RIGHT)) for _ in range(rng.randint(0, 50)))
        w = apply_word(orphan, word_of_letters(word))
        root_iter, word_iter = root_by_iteration(w)
        cf = plft_cf_expand(w)
        tail_route = cf.tail if len(cf.quotients) % 2 == 0 else cf.tail.reciprocal()
        ok = ok and orphan_root_cf(w).root == root_iter == tail_route == orphan
        # plft_cf_expand and root_by_iteration share one division loop, so
        # the unary parent walk is the third route that is independent in fact
        ok = ok and root_by_unary_walk(w) == (root_iter, word_iter) and word_iter == word
        if not ok:
            break
    _report(
        7,
        "10^4 randomized PLFTs: unary parent walk, run-length walk and "
        "rational-expansion route agree exactly on root and word",
        ok,
    )


def test_criterion_8_word_decomposition():
    ok = True
    for length in range(13):
        for mask in range(2**length):
            word = tuple(RIGHT if mask >> i & 1 else LEFT for i in range(length))
            ok = ok and decompose_special(apply_word(IDENTITY, word_of_letters(word))) == word
        if not ok:
            break
    for d in range(1, 6):
        for orphan in enumerate_orphans(d):
            expected = () if orphan == IDENTITY else None
            ok = ok and decompose_special(orphan) == expected
    _report(
        8,
        "decompose inverts apply_word for all 8191 words of length <= 12 "
        "and rejects every non-identity orphan with D <= 5",
        ok,
    )


def test_criterion_9_descendant_conditions():
    # Two routes against the enumeration: the library's run test, which
    # shares its walk with ancestors_of_rational, and the splice rule on
    # continued-fraction representations, which shares no walk with it.
    paths = rational_tree_paths(16)
    values = first_rows_rationals(5)
    ok = len(values) == 31
    for descends in (is_descendant_rational, is_descendant_by_splice):
        for u in values:
            for t in values:
                expected = u != t and paths[u] == paths[t][: len(paths[u])]
                ok = ok and descends(u, t) is expected
        ok = ok and descends(Fraction(3, 4), Fraction(7, 4))
        ok = ok and descends(Fraction(3, 5), Fraction(8, 5))
        ok = ok and not descends(Fraction(8, 3), Fraction(7, 4))
        ok = ok and not descends(Fraction(7, 3), Fraction(8, 5))
    _report(9, "run test and splice rule each agree with a depth-16 tree enumeration on all 961 pairs", ok)


def test_criterion_10_complex_forest():
    start = time.perf_counter()
    rng = random.Random(20260810)
    ok = True
    for _ in range(10**4):
        z = GaussianRational(
            Fraction(rng.randint(1, 100), rng.randint(1, 100)),
            Fraction(rng.randint(1, 100), rng.randint(1, 100)),
        )
        params = OrphanParams(rng.randint(1, 3), rng.randint(1, 3))
        root, steps = ancestor_chain(z, params)
        ok = ok and is_complex_orphan(root, params)
        ok = ok and replay_chain(root, steps, params) == z
        previous = z
        for step in steps:
            if step.move == LEFT:
                ok = ok and step.im_increase > 0
                ok = ok and float(step.im_increase) >= epsilon_u(params.u, previous.im) - 1e-12
            else:
                ok = ok and step.im_increase == 0
            previous = step.value
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        10,
        f"10^4 random chains terminate at verified orphans, replay exactly, "
        f"and honor the epsilon bound ({elapsed:.1f}s < 30s)",
        ok,
    )
