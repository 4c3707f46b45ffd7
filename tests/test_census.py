import functools
import math
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constructions,
    enumerate_orphans,
    iter_partitions,
    nu2_brute,
    nu2_by_full_convolution,
    orphans_by_definition,
    run_python,
    sieve_by_divisor_multiples,
)
from plft_forest import census as census_module
from plft_forest import (
    InternalInvariantError,
    Plft,
    harmonic_double_sum_reference,
    harmonic_double_sum,
    census_row,
    census_rows,
    h_closed,
    h_direct,
    nu2,
    ratio_series,
    summatory_h,
)
from plft_forest.census import count_orphans, divisor_sigma, divisor_tau

HVALS = [1, 4, 7, 13, 15, 26, 25, 39, 40, 54, 49, 79, 63, 88, 88]


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this checkout's ``src``."""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_divisor_functions_examples():
    assert (divisor_sigma(6), divisor_tau(6)) == (12, 4)
    assert (divisor_sigma(1), divisor_tau(1)) == (1, 1)
    assert (divisor_sigma(12), divisor_tau(12)) == (28, 6)
    with pytest.raises(ValueError):
        divisor_sigma(0)
    with pytest.raises(ValueError):
        divisor_tau(0)


@given(st.integers(min_value=1, max_value=3000))
def test_divisor_functions_against_naive_scan(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert divisor_tau(n) == len(divisors)
    assert divisor_sigma(n) == sum(divisors)


def test_nu2_examples():
    assert nu2(1) == 0
    assert nu2(6) == 6
    assert nu2(2) == 0
    # consistency with the table: h(6) = 26 = 6 + 2*12 - 4, h(2) = 4 = 0 + 2*3 - 2
    assert 26 - 2 * divisor_sigma(6) + divisor_tau(6) == nu2(6)
    assert 4 - 2 * divisor_sigma(2) + divisor_tau(2) == nu2(2)


def test_nu2_against_brute_force():
    for d in range(1, 61):
        assert nu2(d) == nu2_brute(d), f"D={d}"


def test_nu2_against_full_partition_iteration():
    for d in range(1, 26):
        expected = sum(1 for parts in iter_partitions(d) if len(parts) == 2)
        assert nu2(d) == expected, f"D={d}"


def test_nu2_equals_the_full_convolution_to_600():
    # the sum over A < D/2, doubled, plus tau(D/2)^2 for even D, against
    # every ordered pair.  D = 1 has neither term, D = 2 only the middle
    # one and D = 3 one pair.  The row's nu2 is taken back out of h_closed.
    expected = nu2_by_full_convolution(600)[1:]
    assert [nu2(d) for d in range(1, 601)] == expected
    assert [row.nu2 for row in census_rows(600)] == expected


def _cold_caches(monkeypatch):
    """Empty the module's table cache for one test; monkeypatch puts the old one back after it."""
    monkeypatch.setattr(census_module, "_tables", {})


def test_sieve_grows_geometrically(monkeypatch):
    # Asking for D = 1, 2, 3, ... in turn must not rebuild the sieve for
    # every new D; each rebuild swaps in a new table object.
    _cold_caches(monkeypatch)
    builds = 0
    tables = census_module._tables
    table = None
    for d in range(1, 1001):
        nu2(d)
        if tables[census_module._sieve] is not table:
            builds += 1
            table = tables[census_module._sieve]
    assert builds <= 12


def test_nu2_catches_an_odd_sieve_error(monkeypatch):
    # tau(D/2) enters the convolution squared, once; the pairs A < D/2 enter twice
    tau = census_module._sieve(12)
    tau[6] += 1
    monkeypatch.setattr(census_module, "_tables", {census_module._sieve: tau})
    with pytest.raises(InternalInvariantError, match="odd distinct-size pair count .* at D=12"):
        nu2(12)


def test_summatory_catches_an_odd_sieve_error(monkeypatch):
    # tau(x) enters the sum of tau once and the convolution not at all
    original = census_module._sieve

    def wrong(n):
        tau = original(n)
        tau[n] += 1
        return tau

    monkeypatch.setattr(census_module, "_sieve", wrong)
    with pytest.raises(InternalInvariantError, match="odd distinct-size pair count .* summed to x=12"):
        summatory_h(12)


def test_sieve_equals_divisor_multiples():
    # every length to 3000 checks where the linear sieve stops at the end
    # of its table; the 10^4 table holds every entry up to 10^4
    tau = sieve_by_divisor_multiples(3000)[0]
    for n in range(3001):
        assert census_module._sieve(n) == array("I", tau[:n + 1]), f"n={n}"
    assert census_module._sieve(10**4) == array("I", sieve_by_divisor_multiples(10**4)[0])


@functools.cache
def _sieve_to_a_million():
    return census_module._sieve(10**6)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_sieve_against_trial_division(n):
    assert _sieve_to_a_million()[n] == divisor_tau(n)


def test_sigma_summatory_equals_divisor_multiples():
    # the grouped sum of sigma against the prefix sums of the oracle's sigma
    prefix = list(accumulate(sieve_by_divisor_multiples(3000)[1]))
    assert [census_module._sigma_summatory(x) for x in range(3001)] == prefix


def test_summatory_pins_no_sieve():
    # A fresh process, as in test_route_memory_at_300: the summatory
    # sieves to its own top and must leave no table held, in the module
    # cache or elsewhere, once it returns.
    code = (
        "import tracemalloc; from plft_forest import census; tracemalloc.start(); "
        "census.summatory_h(10**5); "
        "print(tracemalloc.get_traced_memory()[0], len(census._tables))"
    )
    held, tables = map(int, _run_fresh(code).split())
    assert held < 64 * 1024
    assert tables == 0


def test_h_closed_table_values():
    assert h_closed(1) == 1
    assert h_closed(12) == 79
    assert h_closed(15) == 88
    assert [h_closed(d) for d in range(1, 16)] == HVALS


def test_h_closed_symmetric_in_sign():
    assert h_closed(-6) == h_closed(6)
    with pytest.raises(ValueError):
        h_closed(0)


def test_h_direct_examples():
    assert h_direct(1) == 1
    assert h_direct(7) == 25
    assert h_direct(14) == 88


def test_enumerate_orphans_small():
    assert enumerate_orphans(1) == [Plft(1, 0, 0, 1)]
    two = enumerate_orphans(2)
    assert len(two) == 4
    assert set(two) == {Plft(1, 0, 0, 2), Plft(2, 0, 0, 1), Plft(1, 1, 0, 2), Plft(2, 0, 1, 1)}
    assert len(enumerate_orphans(3)) == 7


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 20])
def test_enumerate_orphans_are_orphans_with_determinant(d):
    found = enumerate_orphans(d)
    assert len(set(found)) == len(found)
    for w in found:
        assert w.is_orphan
        assert w.det == d
        assert w.a > w.c and w.d > w.b


def test_enumerate_orphans_equals_definition():
    for d in range(1, 8):
        assert set(enumerate_orphans(d)) == orphans_by_definition(d), f"D={d}"


def test_count_orphans_equals_list_to_200():
    for d in range(1, 201):
        assert count_orphans(d) == len(enumerate_orphans(d)), f"D={d}"


def test_count_pass_equals_list_at_every_length_to_120():
    # every length checks the last classes of range(p*q, n + 1, g) at the table's end
    listed = [0] + [len(enumerate_orphans(d)) for d in range(1, 121)]
    for n in range(121):
        assert census_module._count_pass(n) == listed[:n + 1], f"n={n}"


@pytest.mark.parametrize("build", ["_sieve", "_direct_pass", "_count_pass"])
def test_passes_refuse_a_size_past_indexing(build):
    # refused before the table is allocated: a list or array of sys.maxsize
    # entries would raise MemoryError or OverflowError instead
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large for a table"):
            getattr(census_module, build)(sys.maxsize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("route", ["nu2", "h_closed", "census_row"])
def test_routes_refuse_a_size_past_indexing_before_trial_division(route):
    # trial division to sqrt(sys.maxsize) would take about 3*10^9 steps
    with pytest.raises(ValueError, match="too large for a table"):
        getattr(census_module, route)(sys.maxsize)


def test_census_row_builds_no_plft(monkeypatch):
    for d in range(1, 61):
        row, built = constructions(monkeypatch, census_row, d)
        assert row.orphan_count == row.h_closed and built == 0, f"D={d}"


@pytest.mark.parametrize("route, bound_kib", [("h_closed", 64), ("h_direct", 64), ("count_orphans", 64)])
def test_route_memory_at_300(route, bound_kib):
    # A fresh process, because module caches grown by earlier tests in
    # this one would hide what a cold call allocates.
    code = (
        "import tracemalloc; from plft_forest import census; tracemalloc.start(); "
        f"census.{route}(300); print(tracemalloc.get_traced_memory()[1])"
    )
    assert int(_run_fresh(code)) < bound_kib * 1024


def test_census_row_evaluates_each_route_once(monkeypatch):
    # one trial division for sigma, one for tau, one convolution and one
    # read of each pass table per row; h_closed is taken from nu2, sigma and tau
    names = ("divisor_sigma", "divisor_tau", "_nu2", "h_direct", "count_orphans")
    calls = []
    for name in names:
        original = getattr(census_module, name)
        monkeypatch.setattr(census_module, name, lambda *args, name=name, f=original: calls.append(name) or f(*args))
    for d in (1, 2, 12, 101):
        census_row(d)
        assert sorted(calls) == sorted(names), f"D={d}"
        calls.clear()


def test_three_routes_agree_to_sixty():
    for d in range(1, 61):
        row = census_row(d)  # CensusRow construction enforces equality
        assert row.h_closed == HVALS[d - 1] if d <= 15 else True


@pytest.mark.parametrize(
    "below, message",
    [
        pytest.param(0, "sieve and trial division", id="0"),  # tau(D), which trial division also gives
        pytest.param(1, "route disagreement", id="1"),  # tau(D - 1), which only the convolution reads
    ],
)
def test_census_row_catches_a_wrong_sieve_entry(monkeypatch, below, message):
    d = 12
    tau = census_module._sieve(d)
    tau[d - below] += 2  # even, so nu2's parity check passes
    monkeypatch.setattr(census_module, "_tables", {census_module._sieve: tau})
    with pytest.raises(InternalInvariantError, match=message):
        census_row(d)


@pytest.mark.parametrize(
    "name, message",
    [
        pytest.param("divisor_tau", "sieve and trial division", id="divisor_tau"),
        # sigma has no second source: +2 moves nu2 by -1 and h_closed by +3
        pytest.param("divisor_sigma", "route disagreement", id="divisor_sigma"),
    ],
)
def test_census_row_catches_a_wrong_trial_division(monkeypatch, name, message):
    original = getattr(census_module, name)
    monkeypatch.setattr(census_module, name, lambda d: original(d) + 2)
    with pytest.raises(InternalInvariantError, match=message):
        census_row(12)


@pytest.mark.parametrize(
    "route, wrong",
    [("h_closed", lambda h: h + 1), ("h_direct", lambda h: h - 1), ("count_orphans", lambda h: h - 1)],
)
def test_census_row_catches_a_wrong_count(monkeypatch, route, wrong):
    # the row's h_closed is nu2 + 2*sigma - tau, so its fault is planted in nu2
    name = "_nu2" if route == "h_closed" else route
    original = getattr(census_module, name)
    monkeypatch.setattr(census_module, name, lambda *args: wrong(original(*args)))
    with pytest.raises(InternalInvariantError, match="route disagreement"):
        census_row(12)


def _counting_direct_passes(monkeypatch):
    """The sizes of the direct passes run from here on, starting from cold caches."""
    _cold_caches(monkeypatch)
    calls = []
    original = census_module._direct_pass
    monkeypatch.setattr(census_module, "_direct_pass", lambda n: calls.append(n) or original(n))
    return calls


def test_census_rows_runs_the_direct_pass_once(monkeypatch):
    calls = _counting_direct_passes(monkeypatch)
    census_rows(40)
    assert calls == [40]
    census_row(40)  # rows the pass reached cost no further pass
    assert calls == [40]


def test_census_row_rebuilds_each_cache_at_doubling_sizes(monkeypatch):
    # rows 1..200 one at a time from cold tables: a rebuild past size n
    # (n + 1 entries) goes to size 2*(n + 1), and only row 2*n + 3 needs one
    _cold_caches(monkeypatch)
    builds = (census_module._sieve, census_module._direct_pass, census_module._count_pass)
    sizes = {build: [] for build in builds}
    tables = census_module._tables
    seen = {}
    for d in range(1, 201):
        census_row(d)
        for build in builds:
            if tables[build] is not seen.get(build):
                sizes[build].append(len(tables[build]) - 1)
                seen[build] = tables[build]
    assert tables.keys() == set(builds)
    assert sizes == {build: [2, 6, 14, 30, 62, 126, 254] for build in builds}


def test_census_row_runs_the_direct_pass_a_few_times(monkeypatch):
    # rows 1..200 one at a time, as the figure-data job asks for them:
    # the cache at least doubles at each rebuild
    calls = _counting_direct_passes(monkeypatch)
    for d in range(1, 201):
        census_row(d)
    assert len(calls) <= 8 and max(calls) < 2 * 200, calls


def test_census_rows_equal_census_row_to_sixty():
    assert census_rows(60) == [census_row(d) for d in range(1, 61)]


def test_census_rows_catch_a_wrong_direct_count(monkeypatch):
    _cold_caches(monkeypatch)
    original = census_module._direct_pass

    def wrong(n):
        counts = original(n)
        counts[12] -= 1
        return counts

    monkeypatch.setattr(census_module, "_direct_pass", wrong)
    with pytest.raises(InternalInvariantError, match="route disagreement at D=12"):
        census_rows(20)


def test_three_routes_agree_to_600():
    # CensusRow checks h_closed == h_direct == count_orphans for every row
    rows = census_rows(600)
    assert [row.D for row in rows] == list(range(1, 601))


def test_summatory_examples():
    assert summatory_h(15) == 591
    assert summatory_h(1) == 1


def test_summatory_matches_per_value_route():
    total = 0
    for d in range(1, 301):
        total += h_closed(d)
        assert summatory_h(d) == total, f"x={d}"
    assert [p.summatory for p in ratio_series([300, 7, 300])] == [total, summatory_h(7), total]
    assert summatory_h(10**5) == 323128569620


def test_summatory_monotone_and_h_positive():
    values = [summatory_h(x) for x in range(1, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(h_closed(d) >= 1 for d in range(1, 40))


def test_ratio_series_point_at_15():
    (point,) = ratio_series([15])
    assert point.summatory == 591
    assert point.reference == pytest.approx(0.25 * 225 * math.log(15) ** 2)
    assert point.ratio == pytest.approx(1.4327, abs=5e-4)


def test_ratio_series_of_no_points():
    assert ratio_series([]) == []


def test_ratio_series_converges_toward_one():
    small, large = ratio_series([100, 10**4])
    assert abs(large.ratio - 1) < abs(small.ratio - 1)


def test_harmonic_double_sum_values():
    assert harmonic_double_sum(2) == 0.5
    value = harmonic_double_sum(100)
    assert abs(value - harmonic_double_sum_reference(100)) < 0.5 * math.log(100)
    closer = abs(harmonic_double_sum(1000) / harmonic_double_sum_reference(1000) - 1)
    farther = abs(value / harmonic_double_sum_reference(100) - 1)
    assert closer < farther
    with pytest.raises(ValueError):
        harmonic_double_sum(1)
    with pytest.raises(ValueError, match="need x >= 2"):
        harmonic_double_sum_reference(1)


def test_harmonic_double_sum_against_definition():
    for x in range(2, 41):
        exact = sum(Fraction(1, a * (a - c)) for c in range(1, x) for a in range(c + 1, x + 1))
        assert math.isclose(harmonic_double_sum(x), exact, rel_tol=1e-12), f"x={x}"


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_h_direct_equals_closed(d):
    assert h_direct(d) == h_closed(d)
