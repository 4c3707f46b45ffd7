import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import iter_partitions, nu2_brute, orphans_by_definition
from plft_forest import census as census_module
from plft_forest import (
    InternalInvariantError,
    Plft,
    harmonic_double_sum_reference,
    harmonic_double_sum,
    census_row,
    divisor_sigma,
    divisor_tau,
    enumerate_orphans,
    h_closed,
    h_direct,
    nu2,
    ratio_series,
    summatory_h,
)

HVALS = [1, 4, 7, 13, 15, 26, 25, 39, 40, 54, 49, 79, 63, 88, 88]
REPO = Path(__file__).resolve().parents[1]


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


def test_sieve_grows_geometrically(monkeypatch):
    # Asking for D = 1, 2, 3, ... in turn must not rebuild the sieve for
    # every new D; each rebuild swaps in a new cache object.
    monkeypatch.setattr(census_module, "_sieve_cache", ([0], [0]))
    builds = 0
    cache = census_module._sieve_cache
    for d in range(1, 1001):
        nu2(d)
        if census_module._sieve_cache is not cache:
            builds += 1
            cache = census_module._sieve_cache
    assert builds <= 12


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


@pytest.mark.parametrize("route, bound_kib", [("h_direct", 64), ("enumerate_orphans", 2048)])
def test_route_memory_at_300(route, bound_kib):
    # A fresh process, because module caches grown by earlier tests in
    # this one would hide what a cold call allocates.  The enumerator's
    # bound is dominated by its 7,819-element result.
    code = (
        "import tracemalloc; from plft_forest import census; tracemalloc.start(); "
        f"census.{route}(300); print(tracemalloc.get_traced_memory()[1])"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < bound_kib * 1024


def test_three_routes_agree_to_sixty():
    for d in range(1, 61):
        row = census_row(d)  # CensusRow construction enforces equality
        assert row.h_closed == HVALS[d - 1] if d <= 15 else True


@pytest.mark.parametrize("which", [0, 1])  # tau, sigma
def test_census_row_catches_a_wrong_sieve_entry(monkeypatch, which):
    d = 12
    lists = [list(values) for values in census_module._sieves(d)]
    lists[which][d] += 2  # even, so nu2's parity check passes
    monkeypatch.setattr(census_module, "_sieve_cache", tuple(lists))
    with pytest.raises(InternalInvariantError, match="sieve and trial division"):
        census_row(d)


@pytest.mark.parametrize("name", ["divisor_tau", "divisor_sigma"])
def test_census_row_catches_a_wrong_trial_division(monkeypatch, name):
    original = getattr(census_module, name)
    monkeypatch.setattr(census_module, name, lambda d: original(d) + 2)
    with pytest.raises(InternalInvariantError, match="sieve and trial division"):
        census_row(12)


@pytest.mark.parametrize(
    "name, wrong",
    [("h_closed", lambda h: h + 1), ("h_direct", lambda h: h - 1), ("enumerate_orphans", lambda found: found[1:])],
)
def test_census_row_catches_a_wrong_count(monkeypatch, name, wrong):
    original = getattr(census_module, name)
    monkeypatch.setattr(census_module, name, lambda d: wrong(original(d)))
    with pytest.raises(InternalInvariantError, match="route disagreement"):
        census_row(12)


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


def test_harmonic_double_sum_against_definition():
    for x in range(2, 41):
        exact = sum(Fraction(1, a * (a - c)) for c in range(1, x) for a in range(c + 1, x + 1))
        assert math.isclose(harmonic_double_sum(x), exact, rel_tol=1e-12), f"x={x}"


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_h_direct_equals_closed(d):
    assert h_direct(d) == h_closed(d)
