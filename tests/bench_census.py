"""Micro-benchmarks of the census kernels, with pytest-benchmark.

Run with ``python -m pytest tests/bench_census.py``.  The tier-1 run does
not collect this file: its name does not start with ``test_``.
"""

import pytest

from plft_forest import census


@pytest.fixture
def cold_caches(monkeypatch):
    """A function that empties the module's table cache; monkeypatch puts the old one back after the test."""
    return lambda: monkeypatch.setattr(census, "_tables", {})


def test_census_rows_1_to_200_one_at_a_time_from_cold(benchmark, cold_caches):
    # as the figure-data job asks for them
    rows = benchmark.pedantic(lambda: [census.census_row(d) for d in range(1, 201)], setup=cold_caches, rounds=10)
    assert rows[14].h_closed == 88


def test_census_row_1_to_200_warm(benchmark):
    # the caches are built first, so this is the per-row cost of the three routes
    census.census_rows(200)
    rows = benchmark(lambda: [census.census_row(d) for d in range(1, 201)])
    assert rows[14].h_closed == 88


def test_census_row_100_warm(benchmark):
    # one row from built tables: two trial divisions, one convolution and two table reads
    census.census_rows(200)
    assert benchmark(census.census_row, 100).h_closed == 1560


def test_nu2_200(benchmark):
    census.nu2(200)  # sieve built first
    assert benchmark(census.nu2, 200) == 3123


def test_direct_pass_to_256(benchmark):
    assert benchmark(census._direct_pass, 256)[256] == 5342


def test_count_pass_to_256(benchmark):
    assert benchmark(census._count_pass, 256)[256] == 5342


def test_summatory_h_at_4e4(benchmark):
    assert benchmark(census.summatory_h, 40_000) == 43851192132
