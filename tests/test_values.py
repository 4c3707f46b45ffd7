"""The contract every value class keeps: equality, hashing, immutability, repr and constructors."""

import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from helpers import constructions
from plft_forest import GaussianRational, OrphanParams, Plft, census, census_row
from plft_forest.census import CensusRow, SeriesPoint
from plft_forest.cf import PlftContinuedFraction, RootReport
from plft_forest.complex_forest import ChainStep
from plft_forest.errors import Value

ORPHAN = Plft(2, 1, 1, 2)
Z = GaussianRational(1, 1)

# (class, field values in order, one other valid value, repr)
CASES = [
    (Plft, (7, 8, 4, 5), Plft(7, 8, 4, 6), "Plft(a=7, b=8, c=4, d=5)"),
    (GaussianRational, (1, 2, 2), GaussianRational(1, 2),
     "GaussianRational(x=1, y=2, q=2)"),
    (OrphanParams, (1, 2), OrphanParams(2, 1), "OrphanParams(u=1, v=2)"),
    (ChainStep, (Z, "L", Fraction(1, 2)), ChainStep(Z, "R", Fraction(0)),
     "ChainStep(value=GaussianRational(x=1, y=1, q=1), move='L', im_increase=Fraction(1, 2))"),
    (PlftContinuedFraction, ((1, 1, 1), Plft(1, 2, 2, 1)), PlftContinuedFraction((), ORPHAN),
     "PlftContinuedFraction(quotients=(1, 1, 1), tail=Plft(a=1, b=2, c=2, d=1))"),
    (RootReport, (ORPHAN, PlftContinuedFraction((), ORPHAN), False), RootReport(ORPHAN, PlftContinuedFraction((), ORPHAN), True),
     "RootReport(root=Plft(a=2, b=1, c=1, d=2), cf=PlftContinuedFraction(quotients=(), tail=Plft(a=2, b=1, c=1, d=2)), "
     "reciprocal_applied=False)"),
    (CensusRow, (2, 0, 3, 2, 4, 4, 4), CensusRow(1, 0, 1, 1, 1, 1, 1),
     "CensusRow(D=2, nu2=0, sigma=3, tau=2, h_closed=4, h_direct=4, orphan_count=4)"),
    (SeriesPoint, (15, 591, 1.5, 0.5), SeriesPoint(15, 591, 1.5, 0.25),
     "SeriesPoint(x=15, summatory=591, reference=1.5, ratio=0.5)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_value_contract(cls, fields, other, text):
    value = cls(*fields)
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields

    # equal fields: equal values with equal hashes, the hash of the field tuple
    twin = cls(*fields)
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert value != other and not value == other
    assert len({value, twin, other}) == 2

    # a tuple, or a class of the same name and fields, is a different value
    assert value != fields
    namesake = type(cls.__name__, (Value,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    assert value != namesake(*fields)

    # immutable, with no instance dict
    with pytest.raises(AttributeError):
        setattr(value, cls.__slots__[0], other)
    with pytest.raises(AttributeError):
        delattr(value, cls.__slots__[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")

    assert repr(value) == text
    assert cls(**dict(zip(cls.__slots__, fields))) == value
    assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls, fields", [case[:2] for case in CASES], ids=IDS)
def test_constructor_runs_the_post_init_hook_of_the_class(monkeypatch, cls, fields):
    value, built = constructions(monkeypatch, cls, *fields, cls=cls)
    assert built == 1
    assert value == cls(*fields)


def test_keyword_constructions_of_the_call_sites():
    # the keyword forms that census_row and orphan_root_cf use
    assert CensusRow(D=2, nu2=0, sigma=3, tau=2, h_closed=4, h_direct=4, orphan_count=4) == census_row(2)
    report = RootReport(root=ORPHAN, cf=PlftContinuedFraction((), ORPHAN))
    assert report.reciprocal_applied is False
    assert report == RootReport(ORPHAN, PlftContinuedFraction((), ORPHAN), False)


def test_census_rows_build_and_unpickle_from_cold_tables(monkeypatch):
    # a CensusRow holds seven numbers: building one, consistent or not,
    # and unpickling one read no table and build none
    data = pickle.dumps(census_row(12))
    monkeypatch.setattr(census, "_tables", {})
    tracemalloc.start()
    try:
        wrong = CensusRow(D=10**6, nu2=0, sigma=1, tau=2, h_closed=3, h_direct=4, orphan_count=5)
        row = pickle.loads(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census._tables == {}
    assert peak < 64 * 1024
    assert (wrong.D, wrong.orphan_count) == (10**6, 5)
    assert row == census_row(12)


def test_classes_with_equal_fields_differ():
    assert OrphanParams(1, 2) != GaussianRational(1, 2)
    assert GaussianRational(1, 2) != OrphanParams(1, 2)
    assert (OrphanParams(1, 2).u, OrphanParams(1, 2).v) == (GaussianRational(1, 2).re, GaussianRational(1, 2).im)


def test_gaussian_rational_keeps_fractions_and_refuses_floats():
    z = GaussianRational(2, "1/3")
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (Fraction(2), Fraction(1, 3))
    with pytest.raises(ValueError, match="float"):
        GaussianRational(0.5, 1)
    with pytest.raises(ValueError, match="float"):
        GaussianRational(1, 0.5)


def test_gaussian_rational_stores_its_triple_in_lowest_terms():
    assert GaussianRational(2, 4, 6) == GaussianRational(Fraction(1, 3), Fraction(2, 3))
    z = GaussianRational(-1, -1, -2)
    assert (z.x, z.y, z.q) == (1, 1, 2)
    assert (z.re, z.im) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="nonzero int"):
        GaussianRational(1, 1, 0)
