import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_by_unary_walk, check_reads_as
from plft_forest import (
    LEFT,
    RIGHT,
    ChainStep,
    GaussianRational,
    InternalInvariantError,
    OrphanParams,
    ancestor_chain,
    ancestor_runs,
    apply_complex_move,
    complex_parent,
    epsilon_u,
    in_d0,
    is_complex_orphan,
    replay_chain,
    word_of_runs,
)
from plft_forest import complex_forest

P11 = OrphanParams(1, 1)


def gr(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def test_in_d0():
    assert in_d0(gr(1, 1)) is True
    assert in_d0(gr(1, 0)) is False
    assert in_d0(gr(-1, 1)) is False


def test_boundary_points_rejected():
    with pytest.raises(ValueError):
        is_complex_orphan(gr(1, 0), P11)
    with pytest.raises(ValueError):
        complex_parent(gr(0, 1), P11)
    with pytest.raises(ValueError):
        ancestor_chain(gr(1, -1), P11)
    with pytest.raises(ValueError):
        ancestor_runs(gr(0, 1), P11)


def test_orphan_params_validated():
    with pytest.raises(ValueError):
        OrphanParams(0, 1)
    with pytest.raises(ValueError):
        OrphanParams(1, -2)


def test_is_complex_orphan_examples():
    assert is_complex_orphan(gr(1, 1), P11) is True
    assert is_complex_orphan(gr(Fraction(1, 4), Fraction(1, 4)), P11) is False
    assert is_complex_orphan(gr(2, 1), P11) is False


def test_circle_boundary_counts_as_orphan():
    # |2z - 1| = 1 exactly at 1/5 + 2i/5 for u = 1
    assert is_complex_orphan(gr(Fraction(1, 5), Fraction(2, 5)), P11) is True


def test_complex_parent_examples():
    z = gr(Fraction(1, 4), Fraction(1, 4))
    assert complex_parent(z, P11) == (gr(Fraction(1, 5), Fraction(2, 5)), LEFT)
    assert complex_parent(gr(Fraction(5, 2), 1), P11) == (gr(Fraction(3, 2), 1), RIGHT)
    assert complex_parent(gr(1, 1), P11) is None


def test_ancestor_chain_examples():
    root, steps = ancestor_chain(gr(Fraction(5, 2), 1), P11)
    assert root == gr(Fraction(1, 2), 1)
    assert [s.move for s in steps] == [RIGHT, RIGHT]

    root, steps = ancestor_chain(gr(Fraction(1, 4), Fraction(1, 4)), P11)
    assert root == gr(Fraction(1, 5), Fraction(2, 5))
    assert len(steps) == 1 and steps[0].move == LEFT

    z = gr(1, 1)
    root, steps = ancestor_chain(z, P11)
    assert (root, list(steps)) == (z, [])

    assert ancestor_runs(gr(1, 1), P11) == (gr(1, 1), ())
    assert ancestor_runs(gr(Fraction(5, 2), 1), P11) == (gr(Fraction(1, 2), 1), (2,))
    assert ancestor_runs(gr(Fraction(1, 4), Fraction(1, 4)), P11) == (gr(Fraction(1, 5), Fraction(2, 5)), (0, 1))


def test_epsilon_endpoints():
    assert epsilon_u(1, Fraction(1, 2)) == 0.5
    assert epsilon_u(2, Fraction(1, 4)) == 0.25
    assert epsilon_u(1, Fraction(1, 4)) > 0
    with pytest.raises(ValueError):
        epsilon_u(1, Fraction(3, 4))
    with pytest.raises(ValueError):
        epsilon_u(1, 0)
    with pytest.raises(ValueError):
        epsilon_u(0, Fraction(1, 4))


def test_float_components_rejected():
    with pytest.raises(ValueError, match="float"):
        GaussianRational(0.25, 1)
    with pytest.raises(ValueError, match="float"):
        GaussianRational(Fraction(1, 4), 0.1)
    assert GaussianRational(2, "1/3") == GaussianRational(Fraction(2), Fraction(1, 3))


def test_gaussian_parse_and_str():
    z = GaussianRational.parse("1/4+1/4*i")
    assert z == gr(Fraction(1, 4), Fraction(1, 4))
    assert str(z) == "1/4+1/4*i"
    assert str(GaussianRational.parse("2-3/7*i")) == "2-3/7*i"
    assert GaussianRational.parse(str(gr(Fraction(10, 4), 1))) == gr(Fraction(5, 2), 1)
    for bad in ("1", "i", "23*i", "1+2", "1 + i", "1/0+1*i", "1+2/0*i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


components = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
params = st.builds(OrphanParams, st.integers(1, 3), st.integers(1, 3))


@given(components, components, params)
@settings(max_examples=300, deadline=None)
def test_exactly_one_of_orphan_left_right(re, im, p):
    z = GaussianRational(re, im)
    orphan = is_complex_orphan(z, p)
    up = complex_parent(z, p)
    assert orphan == (up is None)
    if up is not None:
        parent, move = up
        assert in_d0(parent)
        # the two parent cases are mutually exclusive
        right_applies = z.re > p.v
        left_applies = (2 * p.u * z.re - 1) ** 2 + (2 * p.u * z.im) ** 2 < 1
        assert right_applies != left_applies
        assert move == (RIGHT if right_applies else LEFT)
        assert apply_complex_move(parent, move, p) == z


@given(components, components, params)
@settings(max_examples=200, deadline=None)
def test_chain_terminates_replays_and_climbs(re, im, p):
    z = GaussianRational(re, im)
    root, steps = ancestor_chain(z, p)
    assert is_complex_orphan(root, p)
    assert replay_chain(root, steps, p) == z
    previous = z
    l_steps = 0
    for step in steps:
        if step.move == LEFT:
            l_steps += 1
            assert step.im_increase > 0
            assert float(step.im_increase) >= epsilon_u(p.u, previous.im) - 1e-12
        else:
            assert step.im_increase == 0
        previous = step.value
    # Im never decreases along a chain, so the number of L steps is capped
    # by how much room is left under the disk's top at height 1/(2u).
    ceiling = Fraction(1, 2 * p.u)
    if z.im <= ceiling and l_steps:
        bound = math.ceil(float(ceiling - z.im) / epsilon_u(p.u, z.im)) + 1
        assert l_steps <= bound


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _agrees_with_unary_walk(z, p):
    """ancestor_runs and ancestor_chain against iterated complex_parent, step by step."""
    want_root, want_steps = chain_by_unary_walk(z, p)
    root, runs = ancestor_runs(z, p)
    assert root == want_root
    assert word_of_runs(runs) == tuple(move for _, move, _ in want_steps)
    assert all(runs[1:]) and (not runs or runs[-1])
    # the run count bound argued in ancestor_runs: F(len(runs)) <= max(1, 1/Im z)
    assert _fibonacci(len(runs)) <= max(1, 1 / z.im)
    chain_root, steps = ancestor_chain(z, p)
    assert chain_root == want_root and steps.runs == runs
    check_reads_as(steps, [ChainStep(*step) for step in want_steps])
    assert replay_chain(root, steps, p) == z


@st.composite
def descendants(draw):
    """A point reached from a random point by a few runs of child moves."""
    p = draw(params)
    z = GaussianRational(draw(components), draw(components))
    for i, k in enumerate(draw(st.lists(st.integers(1, 6), max_size=6))):
        for _ in range(k):
            z = apply_complex_move(z, LEFT if i % 2 else RIGHT, p)
    return z, p


@given(descendants())
@settings(max_examples=300, deadline=None)
def test_runs_and_chain_match_unary_walk(case):
    _agrees_with_unary_walk(*case)


def _boundary_points(u, v):
    """Rational points where a floor in ancestor_runs is exact."""
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2), Fraction(7, 3)):
        # on the circle |2uz - 1| = 1 (orphans), and Re(1/z) = m*u exactly
        yield gr(Fraction(1, u) / (1 + t * t), t / (u * (1 + t * t)))
        for m in (1, 2, 5):
            yield gr(m * u / ((m * u) ** 2 + t * t), t / ((m * u) ** 2 + t * t))
        # Re z = k*v exactly
        for k in (1, 2, 3):
            yield gr(k * v, t)


@pytest.mark.parametrize("u,v", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3)])
def test_runs_match_unary_walk_on_floor_boundaries(u, v):
    p = OrphanParams(u, v)
    for z in _boundary_points(u, v):
        for shift in (0, 1, 3):
            _agrees_with_unary_walk(gr(z.re + shift * v, z.im), p)


def test_ancestor_runs_checks_its_replay(monkeypatch):
    monkeypatch.setattr(complex_forest, "_apply_runs", lambda parts, runs, p: (1, 1, 1))
    with pytest.raises(InternalInvariantError):
        ancestor_runs(gr(Fraction(5, 2), 1), P11)


def test_ancestor_chain_checks_its_left_runs_at_call_time(monkeypatch):
    # 1/4 + i/4 has runs (0, 1); a third L-step would bring Im back down
    z = gr(Fraction(1, 4), Fraction(1, 4))
    root, _ = ancestor_runs(z, P11)
    monkeypatch.setattr(complex_forest, "ancestor_runs", lambda *_: (root, (0, 3)))
    with pytest.raises(InternalInvariantError):
        ancestor_chain(z, P11)
