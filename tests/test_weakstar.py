"""One-sided neighborhoods: only mass shortfalls on the listed sets count."""

import random
from fractions import Fraction

import pytest

import instances
from margcouple import (
    Atom,
    Box,
    BoxSet,
    IntervalSet,
    Measure,
    Neighborhood,
    ParameterError,
    ProductSpace,
    Seed,
    SpaceDesc,
    sample_in_neighborhood,
)

F = Fraction


@pytest.fixture
def line():
    return SpaceDesc((Atom("a", 0), Atom("b", 1)))


@pytest.fixture
def center(line):
    return Measure(line, {"a": F(1, 2), "b": F(1, 2)})


SETS = (IntervalSet.single(F(-1, 2), F(1, 2)), IntervalSet.single(F(1, 2), F(3, 2)))


def test_validation(center):
    with pytest.raises(ParameterError):
        Neighborhood(center, SETS, 0)
    with pytest.raises(ParameterError):
        Neighborhood(center, (), F(1, 10))


def test_mixed_geometry_is_refused(line, center):
    # a line centre takes interval sets only, a product centre box sets only
    with pytest.raises(ParameterError) as exc:
        Neighborhood(center, (IntervalSet.single(0, 1), BoxSet(())), F(1, 10))
    assert str(exc.value) == "a line measure evaluates interval sets only"
    joint = Measure(ProductSpace(line, line), {("a", "b"): F(1)})
    with pytest.raises(ParameterError) as exc:
        Neighborhood(joint, (BoxSet(()), IntervalSet(())), F(1, 10))
    assert str(exc.value) == "a product measure evaluates box sets only"
    # a candidate is checked against the sets' geometry too
    with pytest.raises(ParameterError) as exc:
        Neighborhood(center, SETS, F(1, 10)).gap(joint)
    assert str(exc.value) == "a product measure evaluates box sets only"
    with pytest.raises(ParameterError) as exc:
        Neighborhood(joint, (BoxSet((Box((0, 1), (0, 1)),)),), F(1, 10)).gap(center)
    assert str(exc.value) == "a line measure evaluates interval sets only"


def test_center_is_member(center):
    hood = Neighborhood(center, SETS, F(1, 10))
    assert hood.gap(center) == 0
    assert hood.is_member(center)


def test_membership_boundary_is_strict(line, center):
    hood = Neighborhood(center, SETS, F(1, 10))
    at_edge = Measure(line, {"a": F(2, 5), "b": F(3, 5)})
    # gap exactly -epsilon on the first set: not a member
    assert hood.gap(at_edge) == F(-1, 10)
    assert not hood.is_member(at_edge)
    inside = Measure(line, {"a": F(41, 100), "b": F(59, 100)})
    assert hood.is_member(inside)


def test_surplus_never_penalized(line, center):
    hood = Neighborhood(center, SETS, F(1, 10))
    lopsided = Measure(line, {"a": F(1, 2), "b": F(5)})
    assert hood.is_member(lopsided)
    # mass off every listed set is invisible too
    far = SpaceDesc((Atom("a", 0), Atom("b", 1), Atom("z", 9)))
    shifted = Measure(far, {"a": F(1, 2), "b": F(9, 20), "z": F(4, 5)})
    assert hood.is_member(shifted)


def test_gap_is_worst_set(line, center):
    hood = Neighborhood(center, SETS, F(1, 4))
    candidate = Measure(line, {"a": F(3, 10), "b": F(2, 5)})
    assert hood.gap(candidate) == F(-1, 5)
    assert hood.is_member(candidate)


def test_membership_monotone_in_epsilon():
    rng = random.Random(5150)
    for _ in range(50):
        space = instances.random_space(rng, "x")
        center = instances.random_prob_measure(rng, space)
        sets = instances.random_axis_pieces(rng)
        candidate = instances.random_prob_measure(rng, space)
        tight = Neighborhood(center, sets, F(1, 20))
        loose = Neighborhood(center, sets, F(1, 3))
        if tight.is_member(candidate):
            assert loose.is_member(candidate)
        assert loose.gap(candidate) == tight.gap(candidate)


@pytest.mark.parametrize("seed", range(30))
def test_gap_matches_per_set_formula(seed):
    rng = random.Random(81000 + seed)
    reference, grid = instances.random_instance(rng)
    cells = tuple(cell for _, cell in grid.cells())
    targets = tuple(instances.random_disjoint_targets(rng))
    mu0 = reference.push_proj(1)
    for center, sets in ((reference, cells), (reference, targets), (mu0, grid.cols)):
        # sampled candidates carry fresh atoms, so they live on larger spaces
        candidate = sample_in_neighborhood(center, sets, F(1, 10), Seed(rng.getrandbits(64)))
        unrelated = (
            instances.random_joint(rng, center.space)
            if isinstance(center.space, ProductSpace)
            else instances.random_prob_measure(rng, center.space)
        )
        for m in (candidate, unrelated):
            expected = min(m.eval(s) - center.eval(s) for s in sets)
            assert Neighborhood(center, sets, F(1, 10)).gap(m) == expected
