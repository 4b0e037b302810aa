"""Measures with exact rational weights: arithmetic, restriction, projection."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import instances
from margcouple import (
    Atom,
    BoxSet,
    Box,
    IntervalSet,
    MarginalPair,
    MassMismatchError,
    Measure,
    MetaMeasure,
    NegativeWeightError,
    ParameterError,
    ProductSpace,
    SpaceDesc,
    barycenter,
    canonicalize,
    couple_mass,
    marginal_pair,
    tensor,
)

F = Fraction


@pytest.fixture
def line():
    return SpaceDesc((Atom("a", 0), Atom("b", 1), Atom("c", 2)))


def test_measure_validation(line):
    with pytest.raises(ParameterError):
        Measure(line, {"z": F(1)})
    with pytest.raises(NegativeWeightError):
        Measure(line, {"a": F(-1, 2)})
    with pytest.raises(ParameterError):
        Measure(line, {"a": 0.5})


def test_zero_weights_drop_out(line):
    m = Measure(line, {"a": F(1, 2), "b": F(0), "c": F(1, 2)})
    assert m.support() == ("a", "c")
    assert m.weights == {"a": F(1, 2), "c": F(1, 2)}
    assert m.mass() == 1
    assert Measure.zero(line).mass() == 0


def test_weights_iterate_in_space_order(line):
    m = Measure(line, {"c": F(1, 4), "a": F(3, 4)})
    assert list(m.weights) == ["a", "c"]


def test_eval_and_restrict(line):
    m = Measure(line, {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)})
    s = IntervalSet.single(F(-1, 2), F(3, 2))
    assert m.eval(s) == F(5, 6)
    r = m.restrict(s)
    assert r.weights == {"a": F(1, 2), "b": F(1, 3)}
    assert m.sum_where(lambda x: x > 0) == F(1, 2)
    # atoms on an endpoint fall outside the open set
    assert m.eval(IntervalSet.single(0, 1)) == 0


def test_eval_wrong_geometry(line):
    m = Measure(line, {"a": F(1)})
    with pytest.raises(ParameterError):
        m.eval(BoxSet((Box((0, 1), (0, 1)),)))


# -- evaluating many sets at once ------------------------------------------

# half-integer coordinates and endpoints on one small lattice, so atoms land
# on interval endpoints and sets share intervals often
halves = st.integers(-3, 7).map(lambda i: F(i, 2))
intervals = st.tuples(halves, halves).filter(lambda p: p[0] != p[1]).map(sorted)


@st.composite
def line_measures(draw, prefix="x"):
    coords = draw(st.lists(halves, min_size=1, max_size=6))
    space = SpaceDesc(tuple(Atom(f"{prefix}{i}", c) for i, c in enumerate(coords)))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(coords), max_size=len(coords)))
    return Measure(space, {a.id: F(w, 7) for a, w in zip(space.atoms, weights)})


@st.composite
def product_measures(draw):
    x = draw(line_measures("x")).space
    y = draw(line_measures("y")).space
    keys = [(a.id, b.id) for a in x.atoms for b in y.atoms]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))
    return Measure(ProductSpace(x, y), {k: F(w, 5) for k, w in zip(keys, weights)})


interval_sets = st.lists(intervals, max_size=3).map(canonicalize)
# boxes in one union may overlap; an empty union is a legal open set
box_sets = st.lists(st.builds(Box, intervals, intervals), max_size=3).map(
    lambda bs: BoxSet(tuple(bs))
)


@given(line_measures(), st.lists(interval_sets, max_size=6))
def test_eval_many_matches_eval_on_lines(m, sets):
    assert m.eval_many(sets) == [m.eval(s) for s in sets]


@given(product_measures(), st.lists(box_sets, max_size=6))
def test_eval_many_matches_eval_on_products(m, sets):
    assert m.eval_many(sets) == [m.eval(s) for s in sets]


def test_eval_many_worked_cases(line, spaces):
    m = Measure(line, {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)})
    sets = [
        IntervalSet.single(0, 1),  # both ends on atoms: empty
        IntervalSet.single(F(-1, 2), F(3, 2)),
        IntervalSet(((F(-1, 2), F(1, 2)), (F(3, 2), F(5, 2)))),
        IntervalSet(),
    ]
    assert m.eval_many(sets) == [0, F(5, 6), F(2, 3), 0]
    assert m.eval_many([]) == []
    assert Measure.zero(line).eval_many(sets) == [0, 0, 0, 0]
    joint = Measure(ProductSpace(*spaces), {("a", "c"): F(1, 4), ("b", "d"): F(3, 4)})
    wide = Box((F(-1, 2), F(3, 2)), (F(-1, 2), F(1, 2)))
    low = Box((F(-1, 2), F(1, 2)), (F(-1, 2), F(3, 2)))
    # overlapping boxes count an atom held by both once
    assert joint.eval_many([BoxSet((wide, low)), BoxSet(), BoxSet((Box((0, 1), (0, 1)),))]) == [
        F(1, 4), 0, 0,
    ]


def test_eval_many_wrong_geometry(line, spaces):
    m = Measure(line, {"a": F(1)})
    with pytest.raises(ParameterError):
        m.eval_many([IntervalSet.single(0, 1), BoxSet()])
    joint = Measure(ProductSpace(*spaces), {("a", "c"): F(1)})
    with pytest.raises(ParameterError):
        joint.eval_many([BoxSet(), IntervalSet()])


def test_push_proj(spaces):
    x, y = spaces
    joint = Measure(ProductSpace(x, y), {("a", "c"): F(1, 4), ("b", "c"): F(3, 4)})
    assert joint.push_proj(1).weights == {"a": F(1, 4), "b": F(3, 4)}
    assert joint.push_proj(2).weights == {"c": F(1)}
    with pytest.raises(ParameterError):
        joint.push_proj(3)
    with pytest.raises(ParameterError):
        joint.push_proj(1).push_proj(1)


def test_scale_and_add(line):
    m = Measure(line, {"a": F(1, 2), "b": F(1, 2)})
    assert m.scale(F(1, 2)).mass() == F(1, 2)
    assert m.scale(0).mass() == 0
    with pytest.raises(ParameterError):
        m.scale(F(-1))
    two = m + m
    assert two.mass() == 2
    other = SpaceDesc((Atom("z", 0),))
    with pytest.raises(ParameterError):
        m + Measure(other, {"z": F(1)})


def test_marginal_pair_mass_guard(spaces):
    x, y = spaces
    joint = Measure(ProductSpace(x, y), {("a", "c"): F(1, 2), ("b", "d"): F(1, 2)})
    pair = marginal_pair(joint)
    assert pair.mu.weights == {"a": F(1, 2), "b": F(1, 2)}
    assert pair.nu.weights == {"c": F(1, 2), "d": F(1, 2)}


def test_sub_names_first_negative_atom(line):
    m = Measure(line, {"a": F(1, 2), "b": F(1, 2)})
    n = Measure(line, {"a": F(1, 4), "b": F(3, 4)})
    with pytest.raises(NegativeWeightError) as exc:
        m - n
    # the first offending atom in space order is named
    assert "'b'" in str(exc.value)
    assert (m - n.scale(F(1, 4))).weights == {"a": F(7, 16), "b": F(5, 16)}
    assert (m - m).weights == {}
    with pytest.raises(ParameterError):
        m - Measure(SpaceDesc((Atom("z", 0),)), {})


@pytest.mark.parametrize("seed", range(20))
def test_shuffled_keys_come_out_in_atom_order(seed):
    rng = random.Random(95000 + seed)
    product = instances.random_product(rng)
    for space in (product, product.x, product.y):
        raw = {k: F(rng.randint(-3, 3), 7) for k in space.keys if rng.random() < 0.7}
        items = list(raw.items())
        rng.shuffle(items)
        kept = [k for k in space.keys if raw.get(k)]
        negative = [k for k in kept if raw[k] < 0]
        if negative:
            # the first negative atom in atom order, whatever the given order
            with pytest.raises(NegativeWeightError) as exc:
                Measure(space, dict(items))
            assert exc.value.atom == negative[0]
        else:
            assert list(Measure(space, dict(items)).weights) == kept
        positive = [(k, abs(w)) for k, w in items]
        assert list(Measure(space, dict(positive)).weights) == kept

        unknown = ("x?", space.keys[0][1]) if space is product else "x?"
        with pytest.raises(ParameterError):
            Measure(space, dict(positive + [(unknown, F(1))]))


def test_malformed_product_keys_rejected(spaces):
    product = ProductSpace(*spaces)
    for bad in ("a", ("a",), ("a", "c", "d"), ("c", "a"), ("z", "c")):
        with pytest.raises(ParameterError):
            Measure(product, {("b", "d"): F(1, 2), bad: F(1, 2)})


def _integrate(phi: dict, m: Measure) -> Fraction:
    return sum((w * phi[k] for k, w in m.weights.items()), F(0))


def test_barycenter_defining_identity(line):
    """Integrating against the average equals averaging the integrals."""
    rng = random.Random(101)
    for _ in range(25):
        comps = [
            (F(rng.randint(0, 5), 5), instances.random_prob_measure(rng, line))
            for _ in range(rng.randint(1, 4))
        ]
        meta = MetaMeasure(line, tuple(comps))
        phi = {k: F(rng.randint(-6, 6), 3) for k in line.keys}
        direct = _integrate(phi, barycenter(meta))
        averaged = sum((c * _integrate(phi, m) for c, m in comps), F(0))
        assert direct == averaged


def test_meta_measure_validation(line):
    m = Measure(line, {"a": F(1)})
    with pytest.raises(NegativeWeightError):
        MetaMeasure(line, ((F(-1), m),))
    other = SpaceDesc((Atom("z", 0),))
    with pytest.raises(ParameterError):
        MetaMeasure(line, ((F(1), Measure(other, {"z": F(1)})),))


def test_tensor_weights_and_guards(spaces):
    x, y = spaces
    mu = Measure(x, {"a": F(1, 3), "b": F(2, 3)})
    nu = Measure(y, {"c": F(1, 2), "d": F(1, 2)})
    prod = tensor(mu, nu)
    assert prod.weights[("a", "d")] == F(1, 6)
    assert marginal_pair(prod) == MarginalPair(mu, nu)
    with pytest.raises(MassMismatchError):
        tensor(mu.scale(F(1, 2)), nu)
    with pytest.raises(ParameterError):
        tensor(prod, nu)


def test_couple_mass_marginals_exact():
    rng = random.Random(77)
    for _ in range(50):
        x = instances.random_space(rng, "x")
        y = instances.random_space(rng, "y")
        d = rng.choice((6, 12, 24))
        mu = instances.random_prob_measure(rng, x, d).scale(F(rng.randint(1, 4), 4))
        nu = instances.random_prob_measure(rng, y, d).scale(mu.mass())
        lam = couple_mass(mu, nu)
        assert lam.mass() == mu.mass()
        pair = marginal_pair(lam)
        assert pair.mu == mu and pair.nu == nu


def test_couple_mass_zero_and_mismatch(spaces):
    x, y = spaces
    lam = couple_mass(Measure.zero(x), Measure.zero(y))
    assert lam.mass() == 0 and lam.support() == ()
    with pytest.raises(MassMismatchError):
        couple_mass(Measure(x, {"a": F(1)}), Measure.zero(y))


@given(st.data())
def test_tensor_marginals_property(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    mu = instances.random_prob_measure(rng, instances.random_space(rng, "x"))
    nu = instances.random_prob_measure(rng, instances.random_space(rng, "y"))
    pair = marginal_pair(tensor(mu, nu))
    assert pair.mu == mu and pair.nu == nu
