"""Measures with exact rational weights: arithmetic, restriction, projection."""

import random
from bisect import bisect_left
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import instances
from margcouple import (
    Atom,
    BoxSet,
    Box,
    Grid,
    IntervalSet,
    MarginalPair,
    MassMismatchError,
    Measure,
    MetaMeasure,
    Neighborhood,
    NegativeWeightError,
    ParameterError,
    ProductSpace,
    SpaceDesc,
    barycenter,
    canonicalize,
    construct_preimage,
    couple_mass,
    marginal_pair,
    tensor,
    verify,
)
from margcouple.couple import _pieces
from margcouple.measure import _Axis, _classify, _Family, _lcm, _slots

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
    assert tuple(m.weights) == ("a", "c")
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
    assert _Family(sets).masses(m) == [m.eval(s) for s in sets]


@given(product_measures(), st.lists(box_sets, max_size=6))
def test_eval_many_matches_eval_on_products(m, sets):
    assert _Family(sets).masses(m) == [m.eval(s) for s in sets]


# sets that abut at 1/2 on both axes, whatever the draw
_ABUTTING_LINE = IntervalSet(((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))))
_ABUTTING_BOXES = BoxSet((Box((F(-1, 2), F(1, 2)), (0, 2)), Box((F(1, 2), 2), (F(-1), F(1, 2)))))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans())
def test_one_family_serves_many_measures(data, product):
    """One set family, in one neighbourhood and compiled afresh, over many supports.

    The family holds multi-interval, abutting and overlapping sets, a set
    listed twice and an empty set; the measures' atoms sit on endpoints.
    Each result must equal the pointwise ``eval``, whichever measures the
    family has already been applied to.
    """
    measures = product_measures() if product else line_measures()
    sets = data.draw(st.lists(box_sets if product else interval_sets, min_size=1, max_size=5))
    sets += [sets[0], BoxSet(()) if product else IntervalSet(())]
    sets.insert(data.draw(st.integers(0, len(sets))), _ABUTTING_BOXES if product else _ABUTTING_LINE)
    center = data.draw(measures)
    hood = Neighborhood(center, sets, F(1, 10))
    for _ in range(data.draw(st.integers(2, 5))):
        m = data.draw(measures)
        masses = [m.eval(s) for s in sets]
        assert _Family(sets).masses(m) == masses
        assert hood.gap(m) == min(g - center.eval(s) for g, s in zip(masses, sets))
    assert hood.gap(center) == 0


def test_eval_many_worked_cases(line, spaces):
    m = Measure(line, {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)})
    sets = [
        IntervalSet.single(0, 1),  # both ends on atoms: empty
        IntervalSet.single(F(-1, 2), F(3, 2)),
        IntervalSet(((F(-1, 2), F(1, 2)), (F(3, 2), F(5, 2)))),
        IntervalSet(()),
    ]
    assert _Family(sets).masses(m) == [0, F(5, 6), F(2, 3), 0]
    assert _Family([]).masses(m) == []
    assert _Family(sets).masses(Measure.zero(line)) == [0, 0, 0, 0]
    joint = Measure(ProductSpace(*spaces), {("a", "c"): F(1, 4), ("b", "d"): F(3, 4)})
    wide = Box((F(-1, 2), F(3, 2)), (F(-1, 2), F(1, 2)))
    low = Box((F(-1, 2), F(1, 2)), (F(-1, 2), F(3, 2)))
    # overlapping boxes count an atom held by both once
    boxes = [BoxSet((wide, low)), BoxSet(()), BoxSet((Box((0, 1), (0, 1)),))]
    assert _Family(boxes).masses(joint) == [F(1, 4), 0, 0]


# -- the per-axis mask kernel ----------------------------------------------


def _bits(ivs) -> dict:
    return {iv: 1 << i for i, iv in enumerate(dict.fromkeys(ivs))}


def _pointwise_masks(space: SpaceDesc, bits: dict) -> dict:
    """Each atom's mask by the open-set rule ``lo < c < hi``, interval by interval."""
    return {
        a.id: sum(bit for (lo, hi), bit in bits.items() if lo < a.coord < hi)
        for a in space.atoms
    }


# intervals from several sets on the half-integer lattice: they overlap, abut
# and share endpoints, and atoms (repeated coordinates too) sit on endpoints
@given(line_measures(), st.lists(intervals.map(tuple), max_size=8))
def test_masks_match_the_pointwise_rule(m, ivs):
    bits = _bits(ivs)
    assert _classify(m.space, m.space.keys, *_slots(bits)) == _pointwise_masks(m.space, bits)


def test_masks_worked_cases():
    coords = (F(-2), F(0), F(1, 2), F(1), F(3, 2), F(2), F(3), F(9, 2), F(9, 2))
    space = SpaceDesc(tuple(Atom(f"p{i}", c) for i, c in enumerate(coords)))
    abutting = _bits([(F(0), F(1)), (F(1), F(2))])
    # -2 and 9/2 lie outside both; 0, 1 and 2 are endpoints, so in neither
    masks = _classify(space, space.keys, *_slots(abutting))
    assert list(masks.values()) == [0, 0, 1, 0, 2, 0, 0, 0, 0]
    for ivs in (
        [],  # no intervals
        [(F(0), F(2))],  # one interval, atoms on both ends
        [(F(0), F(2)), (F(1), F(3)), (F(1, 2), F(2))],  # overlapping; 2 ends two of them
        [(F(-1), F(5)), (F(0), F(1)), (F(1), F(9, 2))],  # nested and abutting at 1
    ):
        bits = _bits(ivs)
        assert _classify(space, space.keys, *_slots(bits)) == _pointwise_masks(space, bits)
    # only the given keys are classified
    assert _classify(space, ["p2"], *_slots(abutting)) == {"p2": 1}


# -- integer slot placement ------------------------------------------------

# Fermat numbers 2**(2**j) + 1 are pairwise coprime: with them the common
# denominator of an axis's endpoints runs to thousands of bits
_FERMAT = tuple(2 ** (2**j) + 1 for j in range(6, 11))
slot_points = st.builds(
    lambda k, n, d: k + F(n % d, d),
    st.integers(-4, 4),
    st.integers(0, 2**2000),
    st.one_of(st.sampled_from((1, 2, 3)), st.sampled_from(_FERMAT)),
)
slot_intervals = st.tuples(slot_points, slot_points).filter(lambda p: p[0] != p[1]).map(sorted)


def _bisected_slot(ends: list, c: Fraction) -> int:
    """The slot of c by Fraction bisection: 2i + 1 on endpoint i, else 2i below it."""
    i = bisect_left(ends, c)
    return 2 * i + (i < len(ends) and ends[i] == c)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(slot_points, max_size=8),
    st.lists(slot_points, max_size=6),
    st.lists(slot_intervals, max_size=5),
)
def test_slot_placement_equals_fraction_bisection(ends, others, ivs):
    axis = _Axis(ends)
    order = sorted(set(ends))
    assert axis.ends == order
    # on every endpoint, beside it closer than 1/D and farther, and elsewhere
    nudges = (F(1, 2 * axis.den), F(1, 3 * axis.den), F(1, _FERMAT[-1]), F(1, 2))
    coords = order + [e + s * t for e in order for t in nudges for s in (-1, 1)] + others
    for c in coords:
        assert axis.slot(c) == _bisected_slot(order, c)
    for i, e in enumerate(order):  # endpoints lie at least 1/D apart
        near = nudges[0]
        assert axis.around(i) == (axis.slot(e - near), axis.slot(e), axis.slot(e + near))
    space = SpaceDesc(tuple(Atom(f"p{i}", c) for i, c in enumerate(coords or [F(0)])))
    bits = {iv: 1 << i for i, iv in enumerate(dict.fromkeys(map(tuple, ivs)))}
    assert _classify(space, space.keys, *_slots(bits)) == _pointwise_masks(space, bits)


@settings(max_examples=150, deadline=None)
@given(st.lists(slot_intervals, min_size=1, max_size=6), st.lists(slot_points, max_size=6))
def test_slot_masks_meet_exactly_when_intervals_do(ivs, coords):
    axis = _Axis(e for iv in ivs for e in iv)
    for a in ivs:
        for b in ivs:
            assert bool(axis.mask(a) & axis.mask(b)) == (max(a[0], b[0]) < min(a[1], b[1]))
        # a mask holds the slot of exactly the points inside its interval
        for c in coords + list(a):
            assert bool(axis.mask(a) >> axis.slot(c) & 1) == (a[0] < c < a[1])


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
    # "ac" is two characters that name atoms of x and y, but no pair
    for bad in ("a", "ac", ("a",), ("a", "c", "d"), ("c", "a"), ("z", "c")):
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
    assert lam.mass() == 0 and lam.weights == {}
    with pytest.raises(MassMismatchError):
        couple_mass(Measure(x, {"a": F(1)}), Measure.zero(y))
    joint = Measure.zero(ProductSpace(x, y))
    with pytest.raises(ParameterError) as exc:
        couple_mass(joint, joint)
    assert str(exc.value) == "couple_mass takes line measures"


@given(st.data())
def test_tensor_marginals_property(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    mu = instances.random_prob_measure(rng, instances.random_space(rng, "x"))
    nu = instances.random_prob_measure(rng, instances.random_space(rng, "y"))
    pair = marginal_pair(tensor(mu, nu))
    assert pair.mu == mu and pair.nu == nu


# -- sums over one common denominator ---------------------------------------

# Fermat numbers 2**(2**j) + 1 are pairwise coprime, so sums over them keep
# a denominator of thousands of bits
COPRIME_DENOMS = tuple(2 ** (2**j) + 1 for j in range(8, 13))
denominators = st.one_of(st.integers(1, 30), st.sampled_from(COPRIME_DENOMS))
nonnegative = st.builds(F, st.integers(0, 10**30), denominators)


# one distinct 21-bit prime per atom: the common denominator is their product,
# the largest an lcm of that many denominators can be
PRIMES_21_BITS = instances.primes_from(2**20 + 1, 25)


@given(
    st.one_of(
        st.lists(st.integers(1, 10**40), max_size=40),
        st.integers(1, 10**40).map(lambda v: [v]),
        st.tuples(st.integers(1, 10**12), st.integers(1, 9)).map(lambda t: [t[0]] * t[1]),
        st.lists(st.sampled_from(COPRIME_DENOMS + PRIMES_21_BITS), max_size=30),
    )
)
def test_pairwise_lcm_equals_math_lcm(values):
    """The balanced-tree fold is ``math.lcm``: over no values, one, repeats and coprimes."""
    assert _lcm(values) == lcm(*values)


def test_pairwise_lcm_worked_cases():
    assert _lcm([]) == 1
    assert _lcm([12]) == 12
    assert _lcm([6, 6, 6]) == 6
    assert _lcm(iter([4, 6, 10])) == 60  # any iterable, an odd count of values
    assert _lcm(PRIMES_21_BITS) == prod(PRIMES_21_BITS)


def _plain(ws) -> Fraction:
    return sum(ws, F(0))


def _line_measure(weights) -> Measure:
    """A measure on a line with one atom per weight, in order, and one atom left bare."""
    weights = list(weights)
    line = SpaceDesc(tuple(Atom(f"a{i}", i) for i in range(len(weights) + 1)))
    return Measure(line, {f"a{i}": w for i, w in enumerate(weights)})


@given(st.lists(nonnegative, max_size=30))
def test_fsum_is_the_fraction_sum(vs):
    """``mass`` sums the numerators over one common denominator: the plain ``Fraction`` sum."""
    out = _line_measure(vs).mass()
    assert type(out) is Fraction and out == _plain(vs)


@given(st.lists(st.integers(0, 10**6), max_size=30), st.sampled_from((7, 2**127 - 1)))
def test_fsum_over_one_shared_denominator(nums, d):
    m = _line_measure(F(n, d) for n in nums)
    assert m.mass() == F(sum(nums), d)
    if any(n % d for n in nums):  # some weight keeps d, and d is prime
        assert m._common[0] == d


@given(st.data())
def test_measure_sums_match_plain_fraction_sums(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    product = instances.random_product(rng, max_atoms=4)
    m = Measure(product, {k: data.draw(nonnegative) for k in product.keys})
    assert m.mass() == _plain(m.weights.values())
    for axis in (1, 2):
        groups: dict = {}
        for key, w in m.weights.items():
            groups.setdefault(key[axis - 1], []).append(w)
        assert m.push_proj(axis).weights == {k: _plain(ws) for k, ws in groups.items()}

    grid = instances.random_grid(rng)
    x, y = product.x.coord_of, product.y.coord_of
    expected = {
        (q, s): _plain(
            w for (kx, ky), w in m.weights.items() if col.contains(x(kx)) and row.contains(y(ky))
        )
        for q, col in enumerate(grid.cols)
        for s, row in enumerate(grid.rows)
    }
    masses = grid.cell_masses(m)
    assert masses == expected and list(masses) == list(expected)
    assert all(type(v) is Fraction for v in masses.values())


def _scrambled_product(rng: random.Random) -> ProductSpace:
    """A product whose atom order is neither the ids' string order nor the coordinates' order."""

    def axis(prefix):
        n = rng.randint(1, 5)
        ids = [f"{prefix}{c}" for c in rng.sample("qwertyuiop", n)]
        coords = rng.sample(range(-6, 19), n)
        return SpaceDesc(tuple(Atom(i, c) for i, c in zip(ids, coords)))

    return ProductSpace(axis("x"), axis("y"))


_SUM_CASES = ["new atoms", "no new atoms", "disjoint", "zero left", "zero right"]


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(_SUM_CASES))
def test_sum_lists_keys_in_atom_order_with_plain_weights(data, case):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    space = _scrambled_product(rng)
    draw = lambda: data.draw(nonnegative.filter(bool))  # noqa: E731
    keys = list(space.keys)
    rng.shuffle(keys)
    left = rng.sample(keys, rng.randint(1, len(keys)))
    if case == "new atoms":
        right = rng.sample(keys, rng.randint(1, len(keys)))
        assume(set(right) - set(left))
    elif case == "no new atoms":
        right = rng.sample(left, rng.randint(1, len(left)))
    elif case == "disjoint":
        right = [k for k in keys if k not in left]
    else:
        right = []
    a = Measure(space, {k: draw() for k in left})
    b = Measure(space, {k: draw() for k in right})
    if case == "zero left":
        a, b = b, a
    total = a + b
    support = set(a.weights) | set(b.weights)
    assert list(total.weights) == sorted(support, key=space.position)
    assert total.weights == {
        k: sum((m.weights[k] for m in (a, b) if k in m.weights), F(0)) for k in support
    }
    assert all(type(w) is Fraction for w in total.weights.values())
    for axis, line in ((1, space.x), (2, space.y)):
        atoms = {k[axis - 1] for k in total.weights}
        assert list(total.push_proj(axis).weights) == [k for k in line.keys if k in atoms]


def test_common_form_worked_cases():
    line = SpaceDesc(tuple(Atom(f"a{i}", i) for i in range(len(COPRIME_DENOMS))))
    big = COPRIME_DENOMS[0]
    for weights, den, total in (
        ({}, 1, F(0)),  # lcm() is 1
        ({"a0": F(2, 3)}, 3, F(2, 3)),
        ({"a0": F(1, 6), "a1": F(1, 3), "a2": F(1, 2)}, 6, F(1)),  # a sum that reduces
        ({"a0": F(1, 4), "a1": F(3, 4)}, 4, F(1)),
        ({"a0": F(1, big), "a1": F(5, 7)}, 7 * big, F(1, big) + F(5, 7)),
        (
            {f"a{i}": F(1, d) for i, d in enumerate(COPRIME_DENOMS)},
            prod(COPRIME_DENOMS),
            _plain(F(1, d) for d in COPRIME_DENOMS),
        ),
    ):
        m = Measure(line, weights)
        nums = [w.numerator * (den // w.denominator) for w in m.weights.values()]
        assert m._common == (den, nums)
        assert type(m.mass()) is Fraction and m.mass() == total


_COMMON_FORM_CASES = [
    "one value",
    "repeated denominator",
    "coprime denominators",
    "distinct primes",
    "zero measure",
    "single weight",
]


def _case_weights(rng: random.Random, keys: list, case: str, draw) -> dict:
    """Weights on keys for one case of the common-form property; ``draw`` gives a positive one."""
    if case == "zero measure":
        return {}
    if case == "single weight":
        return {rng.choice(keys): draw()}
    if case == "one value":
        return {k: draw() for k in keys}
    if case == "distinct primes":
        return {k: F(rng.randint(1, 10**9), p) for k, p in zip(keys, PRIMES_21_BITS)}
    dens = COPRIME_DENOMS if case == "coprime denominators" else (rng.randint(1, 30),)
    return {k: F(rng.randint(0, 10**9), rng.choice(dens)) for k in keys}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(_COMMON_FORM_CASES))
def test_group_sums_equal_plain_fraction_sums(data, case):
    """``mass``, ``push_proj``, ``cell_masses``, ``_Family.masses`` and ``_pieces``
    sum numerators over the common denominator; each equals the plain ``Fraction`` sum."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    space = _scrambled_product(rng)
    draw = lambda: data.draw(nonnegative.filter(bool))  # noqa: E731
    keys = list(space.keys)
    if case == "one value":  # each x atom and y atom in at most one pair: one value per group
        ys = list(space.y.keys)
        rng.shuffle(ys)
        keys = list(zip(space.x.keys, ys))
    m = Measure(space, _case_weights(rng, keys, case, draw))
    line = Measure(space.x, _case_weights(rng, list(space.x.keys), case, draw))
    for measure in (m, line):
        den, nums = measure._common
        assert den == lcm(*(w.denominator for w in measure.weights.values()))
        assert [F(n, den) for n in nums] == list(measure.weights.values())
        mass = measure.mass()
        assert type(mass) is Fraction and mass == _plain(measure.weights.values())
    for axis in (1, 2):
        groups: dict = {}
        for key, w in m.weights.items():
            groups.setdefault(key[axis - 1], []).append(w)
        got = m.push_proj(axis).weights
        assert got == {k: _plain(ws) for k, ws in groups.items()}
        assert all(type(w) is Fraction for w in got.values())

    grid = instances.random_grid(rng)
    coord, coord_x = space.coord_of, space.x.coord_of
    cells = grid.cell_masses(m)
    assert cells == {
        ix: _plain(w for k, w in m.weights.items() if cell.contains(coord(k)))
        for ix, cell in grid.cells()
    }
    assert all(type(v) is Fraction for v in cells.values())
    boxes = [
        BoxSet(tuple(instances.random_box(rng) for _ in range(rng.randint(1, 2))))
        for _ in range(rng.randint(1, 4))
    ]
    for measure, sets in ((m, boxes), (line, grid.cols)):
        got = _Family(sets).masses(measure)
        c = measure.space.coord_of
        assert got == [
            _plain(w for k, w in measure.weights.items() if s.contains(c(k))) for s in sets
        ]
        assert all(type(v) is Fraction for v in got)
    _, pieces = _pieces(line, grid._col_slots, len(grid.cols))
    assert pieces == [
        _plain(w for k, w in line.weights.items() if p.contains(coord_x(k))) for p in grid.cols
    ]
    assert all(type(v) is Fraction for v in pieces)


def test_group_sums_worked_cases():
    x = SpaceDesc((Atom("b", 1), Atom("a", 0)))
    y = SpaceDesc((Atom("d", 1), Atom("c", 0)))
    space = ProductSpace(x, y)
    grid = Grid((IntervalSet.single(F(-1, 2), F(3, 2)),), (IntervalSet.single(F(-1, 2), F(1, 2)),))
    big = COPRIME_DENOMS[0]
    for weights in (
        {("a", "c"): F(2, 3)},  # one value everywhere
        {("b", "c"): F(1, 6), ("a", "c"): F(5, 6)},  # one denominator, a sum that reduces
        {("b", "d"): F(1, 4), ("a", "c"): F(1, 4), ("b", "c"): F(1, 4), ("a", "d"): F(1, 4)},
        {("b", "c"): F(1, big), ("a", "c"): F(1, 3), ("a", "d"): F(2, 5)},  # coprime
    ):
        m = Measure(space, weights)
        for axis in (1, 2):
            sums: dict = {}
            for key, w in weights.items():
                sums[key[axis - 1]] = sums.get(key[axis - 1], F(0)) + w
            assert m.push_proj(axis).weights == sums
        row_c = sum((w for k, w in weights.items() if k[1] == "c"), F(0))
        assert grid.cell_masses(m) == {(0, 0): row_c}


@given(st.data())
def test_couple_mass_matches_plain_fraction_products(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x, y = instances.random_space(rng, "x", 4), instances.random_space(rng, "y", 4)
    mu = Measure(x, {k: data.draw(nonnegative) for k in x.keys})
    nu = Measure(y, {k: data.draw(nonnegative) for k in y.keys})
    assume(nu.mass() != 0 or mu.mass() == 0)
    if nu.mass() != 0:
        nu = nu.scale(mu.mass() / nu.mass())
    c = mu.mass()
    expected = {
        (kx, ky): wx * wy / c for kx, wx in mu.weights.items() for ky, wy in nu.weights.items()
    }
    assert couple_mass(mu, nu).weights == expected
    # the same products in ints, over one denominator, when both inputs were built so
    over = [Measure._over(m.space, list(m._keys), m._common[1], m._common[0]) for m in (mu, nu)]
    assert couple_mass(*over).weights == expected
    if c:  # the same products at c = 1, through tensor
        mu1, nu1 = mu.scale(1 / c), nu.scale(1 / c)
        assert tensor(mu1, nu1).weights == {
            (kx, ky): wx * wy for kx, wx in mu1.weights.items() for ky, wy in nu1.weights.items()
        }


# -- results built without re-validation --------------------------------------


def _strict_rebuild_matches(m: Measure) -> bool:
    """m's weights are what the public constructor makes of them: same keys, order and values."""
    strict = Measure(m.space, dict(m.weights))
    return list(m.weights.items()) == list(strict.weights.items()) and all(
        type(w) is Fraction for w in m.weights.values()
    )


@given(st.data())
def test_trusted_results_equal_their_strict_rebuild(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    ref, grid = instances.random_instance(rng)
    mu = instances.random_prob_measure(rng, ref.space.x)
    nu = instances.random_prob_measure(rng, ref.space.y)
    other = instances.random_joint(rng, ref.space)
    factor = data.draw(st.sampled_from((F(0), F(1, 3), F(5, 2))))
    half = F(1, 2)
    rep = construct_preimage(ref, grid, mu, nu)
    results = {
        "push_proj(1)": ref.push_proj(1),
        "push_proj(2)": ref.push_proj(2),
        "restrict box": ref.restrict(BoxSet((instances.random_box(rng),))),
        "restrict column": mu.restrict(grid.cols[0]),
        "scale": ref.scale(factor),
        "scale line": nu.scale(factor),
        "+ new keys": ref + other,
        "+ same keys": ref + ref.scale(factor),
        "tensor": tensor(mu, nu),
        "couple_mass": couple_mass(mu.scale(half), nu.scale(half)),
        "coupling": rep.coupling,
        "grid_part": rep.grid_part,
        "remainder": rep.remainder_coupling,
    }
    assert [name for name, m in results.items() if not _strict_rebuild_matches(m)] == []


def _names(code) -> set:
    """Global and attribute names a code object and its nested code use."""
    out = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            out |= _names(const)
    return out


# the cross-checks README calls independent second routes, and the plain sums
# the fast ones are tested against
@pytest.mark.parametrize(
    "fn",
    [
        Measure.eval,
        Measure.sum_where,
        barycenter,
        verify.oracle_couple,
        verify.tensor_via_barycenter,
    ],
)
def test_cross_checks_keep_plain_fraction_sums(fn):
    names = _names(fn.__code__)
    assert not {"_common", "_grouped", "_patterns", "_Family"} & names
