"""Certification machinery: seeds, samplers, dual-route oracles, checks."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import instances
from margcouple import (
    Atom,
    Box,
    BoxSet,
    CertReport,
    Grid,
    HypothesisError,
    IntervalSet,
    MassMismatchError,
    Measure,
    Neighborhood,
    ParameterError,
    PreimageReport,
    ProductSpace,
    RefineResult,
    Seed,
    SpaceDesc,
    certify_openness,
    check_band_bound,
    check_box_diff_bound,
    construct_preimage,
    couple_mass,
    marginal_pair,
    oracle_couple,
    refine_grid,
    sample_in_neighborhood,
    tensor,
    tensor_via_barycenter,
)
from margcouple import verify
from margcouple.documents import dumps
from margcouple.verify import mix64

F = Fraction


# -- seeds -----------------------------------------------------------------


def _splitmix64_reference(x):
    # textbook constants, reimplemented independently of the module
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_mix64_known_vector():
    # first output of the standard generator seeded with zero
    assert mix64(0) == 0xE220A8397B1DCDAF


def test_mix64_matches_reference_route():
    for x in [0, 1, 2, 1234567, (1 << 64) - 1, 0xDEADBEEF]:
        assert mix64(x) == _splitmix64_reference(x)


def test_seed_validation_and_derivation():
    with pytest.raises(ParameterError):
        Seed(-1)
    with pytest.raises(ParameterError):
        Seed(1 << 64)
    with pytest.raises(ParameterError):
        Seed("7")
    with pytest.raises(ParameterError):  # a bool is an int, but no seed
        Seed(True)
    s = Seed(5)
    assert s.derive(3) == Seed(mix64(5 ^ 3))
    assert s.derive(3) != s.derive(4)


# -- dual-route oracles ----------------------------------------------------


def test_oracle_couple_frozen(spaces):
    x, y = spaces
    mu = Measure(x, {"a": F(1, 2), "b": F(1, 2)})
    nu = Measure(y, {"c": F(1, 3), "d": F(2, 3)})
    lam = oracle_couple(mu, nu)
    assert lam.weights == {("a", "c"): F(1, 3), ("a", "d"): F(1, 6), ("b", "d"): F(1, 2)}


@pytest.mark.parametrize("seed", range(30))
def test_oracle_couple_and_couple_mass_agree_on_marginals(seed):
    rng = random.Random(88000 + seed)
    mu = instances.random_prob_measure(rng, instances.random_space(rng, "x"))
    nu = instances.random_prob_measure(rng, instances.random_space(rng, "y"))
    greedy = oracle_couple(mu, nu)
    product = couple_mass(mu, nu)
    # two different couplings, one characterizing property
    assert marginal_pair(greedy) == marginal_pair(product)


def test_oracle_couple_mass_guard(spaces):
    x, y = spaces
    mu = Measure(x, {"a": F(1)})
    with pytest.raises(MassMismatchError):
        oracle_couple(mu, Measure(y, {"c": F(1, 2)}))


def test_tensor_via_barycenter_frozen(spaces):
    x, y = spaces
    mu = Measure(x, {"a": F(1, 2), "b": F(1, 2)})
    nu = Measure(y, {"c": F(1, 3), "d": F(2, 3)})
    lam = tensor_via_barycenter(mu, nu)
    assert lam.weights == {
        ("a", "c"): F(1, 6),
        ("a", "d"): F(1, 3),
        ("b", "c"): F(1, 6),
        ("b", "d"): F(1, 3),
    }
    assert lam == tensor(mu, nu)


def test_tensor_via_barycenter_guard(spaces):
    x, y = spaces
    with pytest.raises(MassMismatchError):
        tensor_via_barycenter(
            Measure(x, {"a": F(1, 2)}), Measure(y, {"c": F(1)})
        )


# -- neighborhood sampling -------------------------------------------------


def test_sampler_is_deterministic():
    mu0 = marginal_pair(instances.worked_reference()).mu
    sets = instances.worked_grid().cols
    a = sample_in_neighborhood(mu0, sets, F(1, 10), Seed(1234))
    b = sample_in_neighborhood(mu0, sets, F(1, 10), Seed(1234))
    assert a == b


def test_sampler_varies_with_seed():
    mu0 = marginal_pair(instances.worked_reference()).mu
    sets = instances.worked_grid().cols
    draws = [sample_in_neighborhood(mu0, sets, F(1, 10), Seed(k)) for k in range(6)]
    assert any(d != draws[0] for d in draws[1:])


@pytest.mark.parametrize("seed", range(40))
def test_sampler_members_are_strict_probabilities(seed):
    rng = random.Random(70000 + seed)
    space = instances.random_space(rng, "x")
    center = instances.random_prob_measure(rng, space)
    sets = instances.random_axis_pieces(rng)
    delta = F(1, rng.choice((8, 20, 50)))
    got = sample_in_neighborhood(center, sets, delta, Seed(rng.getrandbits(64)))
    assert got.mass() == 1
    assert Neighborhood(center, sets, delta).is_member(got)


def test_sampler_on_product_space():
    ref = instances.worked_reference()
    cells = [cell for _, cell in instances.worked_grid().cells()]
    got = sample_in_neighborhood(ref, cells, F(1, 40), Seed(99))
    assert got.mass() == 1
    assert Neighborhood(ref, cells, F(1, 40)).is_member(got)


def test_sampler_reaches_fresh_atoms():
    mu0 = marginal_pair(instances.worked_reference()).mu
    sets = instances.worked_grid().cols
    originals = set(mu0.space.keys)
    seen_fresh = False
    for k in range(20):
        got = sample_in_neighborhood(mu0, sets, F(1, 10), Seed(k))
        if any(key not in originals for key in got.weights):
            seen_fresh = True
            break
    assert seen_fresh


def _named_like_fresh_atoms():
    """A line and a product centre whose atom ids are those the sampler would pick."""
    pieces = tuple(IntervalSet.single(F(2 * i - 1, 2), F(2 * i + 1, 2)) for i in range(4))
    line = SpaceDesc(tuple(Atom(f"s{i}", i) for i in range(4)))
    mu = Measure(line, {f"s{i}": F(1, 4) for i in range(4)})
    x = SpaceDesc(tuple(Atom(f"sx{i}", i) for i in range(3)))
    y = SpaceDesc(tuple(Atom(f"sy{i}", i) for i in range(3)))
    ref = Measure(
        ProductSpace(x, y), {(f"sx{i}", f"sy{j}"): F(1, 9) for i in range(3) for j in range(3)}
    )
    cells = [cell for _, cell in Grid(pieces[:3], pieces[:3]).cells()]
    return (mu, pieces, F(1, 10)), (ref, cells, F(1, 10))


def _sampler_groups():
    ref = instances.worked_reference()
    grid = instances.worked_grid()
    named_line, named_product = _named_like_fresh_atoms()
    return {
        "worked-line": (marginal_pair(ref).mu, grid.cols, F(1, 10)),
        "worked-product": (ref, [cell for _, cell in grid.cells()], F(1, 40)),
        "named-line": named_line,
        "named-product": named_product,
    }


# sha256 of the dumps() of the draws at seeds 0..29, concatenated: pins the
# sampler's RNG call order, its fresh ids and coordinates and the atom order
SAMPLER_SHA256 = {
    "worked-line": "55819d4b70fe3d7332aef29534aeba83016c5ea9f00bd9c5093ab45b2dfdc40f",
    "worked-product": "f23444bfaf893d721992d39fde6b72d23783dafb0a46593dd3aa081fdbb81a74",
    "named-line": "e4ed922c74a3606d24765d95d66d2b371841d1c295be8998b877949a7b1a3e57",
    "named-product": "a150776efe554eb2f6e740b632341a75967ee27c64735433a4c948678932e08d",
}


@pytest.mark.parametrize("group", sorted(SAMPLER_SHA256))
def test_sampler_golden_bytes(group):
    center, sets, delta = _sampler_groups()[group]
    digest = hashlib.sha256()
    ids = set()
    for k in range(30):
        got = sample_in_neighborhood(center, sets, delta, Seed(k))
        digest.update(dumps(got).encode("ascii"))
        space = got.space
        axes = (space,) if isinstance(space, SpaceDesc) else (space.x, space.y)
        ids.update(a.id for axis in axes for a in axis.atoms)
    assert digest.hexdigest() == SAMPLER_SHA256[group]
    if group.startswith("named"):
        # a fresh id that collides with a centre atom gains a leading "_"
        assert any(i.startswith("_") for i in ids)


class _DenseWorkspace(verify._Workspace):
    """The sampler's workspace walking every key of the space, support or not."""

    def __init__(self, center, sets=()):
        super().__init__(Measure.zero(center.space), sets)
        for k in center.space.keys:
            self.record(k, center.space.coord_of(k), center.weights.get(k, F(0)))


@pytest.mark.parametrize("seed", range(3))
def test_sampler_walks_only_the_support(seed, monkeypatch):
    rng = random.Random(64000 + seed)
    side = 400
    x = SpaceDesc(tuple(Atom(f"x{i}", i) for i in range(side)))
    y = SpaceDesc(tuple(Atom(f"y{i}", i) for i in range(side)))
    support = rng.sample([(f"x{i}", f"y{j}") for i in range(8) for j in range(8)], 6)
    center = Measure(ProductSpace(x, y), dict(zip(support, (F(1, 6),) * 6)))
    cells = [BoxSet((Box((F(-1, 2), 4), (F(-1, 2), 4)),)), BoxSet((Box((4, 8), (0, 8)),))]
    draw = Seed(rng.getrandbits(64))
    got = sample_in_neighborhood(center, cells, F(1, 10), draw)
    assert "keys" not in center.space.__dict__
    assert "keys" not in got.space.__dict__
    dense = _DenseWorkspace(center)
    assert len(dense.weights) == side * side
    assert sum(1 for w in dense.weights.values() if w == 0) == side * side - 6
    monkeypatch.setattr(verify, "_Workspace", _DenseWorkspace)
    assert sample_in_neighborhood(center, cells, F(1, 10), draw) == got


def test_sampler_guards():
    mu0 = marginal_pair(instances.worked_reference()).mu
    sets = instances.worked_grid().cols
    with pytest.raises(ParameterError):
        sample_in_neighborhood(mu0, sets, 0, Seed(1))
    with pytest.raises(MassMismatchError):
        sample_in_neighborhood(mu0.scale(F(1, 2)), sets, F(1, 10), Seed(1))
    # each set's geometry is checked against the centre's, in Neighborhood's words
    box = BoxSet((Box((0, 1), (0, 1)),))
    with pytest.raises(ParameterError) as exc:
        sample_in_neighborhood(mu0, [*sets, box], F(1, 10), Seed(1))
    assert str(exc.value) == "a line measure evaluates interval sets only"
    with pytest.raises(ParameterError) as exc:
        sample_in_neighborhood(instances.worked_reference(), sets, F(1, 10), Seed(1))
    assert str(exc.value) == "a product measure evaluates box sets only"


# -- bound checks ----------------------------------------------------------


OUTER = IntervalSet.single(F(-1, 2), F(3, 2))
INNER = IntervalSet.single(F(-1, 2), F(1, 2))


def test_band_bound_worked(reference):
    res = check_band_bound(reference, OUTER, INNER, OUTER, F(3, 5))
    assert res.ok
    assert res.lhs == F(1, 2)
    assert res.bound == F(1, 2)


def test_band_bound_hypothesis_violation(reference):
    with pytest.raises(HypothesisError) as exc:
        check_band_bound(reference, OUTER, INNER, OUTER, F(1, 2))
    assert str(exc.value) == "marginal band mass 1/2 is not under 1/2"
    with pytest.raises(ParameterError) as exc:
        check_band_bound(reference, OUTER, INNER, OUTER, 0)
    assert str(exc.value) == "tolerance must be positive"
    line = reference.push_proj(1)
    with pytest.raises(ParameterError) as exc:
        check_band_bound(line, OUTER, INNER, OUTER, 1)
    assert str(exc.value) == "a containment check takes a product measure"
    with pytest.raises(ParameterError) as exc:
        check_box_diff_bound(line, OUTER, INNER, OUTER, INNER, 1, 1)
    assert str(exc.value) == "a containment check takes a product measure"


def test_box_diff_bound_worked(reference):
    res = check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, F(3, 5), F(3, 5))
    assert res.ok
    assert res.lhs == F(1, 2)
    assert res.bound == 1


def test_box_diff_bound_hypothesis_violation(reference):
    for eps_col, eps_row, message in [
        (F(1, 2), F(3, 5), "first marginal band mass 1/2 is not under 1/2"),
        (F(3, 5), F(1, 2), "second marginal band mass 1/2 is not under 1/2"),
        # both fail: the column hypothesis is reported first
        (F(1, 2), F(1, 3), "first marginal band mass 1/2 is not under 1/2"),
        (F(1, 3), F(1, 2), "first marginal band mass 1/2 is not under 1/3"),
    ]:
        with pytest.raises(HypothesisError) as exc:
            check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, eps_col, eps_row)
        assert str(exc.value) == message
    for eps_col, eps_row in [(0, F(1, 2)), (F(1, 2), 0), (-1, F(1, 100))]:
        # a tolerance that is no tolerance is refused before any hypothesis is tested
        with pytest.raises(ParameterError) as exc:
            check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, eps_col, eps_row)
        assert str(exc.value) == "tolerances must be positive"
    # two bad tolerances: each is coerced and tested in turn, the column one first
    for eps_col, eps_row, message in [
        (0, "x", "tolerances must be positive"),
        ("x", 0, "not a p/q string: 'x'"),
        (-1, 0.5, "tolerances must be positive"),
    ]:
        with pytest.raises(ParameterError) as exc:
            check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, eps_col, eps_row)
        assert str(exc.value) == message


_REF = instances.worked_reference()
_LINE = _REF.push_proj(1)
_ROW = IntervalSet.single(0, 1)


# every place that takes a tolerance, each with its own text
@pytest.mark.parametrize(
    "call, text",
    [
        (lambda eps: RefineResult(instances.worked_grid(), eps, {}), "refinement delta must be positive"),
        (lambda eps: refine_grid(_REF, instances.worked_targets(), eps), "eps0 must be positive"),
        (lambda eps: certify_openness(_REF, instances.worked_targets(), eps, 1, Seed(1)),
         "eps must be positive"),
        (lambda eps: Neighborhood(_LINE, (_ROW,), eps), "neighborhood tolerance must be positive"),
        (lambda eps: sample_in_neighborhood(_LINE, (_ROW,), eps, Seed(1)), "delta must be positive"),
        (lambda eps: check_band_bound(_REF, OUTER, INNER, OUTER, eps), "tolerance must be positive"),
        (lambda eps: check_box_diff_bound(_REF, OUTER, INNER, OUTER, INNER, eps, 1),
         "tolerances must be positive"),
        (lambda eps: check_box_diff_bound(_REF, OUTER, INNER, OUTER, INNER, 1, eps),
         "tolerances must be positive"),
    ],
)
def test_positive_tolerance_texts_word_for_word(call, text):
    for eps in (0, F(-1, 3), "-2", "0/7"):
        with pytest.raises(ParameterError) as exc:
            call(eps)
        assert str(exc.value) == text
    # what is no rational at all keeps the coercion's own text
    with pytest.raises(ParameterError) as exc:
        call(0.5)
    assert str(exc.value) == "refusing 0.5; pass a Fraction, int or p/q string"


@pytest.mark.parametrize("seed", range(40))
def test_checks_never_exceed_their_bounds(seed):
    rng = random.Random(52000 + seed)
    ref = instances.random_joint(rng, instances.random_product(rng))
    col_outer, col_inner = instances.random_nested_intervals(rng)
    row_outer, row_inner = instances.random_nested_intervals(rng)
    band = ref.push_proj(1).sum_where(
        lambda v: col_outer.contains(v) and not col_inner.contains(v)
    )
    res = check_band_bound(ref, col_outer, col_inner, row_outer, band + F(1, 7))
    assert res.ok and res.lhs <= res.bound
    row_band = ref.push_proj(2).sum_where(
        lambda v: row_outer.contains(v) and not row_inner.contains(v)
    )
    res = check_box_diff_bound(
        ref, col_outer, col_inner, row_outer, row_inner,
        band + F(1, 7), row_band + F(1, 7),
    )
    assert res.ok and res.lhs <= res.bound


def _assert_checks_match_pointwise_sums(ref, co, ci, ro, ri):
    points = [(ref.space.coord_of(k), w) for k, w in ref.weights.items()]

    def mass(pred):
        return sum((w for (x, y), w in points if pred(x, y)), F(0))

    col_band = mass(lambda x, y: co.contains(x) and not ci.contains(x))
    row_band = mass(lambda x, y: ro.contains(y) and not ri.contains(y))
    res = check_band_bound(ref, co, ci, ri, col_band + F(1, 7))
    assert res.bound == col_band
    assert res.lhs == mass(lambda x, y: co.contains(x) and not ci.contains(x) and ri.contains(y))
    res = check_box_diff_bound(ref, co, ci, ro, ri, col_band + F(1, 7), row_band + F(1, 7))
    assert res.lhs == mass(
        lambda x, y: co.contains(x) and ro.contains(y) and not (ci.contains(x) and ri.contains(y))
    )
    assert res.bound == mass(
        lambda x, y: co.contains(x) and not ci.contains(x) and ro.contains(y)
    ) + mass(lambda x, y: co.contains(x) and ro.contains(y) and not ri.contains(y))
    # at eps equal to a band mass the hypothesis fails, so the bands are the marginals'
    if col_band:
        with pytest.raises(HypothesisError) as exc:
            check_band_bound(ref, co, ci, ri, col_band)
        assert str(exc.value) == f"marginal band mass {col_band} is not under {col_band}"
    if row_band:
        with pytest.raises(HypothesisError) as exc:
            check_box_diff_bound(ref, co, ci, ro, ri, col_band + 1, row_band)
        assert str(exc.value) == f"second marginal band mass {row_band} is not under {row_band}"


@pytest.mark.parametrize("seed", range(20))
def test_check_values_match_pointwise_sums(seed):
    rng = random.Random(53000 + seed)
    ref = instances.random_joint(rng, instances.random_product(rng))
    co, ci = instances.random_nested_intervals(rng)
    ro, ri = instances.random_nested_intervals(rng)
    _assert_checks_match_pointwise_sums(ref, co, ci, ro, ri)
    # unrelated sets: disjoint, overlapping, empty and multi-interval, with
    # atoms sitting exactly on endpoints about half the time
    xs = [a.coord for a in ref.space.x.atoms]
    ys = [a.coord for a in ref.space.y.atoms]
    for _ in range(10):
        co, ci = (instances.random_line_set(rng, xs) for _ in range(2))
        ro, ri = (instances.random_line_set(rng, ys) for _ in range(2))
        _assert_checks_match_pointwise_sums(ref, co, ci, ro, ri)


def test_check_values_on_endpoints_and_empty_sets():
    # one atom on each side of every endpoint and one on it; the open sets hold none of the ends
    x = SpaceDesc(tuple(Atom(f"x{i}", F(i, 2)) for i in range(7)))
    y = SpaceDesc(tuple(Atom(f"y{i}", F(i, 2)) for i in range(7)))
    ref = Measure(ProductSpace(x, y), {k: F(1, 49) for k in ProductSpace(x, y).keys})
    empty = IntervalSet(())
    pair = IntervalSet(((F(0), F(1)), (F(1), F(2))))  # abutting: 1 is no member
    whole = IntervalSet.single(F(0), F(3))
    for co, ci, ro, ri in [
        (whole, pair, whole, pair),
        (pair, whole, pair, whole),
        (empty, empty, empty, empty),
        (whole, empty, pair, empty),
        (empty, whole, empty, pair),
        (IntervalSet.single(F(1, 2), F(1)), IntervalSet.single(F(1), F(3, 2)), pair, whole),
    ]:
        _assert_checks_match_pointwise_sums(ref, co, ci, ro, ri)
    res = check_band_bound(ref, whole, pair, whole, 1)
    # x in {1, 2, 5/2}: in (0, 3) but not in (0, 1) u (1, 2); y in (0, 3) for 5 of 7 rows
    assert (res.lhs, res.bound) == (F(15, 49), F(21, 49))


# -- certification ---------------------------------------------------------


def test_certify_worked_fixture_passes(reference, targets):
    report = certify_openness(reference, targets, F(1, 5), 25, Seed(2024))
    assert report.passed
    assert report.trials == 25
    assert report.violations == ()
    rr = refine_grid(reference, targets, F(1, 5))
    floor = -min(F(1, 5) / 2, rr.delta)
    assert report.min_observed_gap > floor


def test_certify_is_deterministic(reference, targets):
    a = certify_openness(reference, targets, F(1, 5), 10, Seed(31))
    b = certify_openness(reference, targets, F(1, 5), 10, Seed(31))
    assert a == b


def test_certify_guards(reference, targets):
    with pytest.raises(ParameterError):
        certify_openness(reference, [], F(1, 5), 10, Seed(1))
    with pytest.raises(ParameterError):
        certify_openness(reference, targets, F(1, 5), 0, Seed(1))
    with pytest.raises(ParameterError):  # a cert_report cannot hold "trials": true
        certify_openness(reference, targets, F(1, 5), True, Seed(1))
    with pytest.raises(ParameterError):
        certify_openness(reference, targets, 0, 10, Seed(1))
    # a reference that is no probability is named as such, after the targets, trials and eps
    half = reference.scale(F(1, 2))
    with pytest.raises(MassMismatchError) as exc:
        certify_openness(half, targets, F(1, 5), 10, Seed(1))
    assert str(exc.value) == "reference must be a probability, has mass 1/2"
    for args, text in [
        (([], F(1, 5), 10), "certify_openness needs at least one target set"),
        ((targets, F(1, 5), 0), "trials must be a positive integer"),
        ((targets, 0, 10), "eps must be positive"),
    ]:
        with pytest.raises(ParameterError) as exc:
            certify_openness(half, *args, Seed(1))
        assert str(exc.value) == text
    # a line reference is certify's reference, not refine_grid's; its mass is checked first
    line = reference.push_proj(1)
    with pytest.raises(ParameterError) as exc:
        certify_openness(line, targets, F(1, 5), 3, Seed(1))
    assert str(exc.value) == "reference must be a product measure"
    with pytest.raises(MassMismatchError) as exc:
        certify_openness(line.scale(F(1, 2)), targets, F(1, 5), 3, Seed(1))
    assert str(exc.value) == "reference must be a probability, has mass 1/2"
    # refine_grid refuses a target that is not a box set
    with pytest.raises(ParameterError) as exc:
        certify_openness(reference, [IntervalSet.single(-1, 1)], F(1, 5), 3, Seed(1))
    assert str(exc.value) == "targets must be box sets"


def test_certify_detects_broken_combination_rule(reference, targets, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr("margcouple.verify.construct_preimage", instances.broken_preimage)
        report = certify_openness(reference, targets, F(1, 5), 25, Seed(2024))
    assert not report.passed
    assert len(report.violations) >= 1
    v = report.violations[0]
    assert v.reason.startswith("construction-error")
    assert "overdraw" in v.reason
    # a violation names the trial and carries the perturbed marginals
    assert v.mu is not None and v.nu is not None
    control = certify_openness(reference, targets, F(1, 5), 25, Seed(2024))
    assert control.passed


def _product_preimage(reference, grid, mu, nu):
    """A report whose coupling is mu x nu, all of it remainder, with no cells."""
    coupling = tensor(mu, nu)
    return PreimageReport(coupling, Measure.zero(coupling.space), coupling, {}, {})


def test_certify_records_cell_then_target_membership(reference, targets, monkeypatch):
    eps = F(1, 5)
    monkeypatch.setattr(verify, "construct_preimage", _product_preimage)
    report = certify_openness(reference, targets, eps, 6, Seed(7))
    refinement = refine_grid(reference, targets, eps)
    cells = dict(refinement.grid.cells())
    cell_hood = Neighborhood(reference, tuple(cells.values()), eps)
    target_hood = Neighborhood(reference, tuple(targets), eps)
    # the product of near-diagonal marginals holds about 1/4 on each diagonal cell, not 1/2;
    # the report lists no drops, so the shortfall is read off the trial's own bin
    reasons = ("cell-shortfall", "cell-membership", "target-membership")
    assert [(v.trial, v.reason) for v in report.violations] == [
        (t, reason) for t in range(6) for reason in reasons
    ]
    for short_v, cell_v, target_v in zip(*[iter(report.violations)] * 3):
        coupling = tensor(cell_v.mu, cell_v.nu)
        drops = {ix: coupling.eval(c) - reference.eval(c) for ix, c in cells.items()}
        first = next(ix for ix, drop in drops.items() if drop <= -refinement.delta)
        assert (short_v.cell, short_v.gap) == (first, drops[first])
        assert cell_v.gap == cell_hood.gap(coupling) <= -eps
        assert target_v.gap == target_hood.gap(coupling) <= -eps
    assert report.min_observed_gap == min(v.gap for v in report.violations)


def test_certify_records_marginal_mismatch(reference, targets, monkeypatch):
    # a construction that couples the reference's own marginals, whatever it is asked
    marginals = (reference.push_proj(1), reference.push_proj(2))

    def own(ref, grid, mu, nu):
        return construct_preimage(ref, grid, *marginals)

    monkeypatch.setattr(verify, "construct_preimage", own)
    report = certify_openness(reference, targets, F(1, 5), 6, Seed(7))
    assert report.violations
    for v in report.violations:
        assert v.reason == "marginal-mismatch"
        assert (v.mu, v.nu) != marginals


_CONSTRUCTIONS = {
    "construct_preimage": verify.construct_preimage,
    "product": _product_preimage,
    "broken": instances.broken_preimage,
}


def _marginals_hold(coupling: Measure, mu: Measure, nu: Measure) -> bool:
    """The trial's integer marginal check, held against ``push_proj`` equality."""
    got = verify._has_marginals(coupling, mu, nu)
    assert got == (coupling.push_proj(1) == mu and coupling.push_proj(2) == nu)
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_CONSTRUCTIONS)))
def test_marginal_check_fails_on_each_kind_of_mismatch(seed, construction):
    """Each construction's coupling has its marginals; a wrong weight, a missing atom, an
    extra atom or a foreign axis space on either side is a mismatch."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    reference = instances.sparse_reference(rng, n, F(1, 2))
    grid = instances.block_grid(n, rng.randint(1, 3))
    pair = marginal_pair(reference)
    mu, nu = (instances.perturbed_probability(rng, m) for m in (pair.mu, pair.nu))
    try:
        coupling = _CONSTRUCTIONS[construction](reference, grid, mu, nu).coupling
    except HypothesisError:  # the broken rule overdrew; on the reference's marginals it cannot
        mu, nu = pair.mu, pair.nu
        coupling = _CONSTRUCTIONS[construction](reference, grid, mu, nu).coupling
    assert _marginals_hold(coupling, mu, nu)
    for i in (0, 1):
        m = (mu, nu)[i]
        k = rng.choice(list(m.weights))

        def swap(other):  # the pair (mu, nu) with other in place of m
            return (other, nu) if i == 0 else (mu, other)

        wrong = Measure(m.space, {**m.weights, k: 2 * m.weights[k]})
        missing = Measure(m.space, {a: w for a, w in m.weights.items() if a != k})
        # the coupling without the atoms projecting onto k, against the full marginal
        thinned = Measure(coupling.space, {a: w for a, w in coupling.weights.items() if a[i] != k})
        moved = SpaceDesc(tuple(Atom(a.id, a.coord + 1) for a in m.space.atoms))
        foreign = Measure(moved, dict(m.weights))
        assert not _marginals_hold(coupling, *swap(wrong))
        assert not _marginals_hold(coupling, *swap(missing))
        assert not _marginals_hold(thinned, mu, nu)
        assert not _marginals_hold(coupling, *swap(foreign))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_CONSTRUCTIONS)), st.booleans())
def test_trial_cell_gap_is_the_cell_neighbourhood_gap(seed, construction, tiled):
    """Each trial's cell gap equals the cells' neighbourhood gap and the pointwise ``eval`` one."""
    rng = random.Random(seed)
    if tiled:
        n = rng.randint(4, 8)
        reference = instances.sparse_reference(rng, n, F(1, 2))
        targets = instances.tile_targets(rng, n, rng.randint(1, 6))
    else:
        reference = instances.random_joint(rng, instances.random_product(rng))
        targets = instances.random_disjoint_targets(rng)
    eps = F(1, rng.choice((5, 10)))
    refinement = refine_grid(reference, targets, eps)
    grid = refinement.grid
    cells = tuple(cell for _, cell in grid.cells())
    built = []

    def recording(*args):
        built.append(_CONSTRUCTIONS[construction](*args))
        return built[-1]

    hood = Neighborhood(reference, tuple(targets), eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "construct_preimage", recording)
        for t in range(3):
            built.clear()
            trial_seed = Seed(seed).derive(t)
            _, gaps = verify.certify_trial(reference, grid, hood, refinement.delta, t, trial_seed)
            if not built:  # the construction raised, so the trial has no gaps
                assert gaps == []
                continue
            coupling = built[0].coupling
            assert gaps[-1] == hood.gap(coupling)
            if not cells:
                assert len(gaps) == 1
                continue
            pointwise = min(coupling.eval(c) - reference.eval(c) for c in cells)
            assert gaps[0] == Neighborhood(reference, cells, eps).gap(coupling) == pointwise


def test_certify_without_cells_checks_the_targets_only(reference):
    # the targets hold no reference mass, so the grid has no cells; the sampler
    # places fresh atoms below 3 on both axes, outside the target
    far = [BoxSet((Box((3, 4), (3, 4)),))]
    assert refine_grid(reference, far, F(1, 5)).grid.cols == ()
    report = certify_openness(reference, far, F(1, 5), 10, Seed(3))
    assert report.passed
    assert report.min_observed_gap == 0


def test_cert_report_passed_property():
    assert CertReport(3, (), F(0)).passed
