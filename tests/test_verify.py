"""Certification machinery: seeds, samplers, dual-route oracles, checks."""

import random
from fractions import Fraction

import pytest

import instances
from margcouple import (
    Atom,
    Box,
    BoxSet,
    CertReport,
    HypothesisError,
    IntervalSet,
    MassMismatchError,
    Measure,
    Neighborhood,
    ParameterError,
    ProductSpace,
    Seed,
    SpaceDesc,
    admissible_delta,
    certify_openness,
    check_band_bound,
    check_box_diff_bound,
    couple_mass,
    marginal_pair,
    oracle_couple,
    refine_grid,
    sample_in_neighborhood,
    tensor,
    tensor_via_barycenter,
)
from margcouple import verify
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


class _DenseWorkspace(verify._Workspace):
    """The sampler's workspace walking every key of the space, support or not."""

    def __init__(self, center):
        super().__init__(center)
        self.order = list(center.space.keys)
        self.coords = {k: center.space.coord_of(k) for k in self.order}


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
    monkeypatch.setattr(verify, "_Workspace", _DenseWorkspace)
    assert sample_in_neighborhood(center, cells, F(1, 10), draw) == got


def test_sampler_guards():
    mu0 = marginal_pair(instances.worked_reference()).mu
    sets = instances.worked_grid().cols
    with pytest.raises(ParameterError):
        sample_in_neighborhood(mu0, sets, 0, Seed(1))
    with pytest.raises(MassMismatchError):
        sample_in_neighborhood(mu0.scale(F(1, 2)), sets, F(1, 10), Seed(1))


# -- bound checks ----------------------------------------------------------


OUTER = IntervalSet.single(F(-1, 2), F(3, 2))
INNER = IntervalSet.single(F(-1, 2), F(1, 2))


def test_band_bound_worked(reference):
    res = check_band_bound(reference, OUTER, INNER, OUTER, F(3, 5))
    assert res.ok
    assert res.lhs == F(1, 2)
    assert res.bound == F(1, 2)


def test_band_bound_hypothesis_violation(reference):
    with pytest.raises(HypothesisError):
        check_band_bound(reference, OUTER, INNER, OUTER, F(1, 2))
    with pytest.raises(ParameterError):
        check_band_bound(reference, OUTER, INNER, OUTER, 0)


def test_box_diff_bound_worked(reference):
    res = check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, F(3, 5), F(3, 5))
    assert res.ok
    assert res.lhs == F(1, 2)
    assert res.bound == 1


def test_box_diff_bound_hypothesis_violation(reference):
    with pytest.raises(HypothesisError):
        check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, F(1, 2), F(3, 5))
    with pytest.raises(HypothesisError):
        check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, F(3, 5), F(1, 2))
    with pytest.raises(ParameterError):
        check_box_diff_bound(reference, OUTER, INNER, OUTER, INNER, 0, F(1, 2))


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


@pytest.mark.parametrize("seed", range(20))
def test_check_values_match_pointwise_sums(seed):
    rng = random.Random(53000 + seed)
    ref = instances.random_joint(rng, instances.random_product(rng))
    co, ci = instances.random_nested_intervals(rng)
    ro, ri = instances.random_nested_intervals(rng)
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


# -- certification ---------------------------------------------------------


def test_certify_worked_fixture_passes(reference, targets):
    report = certify_openness(reference, targets, F(1, 5), 25, Seed(2024))
    assert report.passed
    assert report.trials == 25
    assert report.violations == ()
    rr = refine_grid(reference, targets, F(1, 5))
    floor = -min(admissible_delta(F(1, 5)), rr.delta)
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
    with pytest.raises(ParameterError):
        certify_openness(reference, targets, 0, 10, Seed(1))


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


def test_cert_report_passed_property():
    assert CertReport(3, (), F(0)).passed
