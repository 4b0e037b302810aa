"""The coupling construction: exact marginals, per-cell accounting."""

import random
from fractions import Fraction

import pytest

import instances
from margcouple import (
    Atom,
    CellAlloc,
    Grid,
    IntervalSet,
    InternalConsistencyError,
    MarginalPair,
    MassMismatchError,
    Measure,
    ParameterError,
    PreimageReport,
    SpaceDesc,
    admissible_delta,
    construct_preimage,
    marginal_pair,
    refine_grid,
)
from margcouple.documents import dumps

F = Fraction


def test_admissible_delta_is_half():
    assert admissible_delta(F(1, 5)) == F(1, 10)
    assert admissible_delta(2) == 1
    with pytest.raises(ParameterError):
        admissible_delta(0)
    with pytest.raises(ParameterError):
        admissible_delta(F(-1, 5))


def test_marginal_pair_guard(spaces):
    x, _ = spaces
    mu = Measure(x, {"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(MassMismatchError):
        MarginalPair(mu, mu.scale(F(1, 2)))


def test_worked_coupling(reference, grid, perturbed):
    mu, nu = perturbed
    rep = construct_preimage(reference, grid, mu, nu)
    assert rep.coupling.weights == instances.WORKED_COUPLING
    pair = marginal_pair(rep.coupling)
    assert pair.mu == mu and pair.nu == nu


def test_worked_cell_allocations(reference, grid, perturbed):
    rep = construct_preimage(reference, grid, *perturbed)
    zero = CellAlloc(F(0), F(0), F(0))
    assert rep.cell_allocs == {
        (0, 0): CellAlloc(F(2, 5), F(1, 2), F(2, 5)),
        (0, 1): zero,
        (1, 0): zero,
        (1, 1): CellAlloc(F(3, 5), F(1, 2), F(1, 2)),
    }
    # the asymmetry: the two diagonal cells keep different rescalings
    assert rep.cell_allocs[(0, 0)].kept != rep.cell_allocs[(1, 1)].kept


def test_worked_cell_drops(reference, grid, perturbed):
    rep = construct_preimage(reference, grid, *perturbed)
    assert rep.cell_drops == {
        (0, 0): F(-1, 10),
        (0, 1): F(0),
        (1, 0): F(1, 10),
        (1, 1): F(0),
    }
    # mu sits at distance exactly delta from the reference marginal, and
    # the worst drop hits -delta exactly: the bound is tight
    assert min(rep.cell_drops.values()) == -admissible_delta(F(1, 5))


def test_worked_remainder(reference, grid, perturbed):
    rep = construct_preimage(reference, grid, *perturbed)
    assert rep.remainder_coupling.weights == {("b", "c"): F(1, 10)}
    tilde = marginal_pair(rep.remainder_coupling)
    assert tilde.mu.mass() == F(1, 10)
    assert tilde.nu.mass() == F(1, 10)
    assert rep.grid_part + rep.remainder_coupling == rep.coupling


def test_report_split_guard(reference, grid, perturbed):
    rep = construct_preimage(reference, grid, *perturbed)
    with pytest.raises(InternalConsistencyError):
        PreimageReport(
            rep.coupling,
            rep.grid_part,
            rep.grid_part,  # wrong remainder
            rep.cell_allocs,
            rep.cell_drops,
        )


def test_probability_inputs_enforced(reference, grid, perturbed):
    mu, nu = perturbed
    with pytest.raises(MassMismatchError) as exc:
        construct_preimage(reference, grid, mu.scale(F(1, 2)), nu)
    assert "mu" in str(exc.value)
    with pytest.raises(MassMismatchError) as exc:
        construct_preimage(reference.scale(F(1, 2)), grid, mu, nu)
    assert "reference" in str(exc.value)
    with pytest.raises(ParameterError):
        construct_preimage(mu, grid, mu, nu)


def test_identity_when_marginals_match(reference, grid):
    pair = marginal_pair(reference)
    rep = construct_preimage(reference, grid, pair.mu, pair.nu)
    assert rep.coupling == reference
    assert all(d == 0 for d in rep.cell_drops.values())
    assert rep.remainder_coupling.mass() == 0


def test_new_marginals_on_fresh_atoms(reference, grid):
    # inputs may live on entirely different atoms; only coordinates matter
    x = SpaceDesc((Atom("p", F(1, 4)), Atom("q", F(3, 4)), Atom("r", 7)))
    y = SpaceDesc((Atom("u", 0), Atom("v", 1)))
    mu = Measure(x, {"p": F(1, 4), "q": F(1, 4), "r": F(1, 2)})
    nu = Measure(y, {"u": F(1, 2), "v": F(1, 2)})
    rep = construct_preimage(reference, grid, mu, nu)
    pair = marginal_pair(rep.coupling)
    assert pair.mu == mu and pair.nu == nu


def test_atoms_outside_every_cell_ride_the_remainder(reference):
    # a one-cell grid far from all mass: everything moves via the remainder
    grid = Grid((IntervalSet.single(90, 91),), (IntervalSet.single(90, 91),))
    mu = marginal_pair(reference).mu
    nu = marginal_pair(reference).nu
    rep = construct_preimage(reference, grid, mu, nu)
    assert rep.grid_part.mass() == 0
    assert rep.remainder_coupling.mass() == 1
    pair = marginal_pair(rep.coupling)
    assert pair.mu == mu and pair.nu == nu
    assert rep.cell_drops == {(0, 0): F(0)}


@pytest.mark.parametrize("seed", range(50))
def test_random_marginals_always_exact(seed):
    rng = random.Random(42000 + seed)
    ref, grid = instances.random_instance(rng)
    mu = instances.random_prob_measure(rng, ref.space.x)
    nu = instances.random_prob_measure(rng, ref.space.y)
    rep = construct_preimage(ref, grid, mu, nu)
    pair = marginal_pair(rep.coupling)
    assert pair.mu == mu and pair.nu == nu
    assert rep.coupling.mass() == 1


# -- the binned construction against a per-cell oracle ---------------------


@pytest.mark.parametrize("seed", range(40))
def test_binned_preimage_matches_per_cell_oracle(seed):
    rng = random.Random(97000 + seed)
    ref, grid = instances.random_instance(rng)
    targets = instances.random_disjoint_targets(rng)
    refined = refine_grid(ref, targets, F(1, 6)).grid
    mu = instances.random_prob_measure(rng, ref.space.x)
    nu = instances.random_prob_measure(rng, ref.space.y)
    for g in (grid, refined):
        rep = construct_preimage(ref, g, mu, nu)
        oracle = instances.per_cell_preimage(ref, g, mu, nu)
        assert dumps(rep) == dumps(oracle)
        assert rep.coupling == oracle.coupling
        assert rep.grid_part == oracle.grid_part
        assert rep.remainder_coupling == oracle.remainder_coupling
        assert rep.cell_allocs == oracle.cell_allocs
        assert rep.cell_drops == oracle.cell_drops
