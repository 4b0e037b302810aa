"""Values a certify run computes once, and the exact work its trials repeat.

A measure keeps its mass, its marginals, its compiled family and masses on
a tuple of sets and its cell masses on a grid; ``construct_preimage`` sums
each piece's mass in the pass that places each marginal atom in its piece,
and takes one tensor of the marginals; the sampler's workspace tests each
centre atom against the sets once per run and each placed atom once.  A
certify run takes the reference's piece masses once and bins each coupling
once.  The counts below are taken with monkeypatched counters, never with
timing: work that depends only on the run must not grow with the number of
trials.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import instances
from margcouple import (
    BoxSet,
    Grid,
    IntervalSet,
    Measure,
    Neighborhood,
    ProductSpace,
    Seed,
    SpaceDesc,
    certify_openness,
    construct_preimage,
    couple,
    marginal_pair,
    refine_grid,
    sample_in_neighborhood,
    tensor,
    verify,
)
from margcouple.couple import _pieces
from margcouple.measure import _Family, _fsum

F = Fraction

seeds = st.integers(0, 2**32 - 1)


# -- work counts -------------------------------------------------------------


def _certify_counts(trials: int) -> tuple[Counter, Counter]:
    """Work a certify run counts once per run, and each centre's set evaluations.

    Counted: real projections and binnings of the reference, set families
    compiled, ``contains`` tests the sampler's workspace makes of centre
    atoms (outside ``record``, which tests placed atoms), and evaluations
    through a compiled family, per centre.
    """
    rng = random.Random(7)
    reference = instances.sparse_reference(rng, 12, F(1, 2))
    targets = instances.tile_targets(rng, 12, 7)
    built: Counter = Counter()
    evaluated: list = []
    scope = ["run"]
    project, bin_cells = Measure._project, Grid._bin
    compile_family, family_masses = _Family.__init__, _Family.masses

    def counting_project(self, axis):
        if self is reference:
            built[axis] += 1
        return project(self, axis)

    def counting_bin(self, m):
        if m is reference:
            built["cells"] += 1
        return bin_cells(self, m)

    def counting_compile(self, *args, **kwargs):
        built["families"] += 1
        compile_family(self, *args, **kwargs)

    def counting_masses(self, m):
        evaluated.append(m)
        return family_masses(self, m)

    def scoped(fn, name):
        def wrapper(*args):
            scope.append(name)
            try:
                return fn(*args)
            finally:
                scope.pop()

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Measure, "_project", counting_project)
        mp.setattr(Grid, "_bin", counting_bin)
        mp.setattr(_Family, "__init__", counting_compile)
        mp.setattr(_Family, "masses", counting_masses)
        mp.setattr(verify._Workspace, "__init__", scoped(verify._Workspace.__init__, "centre"))
        mp.setattr(verify._Workspace, "record", scoped(verify._Workspace.record, "placed"))
        for cls in (IntervalSet, BoxSet):
            contains = cls.contains

            def counting_contains(self, point, contains=contains):
                built["centre contains"] += scope[-1] == "centre"
                return contains(self, point)

            mp.setattr(cls, "contains", counting_contains)
        report = certify_openness(reference, targets, F(1, 5), trials, Seed(11))
    assert report.passed and report.trials == trials
    centres = {"reference": reference, "mu0": reference.push_proj(1)}
    centres["nu0"] = reference.push_proj(2)
    grid = refine_grid(reference, targets, F(1, 5)).grid
    # every centre atom against every set it is sampled in, once per run
    assert built["centre contains"] == (
        len(centres["mu0"].weights) * len(grid.cols) + len(centres["nu0"].weights) * len(grid.rows)
    )
    return built, Counter({n: sum(1 for m in evaluated if m is c) for n, c in centres.items()})


def test_run_values_are_computed_once_whatever_the_trial_count():
    one = _certify_counts(1)
    eight = _certify_counts(8)
    assert one == eight
    built, evaluated = eight
    # the targets' neighbourhood and each sampler's self-check: one family
    # each; refine_grid finds its boxes of mass on slots, with none
    assert {k: v for k, v in built.items() if k != "centre contains"} == {
        1: 1, 2: 1, "cells": 1, "families": 3,
    }
    # the targets' neighbourhood; each sampler's self-check
    assert evaluated == {"reference": 1, "mu0": 1, "nu0": 1}


@pytest.mark.parametrize("trials", [1, 8])
def test_certify_bins_each_coupling_once(trials, monkeypatch):
    """Per run: 2k ``eval`` scans of the reference marginals, one neighbourhood over the targets.

    The grid bins the reference once and each trial's coupling once.
    """
    rng = random.Random(7)
    reference = instances.sparse_reference(rng, 12, F(1, 2))
    targets = instances.tile_targets(rng, 12, 7)
    marginals = (reference.push_proj(1), reference.push_proj(2))
    counts: Counter = Counter()
    hoods: list = []
    evaluate, bin_cells, hood_init = Measure.eval, Grid._bin, Neighborhood.__init__

    def counting_eval(self, open_set):
        counts["marginal evals"] += any(self is m for m in marginals)
        return evaluate(self, open_set)

    def counting_bin(self, m):
        counts["bins"] += 1
        return bin_cells(self, m)

    def recording_init(self, *args):
        hood_init(self, *args)
        if self.center is reference:
            hoods.append(self.sets)

    monkeypatch.setattr(Measure, "eval", counting_eval)
    monkeypatch.setattr(Grid, "_bin", counting_bin)
    monkeypatch.setattr(Neighborhood, "__init__", recording_init)
    report = certify_openness(reference, targets, F(1, 5), trials, Seed(11))
    assert report.passed and report.trials == trials
    grid = refine_grid(reference, targets, F(1, 5)).grid
    assert counts == {"marginal evals": len(grid.cols) + len(grid.rows), "bins": 1 + trials}
    assert hoods == [tuple(targets)]


def test_construction_takes_no_position_per_key(monkeypatch):
    """``construct_preimage``, ``+`` and ``push_proj(2)`` never call ``position`` per key."""
    rng = random.Random(20)
    reference = instances.sparse_reference(rng, 20, F(3, 10))
    pair = marginal_pair(reference)
    mu = instances.perturbed_probability(rng, pair.mu)
    nu = instances.perturbed_probability(rng, pair.nu)
    calls: Counter = Counter()
    for cls in (SpaceDesc, ProductSpace):
        position = cls.position

        def counting(self, key, position=position):
            calls["position"] += 1
            return position(self, key)

        monkeypatch.setattr(cls, "position", counting)
    blocks = instances.block_grid(20, 5)
    # atoms of the last block column and row lie in no cell, so the remainder brings new atoms
    report = construct_preimage(reference, Grid(blocks.cols[:4], blocks.rows[:4]), mu, nu)
    assert report.grid_part.weights
    assert report.remainder_coupling.weights.keys() - report.grid_part.weights.keys()
    assert report.coupling.push_proj(2).mass() == 1
    assert calls["position"] == 0


def test_one_tensor_of_the_marginals_and_one_mass_each(monkeypatch):
    """The grid part reweights one ``tensor(mu, nu)``; each input's mass is summed once."""
    rng = random.Random(20)
    reference = instances.sparse_reference(rng, 20, F(3, 10))
    pair = marginal_pair(reference)
    mu = instances.perturbed_probability(rng, pair.mu)
    nu = instances.perturbed_probability(rng, pair.nu)
    summed: Counter = Counter()

    def counting_mass(self):
        summed[id(self)] += 1
        return _fsum(self.weights.values())

    prop = cached_property(counting_mass)
    prop.__set_name__(Measure, "_mass")
    monkeypatch.setattr(Measure, "_mass", prop)
    used: list = []

    def recording_tensor(a, b):
        used.append((a, b))
        return tensor(a, b)

    monkeypatch.setattr(couple, "tensor", recording_tensor)
    report = construct_preimage(reference, instances.block_grid(20, 5), mu, nu)
    assert len(used) == 1 and used[0][0] is mu and used[0][1] is nu
    assert sum(1 for a in report.cell_allocs.values() if a.kept) > 1
    assert [summed[id(m)] for m in (reference, mu, nu)] == [1, 1, 1]


def _placed(center: Measure, result: Measure) -> int:
    if isinstance(center.space, SpaceDesc):
        return len(result.space.atoms) - len(center.space.atoms)
    return len(result.space.x.atoms) - len(center.space.x.atoms)


@pytest.mark.parametrize("geometry", ["line", "product"])
def test_sampler_tests_each_atom_once_per_set(geometry, monkeypatch):
    rng = random.Random(16)
    reference = instances.sparse_reference(rng, 16, F(1, 2))
    grid = instances.block_grid(16, 4)
    if geometry == "line":
        center, sets = reference.push_proj(1), grid.cols
    else:
        center, sets = reference, tuple(cell for _, cell in grid.cells())
    calls = Counter()
    for cls in (IntervalSet, BoxSet):
        contains = cls.contains

        def counting(self, point, contains=contains):
            calls["contains"] += 1
            return contains(self, point)

        monkeypatch.setattr(cls, "contains", counting)
    for k in range(12):
        calls.clear()
        got = sample_in_neighborhood(center, sets, F(1, 40), Seed(k))
        atoms = len(center.weights) + _placed(center, got)
        assert calls["contains"] <= atoms * len(sets)


# -- properties of the cached and binned values ------------------------------


def _pieces_and_line_measure(rng: random.Random):
    """Disjoint pieces and a line measure with atoms on, inside and beside their endpoints."""
    pieces = instances.random_axis_pieces(rng)
    ends = sorted({e for p in pieces for e in p.endpoints()})
    pool = set(ends) | {(a + b) / 2 for a, b in zip(ends, ends[1:])}
    pool |= {ends[0] - 1, ends[-1] + 1}
    coords = sorted(rng.sample(sorted(pool), rng.randint(1, len(pool))))
    space = SpaceDesc(tuple(instances.Atom(f"a{i}", c) for i, c in enumerate(coords)))
    return pieces, instances.random_prob_measure(rng, space)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_pieces_place_each_atom_and_sum_each_mass(seed):
    rng = random.Random(seed)
    pieces, m = _pieces_and_line_measure(rng)
    piece_of, masses = _pieces(m, Grid(pieces, ())._col_slots, len(pieces))
    assert masses == [m.eval(p) for p in pieces]
    coord = m.space.coord_of
    holding = [[i for i, p in enumerate(pieces) if p.contains(coord(k))] for k in m.weights]
    assert list(piece_of.values()) == [held[0] if held else -1 for held in holding]
    assert list(piece_of) == list(m.weights)


def _placement_pool(rng: random.Random, center: Measure, sets) -> list:
    line = isinstance(center.space, SpaceDesc)
    ends = set()
    for s in sets:
        if line:
            ends.update(s.endpoints())
        else:
            ends.update(e for b in s.boxes for e in (*b.col, *b.row))
    ends.update(F(c, 2) for c in rng.sample(range(-20, 60), 6))
    pool = sorted(ends)
    if line:
        return pool
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(12)]


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(["line", "product"]))
def test_workspace_membership_equals_a_fresh_scan(seed, geometry):
    rng = random.Random(seed)
    if geometry == "line":
        center = instances.random_prob_measure(rng, instances.random_space(rng, "x"))
        anchors = [a.coord for a in center.space.atoms]
        sets = [instances.random_line_set(rng, anchors) for _ in range(rng.randint(0, 4))]
    else:
        center = instances.random_joint(rng, instances.random_product(rng))
        sets = instances.random_disjoint_targets(rng)
    ws = verify._Workspace(center, sets)
    coords = {k: center.space.coord_of(k) for k in center.weights}
    pool = _placement_pool(rng, center, sets)
    for step in range(rng.randint(1, 7)):
        if step:  # the first check is of the centre's support alone
            coord = rng.choice(pool)
            coords[ws.place(coord)] = coord
        walk = list(ws.weights)
        assert walk == list(coords)
        assert ws.members == [[k for k in walk if s.contains(coords[k])] for s in sets]
        assert ws.outside == [k for k in walk if not any(s.contains(coords[k]) for s in sets)]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_cached_values_equal_fresh_sums(seed):
    rng = random.Random(seed)
    joint = instances.random_joint(rng, instances.random_product(rng))
    assert joint.mass() == _fsum(joint.weights.values()) == sum(joint.weights.values(), F(0))
    assert joint.mass() is joint.mass()
    for axis, space in ((1, joint.space.x), (2, joint.space.y)):
        sums: dict = {}
        for key, w in joint.weights.items():
            k = key[axis - 1]
            sums[k] = sums.get(k, F(0)) + w
        fresh = Measure(space, sums)
        assert joint.push_proj(axis) == fresh
        assert list(joint.push_proj(axis).weights) == list(fresh.weights)
        assert joint.push_proj(axis) is joint.push_proj(axis)
        assert joint.push_proj(axis).mass() == joint.mass()
    sets = tuple(instances.random_disjoint_targets(rng))
    first, again = (Neighborhood(joint, list(sets), 1)._compiled[1] for _ in range(2))
    assert first == tuple(joint.eval(s) for s in sets)
    assert again is first
    grid = instances.random_grid(rng)
    assert grid.cell_masses(joint) == {ix: joint.eval(cell) for ix, cell in grid.cells()}
    assert grid.cell_masses(joint) is grid.cell_masses(joint)
