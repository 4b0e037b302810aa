"""The coupling construction: exact marginals, per-cell accounting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    ProductSpace,
    SpaceDesc,
    construct_preimage,
    couple_mass,
    marginal_pair,
    measure,
    refine_grid,
    tensor,
)
from margcouple.documents import dumps

F = Fraction


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
    assert min(rep.cell_drops.values()) == -F(1, 5) / 2


def test_worked_remainder(reference, grid, perturbed):
    rep = construct_preimage(reference, grid, *perturbed)
    assert rep.remainder_coupling.weights == {("b", "c"): F(1, 10)}
    tilde = marginal_pair(rep.remainder_coupling)
    assert tilde.mu.mass() == F(1, 10)
    assert tilde.nu.mass() == F(1, 10)
    assert rep.grid_part + rep.remainder_coupling == rep.coupling


def _edited(m: Measure, **weights) -> Measure:
    """m with the weights of the named pairs ("bd" for ("b", "d")) replaced; None drops one."""
    out = dict(m.weights)
    for name, w in weights.items():
        out.pop(tuple(name), None)
        if w is not None:
            out[tuple(name)] = w
    return Measure(m.space, out)


def _moved(m: Measure) -> Measure:
    """m on a product space whose first x atom sits elsewhere, same weights."""
    x = m.space.x
    x = SpaceDesc((Atom(x.atoms[0].id, 99),) + x.atoms[1:])
    return Measure(ProductSpace(x, m.space.y), dict(m.weights))


TINY = F(1, 10**30)

# edits of a correct split (coupling, grid part, remainder) and whether the guard accepts them
SPLITS = {
    "exact": (lambda c, g, r: (c, g, r), True),
    "wrong remainder": (lambda c, g, r: (c, g, g), False),
    "extra coupling atom": (lambda c, g, r: (_edited(c, ad=F(1, 10)), g, r), False),
    "missing coupling atom": (lambda c, g, r: (_edited(c, bc=None), g, r), False),
    "weight over": (lambda c, g, r: (_edited(c, bd=F(1, 2) + TINY), g, r), False),
    "weight under": (lambda c, g, r: (_edited(c, bd=F(1, 2) - TINY), g, r), False),
    "coupling on another space": (lambda c, g, r: (_moved(c), g, r), False),
    "remainder on another space": (lambda c, g, r: (c, g, _moved(r)), False),
    # ("b", "d") split between both parts, exactly and then off by TINY
    "shared atom": (lambda c, g, r: (c, _edited(g, bd=F(1, 3)), _edited(r, bd=F(1, 6))), True),
    "shared atom off": (
        lambda c, g, r: (c, _edited(g, bd=F(1, 3)), _edited(r, bd=F(1, 6) + TINY)),
        False,
    ),
}


def _over(m: Measure, scale: int) -> Measure:
    """m built over one denominator: its common form with numerators and D times scale."""
    den, nums = m._common
    return Measure._over(m.space, list(m._keys), [n * scale for n in nums], den * scale)


def test_report_split_guard(reference, grid, perturbed):
    """Each edit, on made weights (scales None) and on three forms over one denominator.

    The forms' denominators are the lcm times a scale, so the int test meets
    common multiples that are not the lcm.
    """
    rep = construct_preimage(reference, grid, *perturbed)
    for scales in (None, (1, 1, 1), (1, 3, 5), (7, 1, 2)):
        accepted = {}
        for name, (split, _) in SPLITS.items():
            parts = split(rep.coupling, rep.grid_part, rep.remainder_coupling)
            parts = [Measure(m.space, dict(m.weights)) for m in parts]
            if scales is not None:
                parts = [_over(m, scale) for m, scale in zip(parts, scales)]
            try:
                PreimageReport(*parts, rep.cell_allocs, rep.cell_drops)
                accepted[name] = True
            except InternalConsistencyError as exc:
                assert str(exc) == "coupling must split into grid part plus remainder"
                accepted[name] = False
        assert accepted == {name: ok for name, (_, ok) in SPLITS.items()}, scales


def test_probability_inputs_enforced(reference, grid, perturbed):
    mu, nu = perturbed
    with pytest.raises(MassMismatchError) as exc:
        construct_preimage(reference, grid, mu.scale(F(1, 2)), nu)
    assert str(exc.value) == "mu must be a probability, has mass 1/2"
    with pytest.raises(MassMismatchError) as exc:
        construct_preimage(reference.scale(F(1, 2)), grid, mu, nu)
    assert str(exc.value) == "reference must be a probability, has mass 1/2"
    with pytest.raises(ParameterError):
        construct_preimage(mu, grid, mu, nu)
    # a product mu or nu is named as such, before any mass is checked
    for args, label in (((reference.scale(F(1, 2)), nu), "mu"), ((mu, reference), "nu")):
        with pytest.raises(ParameterError) as exc:
            construct_preimage(reference, grid, *args)
        assert str(exc.value) == f"{label} must be a line measure"


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


# -- the remainder's marginals ---------------------------------------------


def _emptied(m: Measure, piece: IntervalSet, rng: random.Random) -> Measure:
    """m with the mass of one grid piece moved onto an atom outside it, if there is one."""
    coord = m.space.coord_of
    outside = [k for k in m.space.keys if not piece.contains(coord(k))]
    if not outside:
        return m
    weights = {k: w for k, w in m.weights.items() if not piece.contains(coord(k))}
    k = rng.choice(outside)
    weights[k] = weights.get(k, F(0)) + m.eval(piece)
    return Measure(m.space, weights)


def _remainder_case(seed: int):
    """A random instance; mu often leaves a column massless and nu a row."""
    rng = random.Random(53000 + seed)
    ref, grid = instances.random_instance(rng)
    mu = instances.random_prob_measure(rng, ref.space.x)
    nu = instances.random_prob_measure(rng, ref.space.y)
    if rng.random() < 0.5:
        mu = _emptied(mu, rng.choice(grid.cols), rng)
    if rng.random() < 0.5:
        nu = _emptied(nu, rng.choice(grid.rows), rng)
    return ref, grid, mu, nu


@pytest.mark.parametrize("seed", range(60))
def test_remainder_marginals_are_what_the_cells_leave(seed):
    ref, grid, mu, nu = _remainder_case(seed)
    rep = construct_preimage(ref, grid, mu, nu)
    left = marginal_pair(rep.remainder_coupling)
    assert left.mu == mu - rep.grid_part.push_proj(1)
    assert left.nu == nu - rep.grid_part.push_proj(2)
    pair = marginal_pair(rep.coupling)
    assert pair.mu == mu and pair.nu == nu
    # the cells of a column are disjoint parts of it and keep at most its new mass; so on rows
    kept = {ix: a.kept for ix, a in rep.cell_allocs.items()}
    for q, col in enumerate(grid.cols):
        assert sum(kept[q, s] for s in range(len(grid.rows))) <= mu.eval(col)
    for s, row in enumerate(grid.rows):
        assert sum(kept[q, s] for q in range(len(grid.cols))) <= nu.eval(row)


def test_remainder_cases_reach_the_edges():
    """The seeds above hold atoms outside the grid, massless pieces and unkept cells."""
    seen = set()
    for seed in range(60):
        ref, grid, mu, nu = _remainder_case(seed)
        rep = construct_preimage(ref, grid, mu, nu)
        for m, pieces, axis in ((mu, grid.cols, "column"), (nu, grid.rows, "row")):
            coord = m.space.coord_of
            if any(not any(p.contains(coord(k)) for p in pieces) for k in m.weights):
                seen.add(f"atom outside every {axis}")
            if any(m.eval(p) == 0 for p in pieces):
                seen.add(f"massless {axis}")
        ref_cells = grid.cell_masses(ref)
        if any(a.kept == 0 and ref_cells[ix] > 0 for ix, a in rep.cell_allocs.items()):
            seen.add("unkept cell of positive reference mass")
    assert seen == {
        "atom outside every column",
        "atom outside every row",
        "massless column",
        "massless row",
        "unkept cell of positive reference mass",
    }


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


# -- the int route against the Fraction route -------------------------------

ROUTE_CASES = ["random", "zero kept cells", "one-atom marginals", "prime pairs"]


def _route_case(rng: random.Random, case: str):
    """A reference, grid and marginals; "random" often leaves a piece massless."""
    if case == "prime pairs":
        n = rng.randint(2, 10)
        ref = instances.sparse_reference(rng, n, F(rng.randint(2, 8), 10))
        grid = instances.block_grid(n, rng.randint(1, n))
        mu, nu = (
            instances.prime_pair_marginal(rng, axis, rng.randint(0, n // 2))
            for axis in (ref.space.x, ref.space.y)
        )
        return ref, grid, mu, nu
    if case == "one-atom marginals":
        ref = instances.random_joint(rng, instances.random_product(rng, max_atoms=1))
        mu, nu = ref.push_proj(1), ref.push_proj(2)
        return ref, instances.random_grid(rng), mu, nu
    ref, grid, mu, nu = _remainder_case(rng.randrange(10**6))
    if case == "zero kept cells":  # no cell holds reference mass, so none keeps any
        far = (IntervalSet.single(100, 101),)
        grid = Grid(far, far)
    return ref, grid, mu, nu


def _fresh(m: Measure) -> Measure:
    return Measure(m.space, dict(m.weights))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(ROUTE_CASES))
def test_int_route_equals_fraction_route(seed, case):
    """The same coupling, parts, cells and document bytes whichever route builds them.

    ``measure._WIDEST`` at 0 sends every input to the ``Fraction`` route, and
    at 10**6 every input to the int route over one denominator.
    """
    ref, grid, mu, nu = _route_case(random.Random(seed), case)
    reports, texts, tensors = {}, {}, {}
    with pytest.MonkeyPatch.context() as mp:
        for route, widest in (("fraction", 0), ("int", 10**6)):
            mp.setattr(measure, "_WIDEST", widest)
            a, b = _fresh(mu), _fresh(nu)
            rep = reports[route] = construct_preimage(ref, grid, a, b)
            # a massless remainder is the zero measure, an empty form on either route
            assert rep.coupling._is_over == rep.grid_part._is_over == (route == "int")
            if route == "int":
                parts = (rep.coupling, rep.grid_part, rep.remainder_coupling)
                assert not any("weights" in vars(m) for m in parts)
            texts[route] = dumps(rep)  # before any comparison makes the int route's weights
            # couple_mass follows its inputs: over one denominator when both are
            scaled = (_over(a, 3), _over(b, 5)) if route == "int" else (a, b)
            tensors[route] = dumps(tensor(a, b)), dumps(couple_mass(*scaled))
    assert texts["int"] == texts["fraction"]
    assert tensors["int"] == tensors["fraction"]
    got, want = reports["int"], reports["fraction"]
    assert got.coupling == want.coupling
    assert got.grid_part == want.grid_part
    assert got.remainder_coupling == want.remainder_coupling
    assert got.cell_allocs == want.cell_allocs
    assert got.cell_drops == want.cell_drops
    for m in (got.coupling, got.grid_part, got.remainder_coupling):
        den, nums = m._common
        assert all(n > 0 for n in nums)
        assert [F(n, den) for n in nums] == list(m.weights.values())


def test_route_cases_reach_the_edges():
    """The cases above hold unkept and massless cells, one-atom marginals and wide inputs."""
    seen = set()
    for seed in range(40):
        for case in ROUTE_CASES:
            ref, grid, mu, nu = _route_case(random.Random(seed), case)
            rep = construct_preimage(ref, grid, mu, nu)
            if not any(a.kept for a in rep.cell_allocs.values()):
                seen.add("no kept cell")
            if any(mu.eval(c) == 0 for c in grid.cols) or any(nu.eval(r) == 0 for r in grid.rows):
                seen.add("massless piece")
            if len(mu.weights) == 1 == len(nu.weights):
                seen.add("one-atom marginals")
            if not rep.remainder_coupling.weights:
                seen.add("massless remainder")
            seen.add("wide" if not rep.coupling._is_over else "narrow")
    assert seen == {
        "no kept cell",
        "massless piece",
        "one-atom marginals",
        "massless remainder",
        "wide",
        "narrow",
    }


@pytest.mark.parametrize("pairs, narrow", [(0, True), (2, True), (5, False), (20, False)])
def test_denominator_growth_picks_the_route(pairs, narrow):
    """The int route runs while each marginal's common denominator has at most ``_WIDEST``
    times the bits of its largest denominator; wider marginals keep the ``Fraction`` route."""
    rng = random.Random(pairs)
    ref = instances.sparse_reference(rng, 40, F(3, 10))
    mu, nu = (instances.prime_pair_marginal(rng, a, pairs) for a in (ref.space.x, ref.space.y))
    for m in (mu, nu):
        top = max(w.denominator for w in m.weights.values())
        ratio = m._common[0].bit_length() / top.bit_length()
        assert (ratio <= measure._WIDEST) == narrow
    rep = construct_preimage(ref, instances.block_grid(40, 8), mu, nu)
    assert rep.coupling._is_over == rep.grid_part._is_over == narrow
    assert tensor(mu, nu)._is_over == narrow
