"""Grid refinement: cut discipline, ownership, and the safety margin.

disjointify carries the load.  Its contract, checked here directly:

  (a) outputs are pairwise disjoint,
  (b) an output piece holding a forbidden coordinate lies inside every
      input that contains the coordinate; a piece holding none meets each
      input either fully or not at all,
  (c) nothing is lost but cut points, and a forbidden coordinate covered
      by some input stays covered by an output.

Postcondition (b) is what makes target masses split exactly over owned
cells downstream: support coordinates are passed as forbidden, so the
piece around an atom cannot leak across the boundary of any input range
containing the atom, and partial overlaps can occur only where no atom
sits.
"""

import random
from fractions import Fraction
from itertools import pairwise

import pytest

import instances
from margcouple import (
    Atom,
    Box,
    BoxSet,
    Grid,
    IntervalSet,
    Measure,
    ParameterError,
    ProductSpace,
    RefineResult,
    SpaceDesc,
    boxset_within,
    canonicalize,
    disjointify,
    intervalsets_disjoint,
    rect_inner_approx,
    refine_grid,
)

F = Fraction


# -- disjointify -----------------------------------------------------------


def iset(*pairs):
    return IntervalSet(tuple((F(a), F(b)) for a, b in pairs))


def test_disjointify_plain_overlap():
    got = disjointify([iset((0, 2)), iset((1, 3))], [F(1, 2), F(3, 2), F(5, 2)])
    assert got == [iset((0, 1)), iset((1, 2)), iset((2, 3))]


def test_disjointify_forbidden_endpoint_gets_a_nibble():
    got = disjointify([iset((0, 2)), iset((1, 3))], [F(1)])
    assert got == [
        iset((0, F(1, 2)), (F(1, 2), F(3, 2))),
        iset((F(3, 2), 2)),
        iset((2, 3)),
    ]
    # the forbidden point sits inside a piece contained in both inputs? no:
    # only the first input contains 1, and its piece stays inside it alone
    nib = got[0]
    assert nib.contains(1)
    assert nib.subset_of(iset((0, 2)))


def test_disjointify_disjoint_inputs_pass_through():
    a, b = iset((0, 1)), iset((2, 3))
    assert disjointify([a, b], []) == [a, b]
    assert disjointify([], [F(1)]) == []


def test_disjointify_identical_inputs_collapse():
    got = disjointify([iset((0, 2)), iset((0, 2))], [])
    assert got == [iset((0, 2))]


def _total_length(s: IntervalSet) -> Fraction:
    return sum((hi - lo for lo, hi in s.intervals), F(0))


@pytest.mark.parametrize("seed", range(40))
def test_disjointify_postconditions(seed):
    rng = random.Random(9000 + seed)
    sets = instances.random_interval_family(rng)
    forbidden = [F(rng.randint(-16, 50), 2) for _ in range(rng.randint(0, 4))]
    out = disjointify(sets, forbidden)

    for i, a in enumerate(out):
        for b in out[i + 1 :]:
            assert intervalsets_disjoint(a, b)

    for piece in out:
        held = [e for e in forbidden if piece.contains(e)]
        for s in sets:
            if held:
                for e in held:
                    if s.contains(e):
                        assert piece.subset_of(s)
            else:
                assert piece.intersect(s).is_empty or piece.subset_of(s)

    union_in = canonicalize([iv for s in sets for iv in s.intervals])
    assert sum((_total_length(p) for p in out), F(0)) == _total_length(union_in)
    for piece in out:
        assert piece.subset_of(union_in)
    for e in forbidden:
        if union_in.contains(e):
            assert any(p.contains(e) for p in out)


# -- grids -----------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid((iset((0, 2)), iset((1, 3))), (iset((0, 1)),))
    with pytest.raises(ParameterError):
        Grid((IntervalSet(()),), (iset((0, 1)),))
    Grid((iset((0, 1)), iset((1, 2))), (iset((0, 1)),))


def test_grid_cells(grid):
    cell = grid.cell(0, 1)
    assert cell == BoxSet((Box((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))),))
    assert len(list(grid.cells())) == 4
    multi = Grid((iset((0, 1), (2, 3)),), (iset((0, 1)),))
    assert len(multi.cell(0, 0).boxes) == 2


def per_cell_masses(m: Measure, grid: Grid) -> dict:
    return {ix: m.eval(cell) for ix, cell in grid.cells()}


def test_cell_masses_bin_atoms_on_endpoints_out():
    # atoms on every piece endpoint, inside pieces, in gaps and outside
    x = SpaceDesc(tuple(Atom(f"x{i}", F(c, 2)) for i, c in enumerate(range(-1, 9))))
    y = SpaceDesc((Atom("y0", 0), Atom("y1", F(1, 2)), Atom("y2", 1), Atom("y3", F(3, 2))))
    product = ProductSpace(x, y)
    m = Measure(product, {k: F(1, len(product.keys)) for k in product.keys})
    grid = Grid((iset((0, 1), (2, 3)), iset((1, 2)), iset((3, F(7, 2)))), (iset((0, 1)),))
    masses = grid.cell_masses(m)
    assert masses == per_cell_masses(m, grid)
    # (0, 1) and (2, 3) hold 1/2 and 5/2; (1, 2) holds 3/2; (3, 7/2) holds none
    assert masses == {(0, 0): F(2, 40), (1, 0): F(1, 40), (2, 0): F(0)}
    with pytest.raises(ParameterError):
        grid.cell_masses(Measure(x, {"x0": F(1)}))


def endpoint_space(prefix: str, pieces) -> SpaceDesc:
    """Atoms on every piece endpoint, on every midpoint between, and beyond both ends."""
    ends = sorted({e for p in pieces for e in p.endpoints()}) or [F(0)]  # a grid may be empty
    mids = {(a + b) / 2 for a, b in pairwise(ends)}
    coords = sorted(set(ends) | mids | {ends[0] - 1, ends[-1] + 1})
    return SpaceDesc(tuple(Atom(f"{prefix}{i}", c) for i, c in enumerate(coords)))


@pytest.mark.parametrize("seed", range(40))
def test_cell_masses_match_per_cell_eval(seed):
    rng = random.Random(93000 + seed)
    ref, grid = instances.random_instance(rng)
    assert grid.cell_masses(ref) == per_cell_masses(ref, grid)

    # a plain grid, with atoms placed exactly on its piece endpoints
    grid = instances.random_grid(rng)
    product = ProductSpace(endpoint_space("x", grid.cols), endpoint_space("y", grid.rows))
    ref = instances.random_joint(rng, product)
    assert grid.cell_masses(ref) == per_cell_masses(ref, grid)

    # refined grids, whose pieces may hold several intervals
    product = instances.random_product(rng)
    ref = instances.random_joint(rng, product)
    rr = refine_grid(ref, instances.random_disjoint_targets(rng), F(1, 6))
    assert rr.grid.cell_masses(ref) == per_cell_masses(ref, rr.grid)
    fresh = ProductSpace(endpoint_space("x", rr.grid.cols), endpoint_space("y", rr.grid.rows))
    other = instances.random_joint(rng, fresh)
    assert rr.grid.cell_masses(other) == per_cell_masses(other, rr.grid)


def test_refine_result_validation(grid):
    with pytest.raises(ParameterError):
        RefineResult(grid, 0, {})
    rr = RefineResult(grid, F(1, 8), {(0, 0): 1, (0, 1): None, (1, 0): 0})
    assert rr.owned() == [((0, 0), 1), ((1, 0), 0)]


# -- inner approximation ---------------------------------------------------


def test_rect_inner_approx_keeps_support_boxes(reference):
    target = BoxSet(
        (
            Box((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))),
            Box((5, 6), (5, 6)),
        )
    )
    inner = rect_inner_approx(reference, target)
    assert inner == BoxSet(target.boxes[:1])
    # zero mass defect
    assert reference.eval(target) == reference.eval(inner)
    with pytest.raises(ParameterError):
        rect_inner_approx(reference.push_proj(1), target)


@pytest.mark.parametrize("seed", range(25))
def test_rect_inner_approx_zero_defect(seed):
    rng = random.Random(31337 + seed)
    product = instances.random_product(rng)
    ref = instances.random_joint(rng, product)
    target = BoxSet(tuple(instances.random_box(rng) for _ in range(rng.randint(1, 3))))
    inner = rect_inner_approx(ref, target)
    assert boxset_within(inner, target)
    assert ref.eval(target) == ref.eval(inner)


# -- refinement ------------------------------------------------------------


def test_refine_grid_worked(reference, targets):
    rr = refine_grid(reference, targets, F(1, 5))
    assert rr.delta == F(1, 40)
    assert rr.owner == {(0, 0): 0, (0, 1): None, (1, 0): None, (1, 1): 1}
    for i, target in enumerate(targets):
        owned = sum(
            (reference.eval(rr.grid.cell(*ix)) for ix, o in rr.owner.items() if o == i),
            F(0),
        )
        assert owned == reference.eval(target)


def test_refine_grid_rejects_overlapping_targets(reference):
    box = Box((-1, 1), (-1, 1))
    overlapping = [BoxSet((box,)), BoxSet((Box((0, 2), (0, 2)),))]
    with pytest.raises(ParameterError):
        refine_grid(reference, overlapping, F(1, 5))
    with pytest.raises(ParameterError):
        refine_grid(reference, [BoxSet((box,))], 0)


def test_refine_grid_unsupported_target_owns_nothing(reference):
    # no reference mass in the target: nothing to protect, coarse delta
    far = BoxSet((Box((7, 8), (7, 8)),))
    rr = refine_grid(reference, [far], F(1, 5))
    assert rr.owned() == []
    assert rr.delta == F(1, 20)
    assert reference.eval(far) == 0


@pytest.mark.parametrize("seed", range(30))
def test_refine_grid_splits_masses_exactly(seed):
    rng = random.Random(60000 + seed)
    product = instances.random_product(rng)
    ref = instances.random_joint(rng, product)
    targets = instances.random_disjoint_targets(rng)
    rr = refine_grid(ref, targets, F(1, 6))

    # (iii) axis projections of cells are equal or disjoint, literally
    for pieces in (rr.grid.cols, rr.grid.rows):
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                assert a == b or intervalsets_disjoint(a, b)

    # (i) each target's mass splits exactly over the cells it owns
    for i, target in enumerate(targets):
        cells = [rr.grid.cell(*ix) for ix, o in rr.owner.items() if o == i]
        for cell in cells:
            assert boxset_within(cell, target)
        assert sum((ref.eval(c) for c in cells), F(0)) == ref.eval(target)
