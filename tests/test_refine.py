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
from hypothesis import example, given, settings, strategies as st

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
    boxsets_disjoint,
    canonicalize,
    disjointify,
    intervalsets_disjoint,
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


def midpoint_disjointify(sets, forbidden) -> list[IntervalSet]:
    """disjointify by Fraction midpoints and ``contains`` probes, the route the slot masks replace."""
    sets = list(sets)
    if not sets:
        return []
    forb = {F(c) for c in forbidden}
    ends = sorted({e for s in sets for e in s.endpoints()})

    def family_at(p) -> frozenset:
        return frozenset(i for i, s in enumerate(sets) if s.contains(p))

    nibbles = {}
    fams = {e: family_at(e) for e in ends if e in forb}
    if any(fams.values()):
        relevant = sorted(forb.union(ends))
        for e, fam in fams.items():
            if fam:
                j = relevant.index(e)
                nibbles[e] = ((relevant[j - 1] + e) / 2, (e + relevant[j + 1]) / 2, fam)
    pieces = []
    for u, v in pairwise(ends):
        fam = family_at((u + v) / 2)
        if not fam:
            continue
        lo = nibbles[u][1] if u in nibbles else u
        hi = nibbles[v][0] if v in nibbles else v
        if lo < hi:
            pieces.append((lo, hi, fam))
    pieces.extend(nibbles.values())
    groups: dict = {}
    for lo, hi, fam in pieces:
        groups.setdefault(fam, []).append((lo, hi))
    out = [IntervalSet(tuple(sorted(ivs))) for ivs in groups.values()]
    return sorted(out, key=lambda s: s.intervals[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_disjointify_equals_the_midpoint_route(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        sets = instances.random_interval_family(rng)
    else:  # several intervals per input, abutting a third of the time
        sets = [instances.random_line_set(rng, ()) for _ in range(rng.randint(1, 4))]
    ends = sorted({e for s in sets for e in s.endpoints()}) or [F(0)]
    # forbidden on endpoints (nibbles), between and beside them, repeats and all
    pool = ends + [(a + b) / 2 for a, b in pairwise(ends)] + [e + F(1, 7) for e in ends]
    forbidden = [rng.choice(pool) for _ in range(rng.randint(0, 8))] + [rng.randint(-10, 30)]
    assert disjointify(sets, forbidden) == midpoint_disjointify(sets, forbidden)


# -- grids -----------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid((iset((0, 2)), iset((1, 3))), (iset((0, 1)),))
    with pytest.raises(ParameterError):
        Grid((IntervalSet(()),), (iset((0, 1)),))
    Grid((iset((0, 1)), iset((1, 2))), (iset((0, 1)),))


def pairwise_grid_error(cols, rows) -> str | None:
    """The error ``Grid(cols, rows)`` must raise, from pairwise ``intervalsets_disjoint``."""
    for pieces, label in ((cols, "column"), (rows, "row")):
        if any(p.is_empty for p in pieces):
            return f"empty {label} piece in grid"
        for i, a in enumerate(pieces):
            if any(not intervalsets_disjoint(a, b) for b in pieces[i + 1 :]):
                return f"grid {label} pieces must be pairwise disjoint"
    return None


@st.composite
def grid_pieces(draw) -> list[IntervalSet]:
    """Pieces cut from one row of abutting or spaced intervals, then maybe made to clash.

    Each piece takes any of the intervals, so multi-interval pieces
    interleave; a piece that takes none is empty, and is sometimes kept.
    A clash copies one interval into another piece, or adds a free interval
    that may nest in, overlap, abut or miss the others.
    """
    coord = st.builds(F, st.integers(0, 24), st.sampled_from((1, 2, 3)))
    ends = sorted(draw(st.sets(coord, max_size=8)))
    ivs = [iv for iv in pairwise(ends) if draw(st.booleans())]
    raw: list[list] = [[] for _ in range(draw(st.integers(0, 4)))]
    if raw:
        for iv in ivs:
            raw[draw(st.integers(0, len(raw) - 1))].append(iv)
        for _ in range(draw(st.integers(0, 2))):
            into = draw(st.integers(0, len(raw) - 1))
            if ivs and draw(st.booleans()):
                raw[into].append(draw(st.sampled_from(ivs)))
            else:
                lo, hi = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                raw[into].append((lo, hi))
    # an empty piece hides every overlap on its axis, so keep one in four
    return [canonicalize(p) for p in raw if p or not draw(st.integers(0, 3))]


# one interval in two pieces; nested; overlapping; abutting (accepted); interleaved
# multi-interval pieces, disjoint and clashing; empty pieces with overlaps on both
# axes, in each order of precedence; no pieces at all
@example([iset((0, 1)), iset((0, 1))], [iset((0, 1))])
@example([iset((0, 3)), iset((1, 2))], [iset((0, 1))])
@example([iset((0, 1))], [iset((0, 2)), iset((1, 3))])
@example([iset((0, 1)), iset((1, 2))], [iset((1, 2)), iset((0, 1))])
@example([iset((0, 1), (2, 3)), iset((1, 2), (3, 4))], [iset((0, 1))])
@example([iset((0, 1), (2, 3)), iset((1, 2), (F(5, 2), 4))], [iset((0, 1))])
@example([iset((0, 2)), iset((1, 3)), iset()], [iset(), iset((0, 2)), iset((0, 1))])
@example([iset((0, 2)), iset((1, 3))], [iset()])
@example([iset((0, 1))], [iset((0, 2)), iset((1, 3)), iset()])
@example([], [])
@example([], [iset((0, 2)), iset((1, 3))])
@settings(max_examples=300, deadline=None)
@given(grid_pieces(), grid_pieces())
def test_grid_accepts_exactly_pairwise_disjoint_pieces(cols, rows):
    want = pairwise_grid_error(cols, rows)
    if want is None:
        assert Grid(cols, rows).cols == tuple(cols)
    else:
        with pytest.raises(ParameterError) as err:
            Grid(cols, rows)
        assert str(err.value) == want


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
    owner = {(0, 0): 1, (0, 1): None, (1, 0): 0}
    assert RefineResult(grid, F(1, 8), owner).owner == owner


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
    with pytest.raises(ParameterError) as exc:
        refine_grid(reference.push_proj(1), [BoxSet((box,))], F(1, 5))
    assert str(exc.value) == "refine_grid needs a product measure"
    # an interval set is no target, whether alone or beside a box set
    for targets in ([IntervalSet.single(-1, 1)], [BoxSet((box,)), IntervalSet.single(5, 6)]):
        with pytest.raises(ParameterError) as exc:
            refine_grid(reference, targets, F(1, 5))
        assert str(exc.value) == "targets must be box sets"


def test_refine_grid_unsupported_target_owns_nothing(reference):
    # no reference mass in the target: nothing to protect, coarse delta
    far = BoxSet((Box((7, 8), (7, 8)),))
    rr = refine_grid(reference, [far], F(1, 5))
    assert set(rr.owner.values()) <= {None}
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


# -- the pointwise route ---------------------------------------------------


def pointwise_refine(ref: Measure, targets: list[BoxSet], eps0):
    """refine_grid's inner approximations, grid, delta and owner by point tests.

    Every support point is tested against every target box with
    ``coord_of`` and ``Box.contains``, and every support coordinate is
    passed to ``disjointify`` as forbidden, repeats and all.
    """
    points = [ref.space.coord_of(k) for k in ref.weights]
    inner = [BoxSet(tuple(b for b in t.boxes if any(b.contains(p) for p in points))) for t in targets]
    boxes = [b for approx in inner for b in approx.boxes]
    cols = disjointify(
        [IntervalSet.single(*iv) for iv in dict.fromkeys(b.col for b in boxes)], [x for x, _ in points]
    )
    rows = disjointify(
        [IntervalSet.single(*iv) for iv in dict.fromkeys(b.row for b in boxes)], [y for _, y in points]
    )
    grid = Grid(tuple(cols), tuple(rows))
    owner = {
        ix: next((i for i, t in enumerate(targets) if boxset_within(cell, t)), None)
        for ix, cell in grid.cells()
    }
    m = sum(o is not None for o in owner.values())
    return inner, grid, eps0 / (4 * m) if m else eps0 / 4, owner


def edge_targets(rng: random.Random, ref: Measure) -> list[BoxSet]:
    """Disjoint targets whose box edges sit on support coordinates about half the time.

    Many boxes hold no support atom; the last target lies beyond every atom.
    """
    xs = [a.coord for a in ref.space.x.atoms]
    ys = [a.coord for a in ref.space.y.atoms]

    def span(coords):
        ends = set()
        while len(ends) < 2:
            ends.add(rng.choice(coords) if rng.random() < 0.5 else F(rng.randrange(-16, 50), 2))
        return tuple(sorted(ends))

    targets: list[BoxSet] = []
    want = rng.randint(1, 4)
    for _ in range(50):
        if len(targets) == want:
            break
        candidate = BoxSet(tuple(Box(span(xs), span(ys)) for _ in range(rng.randint(1, 3))))
        if all(boxsets_disjoint(candidate, t) for t in targets):
            targets.append(candidate)
    return targets + [BoxSet((Box((40, 41), (40, 41)),))]


@pytest.mark.parametrize("seed", range(40))
def test_refine_grid_matches_pointwise_route(seed):
    rng = random.Random(61000 + seed)
    ref = instances.random_joint(rng, instances.random_product(rng))
    targets = edge_targets(rng, ref) if seed % 2 else instances.random_disjoint_targets(rng)
    _, grid, delta, owner = pointwise_refine(ref, targets, F(1, 6))
    rr = refine_grid(ref, targets, F(1, 6))
    assert (rr.grid, rr.delta, rr.owner) == (grid, delta, owner)


def test_refine_grid_pointwise_on_edges():
    # atoms on a 4 x 4 lattice; box edges run through atoms, one of them in the support
    x = SpaceDesc(tuple(Atom(f"x{i}", i) for i in range(4)))
    y = SpaceDesc(tuple(Atom(f"y{i}", i) for i in range(4)))
    weights = {("x1", "y1"): F(1, 2), ("x1", "y3"): F(1, 4), ("x3", "y3"): F(1, 4)}
    ref = Measure(ProductSpace(x, y), weights)
    targets = [
        BoxSet((Box((0, 2), (0, 2)), Box((0, 1), (0, 1)))),  # the first holds (1, 1); the second nothing
        BoxSet((Box((2, 4), (2, 4)),)),  # holds (3, 3)
        BoxSet((Box((1, 2), (2, 3)),)),  # (1, 3) is its corner: no support inside
    ]
    inner, grid, delta, owner = pointwise_refine(ref, targets, F(1, 5))
    assert inner == [BoxSet(targets[0].boxes[:1]), targets[1], BoxSet(())]
    rr = refine_grid(ref, targets, F(1, 5))
    assert (rr.grid, rr.delta, rr.owner) == (grid, delta, owner)
    assert {ix: o for ix, o in rr.owner.items() if o is not None} == {(0, 0): 0, (1, 1): 1}
    assert rr.delta == F(1, 40)


def test_refine_grid_midpoint_target_need_not_own_the_cell():
    # the first target's second box holds no atom, so it is no grid input; it
    # holds the midpoint (2, 1/2) of cell (1, 0) = (1, 3) x (0, 1), which the
    # target does not cover
    x = SpaceDesc((Atom("x0", F(1, 2)), Atom("x1", F(5, 4))))
    y = SpaceDesc((Atom("y0", F(1, 2)), Atom("y1", F(11, 2))))
    ref = Measure(ProductSpace(x, y), {("x0", "y0"): F(1, 2), ("x1", "y1"): F(1, 2)})
    targets = [
        BoxSet((Box((0, 1), (0, 1)), Box((F(3, 2), 4), (0, 1)))),
        BoxSet((Box((1, 3), (5, 6)),)),
    ]
    rr = refine_grid(ref, targets, F(1, 5))
    assert rr.grid.cell(1, 0) == BoxSet((Box((1, 3), (0, 1)),))
    assert targets[0].contains((F(2), F(1, 2)))
    assert rr.owner == {(0, 0): 0, (0, 1): None, (1, 0): None, (1, 1): 1}
    assert rr.owner == pointwise_refine(ref, targets, F(1, 5))[3]


def test_refine_grid_cells_of_multi_interval_pieces():
    # (0, 3) and (1, 2) split the x axis into the pieces (0, 1) u (2, 3) and (1, 2)
    x = SpaceDesc(tuple(Atom(f"x{i}", F(c, 2)) for i, c in enumerate((1, 3, 5))))
    y = SpaceDesc(tuple(Atom(f"y{i}", F(c, 2)) for i, c in enumerate((1, 3, 5))))
    keys = [("x0", "y0"), ("x1", "y1"), ("x2", "y0"), ("x2", "y2")]
    ref = Measure(ProductSpace(x, y), dict.fromkeys(keys, F(1, 4)))
    targets = [
        BoxSet((Box((0, 3), (0, 1)),)),
        BoxSet((Box((1, 2), (1, 2)),)),
        # holds no atom, but the midpoint of cell (0, 1)'s first box, (0, 1) x (1, 2)
        BoxSet((Box((0, 1), (1, 2)),)),
    ]
    rr = refine_grid(ref, targets, F(1, 5))
    assert rr.grid.cols == (iset((0, 1), (2, 3)), iset((1, 2)))
    assert rr.grid.cell(0, 1) == BoxSet((Box((0, 1), (1, 2)), Box((2, 3), (1, 2))))
    assert rr.owner == {(0, 0): 0, (0, 1): None, (1, 0): 0, (1, 1): 1}
    assert rr.owner == pointwise_refine(ref, targets, F(1, 5))[3]
    assert rr.delta == F(1, 60)


def lattice_targets(rng: random.Random, ref: Measure, disjoint: bool) -> list[BoxSet]:
    """Targets on few ends, support coordinates among them: boxes abut, overlap and miss the support.

    Some targets are two overlapping boxes on one row, so a cell may lie in
    their union only.

    With ``disjoint`` a target that meets an earlier one is dropped, so the
    rest abut at most; otherwise targets overlap as they fall.
    """

    def pool(space: SpaceDesc) -> list:
        coords = {a.coord for a in space.atoms} | {F(rng.randrange(-14, 40), 2) for _ in range(3)}
        return sorted(coords | {F(-8), F(21)})

    xs, ys = pool(ref.space.x), pool(ref.space.y)
    targets: list[BoxSet] = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.3 and len(xs) > 3:  # a chain of overlapping boxes on one row
            row, cuts = tuple(sorted(rng.sample(ys, 2))), sorted(rng.sample(xs, 4))
            boxes = (Box((cuts[0], cuts[2]), row), Box((cuts[1], cuts[3]), row))
        else:
            boxes = tuple(
                Box(tuple(sorted(rng.sample(xs, 2))), tuple(sorted(rng.sample(ys, 2))))
                for _ in range(rng.randint(1, 3))
            )
        if not disjoint or all(boxsets_disjoint(BoxSet(boxes), t) for t in targets):
            targets.append(BoxSet(boxes))
    return targets


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_refine_grid_equals_pointwise_refine(seed, disjoint):
    rng = random.Random(seed)
    ref = instances.random_joint(rng, instances.random_product(rng))
    targets = lattice_targets(rng, ref, disjoint)
    if all(boxsets_disjoint(a, b) for i, a in enumerate(targets) for b in targets[i + 1 :]):
        _, grid, delta, owner = pointwise_refine(ref, targets, F(1, 6))
        rr = refine_grid(ref, targets, F(1, 6))
        assert (rr.grid, rr.delta, rr.owner) == (grid, delta, owner)
    else:
        with pytest.raises(ParameterError) as exc:
            refine_grid(ref, targets, F(1, 6))
        assert str(exc.value) == "targets must be pairwise disjoint"


@settings(max_examples=60, deadline=None)
@given(*[st.builds(F, st.integers(1, 10**9), st.integers(1, 10**9)) for _ in range(2)],
       *[st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**9)) for _ in range(2)])
def test_refine_grid_cell_covered_only_jointly(sx, sy, tx, ty):
    # (1, 3) x (0, 1) lies in the first target's two massless boxes together,
    # in neither alone; the second target's column (0, 3) makes it a cell.
    # Each axis is moved by a positive affine map, which keeps the geometry.
    def fx(c):
        return sx * c + tx

    def fy(c):
        return sy * c + ty

    def box(col, row):
        return Box(tuple(map(fx, col)), tuple(map(fy, row)))

    x = SpaceDesc((Atom("x0", fx(F(1, 2))),))
    y = SpaceDesc((Atom("y0", fy(F(1, 2))), Atom("y1", fy(F(11, 2)))))
    ref = Measure(ProductSpace(x, y), {("x0", "y0"): F(1, 2), ("x0", "y1"): F(1, 2)})
    targets = [
        BoxSet((box((0, 1), (0, 1)), box((F(1, 2), 2), (0, 1)), box((F(3, 2), 3), (0, 1)))),
        BoxSet((box((0, 3), (5, 6)),)),
    ]
    rr = refine_grid(ref, targets, F(1, 5))
    assert rr.grid.cell(1, 0) == BoxSet((box((1, 3), (0, 1)),))
    assert not any(boxset_within(rr.grid.cell(1, 0), BoxSet((b,))) for b in targets[0].boxes)
    assert rr.owner == {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}
    assert rr.owner == pointwise_refine(ref, targets, F(1, 5))[3]
    assert rr.delta == F(1, 80)
