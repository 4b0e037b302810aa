"""Shared instance builders for the test suites.

Three kinds of material live here.  The worked two-by-two example is the
hand-checkable fixture every suite leans on: a reference joint with mass
1/2 on each diagonal pair of a two-atom square, and a perturbed first
marginal that moves one tenth of mass between the atoms.  The perturbation
makes the instance asymmetric: the two diagonal cells rescale by different
ratios, so a wrong combination rule (max instead of min) overdraws a
marginal and detection tests have something to detect.

The rest are randomized generators.  Every one takes an explicit
``random.Random`` so runs replay exactly; none touches global state.
Weights come from integer compositions of a smooth denominator, which
keeps denominators bounded and leaves some atoms at weight zero so thin
supports show up on their own.

Last, :func:`per_cell_preimage` is a second route to the coupling
construction.  It takes every cell mass by ``eval`` on the cell itself and
accepts any rule for combining a cell's two rescalings.  Under ``max``
(:func:`broken_preimage`) it is the unsound construction that mutation
tests put in place of ``margcouple.verify.construct_preimage``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from margcouple import (
    Atom,
    Box,
    BoxSet,
    CellAlloc,
    Grid,
    HypothesisError,
    IntervalSet,
    Measure,
    NegativeWeightError,
    PreimageReport,
    ProductSpace,
    SpaceDesc,
    boxsets_disjoint,
    couple_mass,
    tensor,
)

F = Fraction

HALF = F(1, 2)


# -- the worked two-by-two example ----------------------------------------


def worked_spaces():
    x = SpaceDesc((Atom("a", 0), Atom("b", 1)))
    y = SpaceDesc((Atom("c", 0), Atom("d", 1)))
    return x, y


def worked_reference() -> Measure:
    x, y = worked_spaces()
    return Measure(ProductSpace(x, y), {("a", "c"): HALF, ("b", "d"): HALF})


def worked_grid() -> Grid:
    pieces = (IntervalSet.single(-HALF, HALF), IntervalSet.single(HALF, F(3, 2)))
    return Grid(pieces, pieces)


def worked_targets() -> list[BoxSet]:
    low = Box((-HALF, HALF), (-HALF, HALF))
    high = Box((HALF, F(3, 2)), (HALF, F(3, 2)))
    return [BoxSet((low,)), BoxSet((high,))]


def worked_perturbed():
    x, y = worked_spaces()
    mu = Measure(x, {"a": F(2, 5), "b": F(3, 5)})
    nu = Measure(y, {"c": HALF, "d": HALF})
    return mu, nu


WORKED_COUPLING = {("a", "c"): F(2, 5), ("b", "c"): F(1, 10), ("b", "d"): HALF}


# -- randomized instances --------------------------------------------------

# smooth denominators keep composed weights at small exact fractions
_DENOMS = (6, 12, 24, 30, 60)


def random_space(rng: random.Random, prefix: str, max_atoms: int = 6) -> SpaceDesc:
    n = rng.randint(1, max_atoms)
    coords = sorted(rng.sample(range(-6, 19), n))
    unit = rng.choice((F(1), HALF))
    return SpaceDesc(tuple(Atom(f"{prefix}{i}", c * unit) for i, c in enumerate(coords)))


def random_product(rng: random.Random, max_atoms: int = 6) -> ProductSpace:
    return ProductSpace(
        random_space(rng, "x", max_atoms), random_space(rng, "y", max_atoms)
    )


def _composition(rng: random.Random, slots: int, denom: int) -> list[Fraction]:
    cuts = sorted(rng.randrange(denom + 1) for _ in range(slots - 1))
    edges = [0, *cuts, denom]
    return [F(b - a, denom) for a, b in zip(edges, edges[1:])]


def random_prob_measure(rng: random.Random, space: SpaceDesc, denom: int | None = None) -> Measure:
    d = denom or rng.choice(_DENOMS)
    parts = _composition(rng, len(space.atoms), d)
    return Measure(space, dict(zip(space.keys, parts)))


def random_joint(rng: random.Random, product: ProductSpace, denom: int | None = None) -> Measure:
    d = denom or rng.choice(_DENOMS)
    parts = _composition(rng, len(product.keys), d)
    return Measure(product, dict(zip(product.keys, parts)))


def random_axis_pieces(rng: random.Random, max_pieces: int = 4) -> tuple[IntervalSet, ...]:
    """Pairwise disjoint interval sets for one grid axis.

    Half the time the pieces tile a range with shared endpoints (open
    pieces touching at a cut stay disjoint), otherwise gaps separate
    them; occasionally the last span fuses onto an earlier piece so
    multi-interval pieces appear too.
    """
    n = rng.randint(1, max_pieces)
    unit = F(1, rng.choice((1, 2, 4)))
    if rng.random() < 0.5:
        pts = sorted(rng.sample(range(-8, 25), n + 1))
        spans = [(pts[i] * unit, pts[i + 1] * unit) for i in range(n)]
    else:
        pts = sorted(rng.sample(range(-8, 25), 2 * n))
        spans = [(pts[2 * i] * unit, pts[2 * i + 1] * unit) for i in range(n)]
    pieces = [IntervalSet.single(lo, hi) for lo, hi in spans]
    if len(pieces) >= 2 and rng.random() < 0.25:
        tail = pieces.pop()
        k = rng.randrange(len(pieces))
        pieces[k] = IntervalSet(pieces[k].intervals + tail.intervals)
    return tuple(pieces)


def random_grid(rng: random.Random, max_side: int = 4) -> Grid:
    return Grid(random_axis_pieces(rng, max_side), random_axis_pieces(rng, max_side))


def random_instance(rng: random.Random):
    """A joint reference and a grid over compatible coordinates."""
    product = random_product(rng)
    return random_joint(rng, product), random_grid(rng)


def random_box(rng: random.Random) -> Box:
    unit = F(1, rng.choice((1, 2)))
    x = sorted(rng.sample(range(-8, 25), 2))
    y = sorted(rng.sample(range(-8, 25), 2))
    return Box((x[0] * unit, x[1] * unit), (y[0] * unit, y[1] * unit))


def random_disjoint_targets(rng: random.Random, max_targets: int = 3) -> list[BoxSet]:
    """Pairwise disjoint box unions, by bounded rejection.

    The lattice is sparse enough that disjoint draws are common; if fifty
    attempts never extend the family the current one is returned, so a
    single target is the worst case.
    """
    want = rng.randint(1, max_targets)
    targets: list[BoxSet] = []
    for _ in range(50):
        if len(targets) == want:
            break
        candidate = BoxSet(tuple(random_box(rng) for _ in range(rng.randint(1, 2))))
        if all(boxsets_disjoint(candidate, t) for t in targets):
            targets.append(candidate)
    return targets or [BoxSet((random_box(rng),))]


def random_nested_intervals(rng: random.Random) -> tuple[IntervalSet, IntervalSet]:
    """An outer interval set and an inner subset of it.

    A quarter of the time they coincide, so empty differences get
    exercised; otherwise the inner interval sits strictly between four
    sorted cuts.
    """
    unit = F(1, rng.choice((1, 2)))
    if rng.random() < 0.25:
        lo, hi = sorted(rng.sample(range(-8, 25), 2))
        outer = IntervalSet.single(lo * unit, hi * unit)
        return outer, outer
    a, b, c, d = sorted(rng.sample(range(-8, 25), 4))
    outer = IntervalSet.single(a * unit, d * unit)
    inner = IntervalSet.single(b * unit, c * unit)
    return outer, inner


def random_line_set(rng: random.Random, anchors) -> IntervalSet:
    """An interval set of zero to three intervals, unrelated to any other draw.

    About half the endpoints are taken from ``anchors`` (pass atom
    coordinates to put atoms exactly on endpoints), the rest from a half
    lattice.  A third of the multi-interval draws abut, sharing endpoints.
    """
    n = rng.randint(0, 3)
    pool = {F(c, 2) for c in rng.sample(range(-16, 50), 8)}
    pool.update(a for a in anchors if rng.random() < 0.5)
    pool = sorted(pool)
    if n > 1 and rng.random() < 1 / 3:
        pts = sorted(rng.sample(pool, n + 1))
        return IntervalSet(tuple(zip(pts, pts[1:])))
    pts = sorted(rng.sample(pool, 2 * n))
    return IntervalSet(tuple(zip(pts[::2], pts[1::2])))


def random_interval_family(rng: random.Random, max_sets: int = 4) -> list[IntervalSet]:
    """Possibly overlapping interval sets, raw material for disjointify."""
    out = []
    for _ in range(rng.randint(1, max_sets)):
        unit = F(1, rng.choice((1, 2)))
        lo, hi = sorted(rng.sample(range(-8, 25), 2))
        out.append(IntervalSet.single(lo * unit, hi * unit))
    return out


# -- benchmark-sized instances ---------------------------------------------


def sparse_reference(rng: random.Random, n: int, density: Fraction) -> Measure:
    """An n × n reference on round(density·n²) support pairs.

    Atom i of each axis lies strictly inside (i, i + 1), so grids and boxes
    cut at integers place every atom strictly inside or outside.
    """
    x, y = (
        SpaceDesc(tuple(Atom(f"{p}{i}", i + F(rng.randrange(1, 8), 8)) for i in range(n)))
        for p in "xy"
    )
    picked = sorted(rng.sample(range(n * n), max(1, round(density * n * n))))
    raw = {(f"x{c // n}", f"y{c % n}"): rng.randint(1, 9) for c in picked}
    total = sum(raw.values())
    return Measure(ProductSpace(x, y), {k: F(r, total) for k, r in raw.items()})


def _cuts(n: int, k: int) -> list[int]:
    return [round(j * n / k) for j in range(k + 1)]


def block_grid(n: int, k: int) -> Grid:
    """A k × k grid of integer blocks over [0, n]."""
    cuts = _cuts(n, k)
    pieces = tuple(IntervalSet.single(a, b) for a, b in zip(cuts, cuts[1:]))
    return Grid(pieces, pieces)


def tile_targets(rng: random.Random, n: int, count: int) -> list[BoxSet]:
    """count disjoint targets, each two tiles of a 4 × 4 lattice of open boxes over [0, n]²."""
    c = _cuts(n, 4)
    tiles = [Box((c[a], c[a + 1]), (c[b], c[b + 1])) for a in range(4) for b in range(4)]
    rng.shuffle(tiles)
    return [BoxSet(tuple(tiles[2 * t : 2 * t + 2])) for t in range(count)]


def perturbed_probability(rng: random.Random, m: Measure) -> Measure:
    """m with each weight moved by at most a tenth, renormalised to mass 1."""
    raw = {k: w * (20 + rng.randint(-2, 2)) for k, w in m.weights.items()}
    total = sum(raw.values())
    return Measure(m.space, {k: w / total for k, w in raw.items()})


# -- the construction, cell by cell ----------------------------------------


def per_cell_preimage(reference, grid, mu, nu, alpha_rule=min) -> PreimageReport:
    """The construction with every cell mass taken by ``eval`` on the cell itself.

    Its errors carry the library's messages word for word, so a certify run
    that substitutes it records the same violations.
    """
    ref_cols = [reference.push_proj(1).eval(c) for c in grid.cols]
    ref_rows = [reference.push_proj(2).eval(r) for r in grid.rows]
    new_cols = [mu.eval(c) for c in grid.cols]
    new_rows = [nu.eval(r) for r in grid.rows]
    grid_part = Measure.zero(ProductSpace(mu.space, nu.space))
    allocs, ref_mass = {}, {}
    for (q, s), cell in grid.cells():
        ref_mass[q, s] = m = reference.eval(cell)
        if m == 0:
            allocs[q, s] = CellAlloc(F(0), F(0), F(0))
            continue
        col, row = m * new_cols[q] / ref_cols[q], m * new_rows[s] / ref_rows[s]
        kept = alpha_rule(col, row)
        allocs[q, s] = CellAlloc(col, row, kept)
        if kept:
            if not (new_cols[q] and new_rows[s]):
                raise HypothesisError(
                    f"cell ({q}, {s}) was granted mass {kept} from a massless column or row"
                )
            piece = tensor(
                mu.restrict(grid.cols[q]).scale(1 / new_cols[q]),
                nu.restrict(grid.rows[s]).scale(1 / new_rows[s]),
            )
            grid_part = grid_part + piece.scale(kept)
    try:
        rests = [m - grid_part.push_proj(axis) for axis, m in ((1, mu), (2, nu))]
    except NegativeWeightError as exc:
        raise HypothesisError(f"cell couplings overdraw a marginal: {exc}") from exc
    remainder = couple_mass(*rests)
    coupling = grid_part + remainder
    drops = {ix: coupling.eval(grid.cell(*ix)) - ref_mass[ix] for ix in ref_mass}
    return PreimageReport(coupling, grid_part, remainder, allocs, drops)


def broken_preimage(reference, grid, mu, nu) -> PreimageReport:
    """The construction under the unsound ``max`` rule, which overdraws marginals."""
    return per_cell_preimage(reference, grid, mu, nu, alpha_rule=max)
