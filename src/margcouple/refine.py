"""Grid refinement of finitely many disjoint product open sets.

Given a reference product measure and pairwise disjoint open target sets,
:func:`refine_grid` builds a grid of product cells, pieces of columns times
pieces of rows, together with a tolerance delta such that perturbing the
reference by less than delta on every cell keeps it inside the original
targets' neighborhoods.  Three facts about the output carry the whole
construction and are asserted by the test suite:

  (i)  each target's mass is exactly the sum over the cells it owns,
  (ii)  members of the cell neighborhood at delta stay members of the
        target neighborhood at the requested tolerance,
  (iii) projections of two cells onto an axis are equal or disjoint.

Fact (iii) is automatic here because cells are products drawn from one list
of pairwise disjoint column pieces and one list of row pieces.  Fact (i)
depends on the cut discipline of :func:`disjointify`: cuts never land on a
support coordinate, and the piece containing a support coordinate lies
inside every input interval containing it.

The set-up geometry runs on the integer slots of :class:`..measure._Axis`,
not on ``Fraction`` comparisons: targets are pairwise disjoint when no two
of their boxes' slot masks meet on both axes, a box has mass when its
masks hold a support atom's slot pair, and a cell's one candidate owner is
the target covering the slot pair just inside its first box.  Only the
ownership decision itself stays an exact :func:`..space.boxset_within`.
A :class:`Grid`'s table of the piece holding each slot of its axes validates
it in one pass and locates every atom the grid bins.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import product

from ._record import record, setfield
from .errors import ParameterError
from .measure import Measure, _Axis, _slots
from .space import (
    Box,
    BoxSet,
    IntervalSet,
    ProductSpace,
    as_positive,
    as_rational,
    boxset_within,
)

CellIndex = tuple[int, int]


@record
class Grid:
    """Column pieces times row pieces; cells are the implied products.

    Each axis's pieces are compiled once, into the table of :func:`_piece_slots`.
    """

    def __init__(self, cols: tuple[IntervalSet, ...], rows: tuple[IntervalSet, ...]):
        setfield(self, "cols", tuple(cols))
        setfield(self, "rows", tuple(rows))
        setfield(self, "_col_slots", _piece_slots(self.cols, "column"))
        setfield(self, "_row_slots", _piece_slots(self.rows, "row"))

    def cell(self, q: int, s: int) -> BoxSet:
        return BoxSet(
            tuple(
                Box(ci, rj)
                for ci in self.cols[q].intervals
                for rj in self.rows[s].intervals
            )
        )

    def cells(self) -> Iterator[tuple[CellIndex, BoxSet]]:
        for q in range(len(self.cols)):
            for s in range(len(self.rows)):
                yield (q, s), self.cell(q, s)

    def cell_masses(self, m: Measure) -> dict[CellIndex, Fraction]:
        """Every cell's mass, ``m.eval(self.cell(q, s))``: ``m._patterns`` over the piece tables.

        Kept on the measure, keyed by the grid, so a run's reference is
        binned once; callers must not mutate the result.
        """
        if not isinstance(m.space, ProductSpace):
            raise ParameterError("cell masses need a product measure")
        return m._cached(self, lambda: self._bin(m))

    def _bin(self, m: Measure) -> dict[CellIndex, Fraction]:
        den, sums = m._patterns(self._col_slots, self._row_slots)
        return {
            ix: Fraction(sums.get(ix, 0), den)
            for ix in product(range(len(self.cols)), range(len(self.rows)))
        }


def _piece_slots(pieces: Sequence[IntervalSet], label: str) -> tuple[_Axis, list[int]]:
    """The axis cut by the pieces' ends, and the index of the piece holding each slot (-1: none).

    Raises unless the pieces are nonempty and pairwise disjoint, that is,
    claim no slot twice (two open intervals meet exactly when they share one).
    """
    if any(p.is_empty for p in pieces):
        raise ParameterError(f"empty {label} piece in grid")
    axis = _Axis(e for p in pieces for e in p.endpoints())
    piece = [-1] * (2 * len(axis.ends) + 1)
    for i, p in enumerate(pieces):
        for lo, hi in p.intervals:
            for slot in range(axis.slot(lo) + 1, axis.slot(hi)):
                if piece[slot] >= 0:
                    raise ParameterError(f"grid {label} pieces must be pairwise disjoint")
                piece[slot] = i
    return axis, piece


@record
class RefineResult:
    def __init__(self, grid: Grid, delta: Fraction, owner: dict):
        # owner: cell index -> target index or None
        setfield(self, "grid", grid)
        setfield(self, "delta", as_positive(delta, "refinement delta"))
        setfield(self, "owner", owner)


def _axes(boxes: Sequence[Box]) -> tuple[_Axis, _Axis]:
    """The column and row axes cut into slots by the boxes' ends (see :class:`..measure._Axis`)."""
    return _Axis(e for b in boxes for e in b.col), _Axis(e for b in boxes for e in b.row)


def _spans(boxes: Sequence[Box], x: _Axis, y: _Axis) -> list[tuple[int, int]]:
    """Each box as its (column slots, row slots) masks on axes holding its ends."""
    return [(x.mask(b.col), y.mask(b.row)) for b in boxes]


def _holding_mass(reference: Measure, x: _Axis, y: _Axis, spans: list) -> list[bool]:
    """Whether each box, given by its slot masks on x and y, has positive mass.

    Weights are positive, so a box has mass exactly when a support atom lies
    strictly inside it: when its masks hold the atom's (x slot, y slot) pair.
    """
    space = reference.space
    xs = {k: 1 << x.slot(space.x.coord_of(k)) for k in {kx for kx, _ in reference.weights}}
    ys = {k: 1 << y.slot(space.y.coord_of(k)) for k in {ky for _, ky in reference.weights}}
    occupied: dict = {}  # x slot bit -> the y slot bits of the support atoms in it
    for kx, ky in reference.weights:
        occupied[xs[kx]] = occupied.get(xs[kx], 0) | ys[ky]
    return [any(cm & sx and rm & sy for sx, sy in occupied.items()) for cm, rm in spans]


def disjointify(sets: Sequence[IntervalSet], forbidden: Sequence) -> list[IntervalSet]:
    """Split overlapping interval sets into pairwise disjoint pieces.

    Pieces are grouped by which inputs contain them, so already disjoint
    inputs come back unchanged.  Cuts are placed at input endpoints, except
    that a cut may never land on a forbidden coordinate: there the cut is
    shifted to the midpoint towards the nearest relevant coordinate on each
    side, and the forbidden point ends up in a small piece lying inside
    every input that contains the point.  Consequently no measure supported
    on the forbidden coordinates loses mass against any single input.
    The inputs holding each endpoint and each gap between two are read off
    the slot masks of the inputs' intervals (see :func:`..measure._slots`),
    and each forbidden coordinate is placed once among the same slots.
    """
    sets = list(sets)
    if not sets:
        return []
    bits: dict = {}
    for i, s in enumerate(sets):
        for iv in s.intervals:
            bits[iv] = bits.get(iv, 0) | 1 << i
    # fam[slot]: the inputs holding that slot, an endpoint or the gap beside one
    axis, fam = _slots(bits)
    ends = axis.ends
    forb: dict[int, list] = {}  # slot -> the forbidden coordinates in it
    for c in forbidden:
        c = as_rational(c)
        forb.setdefault(axis.slot(c), []).append(c)

    # a nibble replaces the cut at a forbidden endpoint e by two off-center
    # cuts; the gap between them becomes a dedicated piece around e
    nibbles: dict[int, tuple[Fraction, Fraction]] = {}
    for j, e in enumerate(ends):
        below, at, above = axis.around(j)
        if fam[at] and at in forb:
            # e lies inside an input, so endpoints j - 1 and j + 1 exist; the nearest
            # relevant coordinates are those or forbidden ones in the gaps between
            lo = max(forb.get(below, ()), default=ends[j - 1])
            hi = min(forb.get(above, ()), default=ends[j + 1])
            nibbles[j] = ((lo + e) / 2, (e + hi) / 2)

    # pieces come in axis order, so each family's pieces are sorted and the
    # families come in the order of their first pieces
    groups: dict[int, list] = {}
    for j, e in enumerate(ends):
        _, at, above = axis.around(j)
        if j in nibbles:
            groups.setdefault(fam[at], []).append(nibbles[j])
        if fam[above]:  # never past the last endpoint
            lo = nibbles[j][1] if j in nibbles else e
            hi = nibbles[j + 1][0] if j + 1 in nibbles else ends[j + 1]
            if lo < hi:
                groups.setdefault(fam[above], []).append((lo, hi))
    return [IntervalSet(tuple(ivs)) for ivs in groups.values()]


def _axis_interval_sets(boxes: list[Box], axis: int) -> list[IntervalSet]:
    """The distinct columns (axis 1) or rows (axis 2) of the boxes, first seen first."""
    ivs = dict.fromkeys(b.col if axis == 1 else b.row for b in boxes)
    return [IntervalSet.single(*iv) for iv in ivs]


def refine_grid(reference: Measure, targets: Sequence[BoxSet], eps0) -> RefineResult:
    """Refine disjoint product targets into a grid with a safe tolerance.

    delta is eps0 / (4 m) for m owned cells (eps0 / 4 when nothing is
    owned); the factor leaves room for the per-cell shortfalls of up to m
    cells to accumulate inside one target while staying under eps0.
    """
    eps0 = as_positive(eps0, "eps0")
    if not isinstance(reference.space, ProductSpace):
        raise ParameterError("refine_grid needs a product measure")
    if not all(isinstance(t, BoxSet) for t in targets):
        raise ParameterError("targets must be box sets")
    boxes = [b for t in targets for b in t.boxes]
    x, y = _axes(boxes)
    spans = [_spans(t.boxes, x, y) for t in targets]
    for i, a in enumerate(spans):
        for b in spans[i + 1 :]:
            if any(ca & cb and ra & rb for ca, ra in a for cb, rb in b):
                raise ParameterError("targets must be pairwise disjoint")

    held = _holding_mass(reference, x, y, [s for ss in spans for s in ss])
    boxes = [b for b, h in zip(boxes, held) if h]
    # no cut on a support coordinate, looked up once per distinct atom of its axis
    xs, ys = ({k[i] for k in reference.weights} for i in (0, 1))
    cols = disjointify(_axis_interval_sets(boxes, 1), [reference.space.x.coord_of(k) for k in xs])
    rows = disjointify(_axis_interval_sets(boxes, 2), [reference.space.y.coord_of(k) for k in ys])
    grid = Grid(tuple(cols), tuple(rows))

    # boxes hold whole slots and targets are disjoint, so only the target holding
    # the slot pair just inside the lower corner of a cell's first box can hold the cell
    col_bit = [x.above(p.intervals[0][0]) for p in grid.cols]
    row_bit = [y.above(p.intervals[0][0]) for p in grid.rows]
    owner: dict[CellIndex, int | None] = {}
    for q, s in product(range(len(grid.cols)), range(len(grid.rows))):
        cb, rb = col_bit[q], row_bit[s]
        i = next((i for i, ss in enumerate(spans) if any(c & cb and r & rb for c, r in ss)), None)
        owner[q, s] = i if i is not None and boxset_within(grid.cell(q, s), targets[i]) else None
    m = sum(1 for o in owner.values() if o is not None)
    delta = eps0 / (4 * m) if m else eps0 / 4
    return RefineResult(grid, delta, owner)
