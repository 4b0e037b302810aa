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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise, product
from typing import Iterator, Sequence

from .errors import ParameterError
from .measure import Measure
from .space import (
    Box,
    BoxSet,
    IntervalSet,
    ProductSpace,
    SpaceDesc,
    as_rational,
    boxset_within,
    boxsets_disjoint,
    intervalsets_disjoint,
)

CellIndex = tuple[int, int]


@dataclass(frozen=True)
class Grid:
    """Column pieces times row pieces; cells are the implied products."""

    cols: tuple[IntervalSet, ...]
    rows: tuple[IntervalSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(self, "rows", tuple(self.rows))
        for pieces, label in ((self.cols, "column"), (self.rows, "row")):
            for p in pieces:
                if p.is_empty:
                    raise ParameterError(f"empty {label} piece in grid")
            for i, a in enumerate(pieces):
                for b in pieces[i + 1 :]:
                    if not intervalsets_disjoint(a, b):
                        raise ParameterError(f"grid {label} pieces must be pairwise disjoint")

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
        """Every cell's mass, ``m.eval(self.cell(q, s))``, in one pass over the atoms."""
        if not isinstance(m.space, ProductSpace):
            raise ParameterError("cell masses need a product measure")
        col = _pieces_holding(self.cols, m.space.x)
        row = _pieces_holding(self.rows, m.space.y)
        out = {ix: Fraction(0) for ix in product(range(len(self.cols)), range(len(self.rows)))}
        for (kx, ky), w in m.weights.items():
            if kx in col and ky in row:
                out[col[kx], row[ky]] += w
        return out


def _pieces_holding(pieces: Sequence[IntervalSet], space: SpaceDesc) -> dict:
    """Atom id -> index of the piece holding the atom, for atoms inside one.

    Pieces are pairwise disjoint, so sorted by lower end their intervals do
    not overlap: only the last interval whose lower end lies strictly below
    a point can hold it, and does when the point is strictly below its upper
    end too.
    """
    ivs = sorted((lo, hi, i) for i, p in enumerate(pieces) for lo, hi in p.intervals)
    los = [lo for lo, _, _ in ivs]
    out = {}
    for a in space.atoms:
        j = bisect_left(los, a.coord) - 1
        if j >= 0 and a.coord < ivs[j][1]:
            out[a.id] = ivs[j][2]
    return out


@dataclass(frozen=True)
class RefineResult:
    grid: Grid
    delta: Fraction
    owner: dict = field(default_factory=dict)  # cell index -> target index or None

    def __post_init__(self):
        object.__setattr__(self, "delta", as_rational(self.delta))
        if self.delta <= 0:
            raise ParameterError("refinement delta must be positive")

    def owned(self) -> list[tuple[CellIndex, int]]:
        return [(ix, own) for ix, own in sorted(self.owner.items()) if own is not None]


def rect_inner_approx(reference: Measure, target: BoxSet) -> BoxSet:
    """Boxes inside the target that jointly carry all its reference mass.

    At finite support the constituent boxes holding at least one support
    atom already do this with zero mass defect, so no tolerance is needed.
    """
    if not isinstance(reference.space, ProductSpace):
        raise ParameterError("rect_inner_approx needs a product measure")
    coord = reference.space.coord_of
    points = [coord(k) for k in reference.weights]
    kept = tuple(b for b in target.boxes if any(b.contains(p) for p in points))
    return BoxSet(kept)


def disjointify(sets: Sequence[IntervalSet], forbidden: Sequence) -> list[IntervalSet]:
    """Split overlapping interval sets into pairwise disjoint pieces.

    Pieces are grouped by which inputs contain them, so already disjoint
    inputs come back unchanged.  Cuts are placed at input endpoints, except
    that a cut may never land on a forbidden coordinate: there the cut is
    shifted to the midpoint towards the nearest relevant coordinate on each
    side, and the forbidden point ends up in a small piece lying inside
    every input that contains the point.  Consequently no measure supported
    on the forbidden coordinates loses mass against any single input.
    """
    sets = list(sets)
    if not sets:
        return []
    forb = sorted({as_rational(c) for c in forbidden})
    ends = sorted({e for s in sets for e in s.endpoints()})
    relevant = sorted(set(ends) | set(forb))

    def family_at(p) -> frozenset:
        return frozenset(i for i, s in enumerate(sets) if s.contains(p))

    # a nibble replaces the cut at a forbidden endpoint e by two off-center
    # cuts; the gap between them becomes a dedicated piece around e
    nibbles: dict[Fraction, tuple[Fraction, Fraction, frozenset]] = {}
    for e in ends:
        if e not in forb:
            continue
        fam = family_at(e)
        if not fam:
            continue
        left = max(c for c in relevant if c < e)
        right = min(c for c in relevant if c > e)
        nibbles[e] = ((left + e) / 2, (e + right) / 2, fam)

    pieces: list[tuple[Fraction, Fraction, frozenset]] = []
    for u, v in pairwise(ends):
        fam = family_at((u + v) / 2)
        if not fam:
            continue
        lo = nibbles[u][1] if u in nibbles else u
        hi = nibbles[v][0] if v in nibbles else v
        if lo < hi:
            pieces.append((lo, hi, fam))
    for a, c, fam in nibbles.values():
        pieces.append((a, c, fam))

    groups: dict[frozenset, list] = {}
    for lo, hi, fam in pieces:
        groups.setdefault(fam, []).append((lo, hi))
    out = [IntervalSet(tuple(sorted(ivs))) for ivs in groups.values()]
    out.sort(key=lambda s: s.intervals[0])
    return out


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
    eps0 = as_rational(eps0)
    if eps0 <= 0:
        raise ParameterError("eps0 must be positive")
    if not isinstance(reference.space, ProductSpace):
        raise ParameterError("refine_grid needs a product measure")
    targets = [t if isinstance(t, BoxSet) else BoxSet(tuple(t)) for t in targets]
    for i, a in enumerate(targets):
        for b in targets[i + 1 :]:
            if not boxsets_disjoint(a, b):
                raise ParameterError("targets must be pairwise disjoint")

    inner = [rect_inner_approx(reference, t) for t in targets]
    boxes = [b for approx in inner for b in approx.boxes]
    coords = [reference.space.coord_of(k) for k in reference.weights]
    cols = disjointify(_axis_interval_sets(boxes, 1), [p[0] for p in coords])
    rows = disjointify(_axis_interval_sets(boxes, 2), [p[1] for p in coords])
    grid = Grid(tuple(cols), tuple(rows))

    owner: dict[CellIndex, int | None] = {}
    for ix, cell in grid.cells():
        owner[ix] = next(
            (i for i, t in enumerate(targets) if boxset_within(cell, t)), None
        )
    m = sum(1 for o in owner.values() if o is not None)
    delta = eps0 / (4 * m) if m else eps0 / 4
    return RefineResult(grid, delta, owner)
