"""Constructing a joint measure with prescribed marginals near a reference.

Given a reference probability coupling, a grid of disjoint product cells
and perturbed marginal probabilities, :func:`construct_preimage` assembles a
new coupling whose marginals are exactly the perturbed ones and whose mass
on every grid cell falls short of the reference by strictly less than the
admissible tolerance, provided the marginals were taken that close to the
reference marginals on the grid's columns and rows.

The construction is in two layers.  Inside each cell the reference mass is
rescaled through the column and row mass ratios; the smaller of the two
rescalings is kept and realized as a product of normalized restrictions, so
it has the right partial masses on both axes.  Whatever marginal mass the
cells did not absorb is coupled in one block by :func:`..measure.couple_mass`
and added on top; the final marginals then match by construction.

Cell masses, of the reference and of the new coupling alike, come from one
binning pass of :meth:`..refine.Grid.cell_masses` each: column pieces are
pairwise disjoint and so are row pieces, so every atom falls in at most one
cell, which the grid's piece tables name from the atom's two slots.  Each
measure keeps its bin, so a certify run bins the reference once and each
coupling once, and its cell gap reads the bin kept here.  The new
marginals are split into their column and row parts on the same tables,
one pass over each support, which also sums each piece's mass.  The
reference marginals' column and row masses are taken by ``eval`` on the
reference's cached ``push_proj`` once per reference and grid, and each
massive cell's two ratios, cell/column and cell/row, are kept on the
reference under ``("pieces", grid)``: every trial scales its cells by the
same ratios.  The grid part is written in atom order by walking
supp mu x supp nu, x-major, never sorted.  Each part's unit mass, which
:func:`..measure.tensor` checks in every cell the part serves, is summed
once.  What the cells leave of each marginal is read off the allocations:
every part has mass 1, so the grid part's marginal on a piece is the
piece's part times the mass its cells kept.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record, setfield
from .errors import (
    HypothesisError,
    InternalConsistencyError,
    MassMismatchError,
    NegativeWeightError,
    ParameterError,
)
from .measure import Measure, _classify, _fsum, couple_mass, tensor
from .refine import CellIndex, Grid
from .space import ProductSpace


@record
class MarginalPair:
    def __init__(self, mu: Measure, nu: Measure):
        if mu.mass() != nu.mass():
            raise MassMismatchError(f"marginals carry masses {mu.mass()} and {nu.mass()}")
        setfield(self, "mu", mu)
        setfield(self, "nu", nu)


def marginal_pair(joint: Measure) -> MarginalPair:
    """Both coordinate pushforwards of a product measure."""
    return MarginalPair(joint.push_proj(1), joint.push_proj(2))


@record
class CellAlloc:
    """Mass granted to a cell: reference mass rescaled per axis, minimum kept."""

    def __init__(self, col_scaled: Fraction, row_scaled: Fraction, kept: Fraction):
        setfield(self, "col_scaled", col_scaled)
        setfield(self, "row_scaled", row_scaled)
        setfield(self, "kept", kept)


@record
class PreimageReport:
    def __init__(
        self,
        coupling: Measure,
        grid_part: Measure,
        remainder_coupling: Measure,
        cell_allocs: dict,  # CellIndex -> CellAlloc
        cell_drops: dict,  # CellIndex -> new cell mass minus reference cell mass
    ):
        if not _splits(coupling, grid_part, remainder_coupling):
            raise InternalConsistencyError("coupling must split into grid part plus remainder")
        setfield(self, "coupling", coupling)
        setfield(self, "grid_part", grid_part)
        setfield(self, "remainder_coupling", remainder_coupling)
        setfield(self, "cell_allocs", cell_allocs)
        setfield(self, "cell_drops", cell_drops)


def _splits(total: Measure, part: Measure, rest: Measure) -> bool:
    """Whether ``total == part + rest``, tested in integers without building the sum.

    No weight is zero, so the supports must match as sets first.  A key
    held by one part only must carry that part's weight, compared as
    normalised numerator and denominator; for a key held by both, c = g + r
    is cn·gd·rd == (gn·rd + rn·gd)·cd.
    """
    if not total.space == part.space == rest.space:
        return False
    if total.weights.keys() != part.weights.keys() | rest.weights.keys():
        return False
    for k, c in total.weights.items():
        g, r = part.weights.get(k), rest.weights.get(k)
        if g is None or r is None:
            w = r if g is None else g
            if c.numerator != w.numerator or c.denominator != w.denominator:
                return False
        else:
            gn, gd, rn, rd = g.numerator, g.denominator, r.numerator, r.denominator
            if c.numerator * gd * rd != (gn * rd + rn * gd) * c.denominator:
                return False
    return True


def _normalized_parts(m: Measure, slots: tuple, n: int) -> tuple[list, list]:
    """m's mass on each of n pieces, and m restricted to each, scaled to mass 1 (None if massless).

    ``slots`` is a grid axis's table of the piece holding each slot (see
    :func:`..refine._piece_slots`); each support atom of m is placed once.
    """
    piece_of = _classify(m.space, m.weights, *slots)
    binned: list[dict] = [{} for _ in range(n)]
    for k, w in m.weights.items():
        i = piece_of[k]
        if i >= 0:
            binned[i][k] = w
    masses = [_fsum(p.values()) for p in binned]
    return masses, [
        Measure._trusted(m.space, {k: w / c for k, w in p.items()}) if p else None
        for p, c in zip(binned, masses)
    ]


def _taken(m: Measure, parts, kept) -> Measure:
    """The grid part's marginal on m's axis, without a pass over the grid part.

    A cell holds kept × (column part ⊗ row part) and every part has mass 1,
    so each piece contributes its part times the mass its cells kept.
    """
    taken = {key: k * w for part, k in zip(parts, kept) if k for key, w in part.weights.items()}
    return Measure._trusted(m.space, {key: taken[key] for key in m.weights if key in taken})


def _reference_ratios(reference: Measure, grid: Grid) -> dict:
    """Each cell's ratios ref_cell/ref_col and ref_cell/ref_row; None for a massless cell.

    The reference marginals' piece masses are taken by ``eval`` on their cached
    ``push_proj``; :func:`construct_preimage` keeps the result on the reference.
    """
    ref_x, ref_y = reference.push_proj(1), reference.push_proj(2)
    ref_cols = [ref_x.eval(c) for c in grid.cols]
    ref_rows = [ref_y.eval(r) for r in grid.rows]
    ratios: dict[CellIndex, tuple | None] = {}
    for (q, s), ref_mass in grid.cell_masses(reference).items():
        if ref_mass == 0:
            ratios[q, s] = None
        elif ref_cols[q] == 0 or ref_rows[s] == 0:
            # impossible: a cell cannot outweigh its own column or row
            raise InternalConsistencyError(
                f"cell ({q}, {s}) has reference mass {ref_mass} on a massless column or row"
            )
        else:
            ratios[q, s] = (ref_mass / ref_cols[q], ref_mass / ref_rows[s])
    return ratios


def construct_preimage(
    reference: Measure, grid: Grid, mu: Measure, nu: Measure
) -> PreimageReport:
    """Couple mu and nu while tracking the reference on every grid cell.

    All three measures must be probabilities.  Each cell keeps the smaller
    of the two per-axis rescalings of its reference mass; the larger one
    could take more from a column or row than the new marginal holds there.
    """
    if not isinstance(reference.space, ProductSpace):
        raise ParameterError("reference must be a product measure")
    for m, label in ((reference, "reference"), (mu, "mu"), (nu, "nu")):
        if m.mass() != 1:
            raise MassMismatchError(f"{label} must be a probability, has mass {m.mass()}")

    ratios = reference._cached(("pieces", grid), lambda: _reference_ratios(reference, grid))
    new_cols, col_parts = _normalized_parts(mu, grid._col_slots, len(grid.cols))
    new_rows, row_parts = _normalized_parts(nu, grid._row_slots, len(grid.rows))

    allocs: dict[CellIndex, CellAlloc] = {}
    cells: dict = {}  # kept cell -> its weights in the grid part, x-major
    col_kept = [Fraction(0)] * len(grid.cols)
    row_kept = [Fraction(0)] * len(grid.rows)
    for (q, s), ratio in ratios.items():
        if ratio is None:
            allocs[(q, s)] = CellAlloc(Fraction(0), Fraction(0), Fraction(0))
            continue
        # a massless new column or row scales to 0, so a cell with kept > 0 has both parts
        col_scaled, row_scaled = new_cols[q] * ratio[0], new_rows[s] * ratio[1]
        kept = min(col_scaled, row_scaled)
        allocs[(q, s)] = CellAlloc(col_scaled, row_scaled, kept)
        if kept == 0:
            continue
        kn, kd = kept.numerator, kept.denominator
        scaled = {
            key: Fraction(kn * w.numerator, kd * w.denominator)
            for key, w in tensor(col_parts[q], row_parts[s]).weights.items()
        }
        cells[q, s] = iter(scaled.items())
        col_kept[q] += kept
        row_kept[s] += kept
    # The grid part walks supp mu x supp nu x-major, the product's atom order.  Columns
    # are pairwise disjoint and so are rows, so an x atom of column q meets, row atom by
    # row atom, the kept cells of column q, and each cell lists its keys in that same
    # order, as its tensor does: the cell's next item is the pair's key and weight.
    x_piece = {k: q for q, p in enumerate(col_parts) if p for k in p.weights}
    y_piece = {k: s for s, p in enumerate(row_parts) if p for k in p.weights}
    runs = {
        q: [cells[q, y_piece[ky]] for ky in nu.weights if (q, y_piece.get(ky)) in cells]
        for q in {q for q, _ in cells}
    }
    weights: dict = {}
    for kx in mu.weights:
        for items in runs.get(x_piece.get(kx), ()):
            key, w = next(items)
            weights[key] = w
    grid_part = Measure._trusted(ProductSpace(mu.space, nu.space), weights)

    try:
        mu_rest = mu - _taken(mu, col_parts, col_kept)
        nu_rest = nu - _taken(nu, row_parts, row_kept)
    except NegativeWeightError as exc:
        raise HypothesisError(
            f"cell couplings overdraw a marginal: {exc}"
        ) from exc

    remainder = couple_mass(mu_rest, nu_rest)
    coupling = grid_part + remainder
    ref_cell_mass = grid.cell_masses(reference)
    drops = {ix: m - ref_cell_mass[ix] for ix, m in grid.cell_masses(coupling).items()}
    return PreimageReport(coupling, grid_part, remainder, allocs, drops)
