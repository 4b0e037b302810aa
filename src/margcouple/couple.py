"""Constructing a joint measure with prescribed marginals near a reference.

Given a reference probability coupling, a grid of disjoint product cells
and perturbed marginal probabilities, :func:`construct_preimage` assembles a
new coupling whose marginals are exactly the perturbed ones and whose mass
on every grid cell falls short of the reference by strictly less than the
admissible tolerance, provided the marginals were taken that close to the
reference marginals on the grid's columns and rows.

The construction is in two layers.  Inside each cell (q, s) the reference
mass is rescaled through the column and row mass ratios, and the smaller of
the two rescalings, kept, is realized as kept times the product of mu's
restriction to column q and nu's restriction to row s, each normalized.
That product is mu x nu times kept / (mu(col q) nu(row s)) on the cell, so
the grid part is one :func:`..measure.tensor` of mu and nu, reweighted per
kept cell and dropped elsewhere; its x-major order is the product's atom
order.  On an atom of column q it takes kept_q / mu(col q) of the atom's
weight, kept_q being the mass column q's cells kept, and likewise on rows.
What the cells leave of each marginal, the rest of each atom's weight, is
coupled in one block by :func:`..measure.couple_mass` and added on top; the
final marginals then match by construction.  No atom is overdrawn: a cell
keeps at most mu(col q) times its share of the reference column, and the
cells of a column are disjoint parts of it, so together they keep at most
mu(col q); likewise on rows.

Cell masses, of the reference and of the new coupling alike, come from one
binning pass of :meth:`..refine.Grid.cell_masses` each: column pieces are
pairwise disjoint and so are row pieces, so every atom falls in at most one
cell, which the grid's piece tables name from the atom's two slots.  Each
measure keeps its bin, so a certify run bins the reference once and each
coupling once, and its cell gap reads the bin kept here.  Each support atom
of the new marginals is placed in its piece on the same tables, one pass
over each support that also sums each piece's mass.  The reference
marginals' column and row masses are taken by ``eval`` on the reference's
cached ``push_proj`` once per reference and grid, and each massive cell's
two ratios, cell/column and cell/row, are kept on the reference under
``("pieces", grid)``: every trial scales its cells by the same ratios.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record, setfield
from .errors import InternalConsistencyError, MassMismatchError, ParameterError
from .measure import Measure, _classify, _grouped, couple_mass, tensor
from .refine import CellIndex, Grid
from .space import ProductSpace, SpaceDesc


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


def _pieces(m: Measure, slots: tuple, n: int) -> tuple[dict, list]:
    """The piece index of each support atom of m (-1: none), and m's mass on each of n pieces.

    ``slots`` is a grid axis's table of the piece holding each slot (see
    :func:`..refine._piece_slots`); each support atom of m is placed once.
    """
    piece_of = _classify(m.space, m.weights, *slots)
    masses = _grouped(piece_of.values(), m.weights.values())
    return piece_of, [masses.get(i, Fraction(0)) for i in range(n)]


def _rest(m: Measure, piece_of: dict, masses: list, kept: list) -> Measure:
    """What the grid part leaves of m: an atom of piece i keeps 1 - kept_i/mass_i of its weight."""
    left = {i: 1 - k / c for i, (k, c) in enumerate(zip(kept, masses)) if k}
    weights = {}
    for key, w in m.weights.items():
        f = left.get(piece_of[key])
        if f is None:
            weights[key] = w
        elif f:
            weights[key] = w * f
    return Measure._trusted(m.space, weights)


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
    for m, label in ((mu, "mu"), (nu, "nu")):
        if not isinstance(m.space, SpaceDesc):
            raise ParameterError(f"{label} must be a line measure")
    for m, label in ((reference, "reference"), (mu, "mu"), (nu, "nu")):
        if m.mass() != 1:
            raise MassMismatchError(f"{label} must be a probability, has mass {m.mass()}")

    ratios = reference._cached(("pieces", grid), lambda: _reference_ratios(reference, grid))
    x_piece, new_cols = _pieces(mu, grid._col_slots, len(grid.cols))
    y_piece, new_rows = _pieces(nu, grid._row_slots, len(grid.rows))

    allocs: dict[CellIndex, CellAlloc] = {}
    factor: dict[CellIndex, tuple] = {}  # kept cell -> kept / (mu(col q) nu(row s)), as n, d
    col_kept = [Fraction(0)] * len(grid.cols)
    row_kept = [Fraction(0)] * len(grid.rows)
    for (q, s), ratio in ratios.items():
        if ratio is None:
            allocs[(q, s)] = CellAlloc(Fraction(0), Fraction(0), Fraction(0))
            continue
        # a massless new column or row scales to 0, so a cell with kept > 0 has mass on both
        col_scaled, row_scaled = new_cols[q] * ratio[0], new_rows[s] * ratio[1]
        kept = min(col_scaled, row_scaled)
        allocs[(q, s)] = CellAlloc(col_scaled, row_scaled, kept)
        if kept:
            factor[q, s] = (kept / (new_cols[q] * new_rows[s])).as_integer_ratio()
            col_kept[q] += kept
            row_kept[s] += kept
    # kept x (mu|col q / mu(col q)) x (nu|row s / nu(row s)) is mu x nu times factor on the
    # cell; each weight is built from integers as one Fraction, cheaper than a Fraction product
    product = tensor(mu, nu)
    weights = {}
    for (kx, ky), w in product.weights.items():
        f = factor.get((x_piece[kx], y_piece[ky]))
        if f is not None:
            weights[kx, ky] = Fraction(w.numerator * f[0], w.denominator * f[1])
    grid_part = Measure._trusted(product.space, weights)

    mu_rest = _rest(mu, x_piece, new_cols, col_kept)
    nu_rest = _rest(nu, y_piece, new_rows, row_kept)
    remainder = couple_mass(mu_rest, nu_rest)
    coupling = grid_part + remainder
    ref_cell_mass = grid.cell_masses(reference)
    drops = {ix: m - ref_cell_mass[ix] for ix, m in grid.cell_masses(coupling).items()}
    return PreimageReport(coupling, grid_part, remainder, allocs, drops)
