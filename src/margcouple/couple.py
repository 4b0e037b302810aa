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
cell.  The new marginals are split into their column and row parts by the
same binning, one pass each.  No cell, column or row is taken by scanning
all atoms against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisError,
    InternalConsistencyError,
    MassMismatchError,
    NegativeWeightError,
    ParameterError,
)
from .measure import Measure, couple_mass, tensor
from .refine import CellIndex, Grid, _pieces_holding
from .space import ProductSpace, as_rational


@dataclass(frozen=True)
class MarginalPair:
    mu: Measure
    nu: Measure

    def __post_init__(self):
        if self.mu.mass() != self.nu.mass():
            raise MassMismatchError(
                f"marginals carry masses {self.mu.mass()} and {self.nu.mass()}"
            )


def marginal_pair(joint: Measure) -> MarginalPair:
    """Both coordinate pushforwards of a product measure."""
    return MarginalPair(joint.push_proj(1), joint.push_proj(2))


def admissible_delta(eps) -> Fraction:
    """Half the target tolerance; safe for the per-cell shortfall bound."""
    eps = as_rational(eps)
    if eps <= 0:
        raise ParameterError("tolerance must be positive")
    return eps / 2


@dataclass(frozen=True)
class CellAlloc:
    """Mass granted to a cell: reference mass rescaled per axis, minimum kept."""

    col_scaled: Fraction
    row_scaled: Fraction
    kept: Fraction


@dataclass(frozen=True)
class PreimageReport:
    coupling: Measure
    grid_part: Measure
    remainder_coupling: Measure
    cell_allocs: dict  # CellIndex -> CellAlloc
    cell_drops: dict  # CellIndex -> new cell mass minus reference cell mass

    def __post_init__(self):
        if not _splits(self.coupling, self.grid_part, self.remainder_coupling):
            raise InternalConsistencyError("coupling must split into grid part plus remainder")


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


def _normalized_parts(m: Measure, pieces, masses) -> list:
    """m restricted to each piece and scaled to mass 1, None for a massless piece.

    One binning pass over m's support replaces a ``restrict`` scan per
    piece; the pieces are pairwise disjoint, so each atom lands in at most
    one, and ``masses`` holds each piece's mass under m.
    """
    piece_of = _pieces_holding(pieces, m.space)
    parts: list[dict] = [{} for _ in pieces]
    for k, w in m.weights.items():
        i = piece_of.get(k)
        if i is not None:
            parts[i][k] = w / masses[i]
    return [Measure._trusted(m.space, p) if p else None for p in parts]


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

    ref_x, ref_y = reference.push_proj(1), reference.push_proj(2)
    ref_cols = [ref_x.eval(c) for c in grid.cols]
    ref_rows = [ref_y.eval(r) for r in grid.rows]
    new_cols = [mu.eval(c) for c in grid.cols]
    new_rows = [nu.eval(r) for r in grid.rows]
    col_parts = _normalized_parts(mu, grid.cols, new_cols)
    row_parts = _normalized_parts(nu, grid.rows, new_rows)

    ref_cell_mass = grid.cell_masses(reference)
    allocs: dict[CellIndex, CellAlloc] = {}
    acc: dict = {}
    for (q, s), ref_mass in ref_cell_mass.items():
        if ref_mass == 0:
            allocs[(q, s)] = CellAlloc(Fraction(0), Fraction(0), Fraction(0))
            continue
        if ref_cols[q] == 0 or ref_rows[s] == 0:
            # impossible: a cell cannot outweigh its own column or row
            raise InternalConsistencyError(
                f"cell ({q}, {s}) has reference mass {ref_mass} on a massless column or row"
            )
        col_scaled = ref_mass * new_cols[q] / ref_cols[q]
        row_scaled = ref_mass * new_rows[s] / ref_rows[s]
        kept = min(col_scaled, row_scaled)
        allocs[(q, s)] = CellAlloc(col_scaled, row_scaled, kept)
        if kept == 0:
            continue
        if new_cols[q] == 0 or new_rows[s] == 0:
            raise HypothesisError(
                f"cell ({q}, {s}) was granted mass {kept} from a massless column or row"
            )
        # columns are pairwise disjoint and so are rows: no key lies in two cells
        for key, w in tensor(col_parts[q], row_parts[s]).weights.items():
            acc[key] = kept * w
    prod = ProductSpace(mu.space, nu.space)
    grid_part = Measure._trusted(prod, {k: acc[k] for k in sorted(acc, key=prod.position)})

    try:
        mu_rest = mu - grid_part.push_proj(1)
        nu_rest = nu - grid_part.push_proj(2)
    except NegativeWeightError as exc:
        raise HypothesisError(
            f"cell couplings overdraw a marginal: {exc}"
        ) from exc

    remainder = couple_mass(mu_rest, nu_rest)
    coupling = grid_part + remainder
    drops = {ix: m - ref_cell_mass[ix] for ix, m in grid.cell_masses(coupling).items()}
    return PreimageReport(coupling, grid_part, remainder, allocs, drops)
