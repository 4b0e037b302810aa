"""Randomized certification of the coupling construction, plus oracles.

Everything random here is driven by an explicit 64-bit seed.  Per-trial
seeds derive from the run seed by xor with the trial index followed by the
splitmix64 finalizer (:func:`mix64`); the derived value seeds the stdlib
Mersenne Twister for the trial's draws.  Identical seeds replay identical
trials, so every recorded violation is reproducible from its seed alone.

The module also houses deliberately independent second routes used as
oracles by the test suite: a greedy coupling built without tensor products
and a tensor product built through averages of embedded copies instead of
weight-by-weight multiplication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .couple import admissible_delta, construct_preimage
from .errors import (
    Error,
    HypothesisError,
    InternalConsistencyError,
    MassMismatchError,
    ParameterError,
)
from .measure import Measure, MetaMeasure, barycenter
from .refine import Grid, RefineResult, refine_grid
from .space import (
    Atom,
    BoxSet,
    IntervalSet,
    ProductSpace,
    SpaceDesc,
    as_rational,
)
from .weakstar import Neighborhood

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finalizer; the seed-derivation mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Seed:
    """A 64-bit seed; derivation is xor with an index, then mix64."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not 0 <= self.value < (1 << 64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.value!r}")

    def derive(self, index: int) -> "Seed":
        return Seed(mix64(self.value ^ (index & _MASK64)))


def oracle_couple(mu: Measure, nu: Measure) -> Measure:
    """Greedy coupling in atom order; an existence witness independent of tensor.

    Walks both supports in their spaces' atom order and repeatedly matches
    the smaller open residual, so it never multiplies weights.
    """
    if mu.mass() != nu.mass():
        raise MassMismatchError(f"cannot couple masses {mu.mass()} and {nu.mass()}")
    if not isinstance(mu.space, SpaceDesc) or not isinstance(nu.space, SpaceDesc):
        raise ParameterError("oracle_couple takes line measures")
    left = [[k, w] for k, w in mu.weights.items()]
    right = [[k, w] for k, w in nu.weights.items()]
    weights: dict = {}
    i = j = 0
    while i < len(left) and j < len(right):
        take = min(left[i][1], right[j][1])
        weights[(left[i][0], right[j][0])] = weights.get((left[i][0], right[j][0]), Fraction(0)) + take
        left[i][1] -= take
        right[j][1] -= take
        if left[i][1] == 0:
            i += 1
        if right[j][1] == 0:
            j += 1
    return Measure(ProductSpace(mu.space, nu.space), weights)


def tensor_via_barycenter(mu: Measure, nu: Measure) -> Measure:
    """Second route to the product measure, through averaged embeddings.

    Each support atom of mu contributes an embedded copy of nu on the
    product, weighted by its mu-mass; the barycenter of that family is the
    product measure.  Kept separate from measure.tensor on purpose: the two
    implementations must agree and the tests hold them against each other.
    """
    if mu.mass() != 1 or nu.mass() != 1:
        raise MassMismatchError("tensor_via_barycenter takes probability measures")
    prod = ProductSpace(mu.space, nu.space)
    components = []
    for kx, wx in mu.weights.items():
        embedded = Measure(prod, {(kx, ky): wy for ky, wy in nu.weights.items()})
        components.append((wx, embedded))
    return barycenter(MetaMeasure(prod, tuple(components)))


# ---------------------------------------------------------------------------
# sampling


_DENOM = 1 << 16  # drawn mass fractions use this denominator bound


def _rand_unit(rng: random.Random, denom: int = _DENOM) -> Fraction:
    return Fraction(rng.randrange(denom + 1), denom)


def _point_in_interval(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(1, 256), 256)


def _point_inside(rng: random.Random, s):
    if isinstance(s, IntervalSet):
        lo, hi = s.intervals[rng.randrange(len(s.intervals))]
        return _point_in_interval(rng, lo, hi)
    box = s.boxes[rng.randrange(len(s.boxes))]
    return (
        _point_in_interval(rng, *box.col),
        _point_in_interval(rng, *box.row),
    )


def _point_outside(rng: random.Random, sets, product: bool):
    # strictly beyond every endpoint, hence outside every listed set
    tops = [Fraction(0)]
    for s in sets:
        if isinstance(s, IntervalSet):
            tops.extend(hi for _, hi in s.intervals)
        else:
            tops.extend(b.col[1] for b in s.boxes)
            tops.extend(b.row[1] for b in s.boxes)
    far = max(tops) + 1 + Fraction(rng.randrange(64), 64)
    return (far, far + 1) if product else far


class _Workspace:
    """Mutable weights plus bookkeeping for freshly placed atoms."""

    def __init__(self, center: Measure):
        self.product = isinstance(center.space, ProductSpace)
        self.space = center.space
        self.weights = dict(center.weights)
        # the support, in atom order; keys without weight never gain any
        self.order = list(center.weights)
        self.coords = {k: center.space.coord_of(k) for k in self.order}
        if self.product:
            self._taken_x = {a.id for a in center.space.x.atoms}
            self._taken_y = {a.id for a in center.space.y.atoms}
            self.fresh_x: list[Atom] = []
            self.fresh_y: list[Atom] = []
        else:
            self._taken = {a.id for a in center.space.atoms}
            self.fresh: list[Atom] = []

    @staticmethod
    def _unique(base: str, n: int, taken: set) -> str:
        key = f"{base}{n}"
        while key in taken:
            key = "_" + key
        taken.add(key)
        return key

    def place(self, coord):
        if self.product:
            cx, cy = coord
            n = len(self.fresh_x)
            kx = self._unique("sx", n, self._taken_x)
            ky = self._unique("sy", n, self._taken_y)
            self.fresh_x.append(Atom(kx, cx))
            self.fresh_y.append(Atom(ky, cy))
            key = (kx, ky)
        else:
            key = self._unique("s", len(self.fresh), self._taken)
            self.fresh.append(Atom(key, coord))
        self.order.append(key)
        self.coords[key] = coord
        self.weights[key] = Fraction(0)
        return key

    def keys_in(self, s) -> list:
        return [
            k
            for k in self.order
            if self.weights.get(k) and s.contains(self.coords[k])
        ]

    def finish(self) -> Measure:
        if self.product:
            if self.fresh_x:
                space = ProductSpace(
                    SpaceDesc(self.space.x.atoms + tuple(self.fresh_x)),
                    SpaceDesc(self.space.y.atoms + tuple(self.fresh_y)),
                )
            else:
                space = self.space
        else:
            space = (
                SpaceDesc(self.space.atoms + tuple(self.fresh))
                if self.fresh
                else self.space
            )
        return Measure(space, {k: w for k, w in self.weights.items() if w})


def sample_in_neighborhood(center: Measure, sets: Sequence, delta, seed: Seed) -> Measure:
    """Draw a random strict member of the one-sided neighborhood.

    The center must be a probability and the sets pairwise disjoint.  Each
    set loses at most delta / (2 k) of its mass, where k is the number of
    sets, so every output is a strict member no matter where the freed mass
    lands: on other sets, outside, or on freshly placed atoms strictly
    inside a set.  Atom positions within a set may also be reshuffled, and
    mass lying outside all sets may move freely.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if center.mass() != 1:
        raise MassMismatchError("sampler perturbs probability measures")
    sets = list(sets)
    rng = random.Random(seed.value)
    ws = _Workspace(center)

    pool = Fraction(0)
    k = len(sets)
    if k:
        cap = delta / (2 * k)
        for s in sets:
            if rng.randrange(4) == 0:
                continue
            inside = ws.keys_in(s)
            m = sum((ws.weights[key] for key in inside), Fraction(0))
            if m == 0:
                continue
            r = min(m, cap) * _rand_unit(rng)
            if r == 0:
                continue
            scale = (m - r) / m
            for key in inside:
                ws.weights[key] *= scale
            pool += r

    # reshuffle: move one atom of a set to a fresh position inside the set
    for s in sets:
        if rng.randrange(3):
            continue
        inside = ws.keys_in(s)
        if not inside:
            continue
        key = inside[rng.randrange(len(inside))]
        moved = ws.weights[key]
        ws.weights[key] = Fraction(0)
        ws.weights[ws.place(_point_inside(rng, s))] = moved

    # mass outside every set is unconstrained
    outside = [
        key
        for key in ws.order
        if ws.weights.get(key) and not any(s.contains(ws.coords[key]) for s in sets)
    ]
    if outside and rng.randrange(2):
        key = outside[rng.randrange(len(outside))]
        r = ws.weights[key] * _rand_unit(rng)
        ws.weights[key] -= r
        pool += r

    if pool:
        shares = [1 + rng.randrange(8) for _ in range(1 + rng.randrange(3))]
        total = sum(shares)
        for share in shares:
            part = pool * share / total
            mode = rng.randrange(3)
            if mode == 0:
                live = [key for key in ws.order if ws.weights.get(key)]
                if live:
                    ws.weights[live[rng.randrange(len(live))]] += part
                    continue
                mode = 2
            if mode == 1 and sets:
                target = sets[rng.randrange(len(sets))]
                ws.weights[ws.place(_point_inside(rng, target))] += part
            else:
                ws.weights[ws.place(_point_outside(rng, sets, ws.product))] += part

    result = ws.finish()
    if result.mass() != 1:
        raise InternalConsistencyError("sampler lost mass")
    if sets and not Neighborhood(center, tuple(sets), delta).is_member(result):
        raise InternalConsistencyError("sampler produced a non-member")
    return result


# ---------------------------------------------------------------------------
# containment validators


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of a containment validator: lhs, its proof-side majorant, verdict."""

    lhs: Fraction
    bound: Fraction
    ok: bool


def _band_mass(m: Measure, outer: Callable, inner: Callable) -> Fraction:
    """Mass of m on the points inside ``outer`` but not inside ``inner``."""
    return m.sum_where(lambda z: outer(z) and not inner(z))


def _rect(col: IntervalSet, row: IntervalSet) -> Callable:
    """Membership in the product set col x row."""
    return lambda p: col.contains(p[0]) and row.contains(p[1])


def check_band_bound(
    joint: Measure, col_outer: IntervalSet, col_inner: IntervalSet, row_set: IntervalSet, eps
) -> LemmaCheck:
    """Mass of (outer minus inner) x row_set is under eps.

    Hypothesis: the first marginal puts mass under eps on outer minus
    inner; violating it raises, which is distinct from a failed check.
    The returned bound is the marginal mass of the column difference, the
    majorant through which the estimate runs.
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise ParameterError("tolerance must be positive")
    band = _band_mass(joint.push_proj(1), col_outer.contains, col_inner.contains)
    if not band < eps:
        raise HypothesisError(f"marginal band mass {band} is not under {eps}")
    lhs = _band_mass(joint, _rect(col_outer, row_set), _rect(col_inner, row_set))
    if lhs > band:
        raise InternalConsistencyError("band mass exceeded its marginal majorant")
    return LemmaCheck(lhs, band, lhs < eps)


def check_box_diff_bound(
    joint: Measure,
    col_outer: IntervalSet,
    col_inner: IntervalSet,
    row_outer: IntervalSet,
    row_inner: IntervalSet,
    eps_col,
    eps_row,
) -> LemmaCheck:
    """Mass of (outer x outer) minus (inner x inner) is under the sum of tolerances.

    Hypotheses: each marginal puts mass under its tolerance on its outer
    minus inner difference.  The bound returned is the sum of the two band
    masses of the joint, through which the subadditivity estimate runs.
    """
    eps_col, eps_row = as_rational(eps_col), as_rational(eps_row)
    if eps_col <= 0 or eps_row <= 0:
        raise ParameterError("tolerances must be positive")
    col_band = _band_mass(joint.push_proj(1), col_outer.contains, col_inner.contains)
    if not col_band < eps_col:
        raise HypothesisError(f"first marginal band mass {col_band} is not under {eps_col}")
    row_band = _band_mass(joint.push_proj(2), row_outer.contains, row_inner.contains)
    if not row_band < eps_row:
        raise HypothesisError(f"second marginal band mass {row_band} is not under {eps_row}")
    outer = _rect(col_outer, row_outer)
    lhs = _band_mass(joint, outer, _rect(col_inner, row_inner))
    both_bands = (
        _band_mass(joint, outer, _rect(col_inner, row_outer))
        + _band_mass(joint, outer, _rect(col_outer, row_inner))
    )
    if lhs > both_bands:
        raise InternalConsistencyError("difference mass exceeded its two-band majorant")
    return LemmaCheck(lhs, both_bands, lhs < eps_col + eps_row)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class Violation:
    trial: int
    seed: Seed
    reason: str
    cell: tuple | None = None
    gap: Fraction | None = None
    mu: Measure | None = None
    nu: Measure | None = None


@dataclass(frozen=True)
class CertReport:
    trials: int
    violations: tuple = ()
    min_observed_gap: Fraction | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


def certify_trial(
    reference: Measure,
    refinement: RefineResult,
    targets: Sequence[BoxSet],
    eps: Fraction,
    delta: Fraction,
    trial: int,
    trial_seed: Seed,
) -> tuple[list[Violation], list[Fraction]]:
    """One certification round; pure given its seed, so violations replay."""
    grid = refinement.grid
    mu0 = reference.push_proj(1)
    nu0 = reference.push_proj(2)
    mu = sample_in_neighborhood(mu0, grid.cols, delta, trial_seed.derive(1))
    nu = sample_in_neighborhood(nu0, grid.rows, delta, trial_seed.derive(2))

    def bad(reason, cell=None, gap=None):
        return Violation(trial, trial_seed, reason, cell, gap, mu, nu)

    try:
        report = construct_preimage(reference, grid, mu, nu)
    except Error as exc:
        return [bad(f"construction-error: {exc}")], []

    violations: list[Violation] = []
    gaps: list[Fraction] = []
    coupling = report.coupling
    if coupling.push_proj(1) != mu or coupling.push_proj(2) != nu:
        violations.append(bad("marginal-mismatch"))
    for ix, drop in report.cell_drops.items():
        if not drop > -delta:
            violations.append(bad("cell-shortfall", cell=ix, gap=drop))
            break
    cells = [cell for _, cell in grid.cells()]
    if cells:
        cell_gap = Neighborhood(reference, tuple(cells), eps).gap(coupling)
        gaps.append(cell_gap)
        if not cell_gap > -eps:
            violations.append(bad("cell-membership", gap=cell_gap))
    target_gap = Neighborhood(reference, tuple(targets), eps).gap(coupling)
    gaps.append(target_gap)
    if not target_gap > -eps:
        violations.append(bad("target-membership", gap=target_gap))
    return violations, gaps


def certify_openness(
    reference: Measure,
    targets: Sequence[BoxSet],
    eps,
    trials: int,
    seed: Seed,
) -> CertReport:
    """Randomized end-to-end check of the preimage construction.

    Refines the targets, then for each trial samples marginal perturbations
    within the refinement's tolerance, rebuilds a coupling and asserts:
    exact marginals, per-cell shortfall under delta, membership in the cell
    neighborhood and membership in the original targets' neighborhood, both
    at eps.  Violations carry their trial seed and replay deterministically.
    """
    targets = list(targets)
    if not targets:
        raise ParameterError("certify_openness needs at least one target set")
    if not isinstance(trials, int) or trials < 1:
        raise ParameterError("trials must be a positive integer")
    eps = as_rational(eps)
    refinement = refine_grid(reference, targets, eps)
    delta = min(admissible_delta(eps), refinement.delta)

    violations: list[Violation] = []
    min_gap: Fraction | None = None
    for t in range(trials):
        got, gaps = certify_trial(reference, refinement, targets, eps, delta, t, seed.derive(t))
        violations.extend(got)
        for g in gaps:
            min_gap = g if min_gap is None else min(min_gap, g)
    return CertReport(trials, tuple(violations), min_gap)
