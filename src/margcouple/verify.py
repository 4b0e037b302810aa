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
from collections.abc import Sequence
from fractions import Fraction

from ._record import record, setfield
from .couple import construct_preimage
from .errors import (
    Error,
    HypothesisError,
    InternalConsistencyError,
    MassMismatchError,
    ParameterError,
)
from .measure import Measure, MetaMeasure, _bits, _check_geometry, _grouped, _slots, barycenter
from .refine import Grid, refine_grid
from .space import (
    Atom,
    BoxSet,
    IntervalSet,
    ProductSpace,
    SpaceDesc,
    as_positive,
)
from .weakstar import Neighborhood

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finalizer; the seed-derivation mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@record
class Seed:
    """A 64-bit seed; derivation is xor with an index, then mix64."""

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < (1 << 64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {value!r}")
        setfield(self, "value", value)

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


def _rand_unit(rng: random.Random) -> Fraction:
    # drawn mass fractions have denominator 2**16
    return Fraction(rng.randrange((1 << 16) + 1), 1 << 16)


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
    """Mutable weights plus the atoms freshly placed on each axis.

    A line space is the one-axis case of a product.  ``weights`` is also
    the walk order: it starts as the centre's support, :meth:`place`
    appends to it, and a key is never removed, only set to zero.  Each key
    is tested against the sets with ``contains`` once and filed in walk
    order in ``members`` (per set) or in ``outside`` (no set).  The
    centre's keys are tested once per centre and tuple of sets, and their
    set indices kept on the centre; a placed key is tested when it joins
    the walk, through :meth:`record`.
    """

    def __init__(self, center: Measure, sets: Sequence):
        self.space = center.space
        self.product = isinstance(center.space, ProductSpace)
        if self.product:
            self.axes, prefixes = (center.space.x, center.space.y), ("sx", "sy")
        else:
            self.axes, prefixes = (center.space,), ("s",)
        self.taken = [(p, {a.id for a in axis.atoms}) for p, axis in zip(prefixes, self.axes)]
        self.fresh: list[list[Atom]] = [[] for _ in self.axes]
        self.sets = sets
        self.members: list[list] = [[] for _ in sets]
        self.outside: list = []
        self.weights: dict = dict(center.weights)
        coord = center.space.coord_of
        held = center._cached(
            ("held", tuple(sets)), lambda: [self._held(coord(k)) for k in center.weights]
        )
        for key, indices in zip(center.weights, held):
            self._file(key, indices)

    def _held(self, coord) -> list[int]:
        """The indices of the sets holding coord."""
        return [i for i, s in enumerate(self.sets) if s.contains(coord)]

    def _file(self, key, indices) -> None:
        for i in indices:
            self.members[i].append(key)
        if not indices:
            self.outside.append(key)

    def record(self, key, coord, weight) -> None:
        """Append key to the walk with its weight, and to the list of each set holding coord."""
        self.weights[key] = weight
        self._file(key, self._held(coord))

    def place(self, coord):
        """Add a zero-weight atom at coord; an id already taken gains a leading "_"."""
        n = len(self.fresh[0])
        ids = []
        for (prefix, taken), fresh, c in zip(
            self.taken, self.fresh, coord if self.product else (coord,)
        ):
            key = f"{prefix}{n}"
            while key in taken:
                key = "_" + key
            taken.add(key)
            fresh.append(Atom(key, c))
            ids.append(key)
        key = tuple(ids) if self.product else ids[0]
        self.record(key, coord, Fraction(0))
        return key

    def live(self, keys) -> list:
        """The keys that carry weight now, in walk order."""
        return [k for k in keys if self.weights[k]]

    def finish(self) -> Measure:
        space = self.space
        if self.fresh[0]:
            axes = [SpaceDesc(a.atoms + tuple(f)) for a, f in zip(self.axes, self.fresh)]
            space = ProductSpace(*axes) if self.product else axes[0]
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
    delta = as_positive(delta, "delta")
    if center.mass() != 1:
        raise MassMismatchError("sampler perturbs probability measures")
    sets = list(sets)
    for s in sets:
        _check_geometry(center.space, s)
    rng = random.Random(seed.value)
    ws = _Workspace(center, sets)

    pool = Fraction(0)
    k = len(sets)
    if k:
        cap = delta / (2 * k)
        for members in ws.members:
            if rng.randrange(4) == 0:
                continue
            inside = ws.live(members)
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
    for s, members in zip(sets, ws.members):
        if rng.randrange(3):
            continue
        inside = ws.live(members)
        if not inside:
            continue
        key = inside[rng.randrange(len(inside))]
        moved = ws.weights[key]
        ws.weights[key] = Fraction(0)
        ws.weights[ws.place(_point_inside(rng, s))] = moved

    # mass outside every set is unconstrained
    outside = ws.live(ws.outside)
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
                live = ws.live(ws.weights)
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
# containment validators: every mass, marginal bands too, sums one pass of patterns


@record
class LemmaCheck:
    """Outcome of a containment validator: lhs, its proof-side majorant, verdict."""

    def __init__(self, lhs: Fraction, bound: Fraction, ok: bool):
        setfield(self, "lhs", lhs)
        setfield(self, "bound", bound)
        setfield(self, "ok", ok)


def _patterns(joint: Measure, cols: Sequence[IntervalSet], rows: Sequence[IntervalSet]):
    """Bits of each column and row set, and the joint's mass on the patterns where pred holds."""
    if not isinstance(joint.space, ProductSpace):
        raise ParameterError("a containment check takes a product measure")
    col_bit = _bits(iv for s in cols for iv in s.intervals)
    row_bit = _bits(iv for s in rows for iv in s.intervals)
    den, sums = joint._patterns(_slots(col_bit), _slots(row_bit))
    col_bits = [sum(col_bit[iv] for iv in s.intervals) for s in cols]
    row_bits = [sum(row_bit[iv] for iv in s.intervals) for s in rows]
    return col_bits, row_bits, lambda pred: Fraction(
        sum(n for p, n in sums.items() if pred(*p)), den
    )


def check_band_bound(
    joint: Measure, col_outer: IntervalSet, col_inner: IntervalSet, row_set: IntervalSet, eps
) -> LemmaCheck:
    """Mass of (outer minus inner) x row_set is under eps.

    Hypothesis: the first marginal puts mass under eps on outer minus
    inner; violating it raises, which is distinct from a failed check.
    The returned bound is the marginal mass of the column difference, the
    majorant through which the estimate runs.
    """
    eps = as_positive(eps, "tolerance")
    (outer, inner), (row,), mass = _patterns(joint, (col_outer, col_inner), (row_set,))
    band = mass(lambda mx, my: mx & outer and not mx & inner)
    if not band < eps:
        raise HypothesisError(f"marginal band mass {band} is not under {eps}")
    lhs = mass(lambda mx, my: mx & outer and not mx & inner and my & row)
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
    eps_col, eps_row = as_positive(eps_col, "tolerances"), as_positive(eps_row, "tolerances")
    (co, ci), (ro, ri), mass = _patterns(joint, (col_outer, col_inner), (row_outer, row_inner))
    col_band = mass(lambda mx, my: mx & co and not mx & ci)
    if not col_band < eps_col:
        raise HypothesisError(f"first marginal band mass {col_band} is not under {eps_col}")
    row_band = mass(lambda mx, my: my & ro and not my & ri)
    if not row_band < eps_row:
        raise HypothesisError(f"second marginal band mass {row_band} is not under {eps_row}")
    lhs = mass(lambda mx, my: mx & co and my & ro and not (mx & ci and my & ri))
    both_bands = mass(lambda mx, my: mx & co and my & ro and not mx & ci) + mass(
        lambda mx, my: mx & co and my & ro and not my & ri
    )
    if lhs > both_bands:
        raise InternalConsistencyError("difference mass exceeded its two-band majorant")
    return LemmaCheck(lhs, both_bands, lhs < eps_col + eps_row)


# ---------------------------------------------------------------------------
# certification


@record
class Violation:
    def __init__(
        self,
        trial: int,
        seed: Seed,
        reason: str,
        cell: tuple | None,
        gap: Fraction | None,
        mu: Measure | None,
        nu: Measure | None,
    ):
        setfield(self, "trial", trial)
        setfield(self, "seed", seed)
        setfield(self, "reason", reason)
        setfield(self, "cell", cell)
        setfield(self, "gap", gap)
        setfield(self, "mu", mu)
        setfield(self, "nu", nu)


@record
class CertReport:
    def __init__(self, trials: int, violations: tuple, min_observed_gap: Fraction | None):
        setfield(self, "trials", trials)
        setfield(self, "violations", violations)
        setfield(self, "min_observed_gap", min_observed_gap)

    @property
    def passed(self) -> bool:
        return not self.violations


def _has_marginals(coupling: Measure, mu: Measure, nu: Measure) -> bool:
    """Whether ``coupling.push_proj(1) == mu`` and ``coupling.push_proj(2) == nu``, in integers.

    Each projection stays a sum s of numerators over the coupling's common
    denominator D_c.  It matches a marginal whose weights are n over D_m
    when both lie on the same axis space, have supports of one size, and
    s·D_m == n·D_c on every atom of the marginal: every n is positive, so
    an atom the projection lacks fails the test.
    """
    den, nums = coupling._common
    for i, (space, m) in enumerate(((coupling.space.x, mu), (coupling.space.y, nu))):
        sums = _grouped((key[i] for key in coupling._keys), nums)
        m_den, m_nums = m._common
        if space != m.space or len(sums) != len(m_nums) or any(
            sums.get(k, 0) * m_den != n * den for k, n in zip(m._keys, m_nums)
        ):
            return False
    return True


def certify_trial(
    reference: Measure,
    grid: Grid,
    hood: Neighborhood,
    delta: Fraction,
    trial: int,
    trial_seed: Seed,
) -> tuple[list[Violation], list[Fraction]]:
    """One certification round; pure given its seed, so violations replay.

    ``hood`` is the targets' neighbourhood, which :func:`certify_openness`
    builds once per run.  The cell shortfall is the first drop of the
    coupling's cell masses below the reference's by delta or more, and the
    cell gap the worst drop, both from ``grid.cell_masses``: the
    coupling's is the bin :func:`construct_preimage` already kept on it,
    or one bin of a coupling built another way, never the report's fields.
    """
    mu = sample_in_neighborhood(reference.push_proj(1), grid.cols, delta, trial_seed.derive(1))
    nu = sample_in_neighborhood(reference.push_proj(2), grid.rows, delta, trial_seed.derive(2))

    def bad(reason, cell=None, gap=None):
        return Violation(trial, trial_seed, reason, cell, gap, mu, nu)

    try:
        report = construct_preimage(reference, grid, mu, nu)
    except Error as exc:
        return [bad(f"construction-error: {exc}")], []

    violations: list[Violation] = []
    coupling = report.coupling
    if not _has_marginals(coupling, mu, nu):
        violations.append(bad("marginal-mismatch"))
    ref_cells = grid.cell_masses(reference)
    drops = {ix: m - ref_cells[ix] for ix, m in grid.cell_masses(coupling).items()}
    for ix, drop in drops.items():
        if not drop > -delta:
            violations.append(bad("cell-shortfall", cell=ix, gap=drop))
            break
    checks = []  # cells first, and no cell check for a grid without cells
    if drops:
        checks.append(("cell-membership", min(drops.values())))
    checks.append(("target-membership", hood.gap(coupling)))
    for reason, gap in checks:
        if not gap > -hood.epsilon:
            violations.append(bad(reason, gap=gap))
    return violations, [gap for _, gap in checks]


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
    at eps.  The targets' neighbourhood is built once per run; the cell
    gap comes from the grid's cell masses.  Violations carry their trial
    seed and replay deterministically.
    """
    targets = list(targets)
    if not targets:
        raise ParameterError("certify_openness needs at least one target set")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ParameterError("trials must be a positive integer")
    eps = as_positive(eps, "eps")
    if reference.mass() != 1:
        raise MassMismatchError(f"reference must be a probability, has mass {reference.mass()}")
    if not isinstance(reference.space, ProductSpace):
        raise ParameterError("reference must be a product measure")
    refinement = refine_grid(reference, targets, eps)
    grid, delta = refinement.grid, refinement.delta
    hood = Neighborhood(reference, tuple(targets), eps)

    violations: list[Violation] = []
    min_gap: Fraction | None = None
    for t in range(trials):
        got, gaps = certify_trial(reference, grid, hood, delta, t, seed.derive(t))
        violations.extend(got)
        for g in gaps:
            min_gap = g if min_gap is None else min(min_gap, g)
    return CertReport(trials, tuple(violations), min_gap)
