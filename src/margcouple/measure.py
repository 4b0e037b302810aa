"""Finitely supported measures with exact rational weights.

A measure keys nonnegative weights by atom; zero weights are dropped at
construction so equality of measures is equality of supports and weights.
Construction looks each given key up once, as the atom's position in the
space (x-major on a product) from per-axis index maps, which both rejects
an unknown key and orders the weights; it never walks the space's full key
list, so it costs time in the number of given weights, not in |X|·|Y|.

A difference of measures is a measure only where it stays nonnegative;
otherwise subtraction raises, naming the first negative atom in atom
order.  Evaluation against an open set counts strictly interior atoms
only, matching the open-set semantics of :mod:`.space`.

The public constructor ``Measure(space, weights)`` always validates.
Results the library builds from measures that are already valid skip that
pass through the private ``Measure._trusted``, which takes positive
``Fraction`` weights keyed by atoms and already in atom order:
``zero``, ``restrict``, ``scale``, ``push_proj``, ``+``, :func:`tensor`,
:func:`couple_mass`, and ``construct_preimage``'s grid part and the rests
of its marginals.  Each keeps the order by construction (the grid part
filters its tensor's x-major weights, each rest its marginal's) and orders
keys only where it cannot:
``push_proj(2)`` and a sum whose right operand brings new atoms, which rank
their keys in one batch ``space.positions`` pass, never one ``position``
call per key.  ``-``, :func:`barycenter` and everything parsed from a
document still go through the checks.  :func:`tensor` and :func:`couple_mass`
share one product loop, one ``Fraction`` wx·wy/c per weight (c = 1 in
:func:`tensor`, the common mass in :func:`couple_mass`).

Sums of many weights add numerators as ints per denominator and are
normalised once, by :func:`_total`, instead of paying one ``gcd`` per added
``Fraction``.  :func:`_fsum` takes one sum (``mass``); :func:`_grouped`
adds each weight into its group's buckets inside the grouping pass, for
``push_proj`` and ``Measure._patterns`` and so for
:meth:`..refine.Grid.cell_masses`.  The result is the same ``Fraction``,
since a ``Fraction`` is normalised whichever route builds it.
Open-set geometry has one exact integer form, :class:`_Axis`: an axis's
distinct interval endpoints on one common denominator D cut it into slots,
a coordinate n/d finds its slot from divmod(n·D, d) by one integer
bisection, and an open interval is the mask of the slots it holds.
Membership against many open intervals has a compile half and an apply
half.  :func:`_bits` gives each distinct interval of an axis a bit and
:func:`_slots` cuts the axis into slots and gives each its mask.
``_patterns(x_slots, y_slots)`` applies two such slot tables to one
measure: one bitmask per distinct coordinate and axis, read off its slot,
and the mass per pattern.  The two checks of :mod:`.verify` build their
tables and apply them once.  A private ``_Family`` compiles a family of
sets on the same tables, each set's boxes as bit pairs, with a memo from
pattern to the sets it lies in; a neighbourhood keeps its family on its
centre and applies it to every candidate.  :mod:`.refine`
tests its targets' boxes, their mass and its cells' candidate owners on
the same slots, and a grid's tables give each slot the index of the piece
holding it, so ``_patterns`` bins a measure into its cells.
``eval``, ``sum_where`` and :func:`barycenter` test point by point with
plain ``Fraction`` sums on purpose, as do the oracles of :mod:`.verify`:
they are the independent routes the fast ones are checked against.

A measure's ``weights`` are never mutated after construction, by the
library or by its callers, so values that depend only on them are computed
once and kept on the instance: ``mass()``, each ``push_proj(axis)`` (the
same ``Measure`` on every call) and, through the private ``_cached``, a
neighbourhood's compiled family and centre masses keyed by its tuple of
sets, the sampler's set indices of the centre's atoms,
:meth:`..refine.Grid.cell_masses` keyed by the grid and, keyed by
``("pieces", grid)``, the cell ratios ``construct_preimage`` takes from
the reference's piece masses.  Within a ``certify`` run the reference's
marginals, piece masses and cell masses, every centre's set masses and
every family of sets are therefore built once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm

from ._record import record, setfield
from .errors import (
    MassMismatchError,
    NegativeWeightError,
    ParameterError,
)
from .space import (
    BoxSet,
    IntervalSet,
    OpenSet,
    ProductSpace,
    Space,
    SpaceDesc,
    as_rational,
)


def _total(buckets: Mapping) -> Fraction:
    """The sum of n/d over the buckets {d: n}, normalised once: one lcm, then one gcd."""
    if len(buckets) == 1:
        [(den, num)] = buckets.items()
        return Fraction(num, den)
    den = lcm(*buckets)  # 1 for no buckets
    return Fraction(sum(n * (den // d) for d, n in buckets.items()), den)


def _fsum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum: one int sum per denominator, then :func:`_total`."""
    buckets: dict = {}
    for v in values:
        n, d = v.as_integer_ratio()
        buckets[d] = buckets.get(d, 0) + n
    return _total(buckets)


def _grouped(groups: Iterable, weights: Iterable[Fraction]) -> dict:
    """Group -> the exact sum of its weights; the i-th weight joins the i-th group.

    Each group adds its numerators per denominator as it goes and is
    normalised once, by :func:`_total`; groups come in order of first appearance.
    """
    sums: dict = {}
    for g, w in zip(groups, weights):
        n, d = w.as_integer_ratio()
        buckets = sums.get(g)
        if buckets is None:
            sums[g] = {d: n}
        else:
            buckets[d] = buckets.get(d, 0) + n
    return {g: _total(buckets) for g, buckets in sums.items()}


def _in_atom_order(space: Space, weights: dict) -> dict:
    """``weights`` re-keyed in the space's atom order, every rank from one ``positions`` pass."""
    rank = dict(zip(weights, space.positions(weights)))
    return {k: weights[k] for k in sorted(weights, key=rank.__getitem__)}


def _normalized(space: Space, raw: Mapping) -> dict:
    ranks = space.positions(raw)
    if None in ranks:
        raise ParameterError(f"weight keyed by unknown atom {list(raw)[ranks.index(None)]!r}")
    out = {}
    for _, key in sorted(zip(ranks, raw)):  # ranks are distinct, so keys are never compared
        w = raw[key]
        if type(w) is not Fraction:
            w = as_rational(w)
        # the sign of a Fraction is its numerator's: int tests, not rich comparisons
        if not w.numerator:
            continue
        if w.numerator < 0:
            raise NegativeWeightError(key, w)
        out[key] = w
    return out


class _Axis:
    """The distinct endpoints of one axis on one common denominator D, cutting it into slots.

    Slot 2i + 1 is endpoint i and slot 2i the open gap below it, so the open
    interval (e_a, e_b) holds slots 2a + 2 ... 2b, and two open intervals
    meet exactly when their slot masks share a bit.  ``ends`` are the
    endpoints in order and ``scaled`` their numerators over D.
    """

    def __init__(self, ends: Iterable[Fraction]):
        ends = list(ends)
        self.den = den = lcm(*{e.denominator for e in ends})  # 1 for no ends
        at = {e.numerator * (den // e.denominator): e for e in ends}  # distinct by their ints
        self.scaled = sorted(at)
        self.ends = [at[n] for n in self.scaled]

    def slot(self, c: Fraction) -> int:
        """The slot of c = n/d, from divmod(n·D, d) and one integer bisection."""
        q, r = divmod(c.numerator * self.den, c.denominator)
        if r:  # q/D < c < (q + 1)/D: c lies above exactly the endpoints <= q, in a gap
            return 2 * bisect_right(self.scaled, q)
        i = bisect_left(self.scaled, q)
        return 2 * i + (i < len(self.scaled) and self.scaled[i] == q)

    def around(self, i: int) -> tuple[int, int, int]:
        """The slots of the gap below endpoint i, of endpoint i and of the gap above it."""
        return 2 * i, 2 * i + 1, 2 * i + 2

    def mask(self, iv: tuple) -> int:
        """The slots of an open interval whose ends are endpoints of the axis, one bit each."""
        lo, hi = iv
        return (1 << self.slot(hi)) - (2 << self.slot(lo))

    def above(self, c: Fraction) -> int:
        """The bit of the slot just above c: c's own if a gap, else the gap above endpoint c."""
        s = self.slot(c)
        return 1 << s + (s & 1)


def _slots(bits: Mapping) -> tuple[_Axis, list]:
    """The axis cut by the intervals keyed in ``bits``, and each slot's mask.

    An interval holds the slots strictly between its ends' slots; one
    difference array gives every slot's mask.
    """
    axis = _Axis(e for iv in bits for e in iv)
    diff = [0] * (2 * len(axis.ends) + 1)
    for (lo, hi), bit in bits.items():
        diff[axis.slot(lo) + 1] += bit
        diff[axis.slot(hi)] -= bit
    return axis, list(accumulate(diff))


def _classify(space: SpaceDesc, keys: Iterable, axis: _Axis, slot_mask: list) -> dict:
    """Atom id -> the mask of the slot its coordinate falls in."""
    coord, slot = space.coord_of, axis.slot
    return {k: slot_mask[slot(coord(k))] for k in keys}


def _check_geometry(space: Space, open_set: OpenSet) -> None:
    if isinstance(space, SpaceDesc) and not isinstance(open_set, IntervalSet):
        raise ParameterError("a line measure evaluates interval sets only")
    if isinstance(space, ProductSpace) and not isinstance(open_set, BoxSet):
        raise ParameterError("a product measure evaluates box sets only")


@record
class Measure:
    """A nonnegative finitely supported measure on a ground space."""

    def __init__(self, space: Space, weights: dict):
        setfield(self, "space", space)
        setfield(self, "weights", _normalized(space, weights))

    @classmethod
    def _trusted(cls, space: Space, weights: dict) -> "Measure":
        """A measure on weights that are already valid, taken as they are.

        Only for results the library builds itself: every key an atom of
        ``space``, every weight a positive ``Fraction``, keys in atom order.
        """
        m = object.__new__(cls)
        setfield(m, "space", space)
        setfield(m, "weights", weights)
        return m

    @classmethod
    def zero(cls, space: Space) -> "Measure":
        return cls._trusted(space, {})

    @cached_property
    def _mass(self) -> Fraction:
        return _fsum(self.weights.values())

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _cached(self, key, build: Callable):
        """``build()``, computed on the first call with ``key`` and kept on the measure.

        The keys in use: an axis (1, 2) for ``push_proj``; a tuple of sets for
        a neighbourhood's compiled family and centre masses; ``("held",
        sets)`` for the set indices of each atom in the sampler's workspace;
        a grid for its cell masses; ``("pieces", grid)`` for the cell ratios
        ``construct_preimage`` takes from the reference's piece masses.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def mass(self) -> Fraction:
        return self._mass

    def sum_where(self, pred: Callable) -> Fraction:
        """Total weight of atoms whose coordinate satisfies ``pred``.

        The predicate receives a rational for line measures and a coordinate
        pair for product measures.  ``eval`` filters points through it, the
        route that the pattern sums of ``_Family.masses`` are checked against.
        """
        coord = self.space.coord_of
        return sum((w for k, w in self.weights.items() if pred(coord(k))), Fraction(0))

    def eval(self, open_set: OpenSet) -> Fraction:
        _check_geometry(self.space, open_set)
        return self.sum_where(open_set.contains)

    def _patterns(self, x_slots: tuple, y_slots: tuple) -> dict:
        """The exact mass per ``(x value, y value)`` pattern of two slot tables.

        Each table is an :class:`_Axis` and a value per slot: a compiled
        family's masks, or a grid's piece indices.  Each distinct support
        coordinate of an axis is placed once among its axis's slots, and
        weights are summed per pattern.  A line measure's atoms lie in
        every row: y value -1.
        """
        if isinstance(self.space, ProductSpace):
            x_mask = _classify(self.space.x, {kx for kx, _ in self.weights}, *x_slots)
            y_mask = _classify(self.space.y, {ky for _, ky in self.weights}, *y_slots)
            # a generator: a list would keep one pattern tuple per atom alive at once
            patterns = ((x_mask[kx], y_mask[ky]) for kx, ky in self.weights)
        else:
            x_mask = _classify(self.space, self.weights, *x_slots)
            patterns = ((x_mask[k], -1) for k in self.weights)
        return _grouped(patterns, self.weights.values())

    def restrict(self, open_set: OpenSet) -> "Measure":
        _check_geometry(self.space, open_set)
        coord = self.space.coord_of
        kept = {k: w for k, w in self.weights.items() if open_set.contains(coord(k))}
        return Measure._trusted(self.space, kept)

    def push_proj(self, axis: int) -> "Measure":
        """Pushforward along a coordinate projection of a product space, built once per axis."""
        if not isinstance(self.space, ProductSpace):
            raise ParameterError("push_proj needs a product measure")
        if axis not in (1, 2):
            raise ParameterError(f"axis must be 1 or 2, got {axis!r}")
        return self._cached(axis, lambda: self._project(axis))

    def _project(self, axis: int) -> "Measure":
        sums = _grouped((key[axis - 1] for key in self.weights), self.weights.values())
        # the support is x-major, so first appearance is atom order on axis 1 only
        if axis == 1:
            return Measure._trusted(self.space.x, sums)
        return Measure._trusted(self.space.y, _in_atom_order(self.space.y, sums))

    def scale(self, factor) -> "Measure":
        c = as_rational(factor)
        if c < 0:
            raise ParameterError("scale factor must be nonnegative")
        if not c:
            return Measure.zero(self.space)
        return Measure._trusted(self.space, {k: c * w for k, w in self.weights.items()})

    def __add__(self, other: "Measure") -> "Measure":
        if self.space != other.space:
            raise ParameterError("cannot add measures on different spaces")
        acc = dict(self.weights)
        for k, w in other.weights.items():
            acc[k] = acc[k] + w if k in acc else w
        if len(acc) > len(self.weights):  # other brought atoms, appended out of order
            acc = _in_atom_order(self.space, acc)
        return Measure._trusted(self.space, acc)

    def __sub__(self, other: "Measure") -> "Measure":
        """The difference; raises ``NegativeWeightError`` where other outweighs self."""
        if self.space != other.space:
            raise ParameterError("cannot subtract measures on different spaces")
        acc = dict(self.weights)
        for k, w in other.weights.items():
            acc[k] = acc.get(k, Fraction(0)) - w
        return Measure(self.space, acc)


def _bits(intervals: Iterable) -> dict:
    """Each distinct interval -> a bit of its own, in order of first appearance."""
    return {iv: 1 << i for i, iv in enumerate(dict.fromkeys(intervals))}


class _Family:
    """Open sets compiled once, then applied to many measures by :meth:`Measure._patterns`.

    A box's column lies on the x axis (a line measure's only axis) and its
    row on the y axis; an interval set's intervals are boxes in every row.
    Each distinct interval has one bit on its axis, each axis its slots and
    their masks (see :func:`_slots`), and each set its boxes as (column
    bit, row bit) pairs.  ``held`` keeps, per pattern, the indices of the
    sets it lies in, so each pattern is tested against the sets once per
    family.
    """

    def __init__(self, sets: Sequence[OpenSet]):
        boxes = [
            [(b.col, b.row) for b in s.boxes]
            if isinstance(s, BoxSet)
            else [(iv, None) for iv in s.intervals]
            for s in sets
        ]
        col_bit = _bits(c for bs in boxes for c, _ in bs)
        row_bit = _bits(r for bs in boxes for _, r in bs if r is not None)
        self.x_slots, self.y_slots = _slots(col_bit), _slots(row_bit)
        self.hits = [[(col_bit[c], -1 if r is None else row_bit[r]) for c, r in bs] for bs in boxes]
        self.held: dict = {}

    def masses(self, m: Measure) -> list[Fraction]:
        """Each set's mass under ``m``: the patterns one of its boxes hits, summed once each."""
        per_set: list = [[] for _ in self.hits]
        for (mx, my), w in m._patterns(self.x_slots, self.y_slots).items():
            held = self.held.get((mx, my))
            if held is None:
                held = self.held[mx, my] = [
                    i for i, h in enumerate(self.hits) if any(mx & c and my & r for c, r in h)
                ]
            for i in held:
                per_set[i].append(w)
        return [_fsum(ws) for ws in per_set]


@record
class MetaMeasure:
    """A finitely supported measure on measures over one common base space."""

    def __init__(self, space: Space, components: tuple):
        comps = []
        for coeff, m in components:
            c = as_rational(coeff)
            if c < 0:
                raise NegativeWeightError(m, c)
            if m.space != space:
                raise ParameterError("meta-measure components must share the base space")
            comps.append((c, m))
        setfield(self, "space", space)
        setfield(self, "components", tuple(comps))


def barycenter(meta: MetaMeasure) -> Measure:
    """Collapse a measure on measures to its weighted average on the base."""
    acc: dict = {}
    for coeff, m in meta.components:
        for k, w in m.weights.items():
            acc[k] = acc.get(k, Fraction(0)) + coeff * w
    return Measure(meta.space, acc)


def _product(mu: Measure, nu: Measure, c: int | Fraction) -> Measure:
    """The weights wx * wy / c on the product space, each built as one Fraction.

    For c != 1 each row reduces wx / c once, so the products' gcds run on
    smaller ints.
    """
    scaled = mu.weights.items() if c == 1 else [(kx, wx / c) for kx, wx in mu.weights.items()]
    rows = [(kx, r.numerator, r.denominator) for kx, r in scaled]
    cols = [(ky, wy.numerator, wy.denominator) for ky, wy in nu.weights.items()]
    weights = {
        (kx, ky): Fraction(nx * ny, dx * dy) for kx, nx, dx in rows for ky, ny, dy in cols
    }
    return Measure._trusted(ProductSpace(mu.space, nu.space), weights)


def tensor(mu: Measure, nu: Measure) -> Measure:
    """Product of two probability measures, weight by weight."""
    if mu.mass() != 1 or nu.mass() != 1:
        raise MassMismatchError("tensor takes probability measures")
    if not isinstance(mu.space, SpaceDesc) or not isinstance(nu.space, SpaceDesc):
        raise ParameterError("tensor takes line measures")
    return _product(mu, nu, 1)


def couple_mass(mu: Measure, nu: Measure) -> Measure:
    """A canonical coupling of two equal-mass measures.

    For common mass c > 0 this is c times the product of the normalized
    inputs; for c = 0 it is the zero measure on the product space.
    """
    c = mu.mass()
    if c != nu.mass():
        raise MassMismatchError(f"cannot couple masses {c} and {nu.mass()}")
    if not isinstance(mu.space, SpaceDesc) or not isinstance(nu.space, SpaceDesc):
        raise ParameterError("couple_mass takes line measures")
    if c == 0:
        return Measure.zero(ProductSpace(mu.space, nu.space))
    return _product(mu, nu, c)
