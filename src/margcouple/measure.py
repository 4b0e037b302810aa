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
``restrict``, ``scale``, ``push_proj``, ``+``, :func:`tensor`,
:func:`couple_mass` and the grid part of ``construct_preimage``.  Each
keeps the order by construction and re-sorts only where it cannot:
``push_proj(2)`` and a sum whose right operand brings new atoms.  ``-``,
:func:`barycenter` and everything parsed from a document still go through
the checks.

Sums of many weights go through :func:`_fsum`, which adds numerators as
ints per denominator and normalises once, instead of paying one ``gcd``
per added ``Fraction``: ``mass``, ``push_proj``, ``eval_many`` and
:meth:`..refine.Grid.cell_masses`.  The result is the same ``Fraction``,
since a ``Fraction`` is normalised whichever route builds it.  ``eval``,
``sum_where`` and :func:`barycenter` keep plain ``Fraction`` sums on
purpose, as do the oracles of :mod:`.verify`: they are the independent
routes the fast ones are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

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


def _fsum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum, normalised once: one int sum per denominator, then one lcm."""
    buckets: dict = {}
    for v in values:
        d = v.denominator
        buckets[d] = buckets.get(d, 0) + v.numerator
    den = lcm(*buckets)  # 1 for no buckets
    return Fraction(sum(n * (den // d) for d, n in buckets.items()), den)


def _normalized(space: Space, raw: Mapping) -> dict:
    rank = {}
    for key in raw:
        r = space.position(key)
        if r is None:
            raise ParameterError(f"weight keyed by unknown atom {key!r}")
        rank[key] = r
    out = {}
    for key in sorted(raw, key=rank.__getitem__):
        w = as_rational(raw[key])
        # the sign of a Fraction is its numerator's: int tests, not rich comparisons
        if not w.numerator:
            continue
        if w.numerator < 0:
            raise NegativeWeightError(key, w)
        out[key] = w
    return out


def _masks(space: SpaceDesc, keys: Iterable, bits: Mapping) -> dict:
    """Atom id -> OR of the bits of the open intervals holding its coordinate."""
    out = {}
    for k in keys:
        c = space.coord_of(k)
        out[k] = sum(bit for (lo, hi), bit in bits.items() if lo < c < hi)
    return out


def _check_geometry(space: Space, open_set: OpenSet) -> None:
    if isinstance(space, SpaceDesc) and not isinstance(open_set, IntervalSet):
        raise ParameterError("a line measure evaluates interval sets only")
    if isinstance(space, ProductSpace) and not isinstance(open_set, BoxSet):
        raise ParameterError("a product measure evaluates box sets only")


@dataclass(frozen=True)
class Measure:
    """A nonnegative finitely supported measure on a ground space."""

    space: Space
    weights: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "weights", _normalized(self.space, self.weights))

    @classmethod
    def _trusted(cls, space: Space, weights: dict) -> "Measure":
        """A measure on weights that are already valid, taken as they are.

        Only for results the library builds itself: every key an atom of
        ``space``, every weight a positive ``Fraction``, keys in atom order.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "space", space)
        object.__setattr__(m, "weights", weights)
        return m

    @classmethod
    def zero(cls, space: Space) -> "Measure":
        return cls._trusted(space, {})

    def mass(self) -> Fraction:
        return _fsum(self.weights.values())

    def support(self) -> tuple:
        return tuple(self.weights)

    def sum_where(self, pred: Callable) -> Fraction:
        """Total weight of atoms whose coordinate satisfies ``pred``.

        The predicate receives a rational for line measures and a coordinate
        pair for product measures.  This is the point-filtering primitive
        behind evaluation of open sets and of set differences.
        """
        coord = self.space.coord_of
        return sum((w for k, w in self.weights.items() if pred(coord(k))), Fraction(0))

    def eval(self, open_set: OpenSet) -> Fraction:
        _check_geometry(self.space, open_set)
        return self.sum_where(open_set.contains)

    def eval_many(self, sets: Sequence[OpenSet]) -> list[Fraction]:
        """``[self.eval(s) for s in sets]``, in one pass over the support.

        Every distinct interval the sets use gets one bit: the intervals of
        an interval set, the columns and rows of a box set.  Each support
        atom's coordinate is compared once with each distinct interval of
        its axis, giving it a bitmask per axis, and the weights are summed
        per pattern of masks.  A set's mass is the sum of the patterns that
        one of its boxes hits, tested with integer ``&``; an interval acts
        as a box whose row holds every atom.  Boxes may overlap and atoms
        may sit on endpoints: the comparisons are the strict ones of
        ``contains``, and a pattern counts once however many boxes hit it.
        """
        for s in sets:
            _check_geometry(self.space, s)
        product = isinstance(self.space, ProductSpace)
        boxes = [
            [(b.col, b.row) for b in s.boxes] if product else [(iv, None) for iv in s.intervals]
            for s in sets
        ]
        cols: dict = {}
        rows: dict = {}
        hits = [
            [(cols.setdefault(c, 1 << len(cols)), rows.setdefault(r, 1 << len(rows)))
             for c, r in bs]
            for bs in boxes
        ]
        if product:
            x_mask = _masks(self.space.x, {kx for kx, _ in self.weights}, cols)
            y_mask = _masks(self.space.y, {ky for _, ky in self.weights}, rows)
            patterns = {k: (x_mask[k[0]], y_mask[k[1]]) for k in self.weights}
        else:
            x_mask = _masks(self.space, self.weights, cols)
            patterns = {k: (x_mask[k], 1) for k in self.weights}
        groups: dict = {}
        for k, w in self.weights.items():
            groups.setdefault(patterns[k], []).append(w)
        sums = {p: _fsum(ws) for p, ws in groups.items()}
        return [
            _fsum(w for (mx, my), w in sums.items() if any(mx & c and my & r for c, r in h))
            for h in hits
        ]

    def restrict(self, open_set: OpenSet) -> "Measure":
        _check_geometry(self.space, open_set)
        coord = self.space.coord_of
        kept = {k: w for k, w in self.weights.items() if open_set.contains(coord(k))}
        return Measure._trusted(self.space, kept)

    def push_proj(self, axis: int) -> "Measure":
        """Pushforward along a coordinate projection of a product space."""
        if not isinstance(self.space, ProductSpace):
            raise ParameterError("push_proj needs a product measure")
        if axis not in (1, 2):
            raise ParameterError(f"axis must be 1 or 2, got {axis!r}")
        target = self.space.x if axis == 1 else self.space.y
        groups: dict = {}
        for (kx, ky), w in self.weights.items():
            groups.setdefault(kx if axis == 1 else ky, []).append(w)
        # the support is x-major, so first appearance is atom order on axis 1 only
        keys = groups if axis == 1 else sorted(groups, key=target.position)
        return Measure._trusted(target, {k: _fsum(groups[k]) for k in keys})

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
            acc = {k: acc[k] for k in sorted(acc, key=self.space.position)}
        return Measure._trusted(self.space, acc)

    def __sub__(self, other: "Measure") -> "Measure":
        """The difference; raises ``NegativeWeightError`` where other outweighs self."""
        if self.space != other.space:
            raise ParameterError("cannot subtract measures on different spaces")
        acc = dict(self.weights)
        for k, w in other.weights.items():
            acc[k] = acc.get(k, Fraction(0)) - w
        return Measure(self.space, acc)


@dataclass(frozen=True)
class MetaMeasure:
    """A finitely supported measure on measures over one common base space."""

    space: Space
    components: tuple = ()

    def __post_init__(self):
        comps = []
        for coeff, m in self.components:
            c = as_rational(coeff)
            if c < 0:
                raise NegativeWeightError(m, c)
            if m.space != self.space:
                raise ParameterError("meta-measure components must share the base space")
            comps.append((c, m))
        object.__setattr__(self, "components", tuple(comps))

    def mass(self) -> Fraction:
        return sum((c for c, _ in self.components), Fraction(0))


def barycenter(meta: MetaMeasure) -> Measure:
    """Collapse a measure on measures to its weighted average on the base."""
    acc: dict = {}
    for coeff, m in meta.components:
        for k, w in m.weights.items():
            acc[k] = acc.get(k, Fraction(0)) + coeff * w
    return Measure(meta.space, acc)


def tensor(mu: Measure, nu: Measure) -> Measure:
    """Product of two probability measures, weight by weight."""
    if mu.mass() != 1 or nu.mass() != 1:
        raise MassMismatchError("tensor takes probability measures")
    if not isinstance(mu.space, SpaceDesc) or not isinstance(nu.space, SpaceDesc):
        raise ParameterError("tensor takes line measures")
    prod = ProductSpace(mu.space, nu.space)
    # wx * wy as one Fraction, so one gcd per weight instead of two
    rows = [(kx, wx.numerator, wx.denominator) for kx, wx in mu.weights.items()]
    cols = [(ky, wy.numerator, wy.denominator) for ky, wy in nu.weights.items()]
    weights = {
        (kx, ky): Fraction(nx * ny, dx * dy) for kx, nx, dx in rows for ky, ny, dy in cols
    }
    return Measure._trusted(prod, weights)


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
    prod = ProductSpace(mu.space, nu.space)
    if c == 0:
        return Measure.zero(prod)
    # wx * wy / c as one Fraction, so one gcd per weight instead of four
    cn, cd = c.numerator, c.denominator
    rows = [(kx, wx.numerator * cd, wx.denominator * cn) for kx, wx in mu.weights.items()]
    weights = {
        (kx, ky): Fraction(nx * wy.numerator, dx * wy.denominator)
        for kx, nx, dx in rows
        for ky, wy in nu.weights.items()
    }
    return Measure._trusted(prod, weights)
