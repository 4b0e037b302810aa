"""Finitely supported measures with exact rational weights.

A measure keys nonnegative weights by atom; zero weights are dropped at
construction so equality of measures is equality of supports and weights.
Construction checks each given key with the space's ``has`` and orders the
weights by the atom's position in the space (x-major on a product), looked
up in per-axis index maps; it never walks the space's full key list, so it
costs time in the number of given weights, not in |X|·|Y|.
A difference of measures is a measure only where it stays nonnegative;
otherwise subtraction raises, naming the first negative atom in atom
order.  Evaluation against an open set counts strictly interior atoms
only, matching the open-set semantics of :mod:`.space`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


def _normalized(space: Space, raw: Mapping) -> dict:
    for key in raw:
        if not space.has(key):
            raise ParameterError(f"weight keyed by unknown atom {key!r}")
    out = {}
    for key in sorted(raw, key=space.position):
        w = as_rational(raw[key])
        if w == 0:
            continue
        if w < 0:
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
    def zero(cls, space: Space) -> "Measure":
        return cls(space, {})

    def mass(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

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
            groups[patterns[k]] = groups.get(patterns[k], 0) + w
        return [
            sum(
                (w for (mx, my), w in groups.items() if any(mx & c and my & r for c, r in h)),
                Fraction(0),
            )
            for h in hits
        ]

    def restrict(self, open_set: OpenSet) -> "Measure":
        _check_geometry(self.space, open_set)
        coord = self.space.coord_of
        kept = {k: w for k, w in self.weights.items() if open_set.contains(coord(k))}
        return Measure(self.space, kept)

    def push_proj(self, axis: int) -> "Measure":
        """Pushforward along a coordinate projection of a product space."""
        if not isinstance(self.space, ProductSpace):
            raise ParameterError("push_proj needs a product measure")
        if axis not in (1, 2):
            raise ParameterError(f"axis must be 1 or 2, got {axis!r}")
        target = self.space.x if axis == 1 else self.space.y
        acc: dict = {}
        for (kx, ky), w in self.weights.items():
            k = kx if axis == 1 else ky
            acc[k] = acc.get(k, Fraction(0)) + w
        return Measure(target, acc)

    def scale(self, factor) -> "Measure":
        c = as_rational(factor)
        if c < 0:
            raise ParameterError("scale factor must be nonnegative")
        return Measure(self.space, {k: c * w for k, w in self.weights.items()})

    def __add__(self, other: "Measure") -> "Measure":
        if self.space != other.space:
            raise ParameterError("cannot add measures on different spaces")
        acc = dict(self.weights)
        for k, w in other.weights.items():
            acc[k] = acc.get(k, Fraction(0)) + w
        return Measure(self.space, acc)

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
    weights = {
        (kx, ky): wx * wy
        for kx, wx in mu.weights.items()
        for ky, wy in nu.weights.items()
    }
    return Measure(prod, weights)


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
    weights = {
        (kx, ky): wx * wy / c
        for kx, wx in mu.weights.items()
        for ky, wy in nu.weights.items()
    }
    return Measure(prod, weights)
