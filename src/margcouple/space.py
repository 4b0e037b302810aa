"""Atomic ground spaces and exact open-set algebra on the rational line.

Points, interval endpoints and weights are all ``fractions.Fraction``; floats
are rejected at the boundary so every comparison in the package is exact.
Open sets come in two geometries: finite unions of open intervals on the
line, and finite unions of open axis-aligned boxes on a product of two
lines.  Canonical interval unions merge overlapping intervals but never
merge abutting ones: (0,1) u (1,2) keeps the shared endpoint outside the
set and is not the same open set as (0,2).
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from itertools import pairwise

from ._record import record, setfield
from .errors import InvalidIntervalError, ParameterError

Interval = tuple[Fraction, Fraction]


# a rational string, in documents and in the library alike: p or p/q, ASCII digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_rational(value) -> Fraction:
    """Coerce a Fraction, int or p/q string to a Fraction; nothing else is taken.

    Floats, decimals and bools are refused on purpose.  A string must be
    ``p`` or ``p/q`` in ASCII digits with an optional sign, as in documents:
    no spaces, decimal points, exponents or underscores.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, str)):
        raise ParameterError(f"refusing {value!r}; pass a Fraction, int or p/q string")
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ParameterError(f"not a p/q string: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational: {value!r}") from exc


def as_positive(value, what: str) -> Fraction:
    """:func:`as_rational` of value, refused as "<what> must be positive" unless above 0."""
    value = as_rational(value)
    if value <= 0:
        raise ParameterError(f"{what} must be positive")
    return value


def _interval(raw) -> Interval:
    try:
        lo, hi = raw
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"interval must be a (lo, hi) pair, got {raw!r}") from exc
    lo, hi = as_rational(lo), as_rational(hi)
    if not lo < hi:
        raise InvalidIntervalError(f"empty interval ({lo}, {hi})")
    return (lo, hi)


@record
class Atom:
    """A named point of a ground space."""

    def __init__(self, id: str, coord: Fraction):
        if not isinstance(id, str) or not id:
            raise ParameterError(f"atom id must be a non-empty string, got {id!r}")
        setfield(self, "id", id)
        setfield(self, "coord", as_rational(coord))


@record
class SpaceDesc:
    """An ordered finite list of atoms on the line; ids unique, coords free."""

    def __init__(self, atoms: tuple[Atom, ...]):
        atoms = tuple(atoms)
        if not atoms:
            raise ParameterError("a space needs at least one atom")
        seen = set()
        for atom in atoms:
            if atom.id in seen:
                raise ParameterError(f"duplicate atom id {atom.id!r}")
            seen.add(atom.id)
        setfield(self, "atoms", atoms)

    @cached_property
    def keys(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.atoms)

    @cached_property
    def _coords(self) -> dict:
        return {a.id: a.coord for a in self.atoms}

    @cached_property
    def _index(self) -> dict:
        return {a.id: i for i, a in enumerate(self.atoms)}

    def has(self, key) -> bool:
        return key in self._coords

    def position(self, key) -> int | None:
        """Rank of the atom in the space's atom order; None for an unknown key."""
        return self._index.get(key)

    def positions(self, keys: Iterable) -> list:
        """:meth:`position` of each key, in one pass."""
        return list(map(self._index.get, keys))

    def coord_of(self, key) -> Fraction:
        try:
            return self._coords[key]
        except KeyError:
            raise ParameterError(f"unknown atom {key!r}") from None


ProductKey = tuple[str, str]


@record
class ProductSpace:
    """The product of two line spaces; atoms are all pairs, x-major order."""

    def __init__(self, x: SpaceDesc, y: SpaceDesc):
        setfield(self, "x", x)
        setfield(self, "y", y)

    @cached_property
    def keys(self) -> tuple[ProductKey, ...]:
        return tuple((ax.id, ay.id) for ax in self.x.atoms for ay in self.y.atoms)

    def has(self, key) -> bool:
        return self.position(key) is not None

    def position(self, key) -> int | None:
        """Rank of the pair in the x-major order of :attr:`keys`; None for an unknown key."""
        if not (isinstance(key, tuple) and len(key) == 2):
            return None
        i, j = self.x._index.get(key[0]), self.y._index.get(key[1])
        if i is None or j is None:
            return None
        return i * len(self.y.atoms) + j

    def positions(self, keys: Iterable) -> list:
        """:meth:`position` of each key, in one pass over the axes' index maps."""
        xi, yi, ny = self.x._index, self.y._index, len(self.y.atoms)
        out = []
        for k in keys:
            known = isinstance(k, tuple) and len(k) == 2 and k[0] in xi and k[1] in yi
            out.append(xi[k[0]] * ny + yi[k[1]] if known else None)
        return out

    def coord_of(self, key) -> tuple[Fraction, Fraction]:
        if not self.has(key):
            raise ParameterError(f"unknown product atom {key!r}")
        return (self.x.coord_of(key[0]), self.y.coord_of(key[1]))


Space = SpaceDesc | ProductSpace


@record
class IntervalSet:
    """A canonical finite union of open intervals: sorted, pairwise disjoint.

    Abutting intervals such as (0,1),(1,2) are legal and stay separate; the
    shared endpoint is not a member.  Use :func:`canonicalize` to build one
    from unsorted or overlapping raw pairs.
    """

    def __init__(self, intervals: tuple[Interval, ...]):
        ivs = tuple(_interval(iv) for iv in intervals)
        for (_, hi), (lo, _) in pairwise(ivs):
            if hi > lo:
                raise ParameterError(f"intervals overlap or are unsorted near ({lo}, ...)")
        setfield(self, "intervals", ivs)

    @classmethod
    def single(cls, lo, hi) -> "IntervalSet":
        return cls(((lo, hi),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, point) -> bool:
        p = as_rational(point)
        return any(lo < p < hi for lo, hi in self.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo < hi:
                    out.append((lo, hi))
        # pieces inherit disjointness and order from the operands
        return IntervalSet(tuple(sorted(out)))

    def subset_of(self, other: "IntervalSet") -> bool:
        # an open interval covered by disjoint open intervals lies in one of them
        return all(
            any(olo <= lo and hi <= ohi for olo, ohi in other.intervals)
            for lo, hi in self.intervals
        )

    def endpoints(self) -> list[Fraction]:
        return [e for iv in self.intervals for e in iv]


def canonicalize(raw: Iterable) -> IntervalSet:
    """Sort raw (lo, hi) pairs and merge overlapping (never abutting) ones."""
    ivs = sorted(_interval(iv) for iv in raw)
    merged: list[Interval] = []
    for lo, hi in ivs:
        if merged and lo < merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return IntervalSet(tuple(merged))


def intervalsets_disjoint(a: IntervalSet, b: IntervalSet) -> bool:
    return all(
        max(alo, blo) >= min(ahi, bhi)
        for alo, ahi in a.intervals
        for blo, bhi in b.intervals
    )


@record
class Box:
    """An open axis-aligned rectangle: col x row, both open intervals."""

    def __init__(self, col: Interval, row: Interval):
        setfield(self, "col", _interval(col))
        setfield(self, "row", _interval(row))

    def contains(self, point) -> bool:
        px, py = point
        return self.col[0] < as_rational(px) < self.col[1] and self.row[0] < as_rational(py) < self.row[1]


@record
class BoxSet:
    """A finite union of open boxes; constituents may overlap each other."""

    def __init__(self, boxes: tuple[Box, ...]):
        boxes = tuple(boxes)
        if not all(isinstance(b, Box) for b in boxes):
            raise ParameterError("BoxSet takes Box values")
        setfield(self, "boxes", boxes)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, point) -> bool:
        return any(b.contains(point) for b in self.boxes)


OpenSet = IntervalSet | BoxSet


def boxes_disjoint(a: Box, b: Box) -> bool:
    col_hit = max(a.col[0], b.col[0]) < min(a.col[1], b.col[1])
    row_hit = max(a.row[0], b.row[0]) < min(a.row[1], b.row[1])
    return not (col_hit and row_hit)


def boxsets_disjoint(a: BoxSet, b: BoxSet) -> bool:
    return all(boxes_disjoint(ba, bb) for ba in a.boxes for bb in b.boxes)


def _probes(span: Interval, cuts: Iterable[Fraction]) -> list[Fraction]:
    # midpoints of the subdivision plus the interior cut coordinates; on each
    # of those the membership pattern of any open box family is constant
    lo, hi = span
    stops = sorted({lo, hi} | {c for c in cuts if lo < c < hi})
    out = []
    for a, b in pairwise(stops):
        out.append((a + b) / 2)
        if b != hi:
            out.append(b)
    return out


def box_within(box: Box, cover: BoxSet) -> bool:
    """Exact test for one open box inside a union of open boxes.

    The union may cover the box only jointly, so the box is probed on the
    arrangement induced by the cover: open sub-rectangles, the separating
    segments between them, and their crossings.  Probing one rational point
    per arrangement face decides containment exactly.
    """
    if cover.is_empty:
        return False
    xs = _probes(box.col, (e for b in cover.boxes for e in b.col))
    ys = _probes(box.row, (e for b in cover.boxes for e in b.row))
    return all(cover.contains((px, py)) for px in xs for py in ys)


def boxset_within(inner: BoxSet, cover: BoxSet) -> bool:
    return all(box_within(b, cover) for b in inner.boxes)
