"""Interval and box algebra: canonical forms, membership, containment.

Open sets are unions of open intervals or open boxes.  The slippery parts
are all boundary behavior: abutting intervals are disjoint as open sets
and must never merge, and box containment has to notice a missing
boundary line inside a would-be cover.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from margcouple import (
    Atom,
    Box,
    BoxSet,
    IntervalSet,
    InvalidIntervalError,
    Measure,
    ParameterError,
    ProductSpace,
    SpaceDesc,
    boxes_disjoint,
    boxset_within,
    boxsets_disjoint,
    box_within,
    canonicalize,
    intervalsets_disjoint,
)
from margcouple.space import as_rational

F = Fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def interval_strategy():
    return (
        st.tuples(rationals, rationals)
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p)))
    )


raw_families = st.lists(interval_strategy(), min_size=1, max_size=5)


# -- atoms and spaces ------------------------------------------------------


def test_space_rejects_duplicates_and_floats():
    with pytest.raises(ParameterError):
        SpaceDesc((Atom("a", 0), Atom("a", 1)))
    with pytest.raises(ParameterError):
        Atom("a", 0.5)
    with pytest.raises(ParameterError):
        Atom("", 0)
    with pytest.raises(ParameterError):
        SpaceDesc(())


@pytest.mark.parametrize(
    "raw",
    [
        True, False, 0.5, Decimal("0.5"), None, (1, 2),
        "0.5", "1e-3", " 1/2 ", "1/2\n", "\u0663/4", "1_0", "", "/2", "1/", "+-1", "1/-2", "1/0",
    ],
    ids=repr,
)
def test_as_rational_refuses_other_types_and_loose_strings(raw):
    with pytest.raises(ParameterError):
        as_rational(raw)


@pytest.mark.parametrize(
    "raw, value",
    [("1/2", F(1, 2)), ("-3", F(-3)), ("+4/6", F(2, 3)), ("007/0014", F(1, 2)), (7, F(7)), (F(1, 3), F(1, 3))],
)
def test_as_rational_takes_fractions_ints_and_p_over_q(raw, value):
    out = as_rational(raw)
    assert out == value and type(out) is Fraction


def test_bool_coordinates_and_weights_refused():
    with pytest.raises(ParameterError):
        Atom("a", True)
    with pytest.raises(ParameterError):
        Measure(SpaceDesc((Atom("a", 0),)), {"a": True})


def test_space_lookup():
    s = SpaceDesc((Atom("a", 0), Atom("b", F(1, 2))))
    assert s.keys == ("a", "b")
    assert s.coord_of("b") == F(1, 2)
    assert s.has("a") and not s.has("z")
    assert s.position("b") == 1 and s.position("z") is None
    assert s.positions(["b", "z", "a"]) == [1, None, 0]
    with pytest.raises(ParameterError):
        s.coord_of("z")


def test_product_space_keys_are_x_major():
    x = SpaceDesc((Atom("a", 0), Atom("b", 1)))
    y = SpaceDesc((Atom("c", 0), Atom("d", 1)))
    p = ProductSpace(x, y)
    assert p.keys == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
    assert p.coord_of(("b", "c")) == (1, 0)
    assert not p.has(("c", "a"))
    assert [p.position(k) for k in p.keys] == [0, 1, 2, 3]
    for bad in (("c", "a"), ("a",), ("a", "c", "d"), "ac"):
        assert p.position(bad) is None
    keys = [*reversed(p.keys), ("c", "a"), ("a",), ("a", "c", "d"), "ac", ("a", "z")]
    assert p.positions(keys) == [p.position(k) for k in keys]
    with pytest.raises(ParameterError) as exc:
        p.coord_of(("zz", "c"))
    assert str(exc.value) == "unknown product atom ('zz', 'c')"


# -- canonical interval form ----------------------------------------------


def test_canonicalize_merges_overlaps_only():
    got = canonicalize([(1, 3), (0, 2)])
    assert got.intervals == ((F(0), F(3)),)
    # abutting intervals stay separate: the shared endpoint is in neither
    got = canonicalize([(0, 1), (1, 2)])
    assert got.intervals == ((F(0), F(1)), (F(1), F(2)))
    assert not got.contains(1)


def test_canonicalize_chains():
    got = canonicalize([(0, 2), (1, 4), (3, 5), (6, 7)])
    assert got.intervals == ((F(0), F(5)), (F(6), F(7)))


@given(raw_families, rationals)
def test_canonicalize_preserves_membership(raw, z):
    member = any(lo < z < hi for lo, hi in raw)
    assert canonicalize(raw).contains(z) == member


@given(raw_families)
def test_canonicalize_output_is_canonical(raw):
    got = canonicalize(raw).intervals
    for (lo, hi), (lo2, hi2) in zip(got, got[1:]):
        assert hi <= lo2


def test_intervalset_validation():
    with pytest.raises(InvalidIntervalError):
        IntervalSet.single(1, 1)
    with pytest.raises(InvalidIntervalError):
        IntervalSet.single(2, 1)
    with pytest.raises(ParameterError):
        IntervalSet(((F(0), F(2)), (F(1), F(3))))
    with pytest.raises(ParameterError):
        IntervalSet(((F(1), F(2)), (F(0), F(1))))
    # abutting is canonical
    IntervalSet(((F(0), F(1)), (F(1), F(2))))
    assert IntervalSet(()).is_empty


@given(raw_families, raw_families, rationals)
def test_intersect_is_pointwise(fam_a, fam_b, z):
    a, b = canonicalize(fam_a), canonicalize(fam_b)
    assert a.intersect(b).contains(z) == (a.contains(z) and b.contains(z))


def test_subset_of_respects_gaps():
    whole = IntervalSet.single(0, 2)
    split = canonicalize([(0, 1), (1, 2)])
    # the interior point 1 is missing from the split set
    assert not whole.subset_of(split)
    assert split.subset_of(whole)
    assert IntervalSet(()).subset_of(split)
    assert IntervalSet.single(F(1, 4), F(3, 4)).subset_of(whole)
    assert not IntervalSet.single(0, 1).subset_of(IntervalSet.single(F(1, 2), 3))


@given(raw_families, raw_families, rationals)
def test_subset_of_implies_membership(fam_a, fam_b, z):
    a, b = canonicalize(fam_a), canonicalize(fam_b)
    if a.subset_of(b) and a.contains(z):
        assert b.contains(z)


@given(raw_families, raw_families, rationals)
def test_disjoint_means_no_common_point(fam_a, fam_b, z):
    a, b = canonicalize(fam_a), canonicalize(fam_b)
    if intervalsets_disjoint(a, b):
        assert not (a.contains(z) and b.contains(z))


def test_disjoint_examples():
    assert intervalsets_disjoint(IntervalSet.single(0, 1), IntervalSet.single(1, 2))
    assert not intervalsets_disjoint(IntervalSet.single(0, 2), IntervalSet.single(1, 3))


def test_endpoints():
    s = canonicalize([(0, 1), (2, 3)])
    assert s.endpoints() == [0, 1, 2, 3]


# -- boxes -----------------------------------------------------------------


def test_box_membership_excludes_edges():
    b = Box((0, 2), (0, 1))
    assert b.contains((1, F(1, 2)))
    assert not b.contains((0, F(1, 2)))
    assert not b.contains((1, 1))
    with pytest.raises(InvalidIntervalError):
        Box((0, 0), (0, 1))


def test_boxes_disjoint_touching_edges():
    assert boxes_disjoint(Box((0, 1), (0, 1)), Box((1, 2), (0, 1)))
    assert not boxes_disjoint(Box((0, 2), (0, 2)), Box((1, 3), (1, 3)))


def test_boxset_validation_and_membership():
    with pytest.raises(ParameterError):
        BoxSet(("nope",))
    s = BoxSet((Box((0, 1), (0, 1)), Box((2, 3), (0, 1))))
    assert s.contains((F(1, 2), F(1, 2)))
    assert not s.contains((F(3, 2), F(1, 2)))
    assert BoxSet(()).is_empty
    assert boxsets_disjoint(s, BoxSet((Box((1, 2), (0, 1)),)))


def test_box_within_needs_the_crossing_covered():
    tall = Box((0, 2), (0, 1))
    halves = BoxSet((Box((0, 1), (0, 1)), Box((1, 2), (0, 1))))
    # the open segment x = 1 is in neither half
    assert not box_within(tall, halves)
    overlapping = BoxSet((Box((0, F(3, 2)), (0, 1)), Box((1, 2), (0, 1))))
    assert box_within(tall, overlapping)


def test_box_within_rejects_missing_interior_line():
    big = Box((0, 2), (0, 2))
    quads = BoxSet(
        (
            Box((0, 2), (0, 1)),
            Box((0, 1), (1, 2)),
            Box((1, 2), (1, 2)),
        )
    )
    # the horizontal line y = 1 is uncovered
    assert not box_within(big, quads)
    strips = BoxSet((Box((0, 2), (0, F(3, 2))), Box((0, 2), (1, 2))))
    assert box_within(big, strips)


def _dense_cover_check(box, cover):
    """Independent containment check: probe each arrangement cell at
    quarter points instead of midpoints and crossings."""
    xs = sorted({box.col[0], box.col[1], *(c for b in cover.boxes for c in b.col)})
    ys = sorted({box.row[0], box.row[1], *(c for b in cover.boxes for c in b.row)})
    quarters = (F(1, 4), F(1, 2), F(3, 4))
    xprobes = [a + t * (b - a) for a, b in zip(xs, xs[1:]) for t in quarters] + xs[1:-1]
    yprobes = [a + t * (b - a) for a, b in zip(ys, ys[1:]) for t in quarters] + ys[1:-1]
    for px in xprobes:
        for py in yprobes:
            if box.contains((px, py)) and not cover.contains((px, py)):
                return False
    return True


small_coords = st.integers(min_value=0, max_value=6).map(lambda n: F(n, 2))


def box_strategy():
    pair = st.tuples(small_coords, small_coords).filter(lambda p: p[0] != p[1])
    span = pair.map(lambda p: (min(p), max(p)))
    return st.tuples(span, span).map(lambda s: Box(s[0], s[1]))


@given(box_strategy(), st.lists(box_strategy(), min_size=1, max_size=4).map(lambda bs: BoxSet(tuple(bs))))
def test_box_within_agrees_with_dense_probing(box, cover):
    assert box_within(box, cover) == _dense_cover_check(box, cover)


def test_boxset_within():
    inner = BoxSet((Box((0, 1), (0, 1)), Box((2, 3), (0, 1))))
    outer = BoxSet((Box((-1, F(3, 2)), (-1, 2)), Box((F(3, 2), 4), (-1, 2))))
    assert boxset_within(inner, outer)
    assert not boxset_within(outer, inner)
    assert boxset_within(BoxSet(()), inner)
