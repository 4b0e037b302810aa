"""JSON documents: lossless round trips, strict parsing, stable bytes.

Weights are strings like "3/10" so nothing ever passes through binary
floating point; byte-identical dumps make output diffable and let the
command line promise reproducibility.
"""

import copy
import functools
import hashlib
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import instances
from margcouple import (
    Atom,
    Box,
    BoxSet,
    CellAlloc,
    CertReport,
    Grid,
    IntervalSet,
    LemmaCheck,
    Measure,
    ProductSpace,
    SchemaError,
    Seed,
    SpaceDesc,
    certify_openness,
    check_band_bound,
    construct_preimage,
    marginal_pair,
    refine_grid,
)
from margcouple.documents import (
    SCHEMA_VERSION,
    CheckDocument,
    SetsDocument,
    _write,
    dumps,
    format_rational,
    from_document,
    loads,
    parse_rational,
    to_document,
)

F = Fraction


# -- rational strings ------------------------------------------------------


def test_format_rational():
    assert format_rational(F(3, 10)) == "3/10"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(0)) == "0"
    # str() would write these as "3602879701896397/36028797018963968", "1" and "1/2"
    for value, name in ((0.1, "float"), (True, "bool"), (False, "bool"), ("1/2", "str"),
                        (None, "NoneType"), (1.0, "float")):
        with pytest.raises(SchemaError) as exc:
            format_rational(value)
        assert str(exc.value) == f"cannot write a {name} as a rational"
    with pytest.raises(SchemaError) as exc:
        dumps(CheckDocument(4, LemmaCheck(0.5, F(1, 4), True)))
    assert str(exc.value) == "cannot write a float as a rational"
    with pytest.raises(SchemaError) as exc:
        dumps(CheckDocument(4, LemmaCheck(F(1, 2), True, True)))
    assert str(exc.value) == "cannot write a bool as a rational"


def test_parse_rational_strict():
    assert parse_rational("3/10", "p") == F(3, 10)
    assert parse_rational("-7", "p") == -7
    assert parse_rational("+2/4", "p") == F(1, 2)
    for bad in ("0.5", "1e3", "", "1/", "/2", "a", None, 1.5):
        with pytest.raises(SchemaError):
            parse_rational(bad, "p")
    with pytest.raises(SchemaError) as exc:
        parse_rational("1/0", "badfield")
    assert "badfield" in str(exc.value)


def test_oversized_numbers_name_the_field():
    # past the interpreter's int-string digit limit int() raises ValueError
    for raw in ("1/" + "7" * 5000, "7" * 5000):
        with pytest.raises(SchemaError) as exc:
            parse_rational(raw, "bigfield")
        assert "bigfield: number too large" in str(exc.value)
    text = dumps(instances.worked_grid())
    text = text.replace('"schema_version": 1', '"schema_version": 1' + "0" * 4999)
    with pytest.raises(SchemaError) as exc:
        loads(text)
    assert "number too large" in str(exc.value)


def test_format_rational_ints_signs_and_digit_limit():
    assert format_rational(5) == "5"
    assert format_rational(-3) == "-3"
    assert format_rational(F(-7, 3)) == "-7/3"
    assert format_rational(F(-6, 4)) == "-3/2"
    assert format_rational(F(10**4000, 3)) == "1" + "0" * 4000 + "/3"
    for big in (F(1, 10**5000), F(-(10**5000)), 10**5000):
        with pytest.raises(SchemaError) as exc:
            format_rational(big)
        assert str(exc.value).startswith("number too large to write (over ")


def test_parse_rational_messages_word_for_word():
    with pytest.raises(SchemaError) as exc:
        parse_rational("-3/0", "m.weights.a")
    assert str(exc.value) == "m.weights.a: zero denominator in '-3/0'"
    with pytest.raises(SchemaError) as exc:
        parse_rational("1/" + "7" * 5000, "m.weights.a")
    limit = sys.get_int_max_str_digits()
    assert str(exc.value) == f"m.weights.a: number too large (over {limit} digits)"
    with pytest.raises(SchemaError) as exc:
        parse_rational("0.5", "m.weights.a")
    assert str(exc.value) == "m.weights.a: expected a rational string like '1/10', got '0.5'"


def test_parse_rational_ascii_digits_and_no_trailing_newline():
    # "$" matched before a final newline and "\d" any Unicode digit
    for raw in ("3/4\n", "\u0663/4", "3/\u0664", "\uff13", "3/4\n\n", " 3/4", "1_0/3"):
        with pytest.raises(SchemaError) as exc:
            parse_rational(raw, "p")
        assert str(exc.value) == f"p: expected a rational string like '1/10', got {raw!r}"


def test_parse_rational_names_an_unprintable_integer():
    # repr() of an int past the int-string digit limit raises ValueError
    with pytest.raises(SchemaError) as exc:
        parse_rational(10**5000, "p")
    assert str(exc.value).startswith("p: expected a rational string like '1/10', got ")


@given(st.from_regex(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?", fullmatch=True))
def test_parse_rational_equals_fraction(raw):
    assert parse_rational(raw, "p") == Fraction(raw)


@pytest.mark.parametrize(
    "raw", ["0/5", "-0/5", "+0", "007/010", "-0012/0003", "+9/1", "9" * 4000 + "/" + "7" * 4000]
)
def test_parse_rational_equals_fraction_examples(raw):
    value = parse_rational(raw, "p")
    assert type(value) is Fraction
    assert value == Fraction(raw)


# -- round trips -----------------------------------------------------------


def _worked_objects():
    ref = instances.worked_reference()
    grid = instances.worked_grid()
    targets = instances.worked_targets()
    mu, nu = instances.worked_perturbed()
    rep = construct_preimage(ref, grid, mu, nu)
    rr = refine_grid(ref, targets, F(1, 5))
    cert = certify_openness(ref, targets, F(1, 5), 5, Seed(7))
    outer = IntervalSet.single(F(-1, 2), F(3, 2))
    inner = IntervalSet.single(F(-1, 2), F(1, 2))
    check = CheckDocument(4, check_band_bound(ref, outer, inner, outer, F(3, 5)))
    return [
        ref.space.x,
        ref.space,
        ref,
        mu,
        grid,
        rr,
        rep,
        marginal_pair(ref),
        cert,
        SetsDocument(tuple(targets)),
        SetsDocument((outer, inner)),
        check,
    ]


@pytest.mark.parametrize("index", range(12))
def test_round_trip_exact(index):
    obj = _worked_objects()[index]
    text = dumps(obj)
    back = loads(text)
    assert back == obj
    assert dumps(back) == text


def _violation_reports():
    """A certify report whose trials all fail, and one violation with a cell and gap."""

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("margcouple.verify.construct_preimage", instances.broken_preimage)
        failed = certify_openness(
            instances.worked_reference(), instances.worked_targets(), F(1, 5), 10, Seed(2024)
        )
    located = replace(failed.violations[0], cell=(0, 1), gap=F(-1, 10))
    return [failed, CertReport(2, (located,), F(1, 40))]


# sha256 of dumps() for each of _worked_objects() + _violation_reports():
# stored documents and golden command-line outputs rely on these exact bytes
GOLDEN_SHA256 = (
    "531a7084520a575df0c693f7a20750fbbe0fedc3df82ff2362cfe8d1abf78501",
    "f014cd0658e280d0af765147cf7cb16e5a7c12f533fcaeda863a36c3a2689987",
    "e868982e87df705463df262103cc4416d07883dab51642236a02052cb16659c0",
    "9d160dade8390f13e432651c87e7faf3ebfb35408f48febd8b35c63a0f18ad13",
    "d775720c6ca3563072252e13c8276a5490d5ac243b9d4893799d2578910cc4ab",
    "f72d77ee8d7709a7551021a90b836be22b2b4cbc748231d8334e368ddfc38791",
    "ab726409bc3efa630aa7e15886610aee4ff28e4f01607db5a865b1f64a5edecd",
    "d7cc1a21fb95ecb8d69709a309b99296305e35508781c79b77e71749d7d43181",
    "b53f59d06763720a88078ee5d86696747edcaa9b3e4fa1ee70ff2a0c3efc989f",
    "bd6242593952a9f7d4659674f6a91d02fb6823cdd48ab1aca9211d57c76af7b4",
    "daef306c4709f44a0b09ad3f8111c8d16be841a052a2828e02235955ddc0e80f",
    "cc445ffc6f9a432ee995325f920145a046a8f1af6f4004313839773b4b27f81e",
    "d84069a36c414fddc140b5d460547f6243c965bc9fb9ef3c0b0e871ecc455781",
    "e6f2eacbbe0a05a80b8faf18654a133ca67143ea99d8e7ddace301de5d829d05",
)


@pytest.mark.parametrize("index", range(len(GOLDEN_SHA256)))
def test_dumps_golden_bytes(index):
    obj = (_worked_objects() + _violation_reports())[index]
    text = dumps(obj)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN_SHA256[index]
    assert loads(text) == obj


# any code point, lone surrogates included, weighted towards those json escapes
json_text = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u00e9\U0001f600')
)
written_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=20,
)


@given(written_values)
def test_writer_equals_json_indent_encoder(value):
    assert _write(value, "\n") == json.dumps(value, indent=2, ensure_ascii=True)


@pytest.mark.parametrize("value", [[], {}, [[], {}], {"a": {}, "b": [[]]}, -5, [-(10**40)]])
def test_writer_empty_containers_and_negative_ints(value):
    assert _write(value, "\n") == json.dumps(value, indent=2, ensure_ascii=True)


@pytest.mark.parametrize(
    "value", [1.5, 0.0, F(1, 2), [F(1)], {"w": [1, 2.5]}, (1, 2), {1: "a"}, {None: 1}]
)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _write(value, "\n")


# -- measure documents, weight by weight -----------------------------------

# atom ids weighted towards what json escapes, non-ASCII and astral characters
atom_ids = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\%{}/\b\f\n\r\t\x00\x1f\x7fé \U0001f600'),
    min_size=1,
    max_size=5,
)
# small parts and parts of 1,000+ digits; the digit limit is 4300
parts = st.integers(1, 10**6) | st.integers(10**1000, 10**1050)
rationals = st.builds(F, st.integers(-(10**6), 10**6) | parts | parts.map(int.__neg__), parts)


@st.composite
def line_spaces(draw, max_atoms=4):
    ids = draw(st.lists(atom_ids, min_size=1, max_size=max_atoms, unique=True))
    return SpaceDesc(tuple(Atom(i, draw(rationals)) for i in ids))


@st.composite
def line_measures(draw):
    space = draw(line_spaces())
    keys = draw(st.lists(st.sampled_from(space.keys), unique=True))
    return Measure(space, {k: abs(draw(rationals)) for k in keys})


@st.composite
def product_measures(draw):
    space = ProductSpace(draw(line_spaces()), draw(line_spaces()))
    keys = draw(st.lists(st.sampled_from(space.keys), unique=True))
    return Measure(space, {k: abs(draw(rationals)) for k in keys})


def _renamed(space: SpaceDesc, ids: list) -> SpaceDesc:
    return SpaceDesc(tuple(Atom(i, a.coord) for i, a in zip(ids, space.atoms)))


@st.composite
def preimage_reports(draw):
    """A report on a random instance, its atoms renamed, its marginals over one big denominator."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ref, grid = instances.random_instance(rng)
    sx, sy = ref.space.x, ref.space.y
    x = _renamed(sx, draw(st.lists(atom_ids, min_size=len(sx.atoms), max_size=len(sx.atoms),
                                   unique=True)))
    y = _renamed(sy, draw(st.lists(atom_ids, min_size=len(sy.atoms), max_size=len(sy.atoms),
                                   unique=True)))
    rename = {**dict(zip(sx.keys, x.keys)), **dict(zip(sy.keys, y.keys))}
    ref = Measure(
        ProductSpace(x, y), {(rename[kx], rename[ky]): w for (kx, ky), w in ref.weights.items()}
    )
    den = draw(parts)

    def marginal(space):
        cuts = sorted(draw(st.integers(0, den)) for _ in space.atoms[1:])
        edges = [0, *cuts, den]
        return Measure(space, {k: F(b - a, den) for k, a, b in zip(space.keys, edges, edges[1:])})

    return construct_preimage(ref, grid, marginal(x), marginal(y))


def _json_indent(obj) -> str:
    return json.dumps(to_document(obj), indent=2, ensure_ascii=True) + "\n"


@settings(max_examples=60, deadline=None)
@given(line_measures() | product_measures())
def test_measure_dumps_equals_json_indent_encoder(m):
    text = dumps(m)
    assert text == _json_indent(m)
    assert loads(text) == m


@settings(max_examples=25, deadline=None)
@given(preimage_reports())
def test_preimage_dumps_equals_json_indent_encoder(rep):
    text = dumps(rep)
    assert text == _json_indent(rep)
    assert loads(text) == rep


def test_measure_dumps_examples_equal_json_indent_encoder():
    big = F(10**1200 + 7, 3**2000)
    x = SpaceDesc((Atom('"\\', -big), Atom("%s{}", 0), Atom("\x00\né\U0001f600", big)))
    y = SpaceDesc((Atom("{0}", 1), Atom("\ud800", F(1, 3))))
    line = Measure(x, {'"\\': big, "\x00\né\U0001f600": F(1, 2)})
    joint = Measure(ProductSpace(x, y), {("%s{}", "{0}"): big, ('"\\', "\ud800"): F(5)})
    for m in (line, joint, Measure.zero(x), Measure.zero(joint.space)):
        assert dumps(m) == _json_indent(m)
        assert loads(dumps(m)) == m


_LINE = '{"kind": "space", "atoms": [{"id": "a", "coord": "0"}, {"id": "b", "coord": "1"}]}'
_PRODUCT = (
    '{"kind": "product_space", "x": ' + _LINE + ', "y": '
    + _LINE.replace('"a"', '"c"').replace('"b"', '"d"') + "}"
)
_HUGE = "1/" + "7" * 5000  # past the int-string digit limit

# (space, weights as JSON text, the SchemaError's text); json.loads sees the
# text itself, so a repeated key stays visible
MEASURE_FAULTS = {
    "product-not-list": (
        _PRODUCT, '{"a": "1"}', "measure.weights: expected a list of [[x, y], mass] pairs"),
    "entry-one-item": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"]]]',
        "measure.weights[1]: expected [[x, y], mass] with atom id strings"),
    "entry-three-items": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], "1/2", 3]]',
        "measure.weights[1]: expected [[x, y], mass] with atom id strings"),
    "entry-object": (
        _PRODUCT, '[[["a", "c"], "1/2"], {"b": "d"}]',
        "measure.weights[1]: expected [[x, y], mass] with atom id strings"),
    "entry-string": (
        _PRODUCT, '["ac", "1/2"]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "pair-three-ids": (
        _PRODUCT, '[[["a", "c", "d"], "1/2"]]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "pair-object": (
        _PRODUCT, '[[{"a": "c", "b": "d"}, "1/2"]]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "id-integer": (
        _PRODUCT, '[[["a", 1], "1/2"], [["b", "d"], "1/2"]]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "id-list": (
        _PRODUCT, '[[[["a"], "c"], "1/2"]]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "id-null": (
        _PRODUCT, '[[[null, "c"], "1/2"]]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "repeated-pair": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], "1/2"], [["a", "c"], "0"]]',
        "measure.weights[2]: repeated weight for atom ['a', 'c']"),
    "product-decimal": (
        _PRODUCT, '[[["a", "c"], "0.5"], [["b", "d"], "1/2"]]',
        "measure.weights[0]: expected a rational string like '1/10', got '0.5'"),
    "product-number": (
        _PRODUCT, '[[["a", "c"], 1], [["b", "d"], "1/2"]]',
        "measure.weights[0]: expected a rational string like '1/10', got 1"),
    "product-float": (
        _PRODUCT, '[[["b", "d"], 0.5]]',
        "measure.weights[0]: expected a rational string like '1/10', got 0.5"),
    "product-zero-denominator": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], "1/0"]]',
        "measure.weights[1]: zero denominator in '1/0'"),
    "product-over-digit-limit": (
        _PRODUCT, '[[["a", "c"], "' + _HUGE + '"], [["b", "d"], "1/2"]]',
        "measure.weights[0]: number too large (over {limit} digits)"),
    "product-unknown-atom": (
        _PRODUCT, '[[["a", "z"], "1/2"], [["b", "d"], "1/2"]]',
        "measure: weight keyed by unknown atom ('a', 'z')"),
    "product-negative": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], "-1/2"]]',
        "measure: negative weight -1/2 at atom ('b', 'd')"),
    "line-not-object": (
        _LINE, '[["a", "1"]]', "measure.weights: expected an object keyed by atom id"),
    "line-repeated-key": (
        _LINE, '{"a": "1/2", "b": "1/2", "a": "0"}', "measure.weights.a: repeated key"),
    "line-decimal": (
        _LINE, '{"a": "1/2", "b": "0.5"}',
        "measure.weights.b: expected a rational string like '1/10', got '0.5'"),
    "line-number": (
        _LINE, '{"a": 1, "b": "1/2"}',
        "measure.weights.a: expected a rational string like '1/10', got 1"),
    "line-null": (
        _LINE, '{"a": null}', "measure.weights.a: expected a rational string like '1/10', got None"),
    "line-zero-denominator": (
        _LINE, '{"a": "-3/0"}', "measure.weights.a: zero denominator in '-3/0'"),
    "line-over-digit-limit": (
        _LINE, '{"a": "1/2", "b": "' + _HUGE + '"}',
        "measure.weights.b: number too large (over {limit} digits)"),
    "line-unknown-atom": (
        _LINE, '{"a": "1/2", "z": "1/2"}', "measure: weight keyed by unknown atom 'z'"),
    "line-negative": (
        _LINE, '{"a": "-1/2", "b": "3/2"}', "measure: negative weight -1/2 at atom 'a'"),
    # two faults: the first entry's shape or rational, then unknown atoms, then
    # the first negative weight in atom order
    "bad-rational-then-bad-shape": (
        _PRODUCT, '[[["a", "c"], "x"], [["b"], "1/2"]]',
        "measure.weights[0]: expected a rational string like '1/10', got 'x'"),
    "bad-shape-then-bad-rational": (
        _PRODUCT, '[[["b"], "1/2"], [["a", "c"], "x"]]',
        "measure.weights[0]: expected [[x, y], mass] with atom id strings"),
    "repeated-pair-with-bad-rational": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["a", "c"], "x"]]',
        "measure.weights[1]: repeated weight for atom ['a', 'c']"),
    "over-digit-limit-then-bad-shape": (
        _PRODUCT, '[[["a", "c"], "' + _HUGE + '"], [["b", "d"]]]',
        "measure.weights[0]: number too large (over {limit} digits)"),
    "unknown-atom-then-bad-rational": (
        _PRODUCT, '[[["a", "z"], "1/2"], [["b", "d"], "x"]]',
        "measure.weights[1]: expected a rational string like '1/10', got 'x'"),
    "negative-then-unknown-atom": (
        _PRODUCT, '[[["a", "c"], "-1/2"], [["b", "z"], "1/2"]]',
        "measure: weight keyed by unknown atom ('b', 'z')"),
    "two-negatives-out-of-order": (
        _PRODUCT, '[[["b", "d"], "-1/4"], [["a", "c"], "-1/2"]]',
        "measure: negative weight -1/2 at atom ('a', 'c')"),
    "line-bad-rational-then-negative": (
        _LINE, '{"b": "x", "a": "-1/2"}',
        "measure.weights.b: expected a rational string like '1/10', got 'x'"),
    "line-two-negatives-out-of-order": (
        _LINE, '{"b": "-1/4", "a": "-1/2"}', "measure: negative weight -1/2 at atom 'a'"),
    "line-negative-unknown-atom": (
        _LINE, '{"a": "-1/2", "z": "1/2"}', "measure: weight keyed by unknown atom 'z'"),
    "line-bad-rational-then-repeated-key": (
        _LINE, '{"a": "x", "b": "1/2", "b": "1/2"}', "measure.weights.b: repeated key"),
    # faults in the space come before any weight's
    "atom-id-integer": (
        _LINE.replace('"id": "a"', '"id": 7'), '{"a": "x"}',
        "measure.space.atoms[0].id: wrong type int"),
    "atom-id-empty": (
        _LINE.replace('"id": "b"', '"id": ""'), '{"a": "x"}',
        "measure.space.atoms[1]: atom id must be a non-empty string, got ''"),
    "atom-coord-decimal": (
        _LINE.replace('"coord": "1"', '"coord": "1.0"'), '{"a": "x"}',
        "measure.space.atoms[1].coord: expected a rational string like '1/10', got '1.0'"),
    "atom-coord-number": (
        _LINE.replace('"coord": "0"', '"coord": 0'), '{"a": "x"}',
        "measure.space.atoms[0].coord: expected a rational string like '1/10', got 0"),
    "atom-coord-missing": (
        _LINE.replace(', "coord": "1"', ""), '{"a": "x"}', "measure.space.atoms[1].coord: missing"),
    "atom-not-object": (
        _LINE.replace('{"id": "a", "coord": "0"}', '["a", "0"]'), '{"a": "x"}',
        "measure.space.atoms[0]: expected an object"),
    "atom-repeated-key": (
        _LINE.replace('"coord": "0"', '"coord": "0", "id": "a"'), '{"a": "x"}',
        "measure.space.atoms[0].id: repeated key"),
    "atom-id-twice": (
        _LINE.replace('"id": "b"', '"id": "a"'), '{"a": "x"}',
        "measure.space: duplicate atom id 'a'"),
    "product-space-fault-first": (
        _PRODUCT.replace('"coord": "1"', '"coord": "x"', 1), '[[["b"], "1/2"]]',
        "measure.space.x.atoms[1].coord: expected a rational string like '1/10', got 'x'"),
}


@pytest.mark.parametrize("name", MEASURE_FAULTS)
def test_malformed_measure_messages_word_for_word(name):
    space, weights, message = MEASURE_FAULTS[name]
    text = '{"schema_version": 1, "kind": "measure", "space": ' + space
    text += ', "weights": ' + weights + "}"
    with pytest.raises(SchemaError) as exc:
        loads(text)
    assert str(exc.value) == message.format(limit=sys.get_int_max_str_digits())


def test_measure_documents_accept_what_they_name():
    # the fault table's documents without their faults parse
    joint = '[[["a", "c"], "1/2"], [["b", "d"], "+2/4"], [["a", "d"], "0"]]'
    for space, weights in ((_PRODUCT, joint), (_LINE, '{"b": "1/2", "a": "-0/3"}')):
        text = '{"schema_version": 1, "kind": "measure", "space": ' + space
        m = loads(text + ', "weights": ' + weights + "}")
        assert m.mass() in (1, F(1, 2))
        assert list(m.weights) == sorted(m.weights, key=m.space.position)


def test_dumps_does_not_use_json_dumps(monkeypatch):
    expected = dumps(instances.worked_reference())

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert dumps(instances.worked_reference()) == expected


def test_dumps_ends_with_newline_and_is_ascii():
    text = dumps(instances.worked_reference())
    assert text.endswith("\n")
    text.encode("ascii")


def test_round_trip_random_reports():
    rng = random.Random(2718)
    for _ in range(10):
        ref, grid = instances.random_instance(rng)
        mu = instances.random_prob_measure(rng, ref.space.x)
        nu = instances.random_prob_measure(rng, ref.space.y)
        rep = construct_preimage(ref, grid, mu, nu)
        assert loads(dumps(rep)) == rep
        assert loads(dumps(grid)) == grid


def test_violation_round_trip(reference, targets, monkeypatch):
    monkeypatch.setattr("margcouple.verify.construct_preimage", instances.broken_preimage)
    report = certify_openness(reference, targets, F(1, 5), 10, Seed(2024))
    assert report.violations
    back = loads(dumps(report))
    assert back == report
    doc = to_document(report)
    doc["violations"][0]["seed"] = "9" * 5000  # past the int-string digit limit
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "violations[0].seed: number too large" in str(exc.value)


# -- strictness ------------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError) as exc:
        from_document({"schema_version": SCHEMA_VERSION, "kind": "mystery"})
    assert "mystery" in str(exc.value)


def test_schema_version_checked():
    doc = to_document(instances.worked_reference())
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
        from_document(doc)
    del doc["schema_version"]
    with pytest.raises(SchemaError):
        from_document(doc)


def test_error_paths_name_the_field():
    doc = to_document(instances.worked_reference())
    del doc["space"]["x"]["atoms"][0]["coord"]
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "coord" in str(exc.value)

    doc = to_document(marginal_pair(instances.worked_reference()).mu)
    doc["weights"]["a"] = "0.5"
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "weights" in str(exc.value)


def test_negative_weight_rejected_on_parse():
    doc = to_document(marginal_pair(instances.worked_reference()).mu)
    doc["weights"]["a"] = "-1/2"
    with pytest.raises(SchemaError):
        from_document(doc)


def test_repeated_product_weight_rejected():
    doc = to_document(instances.worked_reference())
    doc["weights"].append([["a", "c"], "0"])
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "measure.weights[2]: repeated weight for atom ['a', 'c']" in str(exc.value)
    doc["weights"][2] = [[["a"], "c"], "0"]  # an unhashable id is malformed, not a crash
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "measure.weights[2]" in str(exc.value)


def test_repeated_keys_rejected():
    text = dumps(instances.worked_perturbed()[0])
    assert '"a": "2/5"' in text
    with pytest.raises(SchemaError) as exc:
        loads(text.replace('"a": "2/5"', '"a": "2/5", "a": "0"'))
    assert "measure.weights.a: repeated key" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        loads(text.replace('"kind": "measure"', '"kind": "measure", "kind": "measure"'))
    assert "document.kind: repeated key" in str(exc.value)


def test_not_json():
    with pytest.raises(SchemaError):
        loads("{nope")
    with pytest.raises(SchemaError):
        from_document([1, 2, 3])


def test_to_document_unknown_object():
    with pytest.raises(SchemaError):
        to_document(object())
    with pytest.raises(SchemaError):
        to_document(CellAlloc(F(0), F(0), F(0)))


def test_grid_document_shape():
    doc = to_document(instances.worked_grid())
    assert doc["kind"] == "grid"
    assert doc["cols"] == [[["-1/2", "1/2"]], [["1/2", "3/2"]]]
    # malformed interval: one endpoint only
    doc["cols"][0] = [["-1/2"]]
    with pytest.raises(SchemaError):
        from_document(doc)


def test_sets_document_geometry_dispatch(targets):
    line = SetsDocument((IntervalSet.single(0, 1),))
    prod = SetsDocument(tuple(targets))
    assert loads(dumps(line)) == line
    assert loads(dumps(prod)) == prod
    with pytest.raises(SchemaError):
        SetsDocument((IntervalSet.single(0, 1), targets[0]))


# -- integers, cells and nested kinds --------------------------------------


def _cert_with_violation():
    return to_document(_violation_reports()[1])


@pytest.mark.parametrize(
    "doc, edit, message",
    [
        (lambda: to_document(instances.worked_grid()), ("schema_version",),
         "document.schema_version: wrong type bool"),
        (_cert_with_violation, ("trials",), "cert_report.trials: wrong type bool"),
        (_cert_with_violation, ("violations", 0, "trial"),
         "cert_report.violations[0].trial: wrong type bool"),
        (lambda: to_document(_worked_objects()[5]), ("cells", 3, "q"),
         "refine_result.cells[3].q: wrong type bool"),
        (lambda: to_document(_worked_objects()[5]), ("cells", 3, "s"),
         "refine_result.cells[3].s: wrong type bool"),
        (lambda: to_document(_worked_objects()[5]), ("cells", 3, "owner"),
         "refine_result.cells[3].owner: expected an index or null"),
        (lambda: to_document(_worked_objects()[6]), ("cells", 3, "q"),
         "preimage_report.cells[3].q: wrong type bool"),
    ],
)
def test_booleans_are_not_integers(doc, edit, message):
    doc = doc()
    *trail, name = edit
    target = doc
    for step in trail:
        target = target[step]
    target[name] = True  # true == 1 in Python, so only the type tells them apart
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "doc, edit, value, message",
    [
        (lambda: to_document(_worked_objects()[6]), ("cells", 0, "q"), -7,
         "preimage_report.cells[0].q: expected a non-negative integer below 2**63"),
        (lambda: to_document(_worked_objects()[6]), ("cells", 1, "s"), 2**63,
         "preimage_report.cells[1].s: expected a non-negative integer below 2**63"),
        (lambda: to_document(_worked_objects()[5]), ("cells", 2, "owner"), -3,
         "refine_result.cells[2].owner: expected a non-negative integer below 2**63"),
        (lambda: to_document(_worked_objects()[5]), ("cells", 0, "q"), 10**5000,
         "refine_result.cells[0].q: expected a non-negative integer below 2**63"),
        (_cert_with_violation, ("trials",), -4,
         "cert_report.trials: expected a non-negative integer below 2**63"),
        (_cert_with_violation, ("violations", 0, "trial"), 99,
         "cert_report.violations[0].trial: expected below trials (2)"),
        (_cert_with_violation, ("violations", 0, "trial"), 2,
         "cert_report.violations[0].trial: expected below trials (2)"),
        (_cert_with_violation, ("violations", 0, "trial"), -1,
         "cert_report.violations[0].trial: expected a non-negative integer below 2**63"),
        (lambda: to_document(_worked_objects()[11]), ("lemma",), -4,
         "lemma_check.lemma: expected a non-negative integer below 2**63"),
        (lambda: to_document(_worked_objects()[11]), ("lemma",), 7,
         "lemma_check.lemma: unknown check rule 7"),
        (lambda: to_document(instances.worked_grid()), ("schema_version",), -1,
         "document.schema_version: expected a non-negative integer below 2**63"),
        (lambda: {"schema_version": SCHEMA_VERSION, "kind": "x"}, ("schema_version",), 10**5000,
         "document.schema_version: expected a non-negative integer below 2**63"),
    ],
    ids=[  # a 5000-digit value cannot be shown in a test id
        "preimage-q", "preimage-s", "owner", "refine-q-huge", "trials", "trial-99",
        "trial-equal", "trial-negative", "lemma", "lemma-unknown", "schema-version",
        "schema-version-huge",
    ],
)
def test_integers_are_counts_or_indices(doc, edit, value, message):
    doc = doc()
    *trail, name = edit
    target = doc
    for step in trail:
        target = target[step]
    target[name] = value
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert message in str(exc.value)


def test_integer_range_boundaries():
    doc = _cert_with_violation()
    doc["trials"] = 2**63 - 1
    doc["violations"][0]["trial"] = 2**63 - 2
    assert from_document(doc).trials == 2**63 - 1
    doc["violations"][0]["trial"] = 0
    assert from_document(doc).violations[0].trial == 0


def test_violation_seed_is_ascii_digits():
    doc = _cert_with_violation()
    doc["violations"][0]["seed"] = "\u0663"
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "cert_report.violations[0].seed: expected an unsigned integer string" in str(exc.value)


def test_violation_cell_entries_checked():
    doc = _cert_with_violation()
    assert doc["violations"][0]["cell"] == [0, 1]
    for bad in (["x", None], [0, True], [0, "1"], [0, 1.0], [-1, 0], [0, 2**63]):
        doc["violations"][0]["cell"] = bad
        with pytest.raises(SchemaError) as exc:
            from_document(doc)
        assert "cert_report.violations[0].cell: expected [q, s] or null" in str(exc.value)


@pytest.mark.parametrize("index, kind", [(5, "refine_result"), (6, "preimage_report")])
def test_repeated_cell_rejected(index, kind):
    doc = to_document(_worked_objects()[index])
    cells = doc["cells"]
    repeat = dict(cells[0], owner=1) if kind == "refine_result" else dict(cells[0])
    cells.append(repeat)
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert f"{kind}.cells[{len(cells) - 1}]: repeated cell [0, 0]" in str(exc.value)


@pytest.mark.parametrize(
    "cells, message",
    [
        ([(0, 0), (1, 0), (1, 1), (9, 4)], "cell list is not a full 10 x 5 grid"),
        ([(0, 1), (1, 1)], "cell list is not a full 2 x 2 grid"),
        # full shapes (1 x 1, and an empty grid's), but cell (1, 1)'s kept mass is missing
        ([(0, 0)], "kept masses do not sum to the grid part's mass"),
        ([], "kept masses do not sum to the grid part's mass"),
    ],
    ids=["scattered", "half-grid", "one-cell", "no-cells"],
)
def test_preimage_cells_fill_a_grid(cells, message):
    doc = to_document(_worked_objects()[6])
    entry = {(c["q"], c["s"]): c for c in doc["cells"]}
    doc["cells"] = [dict(entry.get(ix, entry[0, 0]), q=ix[0], s=ix[1]) for ix in cells]
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert f"preimage_report.cells: {message}" in str(exc.value)


def test_preimage_coupling_must_split(reference, grid, perturbed):
    doc = to_document(construct_preimage(reference, grid, *perturbed))
    weights = doc["coupling"]["weights"]
    assert weights[0] == [["a", "c"], "2/5"]
    loads(json.dumps(doc))
    weights[0][1] = "3/10"  # the grid part still holds 2/5 there
    with pytest.raises(SchemaError) as exc:
        loads(json.dumps(doc))
    assert str(exc.value) == "preimage_report: coupling must split into grid part plus remainder"


def test_preimage_cell_keeps_the_smaller_rescaling():
    doc = to_document(_worked_objects()[6])
    assert doc["cells"][0] == {
        "q": 0, "s": 0, "col_scaled": "2/5", "row_scaled": "1/2", "kept": "2/5", "drop": "-1/10"
    }
    cases = [
        (0, {"col_scaled": "7", "row_scaled": "9"}, "[0].kept: not the smaller of col_scaled"),
        (1, {"col_scaled": "-1", "kept": "-1"}, "[1]: negative rescaled mass"),
        (2, {"row_scaled": "-1", "kept": "-1"}, "[2]: negative rescaled mass"),
    ]
    for i, edit, message in cases:
        bad = copy.deepcopy(doc)
        bad["cells"][i].update(edit)
        with pytest.raises(SchemaError) as exc:
            from_document(bad)
        assert str(exc.value).startswith(f"preimage_report.cells{message}")


def test_refine_cells_restate_the_grid():
    doc = to_document(_worked_objects()[5])
    assert doc["cells"][2]["boxes"] == [[["1/2", "3/2"], ["-1/2", "1/2"]]]
    unreduced = copy.deepcopy(doc)
    unreduced["cells"][2]["boxes"] = [[["2/4", "3/2"], ["-1/2", "1/2"]]]
    assert from_document(unreduced) == _worked_objects()[5]
    cases = [
        (doc["cells"][1]["boxes"], "not the grid's cell [1, 0]"),
        ("garbage", "wrong type str"),
        (None, "missing"),
    ]
    for boxes, message in cases:
        bad = copy.deepcopy(doc)
        if boxes is None:
            del bad["cells"][2]["boxes"]
        else:
            bad["cells"][2]["boxes"] = boxes
        with pytest.raises(SchemaError) as exc:
            from_document(bad)
        assert str(exc.value) == f"refine_result.cells[2].boxes: {message}"


def test_one_cell_preimage_round_trips(reference):
    grid = Grid((IntervalSet.single(90, 91),), (IntervalSet.single(90, 91),))
    pair = marginal_pair(reference)
    rep = construct_preimage(reference, grid, pair.mu, pair.nu)
    assert list(rep.cell_allocs) == [(0, 0)]
    assert loads(dumps(rep)) == rep


def test_nested_kind_checked():
    doc = to_document(marginal_pair(instances.worked_reference()))
    doc["mu"]["kind"] = "grid"
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "marginal_pair.mu.kind: expected measure, got 'grid'" in str(exc.value)
    del doc["mu"]["kind"]
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "marginal_pair.mu.kind: missing" in str(exc.value)

    doc = to_document(instances.worked_reference())
    doc["space"]["y"]["kind"] = "product_space"
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "measure.space.y.kind: expected space, got 'product_space'" in str(exc.value)

    doc = to_document(_violation_reports()[1])
    doc["violations"][0]["nu"]["kind"] = "space"
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert "cert_report.violations[0].nu.kind: expected measure, got 'space'" in str(exc.value)


# -- nothing but SchemaError -----------------------------------------------


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(["0", "1/2", "-1/3", "a", "c", "space", "measure", "line", "product"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@functools.cache
def _valid_documents() -> tuple:
    return tuple(to_document(obj) for obj in _worked_objects() + _violation_reports())


def _positions(value, trail=()):
    """Every path of keys and indices into a JSON value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield trail + (key,)
        yield from _positions(child, trail + (key,))


def _from_document_or_schema_error(doc):
    try:
        from_document(doc)
    except SchemaError:
        pass


@given(json_values)
def test_arbitrary_json_raises_only_schema_error(value):
    _from_document_or_schema_error(value)


KINDS = (
    "space",
    "product_space",
    "measure",
    "sets",
    "grid",
    "refine_result",
    "marginal_pair",
    "preimage_report",
    "cert_report",
    "lemma_check",
)


@given(st.sampled_from(KINDS), json_values)
def test_arbitrary_fields_raise_only_schema_error(kind, fields):
    doc = dict(fields) if isinstance(fields, dict) else {"body": fields}
    _from_document_or_schema_error({**doc, "schema_version": SCHEMA_VERSION, "kind": kind})


@given(st.data())
def test_one_field_changes_raise_only_schema_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_valid_documents())))
    *trail, last = data.draw(st.sampled_from(list(_positions(doc))))
    parent = doc
    for step in trail:
        parent = parent[step]
    if data.draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = data.draw(json_values)
    _from_document_or_schema_error(doc)
