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
import time
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
    MarginalPair,
    Measure,
    PreimageReport,
    ProductSpace,
    SchemaError,
    Seed,
    SpaceDesc,
    Violation,
    certify_openness,
    check_band_bound,
    construct_preimage,
    documents,
    marginal_pair,
    refine_grid,
)
from margcouple.documents import (
    SCHEMA_VERSION,
    CheckDocument,
    SetsDocument,
    _tagged,
    _write,
    dumps,
    format_rational,
    from_document,
    loads,
    parse_rational,
)

F = Fraction


def _plain(value):
    """value with each Measure in it replaced by its weights' JSON, written by format_rational."""
    if type(value) is Measure:
        if isinstance(value.space, ProductSpace):
            return [[[x, y], format_rational(w)] for (x, y), w in value.weights.items()]
        return {k: format_rational(w) for k, w in value.weights.items()}
    if type(value) is dict:
        return {k: _plain(v) for k, v in value.items()}
    if type(value) is list:
        return [_plain(v) for v in value]
    return value


def to_document(obj) -> dict:
    """obj's document as a plain, mutable JSON value: the reference dumps is checked against."""
    return {"schema_version": SCHEMA_VERSION, **_plain(_tagged(obj))}


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


@settings(deadline=None)
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
    v = failed.violations[0]
    located = Violation(v.trial, v.seed, v.reason, (0, 1), F(-1, 10), v.mu, v.nu)
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


@st.composite
def few_valued_measures(draw):
    """A line or product measure whose weights take at most three distinct values."""
    x = draw(line_spaces())
    space = ProductSpace(x, draw(line_spaces())) if draw(st.booleans()) else x
    values = draw(st.lists(rationals.map(abs), min_size=1, max_size=3))
    keys = draw(st.lists(st.sampled_from(space.keys), unique=True))
    return Measure(space, {k: draw(st.sampled_from(values)) for k in keys})


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


@st.composite
def marginal_pairs(draw):
    """Two line measures of one mass, in either order; nu gathers mu's weights onto its own atoms."""
    mu = draw(line_measures())
    space = draw(line_spaces())
    gathered = {}
    for w in mu.weights.values():
        k = draw(st.sampled_from(space.keys))
        gathered[k] = gathered.get(k, 0) + w
    return MarginalPair(*draw(st.permutations([mu, Measure(space, gathered)])))


@st.composite
def cert_reports(draw):
    """A report whose violations each carry a line or product mu and nu, zero measures included."""
    measures = line_measures() | product_measures()
    trials = draw(st.integers(1, 2**63 - 1))
    violation = st.builds(
        Violation,
        st.integers(0, trials - 1),
        st.builds(Seed, st.integers(0, 2**64 - 1)),
        json_text,
        st.none() | st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)),
        st.none() | rationals,
        measures,
        measures,
    )
    violations = tuple(draw(st.lists(violation, min_size=1, max_size=2)))
    return CertReport(trials, violations, draw(st.none() | rationals))


@settings(max_examples=90, deadline=None)
@given(line_measures() | product_measures() | few_valued_measures())
def test_measure_dumps_equals_json_indent_encoder(m):
    text = dumps(m)
    assert text == _json_indent(m)
    back = loads(text)
    assert back == m
    assert dumps(back) == text


@settings(max_examples=25, deadline=None)
@given(preimage_reports())
def test_preimage_dumps_equals_json_indent_encoder(rep):
    text = dumps(rep)
    assert text == _json_indent(rep)
    assert loads(text) == rep


@settings(max_examples=40, deadline=None)
@given(marginal_pairs())
def test_marginal_pair_dumps_equals_json_indent_encoder(pair):
    text = dumps(pair)
    assert text == _json_indent(pair)
    assert loads(text) == pair


@settings(max_examples=25, deadline=None)
@given(cert_reports())
def test_cert_report_dumps_equals_json_indent_encoder(report):
    text = dumps(report)
    assert text == _json_indent(report)
    assert loads(text) == report


def test_zero_measures_in_every_slot_equal_json_indent_encoder():
    x = SpaceDesc((Atom('"\\', 0), Atom("\x00\n\u00e9\U0001f600", 1)))
    y = SpaceDesc((Atom("\ud800", F(1, 3)),))
    zx, zy, zxy = Measure.zero(x), Measure.zero(y), Measure.zero(ProductSpace(x, y))
    located = Violation(0, Seed(3), "cell-drop", (0, 0), F(-1, 2), zx, zxy)
    for obj in (
        MarginalPair(zx, zy),
        PreimageReport(zxy, zxy, zxy, {}, {}),
        CertReport(2, (located, Violation(1, Seed(4), "gap", None, None, zxy, zy)), None),
    ):
        text = dumps(obj)
        assert text == _json_indent(obj)
        assert '"weights": {}' in text or '"weights": []' in text
        assert '"weights": [\n' not in text and '"weights": {\n' not in text
        assert loads(text) == obj


def test_dumps_names_the_digit_limit_in_nested_measures():
    # only the weights pass the int-string digit limit; the coordinates are small
    big = F(1, 10**5000)
    x = SpaceDesc((Atom("a", 0), Atom("b", 1)))
    y = SpaceDesc((Atom("c", 0),))
    joint = Measure(ProductSpace(x, y), {("b", "c"): big})
    limit = sys.get_int_max_str_digits()
    for obj in (
        PreimageReport(joint, Measure.zero(joint.space), joint, {}, {}),
        MarginalPair(Measure(x, {"a": big}), Measure(y, {"c": big})),
    ):
        with pytest.raises(SchemaError) as exc:
            dumps(obj)
        assert str(exc.value) == f"number too large to write (over {limit} digits)"
        assert exc.value.__cause__ is None and exc.value.__suppress_context__


def test_dumps_formats_each_coordinate_once_however_many_weights(monkeypatch):
    # a measure's weights are written straight from the Measure, not one format_rational each
    calls = []
    real = documents.format_rational
    monkeypatch.setattr(documents, "format_rational", lambda x: calls.append(x) or real(x))
    x = SpaceDesc(tuple(Atom(f"x{i}", F(i, 7)) for i in range(6)))
    y = SpaceDesc(tuple(Atom(f"y{j}", F(j, 5)) for j in range(4)))
    joint = ProductSpace(x, y)
    for space, coords in ((x, 6), (joint, 6 + 4)):
        for n in (0, 1, len(space.keys) // 2, len(space.keys)):
            calls.clear()
            dumps(Measure(space, {k: F(1, n) for k in space.keys[:n]}))
            assert len(calls) == coords


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
    # a weight string given twice is parsed once, and the faults above keep
    # their order: the first malformed entry in the document, the first
    # negative weight in atom order, and a weight that is not a string named
    # as itself though an equal string came before it
    "repeated-bad-rational": (
        _PRODUCT.replace('"coord": "1"}', '"coord": "1"}, {"id": "e", "coord": "2"}', 1),
        '[[["a", "c"], "1/4"], [["a", "d"], "1/4"], [["b", "c"], "x/2"], '
        '[["b", "d"], "1/4"], [["e", "c"], "1/4"], [["e", "d"], "x/2"]]',
        "measure.weights[2]: expected a rational string like '1/10', got 'x/2'"),
    "line-repeated-zero-denominator": (
        _LINE, '{"b": "1/0", "a": "1/0"}', "measure.weights.b: zero denominator in '1/0'"),
    "repeated-negative": (
        _PRODUCT, '[[["b", "d"], "-1/8"], [["a", "d"], "1/8"], [["b", "c"], "-1/8"]]',
        "measure: negative weight -1/8 at atom ('b', 'c')"),
    "line-repeated-negative": (
        _LINE, '{"b": "-1/8", "a": "-1/8"}', "measure: negative weight -1/8 at atom 'a'"),
    "list-after-equal-string": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], ["1/2"]]]',
        "measure.weights[1]: expected a rational string like '1/10', got ['1/2']"),
    "line-list-after-equal-string": (
        _LINE, '{"a": "1/2", "b": ["1/2"]}',
        "measure.weights.b: expected a rational string like '1/10', got ['1/2']"),
    "dict-after-equal-string": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], {"1/2": "1/2"}]]',
        "measure.weights[1]: expected a rational string like '1/10', got {{'1/2': '1/2'}}"),
    "line-dict-after-equal-string": (
        _LINE, '{"a": "1/2", "b": {"1/2": "1/2"}}',
        "measure.weights.b: expected a rational string like '1/10', got {{'1/2': '1/2'}}"),
    "float-after-equal-string": (
        _PRODUCT, '[[["a", "c"], "1/2"], [["b", "d"], 0.5]]',
        "measure.weights[1]: expected a rational string like '1/10', got 0.5"),
    "line-float-after-equal-string": (
        _LINE, '{"a": "1/2", "b": 0.5}',
        "measure.weights.b: expected a rational string like '1/10', got 0.5"),
    "bool-after-equal-string": (
        _PRODUCT, '[[["a", "c"], "1"], [["b", "d"], true]]',
        "measure.weights[1]: expected a rational string like '1/10', got True"),
    "line-bool-after-equal-string": (
        _LINE, '{"a": "0", "b": false}',
        "measure.weights.b: expected a rational string like '1/10', got False"),
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


def test_repeated_weight_strings_keep_their_own_values():
    # unreduced spellings of one value, and zeros, each given more than once
    spellings = ["1/2", "2/4", "+1/2", "0", "1/2", "1/3", "2/4", "-0/5", "0", "1"]
    line = SpaceDesc(tuple(Atom(f"x{i}", F(i)) for i in range(10)))
    joint = ProductSpace(SpaceDesc(line.atoms[:5]), SpaceDesc(line.atoms[5:7]))
    for space in (line, joint):
        doc = to_document(Measure.zero(space))
        if isinstance(space, ProductSpace):
            doc["weights"] = [[list(k), s] for k, s in zip(space.keys, spellings)]
        else:
            doc["weights"] = dict(zip(space.keys, spellings))
        m = loads(json.dumps(doc))
        assert m.weights == {k: F(s) for k, s in zip(space.keys, spellings) if F(s)}
        assert all(type(w) is Fraction for w in m.weights.values())


def test_loads_parses_each_distinct_weight_string_once(monkeypatch):
    # a weight string seen before in the same measure reuses its Fraction
    calls = []
    real = documents._fraction
    monkeypatch.setattr(documents, "_fraction", lambda raw: calls.append(raw) or real(raw))
    x = SpaceDesc(tuple(Atom(f"x{i}", F(i, 7)) for i in range(6)))
    y = SpaceDesc(tuple(Atom(f"y{j}", F(j, 5)) for j in range(4)))
    joint = ProductSpace(x, y)
    for space, coords in ((x, 6), (joint, 6 + 4)):
        for n in (0, 1, len(space.keys) // 2, len(space.keys)):
            for distinct in (1, 3):
                weights = {k: F(i % distinct + 1, 9) for i, k in enumerate(space.keys[:n])}
                text = dumps(Measure(space, weights))
                calls.clear()
                loads(text)
                assert len(calls) == coords + min(n, distinct)


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


_DROP = object()

# the record kinds, each read field by field in document order, and the
# sets and refine_result kinds' own checks: (kind, edits to the worked
# instance's document as (key path, new value or _DROP), the SchemaError's
# text); with two faults the field first in the document wins
RECORD_FAULTS = {
    "product-x-missing": ("product_space", [(("x",), _DROP)], "product_space.x: missing"),
    "product-y-not-object": ("product_space", [(("y",), [])], "product_space.y: wrong type list"),
    "product-y-wrong-kind": (
        "product_space", [(("y", "kind"), "measure")],
        "product_space.y.kind: expected space, got 'measure'"),
    "product-x-and-y-faults": (
        "product_space", [(("y", "kind"), "grid"), (("x", "atoms"), _DROP)],
        "product_space.x.atoms: missing"),
    "product-nested-in-measure": ("measure", [(("space", "y"), _DROP)], "measure.space.y: missing"),
    "grid-rows-missing": ("grid", [(("rows",), _DROP)], "grid.rows: missing"),
    "grid-cols-not-list": ("grid", [(("cols",), {})], "grid.cols: wrong type dict"),
    "grid-cols-bad-interval": (
        "grid", [(("cols", 0), [["-1/2"]])], "grid.cols[0][0]: expected [lo, hi]"),
    "grid-rows-bad-interval": (
        "grid", [(("rows", 1), [["3/2", "1/2"]])], "grid.rows[1]: empty interval (3/2, 1/2)"),
    "grid-rows-bad-rational": (
        "grid", [(("rows", 0, 0, 1), "0.5")],
        "grid.rows[0][0][1]: expected a rational string like '1/10', got '0.5'"),
    "grid-cols-and-rows-faults": (
        "grid", [(("rows", 0), [["-1/2"]]), (("cols", 1), "x")],
        "grid.cols[1]: expected a list of intervals"),
    "grid-overlapping-pieces": (
        "grid", [(("cols", 1), [["0", "3/2"]])],
        "grid: grid column pieces must be pairwise disjoint"),
    "pair-nu-missing": ("marginal_pair", [(("nu",), _DROP)], "marginal_pair.nu: missing"),
    "pair-mu-null": ("marginal_pair", [(("mu",), None)], "marginal_pair.mu: wrong type NoneType"),
    "pair-mu-wrong-kind": (
        "marginal_pair", [(("mu", "kind"), "space")],
        "marginal_pair.mu.kind: expected measure, got 'space'"),
    "pair-mu-and-nu-faults": (
        "marginal_pair", [(("nu",), _DROP), (("mu", "weights", "a"), "x")],
        "marginal_pair.mu.weights.a: expected a rational string like '1/10', got 'x'"),
    "pair-unequal-masses": (
        "marginal_pair", [(("nu", "weights", "c"), "1")],
        "marginal_pair: marginals carry masses 1 and 3/2"),
    "cert-trials-missing": ("cert_report", [(("trials",), _DROP)], "cert_report.trials: missing"),
    "cert-min-gap-decimal": (
        "cert_report", [(("min_observed_gap",), "0.5")],
        "cert_report.min_observed_gap: expected a rational string like '1/10', got '0.5'"),
    "cert-violations-not-list": (
        "cert_report", [(("violations",), {})], "cert_report.violations: wrong type dict"),
    "violation-trial-bool": (
        "cert_report", [(("violations", 0, "trial"), True)],
        "cert_report.violations[0].trial: wrong type bool"),
    "violation-seed-signed": (
        "cert_report", [(("violations", 0, "seed"), "-1")],
        "cert_report.violations[0].seed: expected an unsigned integer string"),
    "violation-seed-past-64-bits": (
        "cert_report", [(("violations", 0, "seed"), "18446744073709551616")],
        "cert_report.violations[0].seed: seed must be a 64-bit unsigned integer, "
        "got 18446744073709551616"),
    "violation-reason-int": (
        "cert_report", [(("violations", 0, "reason"), 7)],
        "cert_report.violations[0].reason: wrong type int"),
    "violation-cell-short": (
        "cert_report", [(("violations", 0, "cell"), [0])],
        "cert_report.violations[0].cell: expected [q, s] or null"),
    "violation-gap-not-rational": (
        "cert_report", [(("violations", 0, "gap"), "x")],
        "cert_report.violations[0].gap: expected a rational string like '1/10', got 'x'"),
    "violation-mu-wrong-kind": (
        "cert_report", [(("violations", 0, "mu", "kind"), "space")],
        "cert_report.violations[0].mu.kind: expected measure, got 'space'"),
    "violation-nu-list": (
        "cert_report", [(("violations", 0, "nu"), [])],
        "cert_report.violations[0].nu: expected an object"),
    "violation-trial-not-below-trials": (
        "cert_report", [(("violations", 0, "trial"), 2)],
        "cert_report.violations[0].trial: expected below trials (2)"),
    # a violation reads trial, seed, reason, cell, gap, mu, nu; a cert_report
    # reads min_observed_gap before its violations and their trial bound
    "violation-trial-and-seed-faults": (
        "cert_report", [(("violations", 0, "seed"), "-1"), (("violations", 0, "trial"), True)],
        "cert_report.violations[0].trial: wrong type bool"),
    "violation-seed-and-cell-faults": (
        "cert_report", [(("violations", 0, "cell"), [0]), (("violations", 0, "seed"), "-1")],
        "cert_report.violations[0].seed: expected an unsigned integer string"),
    "violation-reason-and-cell-faults": (
        "cert_report", [(("violations", 0, "cell"), [0]), (("violations", 0, "reason"), 7)],
        "cert_report.violations[0].reason: wrong type int"),
    "cert-min-gap-and-violations-faults": (
        "cert_report", [(("violations",), {}), (("min_observed_gap",), "0.5")],
        "cert_report.min_observed_gap: expected a rational string like '1/10', got '0.5'"),
    "cert-min-gap-and-trial-faults": (
        "cert_report", [(("violations", 0, "trial"), 2), (("min_observed_gap",), "0.5")],
        "cert_report.min_observed_gap: expected a rational string like '1/10', got '0.5'"),
    "sets-geometry-plane": (
        "sets", [(("geometry",), "plane")], "sets.geometry: expected line or product, got 'plane'"),
    "sets-box-not-a-pair": (
        "sets", [(("sets", 0, "boxes", 0), [["0", "1"]])], "sets.sets[0].boxes[0]: expected [col, row]"),
    "refine-last-cell-dropped": (
        "refine_result", [(("cells", -1), _DROP)],
        "refine_result.cells: cell list does not match the grid shape"),
}


@pytest.mark.parametrize("name", RECORD_FAULTS)
def test_malformed_record_messages_word_for_word(name):
    kind, edits, message = RECORD_FAULTS[name]
    reference = instances.worked_reference()
    doc = to_document(
        {
            "product_space": lambda: reference.space,
            "measure": lambda: reference,
            "grid": instances.worked_grid,
            "marginal_pair": lambda: marginal_pair(reference),
            "cert_report": lambda: _violation_reports()[1],
            "sets": lambda: SetsDocument(tuple(instances.worked_targets())),
            "refine_result": lambda: refine_grid(reference, instances.worked_targets(), F(1, 5)),
        }[kind]()
    )
    for keys, value in edits:
        *walk, last = keys
        parent = functools.reduce(lambda node, key: node[key], walk, doc)
        if value is _DROP:
            del parent[last]
        else:
            parent[last] = value
    with pytest.raises(SchemaError) as exc:
        from_document(doc)
    assert str(exc.value) == message


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


def test_large_grid_loads_in_linear_time():
    # pairwise validation of 5,000 pieces took about a minute; slot tables take well under 1 s
    n = 5000
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "grid",
        "cols": [[[str(i), str(i + 1)]] for i in range(n)],
        "rows": [[["0", "1"]]],
    }
    text = json.dumps(doc)
    start = time.perf_counter()
    grid = loads(text)
    assert time.perf_counter() - start < 5
    assert len(grid.cols) == n and grid.cols[-1] == IntervalSet.single(n - 1, n)


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
