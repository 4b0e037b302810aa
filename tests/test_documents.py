"""JSON documents: lossless round trips, strict parsing, stable bytes.

Weights are strings like "3/10" so nothing ever passes through binary
floating point; byte-identical dumps make output diffable and let the
command line promise reproducibility.
"""

import json
import random
from fractions import Fraction

import pytest

import instances
from margcouple import (
    Box,
    BoxSet,
    CellAlloc,
    Grid,
    IntervalSet,
    Measure,
    SchemaError,
    Seed,
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


def test_violation_round_trip(reference, targets):
    def broken(reference, grid, mu, nu):
        return construct_preimage(reference, grid, mu, nu, alpha_rule=max)

    report = certify_openness(
        reference, targets, F(1, 5), 10, Seed(2024), preimage_fn=broken
    )
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
