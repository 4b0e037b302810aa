"""Command line: document in, document out, exit codes as contract.

All invocations run in process through dispatch(); one subprocess test
covers the module entry point.  The checked-in files under fixtures/ are
regression-locked against the builders in instances.py so they cannot
drift from the library.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import instances
from margcouple import (
    Atom,
    CertReport,
    Grid,
    IntervalSet,
    LemmaCheck,
    MarginalPair,
    Measure,
    PreimageReport,
    RefineResult,
    Seed,
    SpaceDesc,
    Violation,
    construct_preimage,
    refine_grid,
)
from margcouple.cli import dispatch
from margcouple.documents import CheckDocument, SetsDocument, dumps, loads

F = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

REFERENCE = str(FIXTURES / "reference_2x2.json")
GRID = str(FIXTURES / "grid_2x2.json")
TARGETS = str(FIXTURES / "targets_2x2.json")
MU = str(FIXTURES / "mu_2x2.json")
NU = str(FIXTURES / "nu_2x2.json")
COUPLING = str(FIXTURES / "coupling_2x2.json")
BAND_SETS = str(FIXTURES / "band_sets_2x2.json")
BOXDIFF_SETS = str(FIXTURES / "boxdiff_sets_2x2.json")

# the line sets of the two check fixtures: (-1/2, 3/2) and (-1/2, 1/2)
OUTER = IntervalSet.single(F(-1, 2), F(3, 2))
INNER = IntervalSet.single(F(-1, 2), F(1, 2))


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- fixture files are locked to the builders ------------------------------


def test_fixture_files_match_builders():
    mu, nu = instances.worked_perturbed()
    ref = instances.worked_reference()
    expected = {
        "reference_2x2.json": ref,
        "grid_2x2.json": instances.worked_grid(),
        "targets_2x2.json": SetsDocument(tuple(instances.worked_targets())),
        "mu_2x2.json": mu,
        "nu_2x2.json": nu,
        "coupling_2x2.json": construct_preimage(
            ref, instances.worked_grid(), mu, nu
        ).coupling,
        "band_sets_2x2.json": SetsDocument((OUTER, INNER, OUTER)),
        "boxdiff_sets_2x2.json": SetsDocument((OUTER, INNER, OUTER, INNER)),
    }
    for name, obj in expected.items():
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert loads(text) == obj, name
        assert text == dumps(obj), name


# -- happy paths -----------------------------------------------------------


def test_marginals(capsys):
    code, out, _ = run(capsys, "marginals", COUPLING)
    assert code == 0
    pair = loads(out)
    mu, nu = instances.worked_perturbed()
    assert pair == MarginalPair(mu, nu)


def test_marginals_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "marginals", COUPLING)
    _, second, _ = run(capsys, "marginals", COUPLING)
    assert first == second
    assert first.endswith("\n")


def test_tensor(capsys):
    code, out, _ = run(capsys, "tensor", MU, NU)
    assert code == 0
    prod = loads(out)
    assert prod.weights[("a", "c")] == F(1, 5)
    assert prod.mass() == 1


def test_couple(capsys):
    code, out, _ = run(capsys, "couple", REFERENCE, GRID, MU, NU)
    assert code == 0
    report = loads(out)
    assert isinstance(report, PreimageReport)
    assert report.coupling.weights == instances.WORKED_COUPLING


def test_couple_accepts_refine_result(capsys, tmp_path):
    code, refined, _ = run(capsys, "refine", REFERENCE, TARGETS, "--eps0", "1/5")
    assert code == 0
    rr_path = tmp_path / "rr.json"
    rr_path.write_text(refined, encoding="utf-8")
    code, out, _ = run(capsys, "couple", REFERENCE, str(rr_path), MU, NU)
    assert code == 0
    rr = loads(refined)
    mu, nu = instances.worked_perturbed()
    expected = construct_preimage(instances.worked_reference(), rr.grid, mu, nu)
    assert loads(out) == expected


def test_refine(capsys):
    code, out, _ = run(capsys, "refine", REFERENCE, TARGETS, "--eps0", "1/5")
    assert code == 0
    rr = loads(out)
    assert isinstance(rr, RefineResult)
    assert rr.delta == F(1, 40)
    assert rr.owner == {(0, 0): 0, (0, 1): None, (1, 0): None, (1, 1): 1}


def test_certify(capsys):
    args = ("certify", REFERENCE, TARGETS, "--eps", "1/5", "--trials", "10", "--seed", "42")
    code, out, _ = run(capsys, *args)
    assert code == 0
    report = loads(out)
    assert isinstance(report, CertReport)
    assert report.passed and report.trials == 10
    code2, out2, _ = run(capsys, *args)
    assert (code2, out2) == (code, out)


# recorded before the neighborhood gap moved to one-pass evaluation; a fixed
# seed must keep giving these bytes, across processes and releases
CERTIFY_GOLDEN = [
    ("1/5", "10", "42", "-31843/5242880"),
    ("1/3", "25", "18446744073709551557", "-1333/131072"),
    ("1/100", "5", "0", "-16301/52428800"),
]


@pytest.mark.parametrize("eps, trials, seed, gap", CERTIFY_GOLDEN)
def test_certify_golden_bytes(capsys, eps, trials, seed, gap):
    code, out, err = run(
        capsys, "certify", REFERENCE, TARGETS, "--eps", eps, "--trials", trials, "--seed", seed
    )
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "schema_version": 1,\n'
        '  "kind": "cert_report",\n'
        f'  "trials": {trials},\n'
        f'  "min_observed_gap": "{gap}",\n'
        '  "violations": []\n'
        "}\n"
    )


def test_check_band(capsys):
    code, out, _ = run(
        capsys, "check", REFERENCE, "--lemma", "4", "--sets", BAND_SETS, "--eps", "3/5"
    )
    assert code == 0
    assert loads(out) == CheckDocument(4, LemmaCheck(F(1, 2), F(1, 2), True))


def test_check_box_diff(capsys):
    code, out, _ = run(
        capsys, "check", REFERENCE, "--lemma", "5", "--sets", BOXDIFF_SETS,
        "--eps1", "3/5", "--eps2", "3/5",
    )
    assert code == 0
    assert loads(out) == CheckDocument(5, LemmaCheck(F(1, 2), F(1), True))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "margcouple.cli", "marginals", COUPLING],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    mu, nu = instances.worked_perturbed()
    assert loads(proc.stdout) == MarginalPair(mu, nu)


# -- failure exit code -----------------------------------------------------


def test_certify_failure_exits_one(capsys, monkeypatch):
    bad = CertReport(
        1,
        (Violation(0, Seed(1), "construction-error: injected", None, None, None, None),),
        F(0),
    )
    monkeypatch.setattr("margcouple.cli.certify_openness", lambda *a, **k: bad)
    code, out, _ = run(
        capsys, "certify", REFERENCE, TARGETS, "--eps", "1/5", "--trials", "1", "--seed", "1"
    )
    assert code == 1
    assert loads(out) == bad


def test_check_failure_exits_one(capsys, monkeypatch):
    failed = LemmaCheck(F(1), F(1), False)
    monkeypatch.setattr("margcouple.cli.check_band_bound", lambda *a, **k: failed)
    code, out, _ = run(
        capsys, "check", REFERENCE, "--lemma", "4", "--sets", BAND_SETS, "--eps", "3/5"
    )
    assert code == 1
    assert loads(out) == CheckDocument(4, failed)


# -- error exit codes ------------------------------------------------------


def test_missing_file(capsys):
    code, _, err = run(capsys, "marginals", "no_such_file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope", encoding="utf-8")
    code, _, err = run(capsys, "marginals", str(p))
    assert code == 2
    assert "error:" in err


def test_undecodable_file_exits_two(capsys, tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(Path(MU).read_bytes().replace(b'"a"', b'"\xe9"'))
    code, out, err = run(capsys, "tensor", str(p), NU)
    assert code == 2 and out == ""
    assert f"error: {p}: cannot read" in err


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    code, out, err = run(capsys, "marginals", str(p))
    assert code == 2 and out == ""
    assert f"error: {p}: document: nested too deeply" in err


def test_oversized_denominator_exits_two(capsys, tmp_path):
    # int() refuses strings past 4300 digits; that is malformed input, not a failed check
    doc = loads(Path(MU).read_text(encoding="utf-8"))
    big = tmp_path / "big.json"
    text = dumps(doc).replace('"a": "2/5"', '"a": "' + "2" * 4999 + "/" + "5" * 5000 + '"')
    big.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "tensor", str(big), NU)
    assert code == 2 and out == ""
    assert "measure.weights.a: number too large" in err


def test_oversized_result_exits_two(capsys, tmp_path):
    # each input weight fits the int-string digit limit; their products do not
    d = 10**3000
    line = SpaceDesc((Atom("a", 0), Atom("b", 1)))
    path = tmp_path / "mu.json"
    path.write_text(dumps(Measure(line, {"a": F(1, d), "b": F(d - 1, d)})), encoding="utf-8")
    code, out, err = run(capsys, "tensor", str(path), str(path))
    assert code == 2 and out == ""
    assert "number too large to write" in err


def test_repeated_weights_exit_two(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        Path(REFERENCE).read_text(encoding="utf-8").replace(
            '"weights": [', '"weights": [\n    [["b", "d"], "0"],', 1
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "marginals", str(path))
    assert code == 2
    assert "repeated weight for atom ['b', 'd']" in err
    path.write_text(
        Path(MU).read_text(encoding="utf-8").replace('"weights": {', '"weights": {"b": "1",', 1),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "tensor", str(path), NU)
    assert code == 2
    assert "measure.weights.b: repeated key" in err


def test_wrong_document_kind(capsys):
    code, _, err = run(capsys, "marginals", GRID)
    assert code == 2
    assert "expected a Measure document" in err


def test_line_measure_where_product_needed(capsys):
    code, _, err = run(capsys, "marginals", MU)
    assert code == 2
    assert "product" in err


def test_product_measure_where_line_needed(capsys):
    code, _, err = run(capsys, "tensor", REFERENCE, NU)
    assert code == 2
    assert "line" in err


def test_check_hypothesis_violation_exits_two(capsys):
    # band mass equals eps: the hypothesis fails, which is not a check result
    code, _, err = run(
        capsys, "check", REFERENCE, "--lemma", "4", "--sets", BAND_SETS, "--eps", "1/2"
    )
    assert code == 2
    assert "band mass" in err


def test_check_flag_and_shape_errors(capsys):
    code, _, err = run(capsys, "check", REFERENCE, "--lemma", "4", "--sets", BAND_SETS)
    assert code == 2
    assert "--eps" in err
    code, _, err = run(
        capsys, "check", REFERENCE, "--lemma", "5", "--sets", BAND_SETS,
        "--eps1", "1/2", "--eps2", "1/2",
    )
    assert code == 2
    assert "rule 5" in err


def test_argparse_failures_exit_two(capsys):
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "refine", REFERENCE, TARGETS, "--eps0", "0.2")[0] == 2
    assert run(capsys, "certify", REFERENCE, TARGETS, "--eps", "1/5",
               "--trials", "1", "--seed", "-3")[0] == 2
    assert run(capsys)[0] == 2
    # Arabic-Indic digits, a superscript digit and a seed past int()'s digit limit
    for seed in ("\u0664\u0662", "\u00b2", "7" * 5000):
        code, out, err = run(capsys, "certify", REFERENCE, TARGETS, "--eps", "1/5",
                             "--trials", "1", "--seed", seed)
        assert (code, out) == (2, "")
        assert "argument --seed: seed must be an unsigned integer" in err
        assert "7" * 100 not in err


def test_refine_rejects_line_sets(capsys):
    code, _, err = run(capsys, "refine", REFERENCE, BAND_SETS, "--eps0", "1/5")
    assert code == 2
    assert "product geometry" in err
