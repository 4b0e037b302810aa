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
import margcouple
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
from margcouple.cli import build_parser, dispatch
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


def test_cold_import_skips_dataclasses_and_inspect():
    # every command-line run pays this import; the two modules were most of it,
    # typing, which a site may already have loaded, was most of the rest, and
    # compiling generated record methods was a third of what then remained
    src = str(Path(margcouple.__file__).resolve().parents[1])
    probe = (
        "import builtins, sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1])\n"
        "calls = []\n"
        "def spy(name, real):\n"
        "    def call(*args, **kwargs):\n"
        "        caller = sys._getframe(1).f_globals.get('__name__') or ''\n"
        "        if caller.startswith('margcouple'):\n"
        "            calls.append(f'{caller} calls {name}')\n"
        "        return real(*args, **kwargs)\n"
        "    return call\n"
        "for name in ('compile', 'exec', 'eval'):\n"
        "    setattr(builtins, name, spy(name, getattr(builtins, name)))\n"
        "import margcouple.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "print(sorted({'typing'} & (set(sys.modules) - before)))\n"
        "print(calls)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n[]\n[]\n"


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
    assert err == "error: marginal band mass 1/2 is not under 1/2\n"
    # both marginal hypotheses fail: the column one is reported
    code, out, err = run(
        capsys, "check", REFERENCE, "--lemma", "5", "--sets", BOXDIFF_SETS,
        "--eps1", "1/2", "--eps2", "1/2",
    )
    assert (code, out) == (2, "")
    assert err == "error: first marginal band mass 1/2 is not under 1/2\n"
    code, out, err = run(
        capsys, "check", REFERENCE, "--lemma", "5", "--sets", BOXDIFF_SETS,
        "--eps1", "3/5", "--eps2", "1/2",
    )
    assert (code, out) == (2, "")
    assert err == "error: second marginal band mass 1/2 is not under 1/2\n"


def test_certify_refuses_a_tolerance_that_is_not_positive(capsys):
    # the text names certify's own flag, not refine_grid's eps0
    for flag in (("--eps", "0"), ("--eps=-1/5",)):
        got = run(capsys, "certify", REFERENCE, TARGETS, *flag, "--trials", "1", "--seed", "1")
        assert got == (2, "", "error: eps must be positive\n")


def test_certify_and_couple_refuse_a_measure_that_is_not_a_probability(capsys, tmp_path):
    # certify names its reference, as couple does, not the sampler it perturbs with
    space = loads(Path(REFERENCE).read_text(encoding="utf-8")).space
    half = tmp_path / "reference.json"
    half.write_text(dumps(Measure(space, {k: F(1, 8) for k in space.keys})), encoding="utf-8")
    got = run(capsys, "certify", str(half), TARGETS, "--eps", "1/5", "--trials", "1", "--seed", "1")
    assert got == (2, "", "error: reference must be a probability, has mass 1/2\n")
    mu = tmp_path / "mu.json"
    mu.write_text(dumps(loads(Path(MU).read_text(encoding="utf-8")).scale(F(1, 2))), encoding="utf-8")
    got = run(capsys, "couple", REFERENCE, GRID, str(mu), NU)
    assert got == (2, "", "error: mu must be a probability, has mass 1/2\n")


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


def test_check_refuses_the_other_rules_tolerances(capsys):
    band = ("check", REFERENCE, "--lemma", "4", "--sets", BAND_SETS, "--eps", "3/5")
    boxdiff = ("check", REFERENCE, "--lemma", "5", "--sets", BOXDIFF_SETS,
               "--eps1", "3/5", "--eps2", "3/5")
    for argv, message in [
        (band + ("--eps1", "1/9", "--eps2", "1/9"), "check --lemma 4 does not take --eps1 or --eps2"),
        (band + ("--eps1", "1/9"), "check --lemma 4 does not take --eps1"),
        (band + ("--eps2", "1/9"), "check --lemma 4 does not take --eps2"),
        # refused even where the rule's own tolerance is missing
        (band[:-2] + ("--eps2", "1/9"), "check --lemma 4 does not take --eps2"),
        (boxdiff + ("--eps", "1/9"), "check --lemma 5 does not take --eps"),
        (boxdiff[:-4] + ("--eps", "3/5"), "check --lemma 5 does not take --eps"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # each rule alone still runs
    assert run(capsys, *band)[0] == 0
    assert run(capsys, *boxdiff)[0] == 0


def test_check_rule_texts_word_for_word(capsys):
    for argv, message in [
        (("--lemma", "4", "--sets", BAND_SETS), "check --lemma 4 needs --eps"),
        (("--lemma", "5", "--sets", BOXDIFF_SETS, "--eps1", "3/5"),
         "check --lemma 5 needs --eps1 and --eps2"),
        (("--lemma", "5", "--sets", BOXDIFF_SETS, "--eps2", "3/5"),
         "check --lemma 5 needs --eps1 and --eps2"),
        (("--lemma", "4", "--sets", BOXDIFF_SETS, "--eps", "3/5"),
         f"{BOXDIFF_SETS}: rule 4 takes [outer, inner, row], got 4 sets"),
        (("--lemma", "5", "--sets", BAND_SETS, "--eps1", "3/5", "--eps2", "3/5"),
         f"{BAND_SETS}: rule 5 takes [col outer, col inner, row outer, row inner], got 3 sets"),
    ]:
        code, out, err = run(capsys, "check", REFERENCE, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    check = {a.dest: a for a in commands.choices["check"]._actions}
    assert check["lemma"].choices == (4, 5)
    assert {name: action.help for name, action in check.items()} == {
        "help": "show this help message and exit",
        "joint": "measure document on a product space",
        "lemma": "which rule to check",
        "sets": "line sets document: [outer, inner, row] for rule 4, "
        "[col outer, col inner, row outer, row inner] for rule 5",
        "eps": "tolerance for rule 4 only",
        "eps1": "column tolerance for rule 5 only",
        "eps2": "row tolerance for rule 5 only",
    }
    assert list(check) == ["help", "joint", "lemma", "sets", "eps", "eps1", "eps2"]


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
    # int() would read these as 3, 10, 2 and 2; a count past 2**63 - 1 could not be
    # written back as a document integer
    for trials in ("\u0663", "1_0", " 2", "+2", "-1", str(2**63), "7" * 5000):
        code, out, err = run(capsys, "certify", REFERENCE, TARGETS, "--eps", "1/5",
                             "--trials", trials, "--seed", "1")
        assert (code, out) == (2, "")
        assert "argument --trials: trials must be an unsigned integer up to 9223372036854775807" in err
        assert "7" * 100 not in err
    for lemma in ("\u0664", "+4", " 5", "0_4"):
        code, out, err = run(capsys, "check", REFERENCE, "--lemma", lemma,
                             "--sets", BAND_SETS, "--eps", "3/5")
        assert (code, out) == (2, "")
        assert "argument --lemma: lemma must be an unsigned integer up to 5" in err
    code, out, err = run(capsys, "check", REFERENCE, "--lemma", "3", "--sets", BAND_SETS)
    assert (code, out) == (2, "") and "argument --lemma: invalid choice" in err
    code, out, err = run(capsys, "check", REFERENCE, "--lemma", "6", "--sets", BAND_SETS)
    assert (code, out) == (2, "") and "argument --lemma: lemma must be an unsigned integer" in err
    top = str(2**63 - 1)
    args = build_parser().parse_args(["certify", "r", "s", "--eps", "1/5", "--trials", top, "--seed", "1"])
    assert args.trials == 2**63 - 1


def test_dispatch_after_a_refused_flag_matches_a_fresh_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    code, out, err = run(capsys, "refine", REFERENCE, TARGETS, "--eps0", "0.2")
    assert (code, out) == (2, "")
    assert err == (
        "usage: margcouple refine [-h] --eps0 EPS0 reference sets\n"
        "margcouple refine: error: argument --eps0: argument: expected a rational "
        "string like '1/10', got '0.2'\n"
    )
    code, out, err = run(capsys, "refine", REFERENCE, TARGETS, "--eps0", "1/5")
    assert (code, err) == (0, "")
    fresh = subprocess.run(
        [sys.executable, "-m", "margcouple.cli", "refine", REFERENCE, TARGETS, "--eps0", "1/5"],
        capture_output=True,
    )
    assert fresh.returncode == 0
    assert out.encode() == fresh.stdout


def test_check_rejects_product_sets(capsys):
    got = run(capsys, "check", REFERENCE, "--lemma", "4", "--sets", TARGETS, "--eps", "3/5")
    assert got == (2, "", f"error: {TARGETS}: check takes line geometry sets\n")


def test_refine_rejects_line_sets(capsys):
    code, _, err = run(capsys, "refine", REFERENCE, BAND_SETS, "--eps0", "1/5")
    assert code == 2
    assert "product geometry" in err
