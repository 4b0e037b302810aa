"""Self-test of the benchmark: trace coverage, a second seed and a missing program.

Every workload runs at smoke size in a fresh process, traced and untraced,
at the default seed and at a second seed that was not used while the
benchmark was written.  A per-layer metric must be non-zero exactly on the
workloads whose ops reach its code, which catches wrappers that miss a
binding (a name imported by value, a default argument captured at
definition time).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 90210)  # the default seed and a second one

# per-layer metrics that a workload's ops never reach
BYPASSED = {
    "couple-ladder": (
        "space.box_within.",
        "refine.",
        "weakstar.",
        "verify.",
    ),
    "certify-targets": (
        "verify.check_band_bound.",
        "verify.check_box_diff_bound.",
    ),
    "cli-docs": (
        "measure.eval.",
        "measure.add.",
        "couple.",
        "weakstar.",
        "verify.certify_trial.",
        "verify.sample_in_neighborhood.",
        "verify.fresh_atoms",
        "verify.max_denom_bits",
    ),
}
# zero everywhere because every op passes
PASSING = ("verify.violations", "cli.exit_nonzero")


def benchmark_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def launch(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    done = launch(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, done.stdout
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_trace_coverage(workload, seed):
    metrics = result(workload, seed, 1)["metrics"]
    assert list(metrics) == benchmark_names("per_layer")
    for name, m in metrics.items():
        if name in PASSING or name.startswith(BYPASSED[workload]):
            assert m["value"] == 0, f"{name} should not move on {workload}"
        else:
            assert m["value"] > 0, f"{name} reads zero on {workload}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_end_to_end_metrics(workload, seed):
    metrics = result(workload, seed, 0)["metrics"]
    assert list(metrics) == benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = launch("cli-docs", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_median_latencies_take_each_ops_middle_repeat():
    assert run.median_latencies([5, 2, 3, 4, 1], 2) == [3, 3, 3, 3, 3]
    assert run.median_latencies([5, 2, 3, 8, 1], 2) == [3, 5, 3, 5, 3]


def test_reference_unit_is_fixed_work():
    masses, carried, text = run.reference_unit()
    assert (masses, carried, text) == run.reference_unit()
    assert len(masses) == len(run.REF_BOXES) and any(masses.values())
    assert carried == 0 and len(json.loads(text)) == len(json.loads(run.REF_DOC))
    samples = []
    run.pace(0, samples)
    assert len(samples) == 1 and samples[0] > 0


def test_digests_stay_with_their_op_after_a_failed_first_run():
    op = SimpleNamespace(check=lambda doc: None)
    loop = run.Loop()
    assert run.judge(op, 0, 1, "", "boom", loop, None).startswith("exit 1")
    assert run.judge(op, 1, 0, '{"a": 1}', "", loop, None) is None
    assert run.judge(op, 0, 0, '{"b": 2}', "", loop, None) is None
    assert run.judge(op, 1, 0, '{"a": 1}', "", loop, None) is None
    assert run.judge(op, 0, 0, '{"c": 3}', "", loop, None) == "output differs from the op's first run"
