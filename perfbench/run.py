#!/usr/bin/env python3
"""Closed-loop benchmark of the margcouple command line, end to end and per layer.

One in-process caller on one thread runs ``margcouple.cli.dispatch`` with
stdout captured in memory, one op after another, on JSON documents generated
from ``--seed`` and written during set-up.  Every op's output is checked by
the benchmark's own arithmetic; at the default seed its bytes must also
match the pinned digests in ``golden.json``.  The workload's ops form a
cycle that repeats until ``--seconds`` have passed (and at least 100 ops
ran); an op's latency is the median wall time among its repeats in the run,
and p50, p90 and ops per second are taken over all ops on those latencies.

Other tenants of a shared machine slow it by up to 1.8x for seconds at a
time.  So after each op the loop also times a fixed stdlib reference unit
for a tenth of the op's time, and every reported time is scaled by
``REF_UNIT_S`` over the reference's median time in the same run: it is the
time the op would take on a machine running the reference at that speed.
The unscaled figures are printed beside the metrics.

    python3 perfbench/run.py --workload couple-ladder --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the op loop runs with spans and counters installed around each
module (see ``tracing.py``) and reports the per-layer metrics instead.
``--workload all`` runs every workload untraced and traced, each in a fresh
process, and prints every metric by name with the tracing overhead.  The
program is always imported from ``src/`` of the checkout this file lives
in; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("couple-ladder", "certify-targets", "cli-docs")
DEFAULT_SEED = 1
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_OPS = 100  # so that p90 has ten samples beyond it
HARD_STOP_S = 150  # the loop ends here even short of MIN_OPS
REF_SHARE = 0.1  # reference time after each op or set-up, as a share of its time
# About one reference unit's median time on the 2-vCPU Intel Xeon VM
# (Python 3.11) the benchmark was tuned on, in its quiet stretches.  Only a
# fixed scale: reported times are those of a machine that runs the reference
# unit this fast.
REF_UNIT_S = 1.5e-3

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import margcouple\n"
    "t = time.perf_counter() - t\n"
    "assert margcouple.__file__.startswith(sys.argv[1]), margcouple.__file__\n"
    "print(repr(t))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one op cycle; for the self-test"
    )
    return p.parse_args(argv)


def load_program():
    if not (SRC / "margcouple" / "__init__.py").is_file():
        print(f"error: no margcouple sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import margcouple

    if not Path(margcouple.__file__).resolve().is_relative_to(SRC):
        print(f"error: margcouple imported from {margcouple.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# machine speed

_ref_rng = random.Random(5)
REF_POINTS = tuple(
    (
        Fraction(_ref_rng.randrange(1, 97), 97),
        Fraction(_ref_rng.randrange(1, 89), 89),
        Fraction(_ref_rng.randrange(1, 50), _ref_rng.randrange(51, 400)),
    )
    for _ in range(60)
)
REF_BOXES = tuple(
    ((Fraction(a, 8), Fraction(a + 2, 8)), (Fraction(b, 8), Fraction(b + 3, 8)))
    for a in range(0, 6, 2)
    for b in range(0, 5, 2)
)
REF_KEYS = tuple((f"x{i}", f"y{j}") for i in range(60) for j in range(40))
REF_DOC = json.dumps(
    [
        [f"x{_ref_rng.randrange(10**6)}", f"y{_ref_rng.randrange(10**6)}",
         f"{_ref_rng.randrange(1, 999)}/{_ref_rng.randrange(1000, 99999)}"]
        for _ in range(120)
    ]
)


def _inside(point, box) -> bool:
    (x0, x1), (y0, y1) = box
    return x0 < point[0] < x1 and y0 < point[1] < y1


def reference_unit():
    """Fixed stdlib work shaped like the package's ops, about 1.5 ms.

    Open-box membership of Fraction points with Fraction sums (as in
    ``Measure.eval`` over a ``BoxSet``), a walk over a dict keyed by every
    pair of a product space (as in ``Measure`` construction) and a JSON
    round trip of Fraction weights (as in ``documents``).  Other tenants'
    load slows these three kinds of work by different factors, so the unit
    holds all of them.  It calls nothing of the package, so no change to
    the program alters its cost.
    """
    masses = {}
    for i, box in enumerate(REF_BOXES):
        total = Fraction(0)
        for point in REF_POINTS:
            if _inside(point, box):
                total += point[2]
        masses[i] = total
    table = dict.fromkeys(REF_KEYS, Fraction(0))
    carried = sum(1 for key in REF_KEYS if table[key])
    weights = {(x, y): Fraction(w) for x, y, w in json.loads(REF_DOC)}
    text = json.dumps(
        [[x, y, f"{w.numerator}/{w.denominator}"] for (x, y), w in sorted(weights.items())]
    )
    return masses, carried, text


def pace(busy_s: float, samples: list[float]) -> None:
    """Time reference units for REF_SHARE of busy_s, at least one.

    Called after each op, so the samples spread over the run in proportion
    to the time the ops take and see the same load from other tenants.
    """
    end = perf_counter() + REF_SHARE * busy_s
    while True:
        t = perf_counter()
        reference_unit()
        now = perf_counter()
        samples.append(now - t)
        if now >= end:
            return


def speed_scale(samples: list[float]) -> float:
    """Factor that turns this run's times into times at REF_UNIT_S speed."""
    return REF_UNIT_S / statistics.median(samples)


# ---------------------------------------------------------------------------
# set-up


def cold_import_s() -> float:
    """``import margcouple`` timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def set_up(workload: str, seed: int, work: Path, smoke: bool):
    """Generate and write the documents SETUPS times.

    One set-up is a cold import of the package plus generating and writing
    every document.  Generation is deterministic, so each repetition
    rewrites the same files and the ops of the last one are used.  Returns
    the ops, the set-up times and the reference times paced between them.
    """
    import workloads

    samples, reference = [], []
    for _ in range(1 if smoke else SETUPS):
        imported = cold_import_s()
        t = perf_counter()
        ops = workloads.BUILDERS[workload](random.Random(f"{workload}:{seed}"), work, smoke)
        samples.append(imported + perf_counter() - t)
        pace(samples[-1], reference)
    return ops, samples, reference


# ---------------------------------------------------------------------------
# the op loop


class Loop:
    """Outcome of the timed loop: per-op latencies, failures and digests."""

    def __init__(self):
        self.latency: list[float] = []
        self.reference: list[float] = []  # reference unit times paced between ops
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}  # cycle position -> first output's sha256


def run_loop(ops, seconds: float, min_ops: int, golden, tracer=None) -> Loop:
    from margcouple import cli

    loop = Loop()
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        if perf_counter() - start > HARD_STOP_S:
            break
        pos = i % len(ops)
        op = ops[pos]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        with redirect_stdout(out), redirect_stderr(err):
            t = perf_counter()
            try:
                rc = cli.dispatch(list(op.argv))
            except Exception as exc:  # a traceback is a failed op, not the end of the run
                rc = f"raised {type(exc).__name__}: {exc}"
            loop.latency.append(perf_counter() - t)
        if tracer is not None:
            tracer.enabled = False
        failure = judge(op, pos, rc, out.getvalue(), err.getvalue(), loop, golden)
        if not failure and threading.active_count() > 1:
            # work left running would slow the reference and flatter the scale
            failure = f"{threading.active_count() - 1} threads still running after the op"
        pace(loop.latency[-1], loop.reference)
        if failure:
            loop.failures.append(f"op {i} ({op.kind}): {failure}")
        i += 1
    return loop


def judge(op, pos: int, rc, stdout: str, stderr: str, loop: Loop, golden) -> str | None:
    """Why the op failed, or None: exit code, digest, then invariants."""
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if pos in loop.digests:
        # a repeated op must reproduce its first output byte for byte
        return None if digest == loop.digests[pos] else "output differs from the op's first run"
    loop.digests[pos] = digest
    if golden is not None and digest != golden[pos]:
        return f"output digest {digest[:12]} does not match golden {golden[pos][:12]}"
    try:
        return op.check(json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def median_latencies(latency: list[float], cycle: int) -> list[float]:
    """Each op's latency replaced by the median time among the repeats of that op.

    Op i repeats op i - cycle, so every op is timed several times across
    the run, and the median weighs the machine's load over the whole run as
    the reference's median does.
    """
    repeats: dict[int, list[float]] = {}
    for i, t in enumerate(latency):
        repeats.setdefault(i % cycle, []).append(t)
    median = {pos: statistics.median(ts) for pos, ts in repeats.items()}
    return [median[i % cycle] for i in range(len(latency))]


def golden_digests(workload: str, seed: int, smoke: bool):
    if smoke or seed != DEFAULT_SEED:
        return None
    pinned = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    return pinned["workloads"][workload]


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(args) -> int:
    load_program()
    import tracing

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as work:
        ops, setups, setup_reference = set_up(args.workload, args.seed, Path(work), args.smoke)
        golden = golden_digests(args.workload, args.seed, args.smoke)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        min_ops = len(ops) if args.smoke else max(MIN_OPS, len(ops))
        gc.collect()
        loop = run_loop(ops, args.seconds, min_ops, golden, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = len(loop.latency)
    typical = median_latencies(loop.latency, len(ops))
    busy = sum(typical)
    scale = speed_scale(loop.reference)
    setup = statistics.median(setups)
    setup_scale = speed_scale(setup_reference)
    failed = len(loop.failures)
    q = statistics.quantiles(typical, n=10, method="inclusive")
    if args.trace:
        metrics = tracer.layer_metrics(n, busy * scale / n, scale)
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup * setup_scale, "unit": "s"},
            "op_p50_ms": {"value": q[4] * 1e3 * scale, "unit": "ms"},
            "op_p90_ms": {"value": q[8] * 1e3 * scale, "unit": "ms"},
            "ops_per_s": {"value": n / (busy * scale), "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    mode = "traced" if args.trace else "untraced"
    raw = statistics.quantiles(loop.latency, n=10, method="inclusive")
    print(f"{args.workload} seed {args.seed} ({mode}): closed loop, 1 client, {n} ops, "
          f"{sum(loop.latency):.3f} s inside dispatch, each op repeated about "
          f"{n // len(ops)} times")
    print(f"  reference unit: median {statistics.median(loop.reference) * 1e3:.4f} ms over "
          f"{len(loop.reference)} units between ops, so times are scaled by {scale:.4f}; "
          f"{statistics.median(setup_reference) * 1e3:.4f} ms over {len(setup_reference)} "
          f"between set-ups, scale {setup_scale:.4f}")
    samples = {
        "setup_s": f"median of {len(setups)} set-ups; unscaled {setup:.4f} s",
        "op_p50_ms": f"n={n}; unscaled {q[4] * 1e3:.3f} ms, raw over all calls {raw[4] * 1e3:.3f} ms",
        "op_p90_ms": f"n={n}; unscaled {q[8] * 1e3:.3f} ms, raw over all calls {raw[8] * 1e3:.3f} ms",
        "ops_per_s": f"{n} ops / {busy * scale:.3f} s at scaled median latency",
    }
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:9s} {samples.get(name, '')}")
    print(f"  {'fail_ratio':38s} {failed / n:14.6g} {'ratio':9s} {failed}/{n} ops")
    if golden is not None:
        print(f"  golden digests checked on {min(n, len(golden))} of {len(golden)} cycle positions")
    for line in loop.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in fresh processes


def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} --trace {trace} exited {done.returncode}")
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        plain = child(workload, args.seed, args.seconds, 0)
        traced = child(workload, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        untraced_op = 1 / plain["metrics"]["ops_per_s"]["value"]
        traced_op = traced["metrics"]["trace.op_wall_s"]["value"]
        print(f"  tracing overhead: {(traced_op - untraced_op) * 1e3:.3f} ms/op "
              f"({(traced_op / untraced_op - 1) * 100:.1f}% of {untraced_op * 1e3:.3f} ms/op)\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
