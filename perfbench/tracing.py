"""Per-layer spans and counters, installed around margcouple from outside.

The layers are the package's modules.  :func:`install` replaces chosen
functions and methods with wrappers that record a span (name, start, end,
parent span, op id) or, for the open-set ``contains`` calls that run tens
of thousands of times per op, only bump a counter.  Spans are kept in
memory; a span's self time is its duration minus the time its direct child
spans cover.

Wrapping from outside has two binding pitfalls, both handled here:

* names imported by value (``couple.tensor``, ``cli.construct_preimage``,
  the package namespace, ...) are separate bindings of the same function,
  so every module binding that *is* the original is replaced;
* ``certify_trial`` and ``certify_openness`` captured ``construct_preimage``
  as a default argument when they were defined, so defaults that hold an
  original are replaced too.

:func:`install` refuses to return while any binding of a wrapped original is
left, so a later change to the package's imports cannot silently zero a
counter.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "margcouple"
MODULES = ("space", "measure", "refine", "couple", "weakstar", "verify", "documents", "cli")

# per-layer metrics in report order: name, unit.  ``*.calls`` and ``*.self_s``
# come from spans or counters and are reported per op; the remaining counters
# are per op as well, except the maximum denominator bit length.
PER_LAYER = (
    ("space.contains.calls", "calls/op"),
    ("space.box_within.calls", "calls/op"),
    ("space.box_within.self_s", "s/op"),
    ("measure.eval.calls", "calls/op"),
    ("measure.eval.self_s", "s/op"),
    ("measure.eval.atoms_scanned", "atoms/op"),
    ("measure.construct.calls", "calls/op"),
    ("measure.construct.self_s", "s/op"),
    ("measure.construct.space_keys", "keys/op"),
    ("measure.construct.weights", "weights/op"),
    ("measure.push_proj.calls", "calls/op"),
    ("measure.push_proj.self_s", "s/op"),
    ("measure.tensor.self_s", "s/op"),
    ("measure.add.self_s", "s/op"),
    ("refine.refine_grid.calls", "calls/op"),
    ("refine.refine_grid.self_s", "s/op"),
    ("refine.cells", "cells/op"),
    ("refine.owned_cells", "cells/op"),
    ("couple.construct_preimage.calls", "calls/op"),
    ("couple.construct_preimage.self_s", "s/op"),
    ("couple.cells", "cells/op"),
    ("couple.cells_kept", "cells/op"),
    ("weakstar.gap.calls", "calls/op"),
    ("weakstar.gap.self_s", "s/op"),
    ("weakstar.sets", "sets/op"),
    ("verify.certify_trial.calls", "calls/op"),
    ("verify.certify_trial.self_s", "s/op"),
    ("verify.sample_in_neighborhood.calls", "calls/op"),
    ("verify.sample_in_neighborhood.self_s", "s/op"),
    ("verify.fresh_atoms", "atoms/op"),
    ("verify.violations", "count/op"),
    ("verify.max_denom_bits", "bits"),
    ("verify.check_band_bound.self_s", "s/op"),
    ("verify.check_box_diff_bound.self_s", "s/op"),
    ("documents.loads.calls", "calls/op"),
    ("documents.loads.self_s", "s/op"),
    ("documents.loads.bytes", "B/op"),
    ("documents.dumps.calls", "calls/op"),
    ("documents.dumps.self_s", "s/op"),
    ("documents.dumps.bytes", "B/op"),
    ("cli.dispatch.calls", "calls/op"),
    ("cli.dispatch.self_s", "s/op"),
    ("cli.exit_nonzero", "count/op"),
    ("trace.op_wall_s", "s/op"),
)


# ---------------------------------------------------------------------------
# counters taken from arguments and results at the span boundary


def _construct(counts, args, result):
    # wraps measure._normalized(space, raw, signed=...), which every Measure
    # and SignedMeasure construction runs and which walks the whole key tuple
    counts["measure.construct.space_keys"] += len(args[0].keys)
    counts["measure.construct.weights"] += len(result)


def _eval(counts, args, result):
    counts["measure.eval.atoms_scanned"] += len(args[0].weights)


def _refine(counts, args, result):
    counts["refine.cells"] += len(result.owner)
    counts["refine.owned_cells"] += sum(1 for o in result.owner.values() if o is not None)


def _couple(counts, args, result):
    counts["couple.cells"] += len(result.cell_allocs)
    counts["couple.cells_kept"] += sum(1 for a in result.cell_allocs.values() if a.kept > 0)


def _gap(counts, args, result):
    counts["weakstar.sets"] += len(args[0].sets)


def _certify_trial(counts, args, result):
    violations, gaps = result
    counts["verify.violations"] += len(violations)
    bits = max((g.denominator.bit_length() for g in gaps), default=0)
    counts["verify.max_denom_bits"] = max(counts["verify.max_denom_bits"], bits)


def _atoms(space) -> int:
    return len(space.x.atoms) if hasattr(space, "x") else len(space.atoms)


def _sample(counts, args, result):
    counts["verify.fresh_atoms"] += _atoms(result.space) - _atoms(args[0].space)


def _loads(counts, args, result):
    counts["documents.loads.bytes"] += len(args[0])


def _dumps(counts, args, result):
    counts["documents.dumps.bytes"] += len(result)


def _dispatch(counts, args, result):
    counts["cli.exit_nonzero"] += result != 0


# (module, class or None, attribute, span name, counter hook)
SPANNED = (
    ("space", None, "box_within", "space.box_within", None),
    ("measure", None, "_normalized", "measure.construct", _construct),
    ("measure", "Measure", "eval", "measure.eval", _eval),
    ("measure", "Measure", "push_proj", "measure.push_proj", None),
    ("measure", "Measure", "__add__", "measure.add", None),
    ("measure", None, "tensor", "measure.tensor", None),
    ("refine", None, "refine_grid", "refine.refine_grid", _refine),
    ("couple", None, "construct_preimage", "couple.construct_preimage", _couple),
    ("weakstar", "Neighborhood", "gap", "weakstar.gap", _gap),
    ("verify", None, "certify_trial", "verify.certify_trial", _certify_trial),
    ("verify", None, "sample_in_neighborhood", "verify.sample_in_neighborhood", _sample),
    ("verify", None, "check_band_bound", "verify.check_band_bound", None),
    ("verify", None, "check_box_diff_bound", "verify.check_box_diff_bound", None),
    ("documents", None, "loads", "documents.loads", _loads),
    ("documents", None, "dumps", "documents.dumps", _dumps),
    ("cli", None, "dispatch", "cli.dispatch", _dispatch),
)

# the open-set membership tests, counted without spans
COUNTED = (
    ("space", "IntervalSet", "contains", "space.contains.calls"),
    ("space", "BoxSet", "contains", "space.contains.calls"),
)


class Tracer:
    """Spans and counters for one process; records only while ``enabled``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict = defaultdict(int)
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []

    def spanned(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.op)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if self.enabled:
                counts[name] += 1
            return fn(*args)

        return wrapper

    def self_times(self) -> dict:
        """Span name -> (calls, summed self time)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - covered[i])
        return out

    def layer_metrics(self, ops: int, op_wall_s: float, scale: float) -> dict:
        """Per-layer metrics per op; self times are multiplied by ``scale``."""
        spans = self.self_times()
        counted = {name for *_, name in COUNTED}
        out = {}
        for name, unit in PER_LAYER:
            span, _, field = name.rpartition(".")
            calls, total = spans.get(span, (0, 0.0))
            if name == "trace.op_wall_s":
                value = op_wall_s
            elif name == "verify.max_denom_bits":
                value = self.counts[name]
            elif field == "self_s":
                value = total * scale / ops
            elif field == "calls" and name not in counted:
                value = calls / ops
            else:
                value = self.counts[name] / ops
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, op])
                    + "\n"
                )


# ---------------------------------------------------------------------------
# installation


def _package_modules() -> list[types.ModuleType]:
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]


def _package_functions(modules) -> list[types.FunctionType]:
    """Every original function defined at module or class level in the package."""
    found: dict[int, types.FunctionType] = {}
    for mod in modules:
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                fn = inspect.unwrap(member) if callable(member) else None
                if isinstance(fn, types.FunctionType) and fn.__module__.startswith(PACKAGE):
                    found[id(fn)] = fn
    return list(found.values())


def _rebind(modules, functions, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
    for fn in functions:
        if fn.__defaults__ and any(d is original for d in fn.__defaults__):
            fn.__defaults__ = tuple(wrapped if d is original else d for d in fn.__defaults__)
        if fn.__kwdefaults__:
            for key, d in fn.__kwdefaults__.items():
                if d is original:
                    fn.__kwdefaults__[key] = wrapped


def _leftovers(modules, functions, originals) -> list[str]:
    left = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if any(value is o for o in originals):
                left.append(f"{mod.__name__}.{attr}")
    for fn in functions:
        defaults = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
        if any(d is o for d in defaults for o in originals):
            left.append(f"default argument of {fn.__qualname__}")
    return left


def install(tracer: Tracer) -> None:
    """Wrap every function listed in SPANNED and COUNTED, through every binding."""
    modules = _package_modules()
    functions = _package_functions(modules)
    originals = []
    for mod_name, cls_name, attr, span, hook in SPANNED:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
        if cls_name is not None:
            cls = getattr(owner, cls_name)
            original = getattr(cls, attr)
            setattr(cls, attr, tracer.spanned(span, original, hook))
            continue
        original = getattr(owner, attr)
        originals.append(original)
        _rebind(modules, functions, original, tracer.spanned(span, original, hook))
    for mod_name, cls_name, attr, name in COUNTED:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
        setattr(cls, attr, tracer.counted(name, getattr(cls, attr)))
    left = _leftovers(modules, functions, originals)
    if left:
        raise RuntimeError("unwrapped bindings left: " + ", ".join(left))
