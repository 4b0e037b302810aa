"""Versioned JSON documents for every value the command line exchanges.

Rationals travel as strings "p/q" or "p"; decimal notation is rejected so
no value silently passes through binary floating point.  Serialization is
deterministic: atoms and weights follow the space's atom order, cells are
emitted row-within-column, and the emitted JSON is stable byte for byte.
Parsing is strict and every complaint names the offending field, including
a key or product weight given twice and a number with more digits than the
interpreter converts.  A result holding such a number cannot be written
either; that too is a ``SchemaError``, not a traceback.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .couple import CellAlloc, MarginalPair, PreimageReport
from .errors import Error, SchemaError
from .measure import Measure
from .refine import Grid, RefineResult
from .space import (
    Atom,
    Box,
    BoxSet,
    IntervalSet,
    ProductSpace,
    SpaceDesc,
)
from .verify import CertReport, LemmaCheck, Seed, Violation

SCHEMA_VERSION = 1

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:  # beyond the interpreter's int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"number too large to write (over {limit} digits)") from None


def parse_rational(raw, path: str) -> Fraction:
    if not isinstance(raw, str) or not _RATIONAL.match(raw):
        raise SchemaError(f"{path}: expected a rational string like '1/10', got {raw!r}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise SchemaError(f"{path}: zero denominator in {raw!r}") from None
    except ValueError:  # beyond the interpreter's int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"{path}: number too large (over {limit} digits)") from None


class _RepeatedKey(dict):
    """A JSON object that named one key twice; later values win, as in json."""

    def __init__(self, pairs, key):
        super().__init__(pairs)
        self.key = key


def _object(pairs: list) -> dict:
    # object_pairs_hook for json.loads: marks objects with a repeated key
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return _RepeatedKey(pairs, key)
        seen.add(key)


def _unique(obj, path) -> None:
    if isinstance(obj, _RepeatedKey):
        raise SchemaError(f"{path}.{obj.key}: repeated key")


def _field(doc, name, path, kind=None):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    _unique(doc, path)
    if name not in doc:
        raise SchemaError(f"{path}.{name}: missing")
    value = doc[name]
    _unique(value, f"{path}.{name}")
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{path}.{name}: wrong type {type(value).__name__}")
    return value


def _build(path, factory, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except Error as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# spaces


def _space_body(space: SpaceDesc) -> dict:
    return {
        "kind": "space",
        "atoms": [{"id": a.id, "coord": format_rational(a.coord)} for a in space.atoms],
    }


def _product_body(space: ProductSpace) -> dict:
    return {"kind": "product_space", "x": _space_body(space.x), "y": _space_body(space.y)}


def _parse_space(doc, path) -> SpaceDesc:
    atoms = []
    raw = _field(doc, "atoms", path, list)
    for i, entry in enumerate(raw):
        apath = f"{path}.atoms[{i}]"
        atoms.append(
            _build(
                apath,
                Atom,
                _field(entry, "id", apath, str),
                parse_rational(_field(entry, "coord", apath), f"{apath}.coord"),
            )
        )
    return _build(path, SpaceDesc, tuple(atoms))


def _parse_any_space(doc, path):
    kind = _field(doc, "kind", path, str)
    if kind == "space":
        return _parse_space(doc, path)
    if kind == "product_space":
        return ProductSpace(
            _parse_space(_field(doc, "x", path, dict), f"{path}.x"),
            _parse_space(_field(doc, "y", path, dict), f"{path}.y"),
        )
    raise SchemaError(f"{path}.kind: expected space or product_space, got {kind!r}")


# ---------------------------------------------------------------------------
# measures


def _measure_body(m: Measure) -> dict:
    if isinstance(m.space, ProductSpace):
        return {
            "kind": "measure",
            "space": _product_body(m.space),
            "weights": [
                [[kx, ky], format_rational(w)] for (kx, ky), w in m.weights.items()
            ],
        }
    return {
        "kind": "measure",
        "space": _space_body(m.space),
        "weights": {k: format_rational(w) for k, w in m.weights.items()},
    }


def _parse_measure(doc, path) -> Measure:
    space = _parse_any_space(_field(doc, "space", path, dict), f"{path}.space")
    raw = _field(doc, "weights", path)
    weights = {}
    if isinstance(space, ProductSpace):
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.weights: expected a list of [[x, y], mass] pairs")
        for i, entry in enumerate(raw):
            wpath = f"{path}.weights[{i}]"
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], list)
                or len(entry[0]) != 2
                or not all(isinstance(k, str) for k in entry[0])
            ):
                raise SchemaError(f"{wpath}: expected [[x, y], mass] with atom id strings")
            key = (entry[0][0], entry[0][1])
            if key in weights:
                raise SchemaError(f"{wpath}: repeated weight for atom {entry[0]!r}")
            weights[key] = parse_rational(entry[1], wpath)
    else:
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}.weights: expected an object keyed by atom id")
        for k, v in raw.items():
            weights[k] = parse_rational(v, f"{path}.weights.{k}")
    return _build(path, Measure, space, weights)


# ---------------------------------------------------------------------------
# open sets


def _interval_json(iv) -> list:
    return [format_rational(iv[0]), format_rational(iv[1])]


def _parse_interval(raw, path):
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"{path}: expected [lo, hi]")
    return (parse_rational(raw[0], f"{path}[0]"), parse_rational(raw[1], f"{path}[1]"))


def _intervalset_json(s: IntervalSet) -> list:
    return [_interval_json(iv) for iv in s.intervals]


def _parse_intervalset(raw, path) -> IntervalSet:
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of intervals")
    ivs = tuple(_parse_interval(iv, f"{path}[{i}]") for i, iv in enumerate(raw))
    return _build(path, IntervalSet, ivs)


def _box_json(b: Box) -> list:
    return [_interval_json(b.col), _interval_json(b.row)]


def _boxset_json(s: BoxSet) -> list:
    return [_box_json(b) for b in s.boxes]


def _parse_boxset(raw, path) -> BoxSet:
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of boxes")
    boxes = []
    for i, entry in enumerate(raw):
        bpath = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(f"{bpath}: expected [col, row]")
        boxes.append(
            _build(
                bpath,
                Box,
                _parse_interval(entry[0], f"{bpath}[0]"),
                _parse_interval(entry[1], f"{bpath}[1]"),
            )
        )
    return _build(path, BoxSet, tuple(boxes))


@dataclass(frozen=True)
class SetsDocument:
    """An ordered list of open sets, all of one geometry."""

    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        kinds = {type(s) for s in self.sets}
        if not kinds <= {IntervalSet} and not kinds <= {BoxSet}:
            raise SchemaError("sets document must hold one geometry only")

    @property
    def geometry(self) -> str:
        return "product" if self.sets and isinstance(self.sets[0], BoxSet) else "line"


def _sets_body(doc: SetsDocument) -> dict:
    if doc.geometry == "product":
        body = [{"boxes": _boxset_json(s)} for s in doc.sets]
    else:
        body = [{"intervals": _intervalset_json(s)} for s in doc.sets]
    return {"kind": "sets", "geometry": doc.geometry, "sets": body}


def _parse_sets(doc, path) -> SetsDocument:
    geometry = _field(doc, "geometry", path, str)
    if geometry not in ("line", "product"):
        raise SchemaError(f"{path}.geometry: expected line or product, got {geometry!r}")
    out = []
    for i, entry in enumerate(_field(doc, "sets", path, list)):
        spath = f"{path}.sets[{i}]"
        if geometry == "line":
            out.append(_parse_intervalset(_field(entry, "intervals", spath, list), f"{spath}.intervals"))
        else:
            out.append(_parse_boxset(_field(entry, "boxes", spath, list), f"{spath}.boxes"))
    return SetsDocument(tuple(out))


# ---------------------------------------------------------------------------
# grids and refinements


def _grid_body(grid: Grid) -> dict:
    return {
        "kind": "grid",
        "cols": [_intervalset_json(c) for c in grid.cols],
        "rows": [_intervalset_json(r) for r in grid.rows],
    }


def _parse_grid(doc, path) -> Grid:
    cols = [
        _parse_intervalset(c, f"{path}.cols[{i}]")
        for i, c in enumerate(_field(doc, "cols", path, list))
    ]
    rows = [
        _parse_intervalset(r, f"{path}.rows[{i}]")
        for i, r in enumerate(_field(doc, "rows", path, list))
    ]
    return _build(path, Grid, tuple(cols), tuple(rows))


def _refine_body(res: RefineResult) -> dict:
    cells = []
    for (q, s), owner in sorted(res.owner.items()):
        cells.append(
            {
                "q": q,
                "s": s,
                "owner": owner,
                "boxes": _boxset_json(res.grid.cell(q, s)),
            }
        )
    return {
        "kind": "refine_result",
        "grid": _grid_body(res.grid),
        "delta": format_rational(res.delta),
        "cells": cells,
    }


def _parse_refine(doc, path) -> RefineResult:
    grid = _parse_grid(_field(doc, "grid", path, dict), f"{path}.grid")
    delta = parse_rational(_field(doc, "delta", path), f"{path}.delta")
    owner = {}
    for i, entry in enumerate(_field(doc, "cells", path, list)):
        cpath = f"{path}.cells[{i}]"
        q = _field(entry, "q", cpath, int)
        s = _field(entry, "s", cpath, int)
        own = _field(entry, "owner", cpath)
        if own is not None and not isinstance(own, int):
            raise SchemaError(f"{cpath}.owner: expected an index or null")
        owner[(q, s)] = own
    expected = {(q, s) for q in range(len(grid.cols)) for s in range(len(grid.rows))}
    if set(owner) != expected:
        raise SchemaError(f"{path}.cells: cell list does not match the grid shape")
    return _build(path, RefineResult, grid, delta, owner)


# ---------------------------------------------------------------------------
# reports


def _pair_body(pair: MarginalPair) -> dict:
    return {
        "kind": "marginal_pair",
        "mu": _measure_body(pair.mu),
        "nu": _measure_body(pair.nu),
    }


def _parse_pair(doc, path) -> MarginalPair:
    return _build(
        path,
        MarginalPair,
        _parse_measure(_field(doc, "mu", path, dict), f"{path}.mu"),
        _parse_measure(_field(doc, "nu", path, dict), f"{path}.nu"),
    )


def _preimage_body(rep: PreimageReport) -> dict:
    cells = []
    for ix in sorted(rep.cell_allocs):
        alloc = rep.cell_allocs[ix]
        cells.append(
            {
                "q": ix[0],
                "s": ix[1],
                "col_scaled": format_rational(alloc.col_scaled),
                "row_scaled": format_rational(alloc.row_scaled),
                "kept": format_rational(alloc.kept),
                "drop": format_rational(rep.cell_drops[ix]),
            }
        )
    return {
        "kind": "preimage_report",
        "coupling": _measure_body(rep.coupling),
        "grid_part": _measure_body(rep.grid_part),
        "remainder_coupling": _measure_body(rep.remainder_coupling),
        "cells": cells,
    }


def _parse_preimage(doc, path) -> PreimageReport:
    allocs, drops = {}, {}
    for i, entry in enumerate(_field(doc, "cells", path, list)):
        cpath = f"{path}.cells[{i}]"
        ix = (_field(entry, "q", cpath, int), _field(entry, "s", cpath, int))
        allocs[ix] = CellAlloc(
            parse_rational(_field(entry, "col_scaled", cpath), f"{cpath}.col_scaled"),
            parse_rational(_field(entry, "row_scaled", cpath), f"{cpath}.row_scaled"),
            parse_rational(_field(entry, "kept", cpath), f"{cpath}.kept"),
        )
        drops[ix] = parse_rational(_field(entry, "drop", cpath), f"{cpath}.drop")
    return _build(
        path,
        PreimageReport,
        _parse_measure(_field(doc, "coupling", path, dict), f"{path}.coupling"),
        _parse_measure(_field(doc, "grid_part", path, dict), f"{path}.grid_part"),
        _parse_measure(
            _field(doc, "remainder_coupling", path, dict), f"{path}.remainder_coupling"
        ),
        allocs,
        drops,
    )


def _optional_rational(value, path):
    return None if value is None else format_rational(value)


def _cert_body(rep: CertReport) -> dict:
    violations = []
    for v in rep.violations:
        violations.append(
            {
                "trial": v.trial,
                "seed": str(v.seed.value),
                "reason": v.reason,
                "cell": list(v.cell) if v.cell is not None else None,
                "gap": _optional_rational(v.gap, ""),
                "mu": _measure_body(v.mu) if v.mu is not None else None,
                "nu": _measure_body(v.nu) if v.nu is not None else None,
            }
        )
    return {
        "kind": "cert_report",
        "trials": rep.trials,
        "min_observed_gap": _optional_rational(rep.min_observed_gap, ""),
        "violations": violations,
    }


def _parse_cert(doc, path) -> CertReport:
    violations = []
    for i, entry in enumerate(_field(doc, "violations", path, list)):
        vpath = f"{path}.violations[{i}]"
        cell = _field(entry, "cell", vpath)
        if cell is not None:
            if not isinstance(cell, list) or len(cell) != 2:
                raise SchemaError(f"{vpath}.cell: expected [q, s] or null")
            cell = (cell[0], cell[1])
        gap = _field(entry, "gap", vpath)
        mu = _field(entry, "mu", vpath)
        nu = _field(entry, "nu", vpath)
        seed_raw = _field(entry, "seed", vpath, str)
        if not seed_raw.isdigit():
            raise SchemaError(f"{vpath}.seed: expected an unsigned integer string")
        seed = int(parse_rational(seed_raw, f"{vpath}.seed"))
        violations.append(
            Violation(
                trial=_field(entry, "trial", vpath, int),
                seed=_build(f"{vpath}.seed", Seed, seed),
                reason=_field(entry, "reason", vpath, str),
                cell=cell,
                gap=None if gap is None else parse_rational(gap, f"{vpath}.gap"),
                mu=None if mu is None else _parse_measure(mu, f"{vpath}.mu"),
                nu=None if nu is None else _parse_measure(nu, f"{vpath}.nu"),
            )
        )
    raw_gap = _field(doc, "min_observed_gap", path)
    return CertReport(
        trials=_field(doc, "trials", path, int),
        violations=tuple(violations),
        min_observed_gap=None
        if raw_gap is None
        else parse_rational(raw_gap, f"{path}.min_observed_gap"),
    )


@dataclass(frozen=True)
class CheckDocument:
    """Outcome of a containment check, tagged with the rule it ran."""

    lemma: int
    result: LemmaCheck

    def __post_init__(self):
        if self.lemma not in (4, 5):
            raise SchemaError(f"unknown check rule {self.lemma!r}")


def _check_body(doc: CheckDocument) -> dict:
    return {
        "kind": "lemma_check",
        "lemma": doc.lemma,
        "lhs": format_rational(doc.result.lhs),
        "bound": format_rational(doc.result.bound),
        "ok": doc.result.ok,
    }


def _parse_check(doc, path) -> CheckDocument:
    ok = _field(doc, "ok", path, bool)
    return CheckDocument(
        _field(doc, "lemma", path, int),
        LemmaCheck(
            parse_rational(_field(doc, "lhs", path), f"{path}.lhs"),
            parse_rational(_field(doc, "bound", path), f"{path}.bound"),
            ok,
        ),
    )


# ---------------------------------------------------------------------------
# dispatch


_BODIES = (
    (SpaceDesc, _space_body),
    (ProductSpace, _product_body),
    (Measure, _measure_body),
    (SetsDocument, _sets_body),
    (Grid, _grid_body),
    (RefineResult, _refine_body),
    (MarginalPair, _pair_body),
    (PreimageReport, _preimage_body),
    (CertReport, _cert_body),
    (CheckDocument, _check_body),
)

_PARSERS = {
    "space": _parse_space,
    "product_space": lambda doc, path: _parse_any_space(doc, path),
    "measure": _parse_measure,
    "sets": _parse_sets,
    "grid": _parse_grid,
    "refine_result": _parse_refine,
    "marginal_pair": _parse_pair,
    "preimage_report": _parse_preimage,
    "cert_report": _parse_cert,
    "lemma_check": _parse_check,
}


def to_document(obj) -> dict:
    for cls, body in _BODIES:
        if isinstance(obj, cls):
            return {"schema_version": SCHEMA_VERSION, **body(obj)}
    raise SchemaError(f"no document form for {type(obj).__name__}")


def from_document(doc) -> object:
    if not isinstance(doc, dict):
        raise SchemaError("document: expected a JSON object")
    version = _field(doc, "schema_version", "document", int)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"document.schema_version: unsupported version {version}")
    kind = _field(doc, "kind", "document", str)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise SchemaError(f"document.kind: unknown kind {kind!r}")
    return parser(doc, kind)


def dumps(obj) -> str:
    return json.dumps(to_document(obj), indent=2, ensure_ascii=True) + "\n"


def loads(text: str) -> object:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"document: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer beyond the int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"document: number too large (over {limit} digits)") from exc
    return from_document(doc)
