"""Versioned JSON documents for every value the command line exchanges.

Rationals travel as strings "p/q" or "p"; decimal notation is rejected so
no value silently passes through binary floating point.  Serialization is
deterministic: atoms and weights follow the space's atom order, cells are
emitted row-within-column, and the emitted JSON is stable byte for byte.
Parsing is strict and every complaint names the offending field: a key,
weight or cell given twice, a boolean for an integer, a nested document of
the wrong kind, a number with more digits than the interpreter converts.
A result holding such a number cannot be written either; that too is a
``SchemaError``, not a traceback, as is a float or a bool given where a
rational belongs.

Measure weights, the bulk of most documents, cost one small fixed step
each.  A line measure writes an object keyed by atom id, a product measure
a list of ``[[x, y], "p/q"]`` entries that :func:`_write` lays out from one
format string per indent level.  Reading tests each entry with exact type
checks and one ``_RATIONAL`` match, and builds a field's path only for its
error; the weights then go through the strict ``Measure(space, weights)``,
which rejects unknown atoms and negative weights.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # json's C string encoder

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
    _RATIONAL,
)
from .verify import CertReport, LemmaCheck, Seed, Violation

SCHEMA_VERSION = 1

# every integer a document holds is a count or an index: 0 <= n < 2**63
_INT_LIMIT = 2**63


def format_rational(x: Fraction) -> str:
    """x as "p/q", or "p" when q == 1; only a Fraction or an int is written."""
    if type(x) is not Fraction and type(x) is not int:  # a float or a bool would pass str()
        raise SchemaError(f"cannot write a {type(x).__name__} as a rational")
    try:
        return str(x)
    except ValueError:  # beyond the interpreter's int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"number too large to write (over {limit} digits)") from None


def _fraction(raw) -> Fraction | None:
    """raw as a Fraction if it is a rational string the interpreter converts, else None."""
    if isinstance(raw, str) and _RATIONAL.fullmatch(raw):
        num, _, den = raw.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ZeroDivisionError, ValueError):  # ValueError: past the int-string digit limit
            pass
    return None


def parse_rational(raw, path: str) -> Fraction:
    value = _fraction(raw)
    if value is None:
        raise _rational_error(raw, path)
    return value


def _rational_error(raw, path: str) -> SchemaError:
    """Why _fraction refused raw, naming the field at path."""
    if not isinstance(raw, str) or not _RATIONAL.fullmatch(raw):
        try:
            shown = repr(raw)
        except ValueError:  # an int beyond the int-string digit limit
            shown = "a number too large to show"
        return SchemaError(f"{path}: expected a rational string like '1/10', got {shown}")
    num, _, den = raw.partition("/")
    try:
        int(num), int(den or 1)
    except ValueError:  # beyond the interpreter's int-string digit limit
        limit = sys.get_int_max_str_digits()
        return SchemaError(f"{path}: number too large (over {limit} digits)")
    return SchemaError(f"{path}: zero denominator in {raw!r}")


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


def _build(path, factory, *args):
    try:
        return factory(*args)
    except Error as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _int(doc, name, path, optional=False):
    # a JSON integer; json gives booleans as int subclasses, so compare types
    value = _field(doc, name, path)
    if type(value) is int:
        if 0 <= value < _INT_LIMIT:
            return value
        raise SchemaError(f"{path}.{name}: expected a non-negative integer below 2**63")
    if optional and value is None:
        return value
    if optional:
        raise SchemaError(f"{path}.{name}: expected an index or null")
    raise SchemaError(f"{path}.{name}: wrong type {type(value).__name__}")


def _rational(doc, name, path, optional=False):
    raw = _field(doc, name, path)
    if optional and raw is None:
        return None
    return parse_rational(raw, f"{path}.{name}")


def _each(items, path, read) -> tuple:
    return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(items))


def _list(doc, name, path, read) -> tuple:
    return _each(_field(doc, name, path, list), f"{path}.{name}", read)


def _sub(doc, name, path, *kinds, optional=False):
    """The sub-document doc[name] (null allowed if optional), parsed by its kind, one of kinds."""
    sub = _field(doc, name, path, None if optional else dict)
    if sub is None:
        return None
    path = f"{path}.{name}"
    kind = _field(sub, "kind", path, str)
    if kind not in kinds:
        raise SchemaError(f"{path}.kind: expected {' or '.join(kinds)}, got {kind!r}")
    return _KINDS[kind][2](sub, path)


def _cells(doc, path, read) -> dict:
    """{(q, s): read(entry, entry path)} over doc["cells"]; a cell given twice is an error."""
    out = {}
    for i, entry in enumerate(_field(doc, "cells", path, list)):
        cpath = f"{path}.cells[{i}]"
        ix = (_int(entry, "q", cpath), _int(entry, "s", cpath))
        if ix in out:
            raise SchemaError(f"{cpath}: repeated cell [{ix[0]}, {ix[1]}]")
        out[ix] = read(entry, cpath)
    return out


# ---------------------------------------------------------------------------
# spaces


def _space_body(space: SpaceDesc) -> dict:
    return {"atoms": [{"id": a.id, "coord": format_rational(a.coord)} for a in space.atoms]}


def _product_body(space: ProductSpace) -> dict:
    return {"x": _tagged(space.x), "y": _tagged(space.y)}


def _parse_atom(entry, path) -> Atom:
    return _build(path, Atom, _field(entry, "id", path, str), _rational(entry, "coord", path))


def _parse_space(doc, path) -> SpaceDesc:
    atoms = []
    for i, entry in enumerate(_field(doc, "atoms", path, list)):
        # exact types: a _RepeatedKey object or any odd field goes to _parse_atom, which names it
        ident = entry.get("id") if type(entry) is dict else None
        coord = _fraction(entry.get("coord")) if type(ident) is str and ident else None
        if coord is None:
            atoms.append(_parse_atom(entry, f"{path}.atoms[{i}]"))
        else:
            atoms.append(Atom(ident, coord))
    return _build(path, SpaceDesc, atoms)


def _parse_product(doc, path) -> ProductSpace:
    return ProductSpace(_sub(doc, "x", path, "space"), _sub(doc, "y", path, "space"))


# ---------------------------------------------------------------------------
# measures


class _PairWeights(list):
    """A product measure's [[x, y], "p/q"] entries, which _write lays out from one template."""


def _measure_body(m: Measure) -> dict:
    if isinstance(m.space, ProductSpace):
        weights = _PairWeights(
            [[[kx, ky], format_rational(w)] for (kx, ky), w in m.weights.items()]
        )
    else:
        weights = {k: format_rational(w) for k, w in m.weights.items()}
    return {"space": _tagged(m.space), "weights": weights}


def _parse_measure(doc, path) -> Measure:
    space = _sub(doc, "space", path, "space", "product_space")
    raw = _field(doc, "weights", path)
    weights = {}
    # one pass of exact type checks; a field's path is built only for its error
    if isinstance(space, ProductSpace):
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.weights: expected a list of [[x, y], mass] pairs")
        for i, entry in enumerate(raw):
            pair = entry[0] if type(entry) is list and len(entry) == 2 else None
            if type(pair) is not list or len(pair) != 2 or not (
                type(pair[0]) is str and type(pair[1]) is str
            ):
                raise SchemaError(
                    f"{path}.weights[{i}]: expected [[x, y], mass] with atom id strings"
                )
            key = (pair[0], pair[1])
            if key in weights:
                raise SchemaError(f"{path}.weights[{i}]: repeated weight for atom {pair!r}")
            w = weights[key] = _fraction(entry[1])
            if w is None:
                raise _rational_error(entry[1], f"{path}.weights[{i}]")
    else:
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}.weights: expected an object keyed by atom id")
        for k, v in raw.items():
            w = weights[k] = _fraction(v)
            if w is None:
                raise _rational_error(v, f"{path}.weights.{k}")
    return _build(path, Measure, space, weights)


# ---------------------------------------------------------------------------
# open sets


def _interval_json(iv) -> list:
    return [format_rational(iv[0]), format_rational(iv[1])]


def _parse_interval(raw, path):
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"{path}: expected [lo, hi]")
    return _each(raw, path, parse_rational)


def _intervalset_json(s: IntervalSet) -> list:
    return [_interval_json(iv) for iv in s.intervals]


def _parse_intervalset(raw, path) -> IntervalSet:
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of intervals")
    return _build(path, IntervalSet, _each(raw, path, _parse_interval))


def _boxset_json(s: BoxSet) -> list:
    return [[_interval_json(b.col), _interval_json(b.row)] for b in s.boxes]


def _parse_box(raw, path) -> Box:
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"{path}: expected [col, row]")
    return _build(path, Box, *_each(raw, path, _parse_interval))


def _parse_line_set(entry, path) -> IntervalSet:
    return _parse_intervalset(_field(entry, "intervals", path, list), f"{path}.intervals")


def _parse_product_set(entry, path) -> BoxSet:
    return _build(f"{path}.boxes", BoxSet, _list(entry, "boxes", path, _parse_box))


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
    return {"geometry": doc.geometry, "sets": body}


def _parse_sets(doc, path) -> SetsDocument:
    geometry = _field(doc, "geometry", path, str)
    if geometry not in ("line", "product"):
        raise SchemaError(f"{path}.geometry: expected line or product, got {geometry!r}")
    parse = _parse_line_set if geometry == "line" else _parse_product_set
    return SetsDocument(_list(doc, "sets", path, parse))


# ---------------------------------------------------------------------------
# grids and refinements


def _grid_body(grid: Grid) -> dict:
    return {
        "cols": [_intervalset_json(c) for c in grid.cols],
        "rows": [_intervalset_json(r) for r in grid.rows],
    }


def _parse_grid(doc, path) -> Grid:
    return _build(
        path,
        Grid,
        _list(doc, "cols", path, _parse_intervalset),
        _list(doc, "rows", path, _parse_intervalset),
    )


def _refine_body(res: RefineResult) -> dict:
    cells = [
        {
            "q": q,
            "s": s,
            "owner": owner,
            "boxes": _boxset_json(res.grid.cell(q, s)),
        }
        for (q, s), owner in sorted(res.owner.items())
    ]
    return {
        "grid": _tagged(res.grid),
        "delta": format_rational(res.delta),
        "cells": cells,
    }


def _parse_refine_cell(entry, cpath) -> tuple:
    return _int(entry, "owner", cpath, optional=True), _list(entry, "boxes", cpath, _parse_box)


def _parse_refine(doc, path) -> RefineResult:
    grid = _sub(doc, "grid", path, "grid")
    delta = _rational(doc, "delta", path)
    cells = _cells(doc, path, _parse_refine_cell)
    expected = {(q, s) for q in range(len(grid.cols)) for s in range(len(grid.rows))}
    if set(cells) != expected:
        raise SchemaError(f"{path}.cells: cell list does not match the grid shape")
    # a cell's boxes restate the grid; the cells keep the list's order
    for i, ((q, s), (_, boxes)) in enumerate(cells.items()):
        if boxes != grid.cell(q, s).boxes:
            raise SchemaError(f"{path}.cells[{i}].boxes: not the grid's cell [{q}, {s}]")
    owner = {ix: who for ix, (who, _) in cells.items()}
    return _build(path, RefineResult, grid, delta, owner)


# ---------------------------------------------------------------------------
# reports


def _pair_body(pair: MarginalPair) -> dict:
    return {
        "mu": _tagged(pair.mu),
        "nu": _tagged(pair.nu),
    }


def _parse_pair(doc, path) -> MarginalPair:
    return _build(
        path, MarginalPair, _sub(doc, "mu", path, "measure"), _sub(doc, "nu", path, "measure")
    )


def _preimage_body(rep: PreimageReport) -> dict:
    cells = [
        {
            "q": q,
            "s": s,
            "col_scaled": format_rational(alloc.col_scaled),
            "row_scaled": format_rational(alloc.row_scaled),
            "kept": format_rational(alloc.kept),
            "drop": format_rational(rep.cell_drops[q, s]),
        }
        for (q, s), alloc in sorted(rep.cell_allocs.items())
    ]
    return {
        "coupling": _tagged(rep.coupling),
        "grid_part": _tagged(rep.grid_part),
        "remainder_coupling": _tagged(rep.remainder_coupling),
        "cells": cells,
    }


def _parse_cell(entry, cpath) -> tuple:
    alloc = CellAlloc(
        _rational(entry, "col_scaled", cpath),
        _rational(entry, "row_scaled", cpath),
        _rational(entry, "kept", cpath),
    )
    if alloc.col_scaled < 0 or alloc.row_scaled < 0:
        raise SchemaError(f"{cpath}: negative rescaled mass")
    if alloc.kept != min(alloc.col_scaled, alloc.row_scaled):
        raise SchemaError(f"{cpath}.kept: not the smaller of col_scaled and row_scaled")
    return alloc, _rational(entry, "drop", cpath)


def _parse_preimage(doc, path) -> PreimageReport:
    cells = _cells(doc, path, _parse_cell)
    # construct_preimage reports every cell of its grid, range(Q) x range(S); distinct
    # cells inside that rectangle fill it exactly when there are Q * S of them
    q_n, s_n = (1 + max((ix[axis] for ix in cells), default=-1) for axis in (0, 1))
    if len(cells) != q_n * s_n:
        raise SchemaError(f"{path}.cells: cell list is not a full {q_n} x {s_n} grid")
    rep = _build(
        path,
        PreimageReport,
        _sub(doc, "coupling", path, "measure"),
        _sub(doc, "grid_part", path, "measure"),
        _sub(doc, "remainder_coupling", path, "measure"),
        {ix: alloc for ix, (alloc, _) in cells.items()},
        {ix: drop for ix, (_, drop) in cells.items()},
    )
    if sum((a.kept for a in rep.cell_allocs.values()), Fraction(0)) != rep.grid_part.mass():
        raise SchemaError(f"{path}.cells: kept masses do not sum to the grid part's mass")
    return rep


def _cert_body(rep: CertReport) -> dict:
    gap = rep.min_observed_gap
    violations = [
        {
            "trial": v.trial,
            "seed": str(v.seed.value),
            "reason": v.reason,
            "cell": list(v.cell) if v.cell is not None else None,
            "gap": format_rational(v.gap) if v.gap is not None else None,
            "mu": _tagged(v.mu) if v.mu is not None else None,
            "nu": _tagged(v.nu) if v.nu is not None else None,
        }
        for v in rep.violations
    ]
    return {
        "trials": rep.trials,
        "min_observed_gap": format_rational(gap) if gap is not None else None,
        "violations": violations,
    }


def _parse_violation(entry, vpath) -> Violation:
    cell = _field(entry, "cell", vpath)
    if cell is not None:
        if (
            not isinstance(cell, list)
            or len(cell) != 2
            or any(type(c) is not int or not 0 <= c < _INT_LIMIT for c in cell)
        ):
            raise SchemaError(f"{vpath}.cell: expected [q, s] or null")
        cell = (cell[0], cell[1])
    seed_raw = _field(entry, "seed", vpath, str)
    if not (seed_raw.isascii() and seed_raw.isdigit()):
        raise SchemaError(f"{vpath}.seed: expected an unsigned integer string")
    seed = int(parse_rational(seed_raw, f"{vpath}.seed"))
    return Violation(
        trial=_int(entry, "trial", vpath),
        seed=_build(f"{vpath}.seed", Seed, seed),
        reason=_field(entry, "reason", vpath, str),
        cell=cell,
        gap=_rational(entry, "gap", vpath, optional=True),
        mu=_sub(entry, "mu", vpath, "measure", optional=True),
        nu=_sub(entry, "nu", vpath, "measure", optional=True),
    )


def _parse_cert(doc, path) -> CertReport:
    trials = _int(doc, "trials", path)
    violations = _list(doc, "violations", path, _parse_violation)
    for i, v in enumerate(violations):
        if v.trial >= trials:
            raise SchemaError(f"{path}.violations[{i}].trial: expected below trials ({trials})")
    return CertReport(
        trials=trials,
        violations=violations,
        min_observed_gap=_rational(doc, "min_observed_gap", path, optional=True),
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
        "lemma": doc.lemma,
        "lhs": format_rational(doc.result.lhs),
        "bound": format_rational(doc.result.bound),
        "ok": doc.result.ok,
    }


def _parse_check(doc, path) -> CheckDocument:
    ok = _field(doc, "ok", path, bool)
    lemma = _int(doc, "lemma", path)
    check = LemmaCheck(_rational(doc, "lhs", path), _rational(doc, "bound", path), ok)
    return _build(f"{path}.lemma", CheckDocument, lemma, check)  # only the rule is checked


# ---------------------------------------------------------------------------
# dispatch


# kind -> (class, body without the kind tag, parser); nested documents use it too
_KINDS = {
    "space": (SpaceDesc, _space_body, _parse_space),
    "product_space": (ProductSpace, _product_body, _parse_product),
    "measure": (Measure, _measure_body, _parse_measure),
    "sets": (SetsDocument, _sets_body, _parse_sets),
    "grid": (Grid, _grid_body, _parse_grid),
    "refine_result": (RefineResult, _refine_body, _parse_refine),
    "marginal_pair": (MarginalPair, _pair_body, _parse_pair),
    "preimage_report": (PreimageReport, _preimage_body, _parse_preimage),
    "cert_report": (CertReport, _cert_body, _parse_cert),
    "lemma_check": (CheckDocument, _check_body, _parse_check),
}


def _tagged(obj) -> dict:
    for kind, (cls, body, _) in _KINDS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **body(obj)}
    raise SchemaError(f"no document form for {type(obj).__name__}")


def to_document(obj) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_tagged(obj)}


def from_document(doc) -> object:
    if not isinstance(doc, dict):
        raise SchemaError("document: expected a JSON object")
    version = _int(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"document.schema_version: unsupported version {version}")
    kind = _field(doc, "kind", "document", str)
    if kind not in _KINDS:
        raise SchemaError(f"document.kind: unknown kind {kind!r}")
    return _KINDS[kind][2](doc, kind)


def _write(value, nl: str) -> str:
    """value as json.dumps(value, indent=2, ensure_ascii=True) writes it.

    nl is a newline plus the indent of the line value starts on.  Each
    container is joined into one string, which keeps the peak memory below
    json's.  Only dict (str keys), list, str, int, bool and None are
    written; any other type, a float included, raises TypeError.  A product
    measure's weight list (``_PairWeights``) is laid out entry by entry from
    one format string: its ids are quoted and filled in, and its masses,
    written by :func:`format_rational`, need no escaping.
    """
    t = type(value)
    if t is str:
        return _quote(value)
    if t is list or t is _PairWeights:
        if not value:
            return "[]"
        inner = nl + "  "
        if t is _PairWeights:
            i2, i3 = inner + "  ", inner + "    "
            entry = "[" + i2 + "[" + i3 + "%s," + i3 + "%s" + i2 + "]," + i2 + '"%s"' + inner + "]"
            items = [entry % (_quote(x), _quote(y), w) for (x, y), w in value]
        else:
            items = [_quote(v) if type(v) is str else _write(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        items = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else _write(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is int:
        return repr(value)
    if value is None:
        return "null"
    if t is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps(obj) -> str:
    return _write(to_document(obj), "\n") + "\n"


def loads(text: str) -> object:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"document: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer beyond the int-string digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"document: number too large (over {limit} digits)") from exc
    except RecursionError:
        raise SchemaError("document: nested too deeply") from None
    return from_document(doc)
