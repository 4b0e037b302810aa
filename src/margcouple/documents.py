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
a list of ``[[x, y], "p/q"]`` entries.  The document tree holds the
``Measure`` itself, and :func:`_write` lays its weights out directly: each
atom's quoted id and the layout around it are built once per atom of the
space, and each weight is then one string, with no list or dict per weight.
The tests keep their own ``to_document``, which builds a document's plain
JSON value with each weight written by :func:`format_rational`, as the
reference ``dumps`` is checked against.  Reading tests each entry with
exact type checks and builds a field's path only for its error.  Each
distinct weight string is parsed once per measure, with one ``_RATIONAL``
match; a repeat of it reuses that ``Fraction``.  The weights then go
through the strict ``Measure(space, weights)``, which rejects unknown
atoms and negative weights.

The record kinds (``product_space``, ``grid``, ``marginal_pair``,
``cert_report`` and its violations) are field tables given to
:func:`_record`: one codec per field, read and written in document order,
so of two faulty fields the first in the document is reported.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # json's C string encoder
from math import gcd

from ._record import record, setfield
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


def _too_large() -> SchemaError:
    """The error for a number str() refuses: one past the interpreter's int-string digit limit."""
    return SchemaError(f"number too large to write (over {sys.get_int_max_str_digits()} digits)")


def format_rational(x: Fraction) -> str:
    """x as "p/q", or "p" when q == 1; only a Fraction or an int is written."""
    if type(x) is not Fraction and type(x) is not int:  # a float or a bool would pass str()
        raise SchemaError(f"cannot write a {type(x).__name__} as a rational")
    try:
        return str(x)
    except ValueError:
        raise _too_large() from None


def _fraction(raw) -> Fraction | str:
    """raw as a Fraction if it is a rational string the interpreter converts, else why not."""
    if isinstance(raw, str) and _RATIONAL.fullmatch(raw):
        num, _, den = raw.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError:
            return f"zero denominator in {raw!r}"
        except ValueError:  # beyond the interpreter's int-string digit limit
            return f"number too large (over {sys.get_int_max_str_digits()} digits)"
    try:
        shown = repr(raw)
    except ValueError:  # an int beyond the int-string digit limit
        shown = "a number too large to show"
    return f"expected a rational string like '1/10', got {shown}"


def parse_rational(raw, path: str) -> Fraction:
    value = _fraction(raw)
    if type(value) is str:
        raise SchemaError(f"{path}: {value}")
    return value


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


def _build(path, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
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


def _parse_atom(entry, path) -> Atom:
    return _build(path, Atom, _field(entry, "id", path, str), _rational(entry, "coord", path))


def _parse_space(doc, path) -> SpaceDesc:
    atoms = []
    for i, entry in enumerate(_field(doc, "atoms", path, list)):
        # exact types: a _RepeatedKey object or any odd field goes to _parse_atom, which names it
        ident = entry.get("id") if type(entry) is dict else None
        coord = _fraction(entry.get("coord")) if type(ident) is str and ident else None
        if type(coord) is Fraction:
            atoms.append(Atom(ident, coord))
        else:
            atoms.append(_parse_atom(entry, f"{path}.atoms[{i}]"))
    return _build(path, SpaceDesc, atoms)


# ---------------------------------------------------------------------------
# measures


def _measure_body(m: Measure) -> dict:
    return {"space": _tagged(m.space), "weights": m}  # _write lays the weights out from m


def _weighted(m: Measure) -> Iterable[tuple]:
    """Each atom of m with its weight, or with the text ``str(Fraction)`` gives it, in atom order.

    Made weights are given as they are.  A measure built over one
    denominator whose weights nothing has read gives each numerator n over
    its D as the text n/g over D/g, g = gcd(n, D), with no Fraction made.
    """
    if "weights" in vars(m):
        return m.weights.items()
    den, nums = m._common
    texts = []
    for n in nums:
        g = gcd(n, den)
        texts.append(f"{n // g}/{den // g}" if g != den else str(n // g))
    return zip(m._keys, texts)


def _weights(m: Measure, nl: str) -> str:
    """m's weights as _write writes their JSON value; nl as for _write.

    Each atom's quoted id and the layout around it are built once per atom
    of the space.  A weight is then one string, its atoms' prefixes and its
    plain ``str`` (see :func:`_weighted`); the layout that closes it is
    written by the join.  A measure's weights are exact rationals, so only
    the int-string digit limit can stop them being written.
    """
    product = isinstance(m.space, ProductSpace)
    inner = nl + "  "
    try:
        if product:
            i2, i3 = inner + "  ", inner + "    "
            xs = {x: "[" + i2 + "[" + i3 + _quote(x) + "," + i3 for x in m.space.x.keys}
            ys = {y: _quote(y) + i2 + "]," + i2 + '"' for y in m.space.y.keys}
            items = [f"{xs[x]}{ys[y]}{w!s}" for (x, y), w in _weighted(m)]
            end = '"' + inner + "]"
        else:
            items = [f'{_quote(k)}: "{w!s}' for k, w in _weighted(m)]
            end = '"'
    except ValueError:
        raise _too_large() from None
    if not items:
        return "[]" if product else "{}"
    body = inner + (end + "," + inner).join(items) + end + nl
    return "[" + body + "]" if product else "{" + body + "}"


def _parse_measure(doc, path) -> Measure:
    space = _sub(doc, "space", path, "space", "product_space")
    raw = _field(doc, "weights", path)
    weights = {}
    # one pass of exact type checks; a field's path is built only for its error.
    # Each distinct weight string is parsed once: parsed maps it to its Fraction
    # after its first parse succeeds (only a string parses).  Any other value
    # goes to _fraction, which names it.
    parsed = {}
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
            v = entry[1]
            w = parsed.get(v) if type(v) is str else None
            if w is None:
                w = _fraction(v)
                if type(w) is str:
                    raise SchemaError(f"{path}.weights[{i}]: {w}")
                parsed[v] = w
            weights[key] = w
    else:
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}.weights: expected an object keyed by atom id")
        for k, v in raw.items():
            w = parsed.get(v) if type(v) is str else None
            if w is None:
                w = _fraction(v)
                if type(w) is str:
                    raise SchemaError(f"{path}.weights.{k}: {w}")
                parsed[v] = w
            weights[k] = w
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


@record
class SetsDocument:
    """An ordered list of open sets, all of one geometry."""

    def __init__(self, sets: tuple):
        sets = tuple(sets)
        kinds = {type(s) for s in sets}
        if not kinds <= {IntervalSet} and not kinds <= {BoxSet}:
            raise SchemaError("sets document must hold one geometry only")
        setfield(self, "sets", sets)

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


def _read_seed(doc, name, path) -> Seed:
    raw = _field(doc, name, path, str)
    if not (raw.isascii() and raw.isdigit()):
        raise SchemaError(f"{path}.{name}: expected an unsigned integer string")
    return _build(f"{path}.{name}", Seed, int(parse_rational(raw, f"{path}.{name}")))


def _read_cell(doc, name, path) -> tuple | None:
    cell = _field(doc, name, path)
    if cell is None:
        return None
    if (
        not isinstance(cell, list)
        or len(cell) != 2
        or any(type(c) is not int or not 0 <= c < _INT_LIMIT for c in cell)
    ):
        raise SchemaError(f"{path}.{name}: expected [q, s] or null")
    return (cell[0], cell[1])


def _trials_cover(rep: CertReport, path) -> None:
    for i, v in enumerate(rep.violations):
        if v.trial >= rep.trials:
            raise SchemaError(f"{path}.violations[{i}].trial: expected below trials ({rep.trials})")


@record
class CheckDocument:
    """Outcome of a containment check, tagged with the rule it ran."""

    def __init__(self, lemma: int, result: LemmaCheck):
        if lemma not in (4, 5):
            raise SchemaError(f"unknown check rule {lemma!r}")
        setfield(self, "lemma", lemma)
        setfield(self, "result", result)


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


def _tagged(obj) -> dict:
    for kind, (cls, body, _) in _KINDS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **body(obj)}
    raise SchemaError(f"no document form for {type(obj).__name__}")


def _record(cls, check=None, **codecs) -> tuple:
    """A kind read and written field by field, in document order, one codec per field.

    Each codec is a pair: ``write(value)`` gives the field's JSON and
    ``read(doc, name, path)`` parses it.  ``check(obj, path)``, if given,
    tests what spans fields once the record is built.
    """

    def body(obj) -> dict:
        return {name: write(getattr(obj, name)) for name, (write, _) in codecs.items()}

    def parse(doc, path):
        obj = _build(path, cls, **{name: read(doc, name, path) for name, (_, read) in codecs.items()})
        if check is not None:
            check(obj, path)
        return obj

    return cls, body, parse


def _as_is(value):
    return value


def _optional(write):
    return lambda value: None if value is None else write(value)


def _nested(kind: str, optional=False) -> tuple:
    """The codec of a field holding one sub-document of the given kind, or null if optional."""
    write = _optional(_tagged) if optional else _tagged
    return write, lambda doc, name, path: _sub(doc, name, path, kind, optional=optional)


def _many(kind: tuple) -> tuple:
    """The codec of a field holding a list of one kind's untagged bodies."""
    _, body, parse = kind
    return lambda items: [body(x) for x in items], lambda doc, name, path: _list(doc, name, path, parse)


_INT = (_as_is, _int)
_INTERVALSETS = _many((IntervalSet, _intervalset_json, _parse_intervalset))
_GAP = (_optional(format_rational), lambda doc, name, path: _rational(doc, name, path, optional=True))

# kind -> (class, body without the kind tag, parser); nested documents use it too
_KINDS = {
    "space": (SpaceDesc, _space_body, _parse_space),
    "product_space": _record(ProductSpace, x=_nested("space"), y=_nested("space")),
    "measure": (Measure, _measure_body, _parse_measure),
    "sets": (SetsDocument, _sets_body, _parse_sets),
    "grid": _record(Grid, cols=_INTERVALSETS, rows=_INTERVALSETS),
    "refine_result": (RefineResult, _refine_body, _parse_refine),
    "marginal_pair": _record(MarginalPair, mu=_nested("measure"), nu=_nested("measure")),
    "preimage_report": (PreimageReport, _preimage_body, _parse_preimage),
    "cert_report": _record(
        CertReport,
        _trials_cover,
        trials=_INT,
        min_observed_gap=_GAP,
        violations=_many(
            _record(
                Violation,
                trial=_INT,
                seed=(lambda seed: str(seed.value), _read_seed),
                reason=(_as_is, lambda doc, name, path: _field(doc, name, path, str)),
                cell=(_optional(list), _read_cell),
                gap=_GAP,
                mu=_nested("measure", optional=True),
                nu=_nested("measure", optional=True),
            )
        ),
    ),
    "lemma_check": (CheckDocument, _check_body, _parse_check),
}


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
    written, and a ``Measure``, which stands for its weights' JSON and is
    laid out by :func:`_weights` with no container per weight; any other
    type, a float included, raises TypeError.
    """
    t = type(value)
    if t is str:
        return _quote(value)
    if t is list:
        if not value:
            return "[]"
        inner = nl + "  "
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
    if t is Measure:
        return _weights(value, nl)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps(obj) -> str:
    return _write({"schema_version": SCHEMA_VERSION, **_tagged(obj)}, "\n") + "\n"


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
