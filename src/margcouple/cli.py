"""Command line front end.

Every subcommand reads JSON documents (see :mod:`.documents`), writes one
document to stdout and exits 0 on success, 1 when a certification or
containment check fails, and 2 on malformed input, including documents of
the wrong kind, decimal numerics and violated hypotheses.  Output is
deterministic byte for byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import documents
from .couple import construct_preimage, marginal_pair
from .errors import Error, SchemaError
from .measure import Measure, tensor
from .refine import Grid, RefineResult, refine_grid
from .space import BoxSet, IntervalSet, ProductSpace
from .verify import (
    CertReport,
    Seed,
    certify_openness,
    check_band_bound,
    check_box_diff_bound,
)


def _rational_flag(raw: str):
    try:
        return documents.parse_rational(raw, "argument")
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed_flag(raw: str) -> Seed:
    # ASCII digits only, and no more than 2**64 - 1 has, so int() always converts them
    if not (raw.isascii() and raw.isdigit() and len(raw) <= 20):
        shown = raw if len(raw) <= 24 else f"{raw[:20]}... ({len(raw)} characters)"
        raise argparse.ArgumentTypeError(f"seed must be an unsigned integer, got {shown!r}")
    try:
        return Seed(int(raw))
    except Error as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margcouple",
        description="exact-rational couplings with prescribed marginals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marginals", help="both marginals of a product measure")
    p.add_argument("joint", help="measure document on a product space")

    p = sub.add_parser("tensor", help="product of two probability measures")
    p.add_argument("mu", help="measure document on a line space")
    p.add_argument("nu", help="measure document on a line space")

    p = sub.add_parser("couple", help="coupling with prescribed marginals near a reference")
    p.add_argument("reference", help="reference coupling document")
    p.add_argument("grid", help="grid or refine_result document")
    p.add_argument("mu", help="first marginal document")
    p.add_argument("nu", help="second marginal document")

    p = sub.add_parser("refine", help="refine disjoint product targets into a grid")
    p.add_argument("reference", help="reference coupling document")
    p.add_argument("sets", help="sets document with product geometry")
    p.add_argument("--eps0", type=_rational_flag, required=True, help="target tolerance, e.g. 1/5")

    p = sub.add_parser("certify", help="randomized certification of the construction")
    p.add_argument("reference", help="reference coupling document")
    p.add_argument("sets", help="sets document with product geometry")
    p.add_argument("--eps", type=_rational_flag, required=True, help="tolerance, e.g. 1/5")
    p.add_argument("--trials", type=int, required=True, help="number of trials")
    p.add_argument("--seed", type=_seed_flag, required=True, help="64-bit run seed")

    p = sub.add_parser("check", help="containment checks on a coupling")
    p.add_argument("joint", help="measure document on a product space")
    p.add_argument("--lemma", type=int, choices=(4, 5), required=True, help="which rule to check")
    p.add_argument(
        "--sets",
        required=True,
        help="line sets document: [outer, inner, row] for rule 4, "
        "[col outer, col inner, row outer, row inner] for rule 5",
    )
    p.add_argument("--eps", type=_rational_flag, help="tolerance for rule 4")
    p.add_argument("--eps1", type=_rational_flag, help="column tolerance for rule 5")
    p.add_argument("--eps2", type=_rational_flag, help="row tolerance for rule 5")
    return parser


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    try:
        return documents.loads(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _load_as(path: str, *kinds):
    obj = _load(path)
    if not isinstance(obj, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise SchemaError(f"{path}: expected a {names} document, got {type(obj).__name__}")
    return obj


def _product_measure(path: str) -> Measure:
    m = _load_as(path, Measure)
    if not isinstance(m.space, ProductSpace):
        raise SchemaError(f"{path}: expected a measure on a product space")
    return m


def _line_measure(path: str) -> Measure:
    m = _load_as(path, Measure)
    if isinstance(m.space, ProductSpace):
        raise SchemaError(f"{path}: expected a measure on a line space")
    return m


def _boxsets(path: str) -> list[BoxSet]:
    doc = _load_as(path, documents.SetsDocument)
    if doc.geometry != "product" or not doc.sets:
        raise SchemaError(f"{path}: expected a non-empty sets document with product geometry")
    return list(doc.sets)


def _emit(obj) -> None:
    sys.stdout.write(documents.dumps(obj))


def _run(args) -> int:
    if args.command == "marginals":
        _emit(marginal_pair(_product_measure(args.joint)))
        return 0

    if args.command == "tensor":
        _emit(tensor(_line_measure(args.mu), _line_measure(args.nu)))
        return 0

    if args.command == "couple":
        reference = _product_measure(args.reference)
        grid = _load_as(args.grid, Grid, RefineResult)
        if isinstance(grid, RefineResult):
            grid = grid.grid
        report = construct_preimage(
            reference, grid, _line_measure(args.mu), _line_measure(args.nu)
        )
        _emit(report)
        return 0

    if args.command == "refine":
        _emit(refine_grid(_product_measure(args.reference), _boxsets(args.sets), args.eps0))
        return 0

    if args.command == "certify":
        report = certify_openness(
            _product_measure(args.reference),
            _boxsets(args.sets),
            args.eps,
            args.trials,
            args.seed,
        )
        _emit(report)
        return 0 if report.passed else 1

    if args.command == "check":
        joint = _product_measure(args.joint)
        doc = _load_as(args.sets, documents.SetsDocument)
        if doc.geometry != "line":
            raise SchemaError(f"{args.sets}: check takes line geometry sets")
        sets: Sequence[IntervalSet] = doc.sets
        if args.lemma == 4:
            if args.eps is None:
                raise SchemaError("check --lemma 4 needs --eps")
            if len(sets) != 3:
                raise SchemaError(f"{args.sets}: rule 4 takes [outer, inner, row], got {len(sets)} sets")
            result = check_band_bound(joint, sets[0], sets[1], sets[2], args.eps)
        else:
            if args.eps1 is None or args.eps2 is None:
                raise SchemaError("check --lemma 5 needs --eps1 and --eps2")
            if len(sets) != 4:
                raise SchemaError(
                    f"{args.sets}: rule 5 takes [col outer, col inner, row outer, row inner], "
                    f"got {len(sets)} sets"
                )
            result = check_box_diff_bound(
                joint, sets[0], sets[1], sets[2], sets[3], args.eps1, args.eps2
            )
        _emit(documents.CheckDocument(args.lemma, result))
        return 0 if result.ok else 1

    raise SchemaError(f"unknown command {args.command!r}")


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
