"""Seeded inputs and op cycles for the benchmark workloads.

Each builder takes a ``random.Random`` and a work directory, writes the JSON
documents its ops read, and returns the ops as one cycle that the timed loop
repeats.  An op is an argv for ``margcouple.cli.dispatch``, the op class it
belongs to, and a check that judges the op's parsed stdout.  Documents are
written with ``margcouple.documents.dumps`` so the program reads exactly
what its own serializer emits, but every expected value a check compares
against is computed here from plain ``Fraction`` dicts, never through the
program's measure algebra.  The one exception is the ``tensor`` check, which
compares against the package's independent oracle
``verify.tensor_via_barycenter`` on purpose.

Every op of every workload is expected to exit 0.  Op classes inside a cycle
take equal shares and are interleaved, so a run that stops mid-cycle still
holds each class within one op of its share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from margcouple import (
    Atom,
    Box,
    BoxSet,
    Grid,
    IntervalSet,
    Measure,
    ProductSpace,
    SpaceDesc,
    documents,
    tensor_via_barycenter,
)

F = Fraction

# (atoms per axis, grid side) rows of the ROADMAP size ladder
COUPLE_LADDER = ((10, 3), (20, 5), (40, 8))
COUPLE_SMOKE = ((6, 2), (8, 3))
COUPLE_DENSITY = F(3, 10)
COUPLE_MARGINALS = 2  # perturbed marginal pairs per size; each op repeats often

# (atoms per axis, targets) per size; each target is a union of two tiles
CERTIFY_LADDER = ((8, 6), (12, 7), (16, 8))
CERTIFY_SMOKE = ((6, 3), (8, 4))
CERTIFY_DENSITY = F(1, 2)
CERTIFY_REFERENCES = 2  # references per size
CERTIFY_SEEDS = 8  # certify run seeds per size; trial costs vary by seed
CERTIFY_TRIALS = 2
CERTIFY_EPS = "1/5"

# atoms on each axis of the large sparse joints, and supports of the
# tensor factors
DOCS_AXES = (150, 120)
DOCS_SMOKE_AXES = (30, 20)
DOCS_DENSITY = F(1, 20)
DOCS_TENSOR_SUPPORT = (70, 70)
DOCS_SMOKE_TENSOR_SUPPORT = (6, 5)
DOCS_VARIANTS = 2  # independent joints and tensor pairs per run
DOCS_REFINE_EPS0 = "1/5"
# enough targets that refine costs clearly more than the other reads, so p50
# falls inside one op class instead of at the top of a cluster of three
DOCS_REFINE_TARGETS = 6


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    check: Callable[[dict], str | None]  # parsed stdout -> failure reason or None


def fmt(x: Fraction) -> str:
    return documents.format_rational(x)


# ---------------------------------------------------------------------------
# instance material


def axis(rng: random.Random, prefix: str, n: int) -> list[tuple[str, Fraction]]:
    """n atoms, one strictly inside each unit interval (i, i + 1).

    Integer cuts therefore never meet an atom, so grids and boxes cut at
    integers place every atom strictly inside or strictly outside.
    """
    return [(f"{prefix}{i}", i + F(rng.randrange(1, 8), 8)) for i in range(n)]


def space_of(atoms: list[tuple[str, Fraction]]) -> SpaceDesc:
    return SpaceDesc(tuple(Atom(k, c) for k, c in atoms))


def positive_weights(rng: random.Random, keys: list) -> dict:
    raw = [rng.randint(1, 9) for _ in keys]
    total = sum(raw)
    return {k: F(r, total) for k, r in zip(keys, raw)}


def sparse_joint(rng: random.Random, xs: list, ys: list, density: Fraction) -> dict:
    """Exactly round(density * |X| * |Y|) support pairs, in x-major order."""
    cells = len(xs) * len(ys)
    picked = sorted(rng.sample(range(cells), max(1, round(density * cells))))
    keys = [(xs[c // len(ys)][0], ys[c % len(ys)][0]) for c in picked]
    return positive_weights(rng, keys)


def line_marginals(joint: dict) -> tuple[dict, dict]:
    mu: dict = {}
    nu: dict = {}
    for (kx, ky), w in joint.items():
        mu[kx] = mu.get(kx, F(0)) + w
        nu[ky] = nu.get(ky, F(0)) + w
    return mu, nu


def perturb(rng: random.Random, weights: dict) -> dict:
    """Each weight moved by at most a tenth, then renormalized to mass 1."""
    raw = {k: w * (20 + rng.randint(-2, 2)) for k, w in weights.items()}
    total = sum(raw.values())
    return {k: w / total for k, w in raw.items()}


def cuts(n: int, k: int) -> list[int]:
    return [round(j * n / k) for j in range(k + 1)]


def block_pieces(n: int, k: int) -> tuple[IntervalSet, ...]:
    c = cuts(n, k)
    return tuple(IntervalSet.single(c[j], c[j + 1]) for j in range(k))


def write(path: Path, obj) -> str:
    path.write_text(documents.dumps(obj), encoding="utf-8")
    return str(path)


def in_interval(p: Fraction, ivs) -> bool:
    return any(lo < p < hi for lo, hi in ivs)


def in_boxes(px: Fraction, py: Fraction, boxes) -> bool:
    return any(
        c[0] < px < c[1] and r[0] < py < r[1] for c, r in boxes
    )


# ---------------------------------------------------------------------------
# parsing stdout with the benchmark's own code


def product_weights(doc: dict) -> dict:
    return {(kx, ky): F(w) for (kx, ky), w in doc["weights"]}


def line_weights(doc: dict) -> dict:
    return {k: F(w) for k, w in doc["weights"].items()}


def expect_kind(doc: dict, kind: str) -> str | None:
    got = doc.get("kind")
    return None if got == kind else f"expected a {kind} document, got {got!r}"


# ---------------------------------------------------------------------------
# couple-ladder


def couple_check(mu: dict, nu: dict, cells: int) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        bad = expect_kind(doc, "preimage_report")
        if bad:
            return bad
        got_mu, got_nu = line_marginals(product_weights(doc["coupling"]))
        if got_mu != mu:
            return "coupling's first marginal differs from mu"
        if got_nu != nu:
            return "coupling's second marginal differs from nu"
        if len(doc["cells"]) != cells:
            return f"expected {cells} cells, got {len(doc['cells'])}"
        return None

    return check


def couple_ladder(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    ladder = COUPLE_SMOKE if smoke else COUPLE_LADDER
    pairs = 2 if smoke else COUPLE_MARGINALS
    per_size = []
    for n, k in ladder:
        xs, ys = axis(rng, "x", n), axis(rng, "y", n)
        x_space, y_space = space_of(xs), space_of(ys)
        joint = sparse_joint(rng, xs, ys, COUPLE_DENSITY)
        ref_path = write(
            work / f"couple-ref-{n}.json", Measure(ProductSpace(x_space, y_space), joint)
        )
        grid_path = write(
            work / f"couple-grid-{n}.json", Grid(block_pieces(n, k), block_pieces(n, k))
        )
        ref_mu, ref_nu = line_marginals(joint)
        ops = []
        for j in range(pairs):
            mu, nu = perturb(rng, ref_mu), perturb(rng, ref_nu)
            mu_path = write(work / f"couple-mu-{n}-{j}.json", Measure(x_space, mu))
            nu_path = write(work / f"couple-nu-{n}-{j}.json", Measure(y_space, nu))
            ops.append(
                Op(
                    f"couple n={n} k={k}",
                    ("couple", ref_path, grid_path, mu_path, nu_path),
                    couple_check(mu, nu, k * k),
                )
            )
        per_size.append(ops)
    return interleave(per_size)


# ---------------------------------------------------------------------------
# certify-targets


def tile_targets(rng: random.Random, nx: int, ny: int, count: int) -> list[list]:
    """count disjoint targets, each the union of two tiles of a 4 x 4 lattice.

    Tiles are open boxes between integer cuts, so they are pairwise
    disjoint even where they share an edge.
    """
    cx, cy = cuts(nx, 4), cuts(ny, 4)
    tiles = [((cx[a], cx[a + 1]), (cy[b], cy[b + 1])) for a in range(4) for b in range(4)]
    rng.shuffle(tiles)
    return [tiles[2 * t : 2 * t + 2] for t in range(count)]


def certify_check(trials: int) -> Callable[[dict], str | None]:
    eps = F(CERTIFY_EPS)

    def check(doc: dict) -> str | None:
        bad = expect_kind(doc, "cert_report")
        if bad:
            return bad
        if doc["violations"]:
            return f"{len(doc['violations'])} violations"
        if doc["trials"] != trials:
            return f"expected {trials} trials, got {doc['trials']}"
        gap = doc["min_observed_gap"]
        if gap is None or not F(gap) > -eps:
            return f"minimum gap {gap} is not above -{CERTIFY_EPS}"
        return None

    return check


def certify_targets(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    ladder = CERTIFY_SMOKE if smoke else CERTIFY_LADDER
    refs = 1 if smoke else CERTIFY_REFERENCES
    seeds = 2 if smoke else CERTIFY_SEEDS
    trials = 1 if smoke else CERTIFY_TRIALS
    check = certify_check(trials)
    per_size = []
    for n, count in ladder:
        docs = []
        for r in range(refs):
            xs, ys = axis(rng, "x", n), axis(rng, "y", n)
            joint = sparse_joint(rng, xs, ys, CERTIFY_DENSITY)
            space = ProductSpace(space_of(xs), space_of(ys))
            targets = [
                BoxSet(tuple(Box(col, row) for col, row in boxes))
                for boxes in tile_targets(rng, n, n, count)
            ]
            docs.append(
                (
                    write(work / f"certify-ref-{n}-{r}.json", Measure(space, joint)),
                    write(
                        work / f"certify-sets-{n}-{r}.json",
                        documents.SetsDocument(tuple(targets)),
                    ),
                )
            )
        ops = []
        for j in range(seeds):
            ref_path, sets_path = docs[j % refs]
            argv = (
                "certify", ref_path, sets_path,
                "--eps", CERTIFY_EPS,
                "--trials", str(trials),
                "--seed", str(rng.randrange(1 << 64)),
            )
            ops.append(Op(f"certify n={n} targets={count}", argv, check))
        per_size.append(ops)
    return interleave(per_size)


# ---------------------------------------------------------------------------
# cli-docs


def marginals_check(mu: dict, nu: dict) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        bad = expect_kind(doc, "marginal_pair")
        if bad:
            return bad
        if line_weights(doc["mu"]) != mu or line_weights(doc["nu"]) != nu:
            return "marginals differ from the joint's row and column sums"
        return None

    return check


def refine_check(joint: dict, x_coord: dict, y_coord: dict, targets: list, eps0: Fraction):
    """Fact (i) of refine_grid: a target's mass is the sum over its owned cells."""

    def mass_in(boxes) -> Fraction:
        return sum(
            (
                w
                for (kx, ky), w in joint.items()
                if in_boxes(x_coord[kx], y_coord[ky], boxes)
            ),
            F(0),
        )

    target_mass = [mass_in(t) for t in targets]

    def check(doc: dict) -> str | None:
        bad = expect_kind(doc, "refine_result")
        if bad:
            return bad
        cells = doc["cells"]
        grid = doc["grid"]
        if len(cells) != len(grid["cols"]) * len(grid["rows"]):
            return "cell list does not match the grid shape"
        owned = [c for c in cells if c["owner"] is not None]
        m = len(owned)
        if F(doc["delta"]) != (eps0 / (4 * m) if m else eps0 / 4):
            return f"delta {doc['delta']} is not eps0 / (4 m) for m = {m}"
        per_target = [F(0)] * len(targets)
        for c in owned:
            boxes = [tuple(tuple(map(F, iv)) for iv in b) for b in c["boxes"]]
            per_target[c["owner"]] += mass_in(boxes)
        if per_target != target_mass:
            return "owned cells do not carry their targets' mass"
        return None

    return check


def lemma_check(lemma: int, lhs: Fraction) -> Callable[[dict], str | None]:
    def check(doc: dict) -> str | None:
        bad = expect_kind(doc, "lemma_check")
        if bad:
            return bad
        if doc["lemma"] != lemma or doc["ok"] is not True:
            return f"rule {doc['lemma']} reported ok={doc['ok']}"
        if F(doc["lhs"]) != lhs:
            return f"lhs {doc['lhs']} differs from {fmt(lhs)}"
        return None

    return check


def tensor_check(mu: Measure, nu: Measure) -> Callable[[dict], str | None]:
    # the oracle runs on spaces cut down to the supports: zero-weight atoms
    # never carry product weight, and the full product would cost |X| |Y|
    # key walks per component
    def restricted(m: Measure) -> Measure:
        atoms = tuple(a for a in m.space.atoms if a.id in m.weights)
        return Measure(SpaceDesc(atoms), dict(m.weights))

    expected = None

    def check(doc: dict) -> str | None:
        nonlocal expected
        bad = expect_kind(doc, "measure")
        if bad:
            return bad
        if expected is None:
            expected = tensor_via_barycenter(restricted(mu), restricted(nu)).weights
        if product_weights(doc) != expected:
            return "tensor differs from tensor_via_barycenter"
        return None

    return check


def band(outer, inner) -> Callable[[Fraction], bool]:
    return lambda p: in_interval(p, outer) and not in_interval(p, inner)


def nested(rng: random.Random, n: int) -> tuple[list, list]:
    """An outer interval over about half the axis and an inner one inside it."""
    lo = rng.randrange(0, n // 4)
    hi = lo + n // 2
    shrink = max(1, n // 20)
    return [(lo, hi)], [(lo + shrink, hi - shrink)]


def cli_docs(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    nx, ny = DOCS_SMOKE_AXES if smoke else DOCS_AXES
    tx, ty = DOCS_SMOKE_TENSOR_SUPPORT if smoke else DOCS_TENSOR_SUPPORT
    eps0 = F(DOCS_REFINE_EPS0)
    slack = F(1, 1000)
    per_class: dict[str, list[Op]] = {}

    def add(kind, argv, check):
        per_class.setdefault(kind, []).append(Op(kind, argv, check))

    for v in range(1 if smoke else DOCS_VARIANTS):
        xs, ys = axis(rng, "x", nx), axis(rng, "y", ny)
        x_space, y_space = space_of(xs), space_of(ys)
        joint = sparse_joint(rng, xs, ys, DOCS_DENSITY)
        joint_path = write(
            work / f"docs-joint-{v}.json", Measure(ProductSpace(x_space, y_space), joint)
        )
        mu, nu = line_marginals(joint)
        add("marginals", ("marginals", joint_path), marginals_check(mu, nu))

        x_coord, y_coord = dict(xs), dict(ys)
        targets = tile_targets(rng, nx, ny, DOCS_REFINE_TARGETS)
        sets_path = write(
            work / f"docs-targets-{v}.json",
            documents.SetsDocument(
                tuple(BoxSet(tuple(Box(c, r) for c, r in t)) for t in targets)
            ),
        )
        add(
            "refine",
            ("refine", joint_path, sets_path, "--eps0", DOCS_REFINE_EPS0),
            refine_check(joint, x_coord, y_coord, targets, eps0),
        )

        col_outer, col_inner = nested(rng, nx)
        row_outer, row_inner = nested(rng, ny)
        in_col_band = band(col_outer, col_inner)
        in_row_band = band(row_outer, row_inner)

        col_band = sum((w for k, w in mu.items() if in_col_band(x_coord[k])), F(0))
        eps = col_band + slack
        lhs4 = sum(
            (
                w
                for (kx, ky), w in joint.items()
                if in_col_band(x_coord[kx]) and in_interval(y_coord[ky], row_outer)
            ),
            F(0),
        )
        band_path = write(
            work / f"docs-band-{v}.json",
            documents.SetsDocument(
                (IntervalSet(tuple(col_outer)), IntervalSet(tuple(col_inner)),
                 IntervalSet(tuple(row_outer)))
            ),
        )
        add(
            "check lemma 4",
            ("check", joint_path, "--lemma", "4", "--sets", band_path, "--eps", fmt(eps)),
            lemma_check(4, lhs4),
        )

        row_band = sum((w for k, w in nu.items() if in_row_band(y_coord[k])), F(0))
        lhs5 = sum(
            (
                w
                for (kx, ky), w in joint.items()
                if in_interval(x_coord[kx], col_outer)
                and in_interval(y_coord[ky], row_outer)
                and not (
                    in_interval(x_coord[kx], col_inner)
                    and in_interval(y_coord[ky], row_inner)
                )
            ),
            F(0),
        )
        boxdiff_path = write(
            work / f"docs-boxdiff-{v}.json",
            documents.SetsDocument(
                (IntervalSet(tuple(col_outer)), IntervalSet(tuple(col_inner)),
                 IntervalSet(tuple(row_outer)), IntervalSet(tuple(row_inner)))
            ),
        )
        add(
            "check lemma 5",
            (
                "check", joint_path, "--lemma", "5", "--sets", boxdiff_path,
                "--eps1", fmt(col_band + slack), "--eps2", fmt(row_band + slack),
            ),
            lemma_check(5, lhs5),
        )

        t_mu = Measure(x_space, positive_weights(rng, rng.sample([k for k, _ in xs], tx)))
        t_nu = Measure(y_space, positive_weights(rng, rng.sample([k for k, _ in ys], ty)))
        add(
            "tensor",
            ("tensor", write(work / f"docs-mu-{v}.json", t_mu),
             write(work / f"docs-nu-{v}.json", t_nu)),
            tensor_check(t_mu, t_nu),
        )
    return interleave(list(per_class.values()))


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Round robin over equally long op lists, one op per class in turn."""
    return [op for batch in zip(*groups) for op in batch]


BUILDERS = {
    "couple-ladder": couple_ladder,
    "certify-targets": certify_targets,
    "cli-docs": cli_docs,
}
