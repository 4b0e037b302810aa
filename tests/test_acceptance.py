"""Acceptance gate: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every randomized suite derives from a fixed master seed, so a reported
failure replays exactly.  Counts are the stated minimums; nothing is
tuned down to pass.  Criteria two and three share one cached trial run
per tolerance, the second criterion judging shortfalls and membership,
the third the exact per-cell floor.
"""

import random
from fractions import Fraction

import instances
from margcouple import (
    Box,
    BoxSet,
    Grid,
    IntervalSet,
    Measure,
    Neighborhood,
    ProductSpace,
    Seed,
    check_band_bound,
    check_box_diff_bound,
    construct_preimage,
    certify_openness,
    intervalsets_disjoint,
    marginal_pair,
    refine_grid,
    sample_in_neighborhood,
    tensor,
    tensor_via_barycenter,
)

F = Fraction

MASTER = 20260823


def _report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# -- criterion 1: exact marginals ------------------------------------------


def test_1_exact_marginals():
    total, bad = 1000, []
    for t in range(total):
        rng = random.Random(MASTER * 1000 + t)
        ref, grid = instances.random_instance(rng)
        if rng.random() < 0.5:
            mu = instances.random_prob_measure(rng, ref.space.x)
            nu = instances.random_prob_measure(rng, ref.space.y)
        else:
            # marginals on unrelated spaces: only coordinates matter
            mu = instances.random_prob_measure(rng, instances.random_space(rng, "p"))
            nu = instances.random_prob_measure(rng, instances.random_space(rng, "q"))
        rep = construct_preimage(ref, grid, mu, nu)
        pair = marginal_pair(rep.coupling)
        if pair.mu != mu or pair.nu != nu:
            bad.append(t)
    _report(
        "1 exact marginals",
        not bad,
        f"{total - len(bad)}/{total} instances exact"
        + (f", first failures {bad[:3]}" if bad else ""),
    )


# -- criteria 2 and 3: openness bound and per-cell floor -------------------


def _evaluate_trial(ref, grid, mu, nu, eps, delta):
    rep = construct_preimage(ref, grid, mu, nu)
    pair = marginal_pair(rep.coupling)
    pair0 = marginal_pair(ref)
    cells = [cell for _, cell in grid.cells()]
    floor_ok = True
    for (q, s), cell in grid.cells():
        base = ref.eval(cell)
        if base == 0:
            floor = F(0)
        else:
            floor = base * min(
                mu.eval(grid.cols[q]) / pair0.mu.eval(grid.cols[q]),
                nu.eval(grid.rows[s]) / pair0.nu.eval(grid.rows[s]),
            )
        if rep.coupling.eval(cell) < floor:
            floor_ok = False
    return {
        "marginals": pair.mu == mu and pair.nu == nu,
        "drops": all(d > -delta for d in rep.cell_drops.values()),
        "member": (
            Neighborhood(ref, cells, eps).is_member(rep.coupling) if cells else True
        ),
        "floor": floor_ok,
    }


_TRIAL_RUNS: dict = {}


def _openness_trials(eps):
    if eps in _TRIAL_RUNS:
        return _TRIAL_RUNS[eps]
    delta = eps / 2
    outcomes = []
    for t in range(1000):
        rng = random.Random(MASTER * 31 + t)
        ref, grid = instances.random_instance(rng)
        pair0 = marginal_pair(ref)
        base = Seed(rng.getrandbits(64))
        mu = sample_in_neighborhood(pair0.mu, grid.cols, delta, base.derive(1))
        nu = sample_in_neighborhood(pair0.nu, grid.rows, delta, base.derive(2))
        outcomes.append(_evaluate_trial(ref, grid, mu, nu, eps, delta))
    _TRIAL_RUNS[eps] = outcomes
    return outcomes


def test_2_openness_bound():
    details = []
    ok = True
    for eps in (F(1, 5), F(1, 50)):
        outcomes = _openness_trials(eps)
        good = sum(
            1 for o in outcomes if o["marginals"] and o["drops"] and o["member"]
        )
        ok = ok and good == len(outcomes)
        details.append(f"eps={eps}: {good}/{len(outcomes)} trials")
    _report("2 openness bound", ok, "; ".join(details))


def test_3_cell_floor():
    details = []
    ok = True
    for eps in (F(1, 5), F(1, 50)):
        outcomes = _openness_trials(eps)
        good = sum(1 for o in outcomes if o["floor"])
        ok = ok and good == len(outcomes)
        details.append(f"eps={eps}: {good}/{len(outcomes)} trials")
    _report("3 exact cell floor", ok, "; ".join(details))


# -- criterion 4: refinement -----------------------------------------------


def test_4_refinement():
    eps_choices = (F(1, 5), F(1, 6), F(1, 12))
    split_bad = dichotomy_bad = member_bad = 0
    samples = instances_run = 0
    t = 0
    while samples < 1000 or instances_run < 100:
        rng = random.Random(MASTER * 77 + t)
        t += 1
        if t > 500:
            break
        ref = instances.random_joint(rng, instances.random_product(rng, 4))
        targets = instances.random_disjoint_targets(rng, 2)
        eps0 = rng.choice(eps_choices)
        rr = refine_grid(ref, targets, eps0)
        instances_run += 1

        for pieces in (rr.grid.cols, rr.grid.rows):
            for i, a in enumerate(pieces):
                for b in pieces[i + 1 :]:
                    if not (a == b or intervalsets_disjoint(a, b)):
                        dichotomy_bad += 1

        for i, target in enumerate(targets):
            owned = sum(
                (ref.eval(rr.grid.cell(*ix)) for ix, o in rr.owner.items() if o == i),
                F(0),
            )
            if owned != ref.eval(target):
                split_bad += 1

        cells = [cell for _, cell in rr.grid.cells()]
        if not cells:
            continue
        hood = Neighborhood(ref, targets, eps0)
        for _ in range(10):
            member = sample_in_neighborhood(
                ref, cells, rr.delta, Seed(rng.getrandbits(64))
            )
            samples += 1
            if not hood.is_member(member):
                member_bad += 1

    ok = not (split_bad or dichotomy_bad or member_bad) and samples >= 1000
    _report(
        "4 refinement",
        ok,
        f"{instances_run} instances: splits exact, projection dichotomy holds, "
        f"{samples - member_bad}/{samples} sampled members carried over",
    )


# -- criterion 5: band and box-difference checks ---------------------------


def test_5_band_and_box_checks():
    total, bad = 0, 0
    for t in range(5000):
        rng = random.Random(MASTER * 113 + t)
        ref = instances.random_joint(rng, instances.random_product(rng, 5))
        col_outer, col_inner = instances.random_nested_intervals(rng)
        row_outer, row_inner = instances.random_nested_intervals(rng)
        band = ref.push_proj(1).sum_where(
            lambda v: col_outer.contains(v) and not col_inner.contains(v)
        )
        res = check_band_bound(
            ref, col_outer, col_inner, row_outer, band + F(1, rng.randint(2, 9))
        )
        total += 1
        bad += 0 if res.ok else 1
        row_band = ref.push_proj(2).sum_where(
            lambda v: row_outer.contains(v) and not row_inner.contains(v)
        )
        res = check_box_diff_bound(
            ref,
            col_outer,
            col_inner,
            row_outer,
            row_inner,
            band + F(1, rng.randint(2, 9)),
            row_band + F(1, rng.randint(2, 9)),
        )
        total += 1
        bad += 0 if res.ok else 1
    _report("5 band and box-difference checks", bad == 0, f"{total - bad}/{total} ok")


# -- criterion 6: tensor equals its barycenter route -----------------------


def test_6_tensor_dual_route():
    total, bad = 1000, 0
    for t in range(total):
        rng = random.Random(MASTER * 151 + t)
        mu = instances.random_prob_measure(rng, instances.random_space(rng, "x"))
        nu = instances.random_prob_measure(rng, instances.random_space(rng, "y"))
        if tensor(mu, nu) != tensor_via_barycenter(mu, nu):
            bad += 1
    _report("6 tensor dual route", bad == 0, f"{total - bad}/{total} pairs equal")


# -- criterion 7: the worked example ---------------------------------------


def test_7_worked_example():
    ref = instances.worked_reference()
    grid = instances.worked_grid()
    mu, nu = instances.worked_perturbed()
    rep = construct_preimage(ref, grid, mu, nu)
    pair = marginal_pair(rep.remainder_coupling)
    checks = {
        "coupling": rep.coupling.weights == instances.WORKED_COUPLING,
        "drop": rep.cell_drops[(0, 0)] == F(-1, 10),
        "remainders": pair.mu.mass() == F(1, 10) and pair.nu.mass() == F(1, 10),
    }
    _report(
        "7 worked example",
        all(checks.values()),
        ", ".join(f"{k} {'ok' if v else 'WRONG'}" for k, v in checks.items()),
    )


# -- criterion 8: a broken combination rule is detected --------------------


def test_8_mutation_detected(monkeypatch):
    ref = instances.worked_reference()
    targets = instances.worked_targets()
    with monkeypatch.context() as mp:
        mp.setattr("margcouple.verify.construct_preimage", instances.broken_preimage)
        mutated = certify_openness(ref, targets, F(1, 5), 25, Seed(MASTER))
    control = certify_openness(ref, targets, F(1, 5), 25, Seed(MASTER))
    ok = len(mutated.violations) >= 1 and control.passed
    _report(
        "8 mutation detected",
        ok,
        f"max rule: {len(mutated.violations)}/25 trials flagged; "
        f"min rule: {len(control.violations)}/25",
    )


# -- criterion 9: degenerate instances -------------------------------------


def _degenerate_configs():
    x, y = instances.worked_spaces()
    ref = instances.worked_reference()

    point = Measure(ProductSpace(x, y), {("a", "c"): F(1)})
    spread = (
        IntervalSet.single(-2, -1),
        IntervalSet.single(F(-1, 2), F(1, 2)),
        IntervalSet.single(2, 3),
    )
    # one supported cell in a sea of reference-zero cells
    yield "zero cells", point, Grid(spread, spread)

    cuts_on_atoms = Grid(
        (IntervalSet.single(-1, 0), IntervalSet.single(0, 1)),
        instances.worked_grid().rows,
    )
    yield "atoms on cuts", ref, cuts_on_atoms

    far_cell = Grid(
        (IntervalSet.single(90, 91),),
        (IntervalSet.single(90, 91),),
    )
    yield "atoms beyond the grid", ref, far_cell

    far_target = BoxSet((Box((7, 8), (7, 8)),))
    rr = refine_grid(ref, [far_target], F(1, 5))
    assert set(rr.owner.values()) <= {None}
    yield "unsupported target, empty grid", ref, rr.grid

    mixed = refine_grid(ref, [*instances.worked_targets(), far_target], F(1, 5))
    assert any(o is None for o in mixed.owner.values())
    yield "mixed ownership", ref, mixed.grid


def test_9_degenerate_instances():
    eps = F(1, 5)
    delta = eps / 2
    failures = []
    for c, (name, ref, grid) in enumerate(_degenerate_configs()):
        pair0 = marginal_pair(ref)
        for t in range(40):
            rng = random.Random(MASTER * 199 + 1000 * c + t)
            base = Seed(rng.getrandbits(64))
            if grid.cols and grid.rows:
                mu = sample_in_neighborhood(pair0.mu, grid.cols, delta, base.derive(1))
                nu = sample_in_neighborhood(pair0.nu, grid.rows, delta, base.derive(2))
            else:
                mu = instances.random_prob_measure(rng, instances.random_space(rng, "p"))
                nu = instances.random_prob_measure(rng, instances.random_space(rng, "q"))
            outcome = _evaluate_trial(ref, grid, mu, nu, eps, delta)
            if not all(outcome.values()):
                failures.append((name, t, outcome))
    _report(
        "9 degenerate instances",
        not failures,
        "5 configurations x 40 trials completed"
        + (f", failures {failures[:2]}" if failures else ""),
    )
