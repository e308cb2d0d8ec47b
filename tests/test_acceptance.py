"""End-to-end acceptance checks; one test per guarantee the package makes.

Each test prints as its own pass or fail line, so a run of this module is a
complete scorecard.  The first three share one 500-instance sweep.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

import references as refs
from conftest import draw_case, draw_many_cycles, tri_instance
from ucactus import decision
from ucactus.decision import decide, one_center
from ucactus.io import random_instance
from ucactus.optimizer import solve
from ucactus.oracle import oracle_decide, oracle_solve
from ucactus.plf import stab_two
from ucactus.reduction import reduce_instance
from ucactus.uncertain import median, objective

SWEEP_SIZE = 500


@pytest.fixture(scope="module")
def sweep():
    """Solve 500 seeded instances and bank every check for the first three
    acceptance tests, so the expensive loop runs once."""
    value_gaps = []
    disagreements = []
    unsound = []
    for seed in range(SWEEP_SIZE):
        inst = draw_case(
            seed, max_vertices=12, max_cycles=3, max_points=5, max_locations=3
        )
        sol = solve(inst)
        star, _ = oracle_solve(inst)
        if abs(sol.value - star) > 1e-6 * max(1.0, star):
            value_gaps.append((seed, sol.value, star))
        if objective(inst, *sol.centers) > sol.value + 1e-6:
            unsound.append((seed, "solve"))
        delta = max(1e-3, 1e-3 * star)
        for lam in (0.5 * star, star - delta, star, star + delta, 2.0 * star):
            verdict = decide(inst, lam)
            want, _ = oracle_decide(inst, lam)
            if verdict.feasible != want:
                disagreements.append((seed, lam, verdict.feasible, want))
            if verdict.feasible and objective(inst, *verdict.centers) > lam + 1e-6:
                unsound.append((seed, lam))
    return value_gaps, disagreements, unsound


def test_optimizer_matches_reference_on_500_instances(sweep):
    value_gaps, _, _ = sweep
    assert value_gaps == []


def test_decision_matches_reference_across_the_radius_ladder(sweep):
    _, disagreements, _ = sweep
    assert disagreements == []


def test_two_cycle_terminal_matches_reference_across_the_radius_ladder(monkeypatch):
    # draws of 3-4 cycles reach the terminal that places one center on each
    # of two cycles; the 500-instance sweep rarely does
    calls = []
    terminal = decision.decide_on_two_cycles
    monkeypatch.setattr(
        decision, "decide_on_two_cycles", lambda *a: calls.append(a) or terminal(*a)
    )
    disagreements = []
    reached = 0
    for seed in range(120):
        inst = draw_many_cycles(seed)
        before = len(calls)
        star, _ = oracle_solve(inst)
        delta = max(1e-3, 1e-3 * star)
        for lam in (0.5 * star, star - delta, star, star + delta, 2.0 * star):
            want, _ = oracle_decide(inst, lam)
            if decide(inst, lam).feasible != want:
                disagreements.append((seed, lam, want))
        reached += len(calls) > before
    assert disagreements == []
    assert reached >= 40, reached


def test_every_witness_achieves_its_radius(sweep):
    _, _, unsound = sweep
    assert unsound == []


def test_deterministic_and_tree_special_cases_match_reference():
    failures = []
    for variant, extra in (("m1", {"max_locations": 1}), ("tree", {"max_cycles": 0})):
        for seed in range(100):
            inst = draw_case(seed, max_vertices=12, max_points=5, **extra)
            sol = solve(inst)
            star, _ = oracle_solve(inst)
            if abs(sol.value - star) > 1e-6 * max(1.0, star):
                failures.append((variant, seed, "value"))
            delta = max(1e-3, 1e-3 * star)
            for lam in (0.5 * star, star - delta, star, star + delta, 2.0 * star):
                if decide(inst, lam).feasible != oracle_decide(inst, lam)[0]:
                    failures.append((variant, seed, lam))
    assert failures == []


def test_off_vertex_reduction_preserves_the_optimum():
    failures = []
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        inst = draw_case(
            seed, max_vertices=8, max_points=3, max_locations=3, edge_locations=True
        )
        if inst.is_vertex_constrained:
            continue  # this draw landed every location on a vertex
        done += 1
        red = reduce_instance(inst)
        star_orig, _ = oracle_solve(inst)
        star_red, _ = oracle_solve(red.reduced)
        if abs(star_orig - star_red) > 1e-9:
            failures.append((seed, "optimum moved"))
        sol = solve(inst)
        if abs(sol.value - star_orig) > 1e-6 * max(1.0, star_orig):
            failures.append((seed, "solver off"))
        if objective(inst, *sol.centers) > sol.value + 1e-6:
            failures.append((seed, "lifted witnesses miss"))
    assert failures == []


def test_fixture_regression_exact_values():
    tri = tri_instance()
    assert solve(tri).value == pytest.approx(0.5, abs=1e-9)
    assert one_center(tri)[1] == pytest.approx(1.5, abs=1e-9)
    assert median(tri, 0)[1] == pytest.approx(0.5, abs=1e-9)


def _hits(ivals, x):
    return any(a <= x <= b for a, b in ivals)


def _brute_stab_two(sets):
    cands = sorted({v for ivals in sets for ab in ivals for v in ab}) or [0.0]
    for x in cands:
        for y in cands:
            if all(_hits(ivals, x) or _hits(ivals, y) for ivals in sets):
                return x, y
    return None


def test_stab_two_matches_endpoint_search_on_1000_families():
    rng = random.Random(424242)
    failures = []
    for trial in range(1000):
        sets = []
        for _ in range(rng.randint(1, 8)):
            raw = []
            for _ in range(rng.randint(0, 4)):
                a = rng.uniform(0.0, 10.0)
                raw.append((a, a + rng.uniform(0.0, 3.0)))
            merged: list[tuple[float, float]] = []
            for a, b in sorted(raw):
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            sets.append(merged)
        got = stab_two(refs.table(sets))
        want = _brute_stab_two(sets)
        if (got is None) != (want is None):
            failures.append(trial)
        elif got is not None and not all(
            _hits(ivals, got[0]) or _hits(ivals, got[1]) for ivals in sets
        ):
            failures.append(trial)
    assert failures == []


def _timed_solve(n_points: int) -> float:
    """Best of three cold solves: each gets a fresh instance, so no
    per-instance cache carries over from one timing to the next."""
    best = float("inf")
    for _ in range(3):
        inst = random_instance(
            777,
            n_vertices=200,
            n_cycles=12,
            n_points=n_points,
            n_locations=8,
            prob_denominator=16,
        )
        t0 = time.perf_counter()
        solve(inst)
        best = min(best, time.perf_counter() - t0)
    return best


def test_large_instance_solves_fast_and_scales_gently():
    base = _timed_solve(40)
    assert base < 60.0
    doubled = _timed_solve(80)
    assert doubled <= 6.0 * max(base, 1e-3)
