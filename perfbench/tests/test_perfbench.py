"""The benchmark's own tests: its checker, its inputs and its timing hygiene.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import gen
import layers
import run
import spans
import workloads
from ucactus.io import parse_instance
from ucactus.optimizer import Assignment, Solution, solve
from ucactus.oracle import oracle_decide, oracle_solve
from ucactus.uncertain import expected_distance, objective

ROOT = Path(__file__).resolve().parents[2]


def small_cases():
    for seed in range(8):
        rng = random.Random(seed)
        yield gen.tree_like(rng, rng.randint(8, 18), n_points=rng.randint(2, 6),
                            n_locations=rng.randint(1, 4))
        yield gen.rings(rng, n_rings=rng.randint(1, 3), ring_size=rng.randint(3, 7),
                        n_points=rng.randint(2, 6), n_locations=rng.randint(1, 3))


def claim(inst, value, centers):
    """A solution claiming ``value`` with honest assignments to ``centers``."""
    assignments = []
    for k, p in enumerate(inst.points):
        costs = [p.weight * expected_distance(inst, k, c) for c in centers]
        side = int(costs[1] < costs[0])
        assignments.append(Assignment(p.label, side, costs[side]))
    return Solution(value, centers, assignments)


@pytest.mark.parametrize("data", list(small_cases()))
def test_checker_agrees_with_oracle(data):
    inst = parse_instance(data)
    lam, pair = oracle_solve(parse_instance(data))
    tol = workloads.tolerance(inst.eps, lam)
    sol = solve(inst)
    assert abs(sol.value - lam) <= tol
    assert workloads.check_solve(inst, sol) is None
    # the oracle's own certificate passes
    assert workloads.check_solve(inst, claim(inst, lam, pair)) is None
    # a radius off the optimum, with centers that attain the optimum, fails
    for wrong in (lam * 1.01 + 0.01, lam * 0.99 - 0.01):
        assert workloads.check_solve(inst, claim(inst, wrong, pair)) is not None
    # any center pair passes exactly when it attains the oracle's optimum
    v0 = inst.graph.vertex_point(0)
    attains = objective(inst, v0, v0) <= lam + tol
    assert (workloads.check_solve(inst, claim(inst, lam, (v0, v0))) is None) == attains


@pytest.mark.parametrize("data", list(small_cases())[:8])
def test_verdict_check_agrees_with_oracle(data):
    from ucactus.decision import decide

    inst = parse_instance(data)
    lam, _ = oracle_solve(parse_instance(data))
    for f in (0.5, 0.9, 1.1, 2.0):
        radius = lam * f
        verdict = decide(inst, radius)
        assert workloads.check_verdict(inst, radius, verdict) is None
        assert verdict.feasible == oracle_decide(inst, radius)[0]
    infeasible_witness = type(verdict)(True, (inst.graph.vertex_point(0),) * 2)
    if objective(inst, *infeasible_witness.centers) > lam:
        assert workloads.check_verdict(inst, lam * 0.5, infeasible_witness) is not None


def test_monotone_check_flags_a_verdict_that_drops():
    good = {(0, 0.25): False, (0, 0.5): True, (0, 0.75): True, (0, 1.0): True}
    assert workloads.monotone_failures(good) == []
    bad = {**good, (1, 0.25): True, (1, 0.5): False}
    assert len(workloads.monotone_failures(bad)) == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_seed_always_gives_the_same_inputs(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    other = workloads.build(name, 8)
    assert json.dumps(first.pool) == json.dumps(again.pool)
    assert first.warmup == again.warmup
    assert [first.op(i) for i in range(6)] == [again.op(i) for i in range(6)]
    assert first.pool != other.pool


def test_generators_match_their_shapes():
    rng = random.Random(3)
    tree = gen.tree_like(rng, 1000)
    assert len(tree["vertices"]) == 1000
    # a cactus with c cycles on V vertices has V - 1 + c edges
    cycles = len(tree["edges"]) - 999
    assert abs(cycles - 1000 / 17) <= 1
    ring = gen.rings(rng)
    assert len(ring["vertices"]) == 60 + 5 * 59
    assert len(ring["edges"]) == 6 * 60
    members = [
        {u for u, _, _ in ring["edges"][r * 60 : (r + 1) * 60]} for r in range(6)
    ]
    for p in ring["uncertain_points"]:
        assert sum(prob for _, prob in p["locations"]) == 1.0
        assert any({v for v, _ in p["locations"]} <= m for m in members)


def small_workload(kind: str) -> workloads.Workload:
    pool = [
        gen.rings(random.Random(i), n_rings=2, ring_size=6, n_points=6, n_locations=2)
        for i in range(3)
    ]
    warm = workloads.OpInput(pool[0], -1)
    if kind == "decide":
        low, high = workloads.bracket(pool[0])
        warm = workloads.OpInput(pool[0], -1, (low + high) / 2, 0.5)
    return workloads.Workload("small", kind, pool, warm, 50.0, 1000)


@pytest.mark.parametrize("kind", ["solve", "decide"])
@pytest.mark.parametrize("traced", [False, True])
def test_no_op_reuses_an_instance_and_timing_is_untraced(monkeypatch, kind, traced):
    tracer = layers.LayerTracer() if traced else None
    timed = []
    real_run_op = workloads.run_op

    def watched(op):
        # every untraced op must find the original functions in place
        installed = tracer is not None and tracer.installed
        assert spans.originals_in_place() != installed
        result = real_run_op(op)
        timed.append((installed, result.instance))
        return result

    monkeypatch.setattr(workloads, "run_op", watched)
    out = workloads.measure(small_workload(kind), 0.5, tracer)
    assert not out.failures
    assert spans.originals_in_place()
    instances = [inst for _, inst in timed]
    assert len({id(inst) for inst in instances}) == len(instances)
    assert len(instances) == out.attempted
    if traced:
        # untraced and traced ops alternate, starting after the warm-up
        assert [flag for flag, _ in timed[1:]] == [False, True] * (len(timed) // 2)
        assert tracer.ops == len(out.traced_times) > 0


def test_traced_counts_repeat_exactly():
    op = small_workload("solve").op(1)
    counts = []
    for _ in range(2):
        tracer = layers.LayerTracer()
        tracer.install()
        try:
            with tracer.span("op"):
                workloads.run_op(op)
        finally:
            tracer.uninstall()
        tracer.fold()
        counts.append((dict(tracer.calls), tracer.localise_decides, tracer.bisect_decides,
                       {k: v for k, v in tracer.notes.items()}))
    assert counts[0] == counts[1]
    assert counts[0][0]["optimizer.solve"] == 1


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.METRICS]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tail_percentile_leaves_ten_samples_of_a_typical_run(name):
    # fewest timed ops seen in a run on a 2-core machine, per workload
    fewest = {"tree-large": 36, "rings-many-points": 55, "decide-cold": 500}[name]
    pct = workloads.build(name, 1).tail_percentile
    times = [float(i) for i in range(fewest)]
    value, beyond = run.tail(times, pct)
    assert beyond == sum(t > value for t in times) >= 10
