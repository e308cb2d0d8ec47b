"""The bracket search from the lower bound and the exact optimum it finds."""

from __future__ import annotations

import random

import numpy as np
import pytest

import references as refs
from conftest import draw_case, edge_row, gen
from ucactus import graph, optimizer
from ucactus.decision import decide, one_center
from ucactus.graph import CactusGraph, GraphPoint, validate_cactus
from ucactus.io import parse_instance
from ucactus.optimizer import (
    _base_values,
    _segments,
    candidate_values,
    find_critical_pair,
    solve,
)
from ucactus.oracle import oracle_solve
from ucactus.plf import crossings
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Location,
    UncertainPoint,
    build_instance,
    expected_distance,
    expected_distances,
    median,
    objective,
)


def _path3_instance():
    g = validate_cactus(["p", "q", "r"], [("p", "q", 1.0), ("q", "r", 1.0)])
    return build_instance(
        g, [UncertainPoint(f"D{v}", 1.0, (Location(v, 1.0),)) for v in range(3)]
    )


def _star_instance():
    g = validate_cactus(
        ["s", "l1", "l2", "l3"],
        [("s", "l1", 1.0), ("s", "l2", 1.0), ("s", "l3", 1.0)],
    )
    return build_instance(
        g, [UncertainPoint(f"L{i}", 1.0, (Location(i, 1.0),)) for i in (1, 2, 3)]
    )


# ---------------------------------------------------------------------------
# fixed optima


def test_solve_on_fixed_instance(tri):
    sol = solve(tri)
    assert sol.value == 0.5
    assert sol.centers == (GraphPoint(3, 2.0), GraphPoint(0, 0.0))
    assert [(a.label, a.center, a.cost) for a in sol.assignments] == [
        ("P1", 1, 0.5),
        ("P2", 0, 0.0),
    ]


def test_solve_three_points_on_a_path():
    assert solve(_path3_instance()).value == 0.5


def test_two_points_always_cost_nothing():
    for seed in range(10):
        inst = draw_case(seed, max_points=2)
        if inst.n != 2:
            continue
        has_certain = all(
            sum(1 for l in p.locations if l.prob > 0.0) == 1 for p in inst.points
        )
        if has_certain:
            assert solve(inst).value == 0.0


def test_single_point_optimum_is_its_weighted_median():
    for seed in range(20):
        inst = draw_case(seed, max_points=1)
        sol = solve(inst)
        _, best_single = one_center(inst)
        assert sol.value == pytest.approx(best_single, abs=1e-9)
        assert sol.centers[0] == sol.centers[1]


# ---------------------------------------------------------------------------
# the bracket search


def test_star_resolves_at_the_hub():
    # one center takes two leaves from the hub; no two leaves' profiles
    # cross, so the bracket's upper end is the optimum
    inst = _star_instance()
    fr = find_critical_pair(inst)
    assert (fr.value, fr.bracket) == (None, (0.0, 1.0))
    assert list(candidate_values(inst, *fr.bracket)) == [1.0]
    assert solve(inst).value == 1.0


def test_find_critical_pair_on_fixed_instance(tri, square):
    # P1's median value 0.5 is the lower bound, and a center at d frees the
    # other for P1
    fr = find_critical_pair(tri)
    assert (fr.value, fr.bracket) == (0.5, None)
    assert fr.verdict.feasible
    # four certain corners: the bound 0 is infeasible, and the side length
    # is the smallest feasible base value
    fr = find_critical_pair(square)
    assert (fr.value, fr.bracket) == (None, (0.0, 1.0))
    assert fr.verdict.feasible


def test_candidate_values_inside_the_bracket(square):
    # neighbouring corners' profiles cross at the middle of each side
    assert list(candidate_values(square, 0.0, 1.0)) == [0.5, 1.0]
    assert solve(square).value == 0.5


@pytest.mark.parametrize("edge_locations, draws", [(False, 50), (True, 25)])
def test_base_values_and_crossings_carry_the_optimum(edge_locations, draws):
    for seed in range(draws):
        inst = draw_case(
            seed, max_vertices=10, max_points=4, edge_locations=edge_locations
        )
        star, _ = oracle_solve(inst)
        work = reduce_instance(inst).reduced
        family = np.concatenate([_base_values(work), crossings(*_segments(work))[1]])
        assert np.min(np.abs(family - star)) <= 1e-9 * max(1.0, star), seed


def test_base_values_are_the_vertex_and_breakpoint_values():
    # every vertex ends a piece, and a cycle's pieces end at its breakpoints
    lone = build_instance(
        validate_cactus(["a"], []), [UncertainPoint("P", 2.0, (Location(0, 1.0),))]
    )
    draws = [lone]
    for seed in range(80):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        draws.append(reduce_instance(inst).reduced)
    for work in draws:
        got = np.unique(_base_values(work)).tolist()
        assert got == np.unique(refs.base_values(work)).tolist()


def test_pruned_crossings_are_the_unpruned_ones_inside_the_bracket():
    inside = 0
    for seed in range(60):
        inst = draw_case(
            seed, max_vertices=10, max_points=4, edge_locations=seed % 2 == 1
        )
        work = reduce_instance(inst).reduced
        fr = find_critical_pair(work)
        if fr.bracket is None:
            continue
        down, up = fr.bracket
        every = crossings(*_segments(work))[1]
        want = np.unique(every[(every > down) & (every < up)])
        got = candidate_values(work, down, up)
        assert list(got) == [*want, up], seed
        inside += want.size
    assert inside > 0


def test_solve_decides_each_radius_once_and_keeps_the_optimum_witnesses(monkeypatch):
    asked: list[float] = []

    def counting(inst, lam):
        asked.append(lam)
        return decide(inst, lam)

    monkeypatch.setattr(optimizer, "decide", counting)
    settled = 0
    for seed in range(40):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        red = reduce_instance(inst)
        asked.clear()
        sol = solve(inst)
        assert len(set(asked)) == len(asked), seed
        if asked[0] == sol.value:
            settled += 1
            assert asked == [sol.value], seed
        v = decide(red.reduced, sol.value)
        assert sol.centers == tuple(red.lift_point(c) for c in v.centers), seed
    assert 0 < settled < 40


# ---------------------------------------------------------------------------
# end to end


def test_solve_matches_reference_and_brackets_the_optimum():
    for seed in range(50):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        sol = solve(inst)
        star, _ = oracle_solve(inst)
        assert sol.value == pytest.approx(star, abs=1e-6 * max(1.0, star)), seed
        assert decide(inst, sol.value).feasible
        if sol.value > 1e-3:
            delta = max(1e-6, 1e-6 * sol.value)
            assert not decide(inst, sol.value - 10 * delta).feasible, seed


def test_solver_lifts_interior_location_instances():
    for seed in range(25):
        inst = draw_case(seed, max_vertices=8, max_points=3, edge_locations=True)
        sol = solve(inst)
        star, _ = oracle_solve(inst)
        assert sol.value == pytest.approx(star, abs=1e-6 * max(1.0, star)), seed
        # witnesses come back in the original graph's coordinates
        got = objective(inst, *sol.centers)
        assert got <= sol.value + 1e-6 * max(1.0, sol.value), seed


def test_assignments_describe_the_witnesses():
    for seed in range(25):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        sol = solve(inst)
        assert sorted(a.label for a in sol.assignments) == sorted(
            p.label for p in inst.points
        )
        worst = 0.0
        for a in sol.assignments:
            k = next(i for i, p in enumerate(inst.points) if p.label == a.label)
            cost = inst.weights[k] * expected_distance(
                inst, k, sol.centers[a.center]
            )
            assert a.cost == pytest.approx(cost, abs=1e-9)
            worst = max(worst, a.cost)
        assert worst == pytest.approx(sol.value, abs=1e-6 * max(1.0, sol.value))


def test_assignments_describe_the_lifted_witnesses():
    """Costs priced on the reduced network match the original instance at
    the lifted centers."""
    for seed in range(25):
        inst = draw_case(seed, max_vertices=10, max_points=4, edge_locations=True)
        sol = solve(inst)
        for k, a in enumerate(sol.assignments):
            assert a.label == inst.points[k].label
            cost = inst.weights[k] * expected_distance(inst, k, sol.centers[a.center])
            assert a.cost == pytest.approx(cost, abs=1e-9)


def test_solve_never_builds_the_original_distance_matrix():
    kinds = set()
    for seed in range(40):
        inst = draw_case(seed, edge_locations=seed % 2 == 0)
        g = inst.graph
        kinds.add((inst.is_vertex_constrained, reduce_instance(inst).identity))
        assert "vertex_distances" not in g.__dict__
        sol = solve(inst)
        assert "vertex_distances" not in g.__dict__
        q, inside = sol.centers[0], GraphPoint(0, 0.5 * edge_row(g, 0).length)
        calls = {
            "objective": lambda: objective(inst, *sol.centers),
            "expected_distance": lambda: expected_distance(inst, 0, inside),
            "expected_distances": lambda: expected_distances(inst, q),
            "point_distance": lambda: refs.point_distance(g, inside, q),
            "decide": lambda: decide(inst, sol.value),
            "one_center": lambda: one_center(inst),
            "median": lambda: median(inst, 0),
        }
        for name, call in calls.items():
            call()
            assert "vertex_distances" not in g.__dict__, name
    # interior locations, and vertex-only ones with and without a reduction
    assert kinds == {(False, False), (True, False), (True, True)}


def test_solve_and_decide_run_no_dijkstra(monkeypatch):
    # the vertex tables and the pricing come from the skeleton alone; only
    # the certificate, objective, prices by Dijkstra
    def refuse(*args, **kwargs):
        raise AssertionError("Dijkstra run inside solve or decide")

    rng = random.Random(3)
    datas = [gen.tree_like(rng, 1000), gen.rings(rng, n_rings=6, ring_size=30, n_points=12)]
    cases = [(lambda s=seed: draw_case(s, edge_locations=True)) for seed in range(40)]
    cases += [(lambda d=data: parse_instance(d)) for data in datas]
    for fresh in cases:
        with monkeypatch.context() as m:
            m.setattr(CactusGraph, "distance_rows", refuse)
            m.setattr(graph, "dijkstra", refuse)
            sol = solve(fresh())
            inst = fresh()
            verdict = decide(inst, sol.value)
        assert verdict.feasible
        tol = inst.eps * max(1.0, sol.value)
        assert objective(inst, *verdict.centers) <= sol.value + 2.0 * tol


def test_two_centers_never_beat_one_center():
    for seed in range(25):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        _, single = one_center(inst)
        assert solve(inst).value <= single + 1e-9 * max(1.0, single)
