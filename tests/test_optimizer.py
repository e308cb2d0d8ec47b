"""Locating the critical pair of regions and extracting the exact optimum."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import draw_case, tri_instance
from ucactus.decision import DESCEND_TWO, decide, one_center
from ucactus.graph import GraphPoint, point_distance, validate_cactus
from ucactus.optimizer import (
    CRITICAL_HERE,
    SOLVED,
    candidate_values,
    find_critical_pair,
    locate_critical_articulation,
    locate_critical_cycle,
    solve,
)
from ucactus.oracle import oracle_solve
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
# locating the critical regions


def test_star_resolves_at_the_hub():
    inst = _star_instance()
    hub = inst.graph.skeleton.node_of_vertex[0]
    out = locate_critical_articulation(inst, hub)
    assert (out.kind, out.value) == (SOLVED, 1.0)
    fr = find_critical_pair(inst)
    assert (fr.value, fr.regions) == (1.0, None)
    assert solve(inst).value == 1.0


def test_locate_descends_both_ways_from_the_hinge(tri):
    out = locate_critical_articulation(tri, 0)
    assert out.kind == DESCEND_TWO
    assert (out.primary, out.secondary) == (1, 2)


def test_locate_pins_the_cycle_and_the_pendant(tri):
    out = locate_critical_cycle(tri, 2)
    assert out.kind == CRITICAL_HERE
    assert (out.primary, out.secondary) == (2, 1)


def test_find_critical_pair_on_fixed_instance(tri):
    fr = find_critical_pair(tri)
    assert fr.value is None
    assert fr.regions == (("edge", 3), ("cycle", 0))


def test_candidate_values_on_fixed_regions(tri):
    got = candidate_values(tri, ("cycle", 0), ("edge", 3))
    assert list(got) == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]


def test_critical_regions_carry_the_optimum_or_fail_detectably():
    # the pair grid may miss when localisation was fooled; the miss must
    # then be visible (a feasible value just below the grid answer) so the
    # all-regions safety net takes over
    from ucactus.optimizer import _candidate_values_wide, _smallest_feasible

    for seed in range(50):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        star, _ = oracle_solve(inst)
        fr = find_critical_pair(inst)
        if fr.value is not None:
            assert fr.value == pytest.approx(star, abs=1e-9), seed
            continue
        grid = candidate_values(inst, *fr.regions)
        if np.any(np.abs(grid - star) <= 1e-9 * max(1.0, star)):
            continue
        lam1 = _smallest_feasible(inst, grid)
        assert decide(inst, lam1 - 10.0 * inst.eps * max(1.0, lam1)).feasible, seed
        wide = _candidate_values_wide(inst)
        assert np.any(np.abs(wide - star) <= 1e-9 * max(1.0, star)), seed


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
        q, inside = sol.centers[0], GraphPoint(0, 0.5 * g.edges[0].length)
        calls = {
            "objective": lambda: objective(inst, *sol.centers),
            "expected_distance": lambda: expected_distance(inst, 0, inside),
            "expected_distances": lambda: expected_distances(inst, q),
            "point_distance": lambda: point_distance(g, inside, q),
            "decide": lambda: decide(inst, sol.value),
            "one_center": lambda: one_center(inst),
            "median": lambda: median(inst, 0),
        }
        for name, call in calls.items():
            call()
            assert "vertex_distances" not in g.__dict__, name
    # interior locations, and vertex-only ones with and without a reduction
    assert kinds == {(False, False), (True, False), (True, True)}


def test_two_centers_never_beat_one_center():
    for seed in range(25):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        _, single = one_center(inst)
        assert solve(inst).value <= single + 1e-9 * max(1.0, single)
