"""Feasibility probes, terminal cases, and the two-center decision driver."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import draw_case, square_instance, tri_instance
from ucactus.decision import (
    CENTER_AT,
    CYCLE_AND_BEYOND,
    DESCEND,
    DESCEND_TWO,
    FEASIBLE_SINGLE,
    _cycle_arcs,
    _interp_rows,
    coverage_witness,
    decide,
    decide_on_cycle,
    decide_on_edge,
    decide_on_two_cycles,
    one_center,
    probe_articulation,
    probe_cycle,
)
from ucactus.errors import ValidationError
from ucactus.graph import GraphPoint, validate_cactus
from ucactus.io import random_instance
from ucactus.optimizer import solve
from ucactus.oracle import (
    oracle_decide,
    oracle_median,
    oracle_one_center,
    oracle_solve,
)
from ucactus.plf import cycle_profiles
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


def _two_cycle_instance():
    """Two unit triangles joined by a long bridge, one point on each."""
    g = validate_cactus(
        ["a", "b", "c", "x", "y", "z"],
        [
            ("a", "b", 1.0),
            ("b", "c", 1.0),
            ("c", "a", 1.0),
            ("a", "x", 10.0),
            ("x", "y", 1.0),
            ("y", "z", 1.0),
            ("z", "x", 1.0),
        ],
    )
    return build_instance(
        g,
        [
            UncertainPoint("P1", 1.0, (Location(1, 1.0),)),
            UncertainPoint("P2", 1.0, (Location(4, 1.0),)),
        ],
    )


def _probe_budget(inst) -> int:
    n_nodes = max(2, len(inst.graph.skeleton.nodes))
    return 2 * (2 * math.ceil(math.log2(n_nodes)) + 4)


# ---------------------------------------------------------------------------
# probes at a fixed articulation and cycle


def test_articulation_probe_outcomes_across_radii(tri):
    tight = probe_articulation(tri, 0, 0.4)
    assert tight.kind == DESCEND_TWO
    assert (tight.primary, tight.secondary) == (1, 2)
    pinned = probe_articulation(tri, 0, 2.0)
    assert (pinned.kind, pinned.primary) == (CENTER_AT, 0)
    assert probe_articulation(tri, 0, 3.0).kind == FEASIBLE_SINGLE


def test_cycle_probe_outcomes_across_radii(tri):
    tight = probe_cycle(tri, 2, 0.4)
    assert tight.kind == CYCLE_AND_BEYOND
    assert (tight.primary, tight.secondary) == (2, 1)
    pinned = probe_cycle(tri, 2, 2.0)
    assert (pinned.kind, pinned.primary) == (CENTER_AT, 0)
    wide = probe_cycle(tri, 2, 3.0)
    assert (wide.kind, wide.primary) == (DESCEND, 2)


def test_cycle_probe_pins_no_hinge_for_a_half_mass_point():
    # a tight point with exactly half its mass beyond a hinge can keep a flat
    # expected distance along an arc of the ring; pinning a center at the
    # hinge for it makes this instance's optimum infeasible at every eps
    inst = random_instance(137, n_vertices=14, n_points=6, edge_locations=True)
    star, _ = oracle_solve(reduce_instance(inst).reduced)
    for eps in (1e-12, 1e-9, 1e-6):
        case = build_instance(inst.graph, inst.points, eps)
        value = solve(case).value
        assert value == pytest.approx(star, rel=1e-9), eps
        assert decide(case, value).feasible, eps


# ---------------------------------------------------------------------------
# terminals


def test_edge_terminal_serves_both_points_from_one_spot(tri):
    v = decide_on_edge(tri, 3, 1.5)
    assert v.feasible
    c1, c2 = v.centers
    assert c1 == c2
    assert c1.edge == 3
    assert c1.t == pytest.approx(0.5, abs=1e-6)


def test_cycle_terminal_places_two_centers_on_the_ring(square):
    v = decide_on_cycle(square, 0, 0.5)
    assert v.feasible
    c1, c2 = v.centers
    assert {c1.edge, c2.edge} == {0, 2}
    assert c1.t == pytest.approx(0.5, abs=1e-6)
    assert c2.t == pytest.approx(0.5, abs=1e-6)
    assert not decide_on_cycle(square, 0, 0.4).feasible


def test_two_cycle_terminal_reaches_both_far_corners():
    inst = _two_cycle_instance()
    v = decide_on_two_cycles(inst, 2, 3, 0.0)
    assert v.feasible
    c1, c2 = v.centers
    assert objective(inst, c1, c2) == pytest.approx(0.0, abs=1e-6)


def test_cycle_matrix_rows_price_positions_like_expected_distances():
    # the cycle terminals price an on-cycle center by reading the cycle's
    # profile matrix at arc ends, in place of measuring from the position
    cycles = 0
    for seed in range(40):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        if not inst.is_vertex_constrained:
            inst = reduce_instance(inst).reduced
        g = inst.graph
        rng = random.Random(seed)
        for cyc in g.cycles.cycles:
            cycles += 1
            xs, ys = cycle_profiles(inst, cyc.id)
            lam = rng.uniform(0.0, float((ys * inst.weights).max()))
            arcs = _cycle_arcs(inst, cyc.id, lam)
            ends = [x for fam in arcs for ab in fam for x in ab]
            for x in [*xs.tolist(), *ends, rng.uniform(0.0, cyc.perimeter)]:
                want = expected_distances(inst, cyc.coord_point(g, x))
                err = np.abs(_interp_rows(xs, ys, x) - want)
                assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert cycles >= 30


# ---------------------------------------------------------------------------
# driver


def test_decide_on_fixed_instance(tri):
    v = decide(tri, 0.5)
    assert v.feasible
    assert v.centers == (GraphPoint(3, 2.0), GraphPoint(0, 0.0))
    assert not decide(tri, 0.49).feasible
    assert decide(tri, 1.5).feasible


def test_decide_agrees_with_reference_around_the_optimum():
    for seed in range(60):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        star, _ = oracle_solve(inst)
        delta = max(1e-3, 1e-3 * star)
        for lam in (0.5 * star, star - delta, star, star + delta, 2 * star + delta):
            want, _ = oracle_decide(inst, lam)
            assert decide(inst, lam).feasible == want, (seed, lam)


def test_decide_is_monotone_in_the_radius():
    for seed in range(30):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        rng = random.Random(seed)
        lams = sorted(rng.uniform(0.0, 30.0) for _ in range(4))
        seen_feasible = False
        for lam in lams:
            feasible = decide(inst, lam).feasible
            if seen_feasible:
                assert feasible, (seed, lam)
            seen_feasible = seen_feasible or feasible
        assert decide(inst, 1e9).feasible


def test_decide_witnesses_achieve_the_radius():
    for seed in range(40):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        star, _ = oracle_solve(inst)
        for lam in (star, 1.5 * star + 0.1):
            v = decide(inst, lam)
            assert v.feasible
            got = objective(inst, *v.centers)
            assert got <= lam + 1e-6 * max(1.0, lam), (seed, lam, got)


def test_decide_rejects_a_nan_radius():
    inst = draw_case(3)
    with pytest.raises(ValidationError, match="NaN"):
        decide(inst, float("nan"))
    assert decide(inst, float("inf")).feasible


def test_decide_stays_within_its_probe_budget():
    for seed in range(40):
        inst = draw_case(seed)
        star, _ = oracle_solve(inst)
        budget = _probe_budget(inst)
        for lam in (0.5 * star, star, 2.0 * star + 0.1):
            assert decide(inst, lam).probes <= budget, (seed, lam)


def test_single_point_gets_twin_centers():
    for seed in range(20):
        inst = draw_case(seed, max_points=1)
        star, _ = oracle_solve(inst)
        v = decide(inst, star)
        assert v.feasible
        assert v.centers[0] == v.centers[1]


def test_weightless_point_rides_along_for_free():
    g = validate_cactus(["x", "y", "z"], [("x", "y", 1.0), ("y", "z", 1.0)])
    inst = build_instance(
        g,
        [
            UncertainPoint("A", 1.0, (Location(0, 1.0),)),
            UncertainPoint("B", 1.0, (Location(2, 1.0),)),
            UncertainPoint("R", 0.0, (Location(1, 1.0),)),
        ],
    )
    assert decide(inst, 0.0).feasible
    assert not decide(inst, -1.0).feasible
    assert oracle_solve(inst)[0] == 0.0


# ---------------------------------------------------------------------------
# single-center coverage


def test_one_center_on_fixed_instance(tri):
    where, value = one_center(tri)
    assert (where, value) == (GraphPoint(3, 0.5), 1.5)
    assert oracle_one_center(tri) == (where, value)


def test_one_center_with_multipliers(tri):
    def reweighted(weights):
        points = [
            UncertainPoint(p.label, w, p.locations) for p, w in zip(tri.points, weights)
        ]
        return build_instance(tri.graph, points, tri.eps)

    where, value = one_center(reweighted([1.0, 0.0]))
    assert (where, value) == (GraphPoint(0, 0.0), 0.5)
    _, zero_value = one_center(reweighted([0.0, 0.0]))
    assert zero_value == 0.0


def test_one_center_matches_reference_on_random_instances():
    for seed in range(40):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        _, value = one_center(inst)
        _, want = oracle_one_center(inst)
        assert value == pytest.approx(want, abs=1e-9), seed


def test_one_center_and_median_lift_back_on_interior_instances():
    done, seed = 0, 0
    while done < 20:
        seed += 1
        inst = draw_case(seed, max_points=4, edge_locations=True)
        if inst.is_vertex_constrained:
            continue  # this draw landed every location on a vertex
        done += 1
        where, value = one_center(inst)
        _, want = oracle_one_center(inst)
        assert value == pytest.approx(want, rel=1e-6, abs=1e-6), seed
        attained = float(np.max(inst.weights * expected_distances(inst, where)))
        assert abs(attained - value) <= 1e-9 * max(1.0, value), seed
        for k in range(inst.n):
            where, value = median(inst, k)
            _, want = oracle_median(inst, k)
            assert value == pytest.approx(want, rel=1e-6, abs=1e-6), (seed, k)
            attained = expected_distance(inst, k, where)
            assert abs(attained - value) <= 1e-9 * max(1.0, value), (seed, k)


def test_coverage_witness_serves_exactly_when_one_center_can():
    for seed in range(40):
        inst = draw_case(seed, max_vertices=10, max_points=4)
        _, value = one_center(inst)
        everyone = list(range(inst.n))
        for lam in (0.5 * value, value, 1.5 * value + 0.1):
            w = coverage_witness(inst, everyone, lam)
            can = value <= lam + 1e-9 * max(1.0, lam)
            assert (w is not None) == can, (seed, lam)
            if w is not None:
                costs = inst.weights * expected_distances(inst, w)
                assert np.all(costs <= lam + 1e-6 * max(1.0, abs(lam)))


def test_coverage_witness_of_nobody_is_anywhere(tri):
    assert coverage_witness(tri, [], 0.0) is not None
