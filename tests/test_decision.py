"""Feasibility probes, terminal cases, and the two-center decision driver."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import references as refs
from conftest import draw_case, draw_many_cycles, square_instance, tri_instance
from ucactus import decision
from ucactus.decision import (
    CENTER_AT,
    CYCLE_AND_BEYOND,
    DESCEND,
    DESCEND_TWO,
    Verdict,
    _cycle_arcs,
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
from ucactus.plf import cycle_profiles, intersect_families, profile_at, stab_one
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Location,
    UncertainPoint,
    build_instance,
    component_mass,
    component_sums,
    expected_distance,
    expected_distances,
    group_eccentricity,
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
    n_nodes = max(2, len(inst.graph.skeleton))
    return 2 * (2 * math.ceil(math.log2(n_nodes)) + 4)


# ---------------------------------------------------------------------------
# probes at a fixed articulation and cycle


def _classify_loop(inst, cs):
    """The majority classification one point at a time."""
    exclusive = [[] for _ in cs.gate]
    local, split = [], []
    for k in range(inst.n):
        if inst.weights[k] <= 0.0:
            continue
        heavy = [i for i in range(len(cs.gate)) if cs.sums[i, k] >= 0.5 - inst.eps]
        if not heavy:
            local.append(k)
        elif len(heavy) == 1:
            exclusive[heavy[0]].append(k)
        else:
            split.append(k)
    return exclusive, local, split


def _splits():
    """Every node of 60 reduced draws with its component sums; every third
    draw has a weightless point."""
    for seed in range(60):
        inst = reduce_instance(draw_case(seed, max_points=8, edge_locations=seed % 2 == 1)).reduced
        if seed % 3 == 0:
            p = inst.points[0]
            points = (UncertainPoint(p.label, 0.0, p.locations),) + inst.points[1:]
            inst = build_instance(inst.graph, points, inst.eps)
        for node in range(len(inst.graph.skeleton)):
            yield inst, node, component_sums(inst, node)


def test_classification_equals_the_point_loop_at_every_node():
    buckets = set()
    for inst, _, cs in _splits():
        got = decision._classify(inst, cs)
        want = _classify_loop(inst, cs)
        c = len(cs.gate)
        exclusive = [np.flatnonzero(got == i).tolist() for i in range(c)]
        local, split = np.flatnonzero(got == c).tolist(), np.flatnonzero(got == c + 1).tolist()
        assert (exclusive, local, split) == want
        # a weightless point lands in no bucket
        assert np.array_equal(got == -1, inst.weights <= 0.0)
        buckets.update(i for i, b in enumerate(want) if any(b))
    assert buckets == {0, 1, 2}


def test_grouped_eccentricity_equals_the_group_loop_at_every_node():
    """One pass over every group equals one reference call per group, with
    every group at one vertex, and with each component's group at its own
    gate (the local and split groups then left out)."""
    ties = empty = 0
    for inst, node, cs in _splits():
        group = decision._classify(inst, cs)
        tree, c = inst.graph.skeleton, len(cs.gate)
        one_vertex = np.full(c + 2, node % inst.graph.vertex_count)
        for where in (one_vertex, tree.ref[cs.gate]):
            value, worst = group_eccentricity(inst, group, where)
            want = [
                refs.group_eccentricity(inst, np.flatnonzero(group == g), v)
                for g, v in enumerate(where.tolist())
            ]
            assert value.tolist() == [-math.inf if k is None else val for val, k in want]
            assert worst.tolist() == [-1 if k is None else k for _, k in want]
            for g, (val, k) in enumerate(want):
                members = np.flatnonzero(group == g)
                vals = inst.weights[members] * inst.ed_at_vertices[where[g], members]
                ties += int(np.count_nonzero(vals == val) > 1)
                empty += k is None
    # ties are settled for the first point, and empty groups come up
    assert ties > 0 and empty > 0


def test_articulation_probe_outcomes_across_radii(tri):
    tight = probe_articulation(tri, 0, 0.4)
    assert tight.kind == DESCEND_TWO
    assert (tight.primary, tight.secondary) == (1, 2)
    pinned = probe_articulation(tri, 0, 2.0)
    assert (pinned.kind, pinned.primary) == (CENTER_AT, 0)
    wide = probe_articulation(tri, 0, 3.0)
    assert (wide.kind, wide.primary) == (CENTER_AT, 0)


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


def _rescan_two_cycles(inst, node1, node2, lam):
    """The two-cycle terminal as an atom-by-atom rescan of the second
    cycle: points with their majority mass beyond it reach it through its
    gateway hinge, so per atomic arc the first center slides as close to
    its own gateway as the points left to it allow."""
    tree = inst.graph.skeleton
    g = inst.graph
    cycles = refs.rings(g.cycles)
    cyc1, cyc2 = cycles[tree.ref[node1]], cycles[tree.ref[node2]]
    tol = inst.eps * max(1.0, abs(lam))

    h1 = tree.step_toward(node1, node2)
    h2 = tree.step_toward(node2, node1)
    toward1 = component_mass(inst, h2, node1) + inst.node_mass[h2]
    far = toward1 >= 0.5 - inst.eps

    arcs2 = refs.families(_cycle_arcs(inst, cyc2.id, lam))
    h2_coord = cyc2.pos[cyc2.vertices.index(tree.ref[h2])]
    reach2 = far & (
        inst.weights * inst.ed_at_vertices[tree.ref[h2]] <= lam + tol
    )

    ends = {0.0, cyc2.perimeter, h2_coord}
    for k in np.flatnonzero(far):
        for a, b in arcs2[k]:
            ends.update((a, b))
    ends_sorted = sorted(ends)
    atoms = [(x, x) for x in ends_sorted]
    atoms += list(zip(ends_sorted, ends_sorted[1:]))

    arcs1 = refs.families(_cycle_arcs(inst, cyc1.id, lam))
    h1_coord = cyc1.pos[cyc1.vertices.index(tree.ref[h1])]
    need_cache = set()
    xs_cand = []
    for a, b in atoms:
        need = [
            int(k)
            for k in np.flatnonzero(far)
            if not (reach2[k] and _arc_contains(arcs2[k], a, b))
        ]
        key = frozenset(need)
        if key in need_cache:
            continue
        need_cache.add(key)
        if any(not arcs1[k] for k in need):
            continue
        region = (
            refs.families(intersect_families(refs.table([arcs1[k] for k in need])))[0]
            if need
            else [(0.0, cyc1.perimeter)]
        )
        if not region:
            continue
        xs_cand.extend(_closest_in_region(region, h1_coord, cyc1.perimeter))

    xs1, ys1 = cycle_profiles(inst, cyc1.id)
    seen = set()
    for x in xs_cand:
        if x in seen:
            continue
        seen.add(x)
        p1 = cyc1.coord_point(g, x)
        vals = inst.weights * refs.interp_rows(xs1, ys1, x)
        rest = np.flatnonzero(vals > lam + 2.0 * tol)
        if rest.size == 0:
            return Verdict(True, (p1, p1))
        if any(not arcs2[k] for k in rest):
            continue
        q = stab_one(refs.table([arcs2[k] for k in rest]))
        if q is not None:
            return Verdict(True, (p1, cyc2.coord_point(g, q)))
    return Verdict(False)


def _arc_contains(arcs, a, b, slack=1e-12):
    return any(lo - slack <= a and b <= hi + slack for lo, hi in arcs)


def _closest_in_region(region, origin, perim):
    """Positions of the region nearest to ``origin`` going each way around."""
    best_cw = best_ccw = None
    for lo, hi in region:
        if lo - 1e-12 <= origin <= hi + 1e-12:
            return [origin]
        for x in (lo, hi):
            cw = (x - origin) % perim
            ccw = (origin - x) % perim
            if best_cw is None or cw < best_cw[0]:
                best_cw = (cw, x)
            if best_ccw is None or ccw < best_ccw[0]:
                best_ccw = (ccw, x)
    out = []
    if best_cw:
        out.append(best_cw[1])
    if best_ccw and (not best_cw or best_ccw[1] != best_cw[1]):
        out.append(best_ccw[1])
    return out


def test_two_cycle_terminal_matches_the_rescan(monkeypatch):
    calls = []
    terminal = decision.decide_on_two_cycles

    def both(inst, node1, node2, lam):
        got = terminal(inst, node1, node2, lam)
        want = _rescan_two_cycles(inst, node1, node2, lam)
        assert got.feasible == want.feasible, lam
        if got.feasible:
            tol = inst.eps * max(1.0, abs(lam))
            assert objective(inst, *got.centers) <= lam + 2.0 * tol, lam
        calls.append(id(inst))
        return got

    monkeypatch.setattr(decision, "decide_on_two_cycles", both)
    draws = [draw_many_cycles(seed) for seed in range(150)]
    for seed in range(12):
        draws.append(
            random_instance(
                seed, n_vertices=50, n_cycles=8, n_points=6, edge_locations=seed % 2 == 1
            )
        )
    reached = 0
    for inst in draws:
        before = len(calls)
        star = solve(inst).value
        for lam in (0.5 * star, 0.9 * star, star, 1.1 * star):
            decide(inst, lam)
        reached += len(calls) > before
    # 68 of the 162 draws reach the terminal, in 301 calls
    assert reached >= 60
    assert len(calls) >= 250


def test_cycle_matrix_rows_price_positions_like_expected_distances():
    # the cycle terminal prices an on-cycle center by reading the cycle's
    # profile matrix at arc ends, in place of measuring from the position
    cycles = 0
    for seed in range(40):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        if not inst.is_vertex_constrained:
            inst = reduce_instance(inst).reduced
        g = inst.graph
        rng = random.Random(seed)
        for cyc in refs.rings(g.cycles):
            cycles += 1
            xs, ys = cycle_profiles(inst, cyc.id)
            lam = rng.uniform(0.0, float((ys * inst.weights).max()))
            _, lo, hi = _cycle_arcs(inst, cyc.id, lam)
            ends = [*lo.tolist(), *hi.tolist()]
            for x in [*xs.tolist(), *ends, rng.uniform(0.0, cyc.perimeter)]:
                want = expected_distances(inst, cyc.coord_point(g, x))
                err = np.abs(profile_at(xs, ys, [x])[0] - want)
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


@pytest.mark.parametrize("lam", [-math.inf, -1.0])
def test_decide_rejects_a_negative_radius_as_the_oracle_does(lam):
    weightless = build_instance(
        validate_cactus(["x", "y"], [("x", "y", 1.0)]),
        [UncertainPoint("R", 0.0, (Location(0, 1.0),))],
    )
    cases = [draw_case(seed, edge_locations=seed % 2 == 1) for seed in range(20)]
    for inst in [weightless, *cases]:
        assert oracle_decide(inst, lam) == (False, None)
        assert decide(inst, lam) == Verdict(False)


def test_decide_stays_within_its_probe_budget():
    for seed in range(40):
        inst = draw_case(seed)
        star, _ = oracle_solve(inst)
        budget = _probe_budget(inst)
        for lam in (0.5 * star, star, 2.0 * star + 0.1):
            assert decide(inst, lam).probes <= budget, (seed, lam)


@pytest.mark.parametrize(
    "seed, size, fractions",
    [
        (4021105733, dict(n_vertices=27, n_cycles=4, n_points=7, n_locations=3), (0.95,)),
        (2744684735, dict(n_vertices=38, n_cycles=8, n_points=5, n_locations=1), (0.5, 0.8)),
    ],
)
def test_two_way_split_with_no_eligible_direction_is_infeasible(
    monkeypatch, seed, size, fractions
):
    # both directions of a two-way split lie outside the part still searched
    # or in the other center's territory; the reduced instances have 16 and
    # 7 vertices, within the oracle's reach
    picked = []
    pick = decision._pick_direction

    def spy(*args):
        picked.append(pick(*args))
        return picked[-1]

    monkeypatch.setattr(decision, "_pick_direction", spy)
    inst = random_instance(seed, **size)
    star = solve(inst).value
    reduced = reduce_instance(inst).reduced
    for fraction in fractions:
        picked.clear()
        lam = fraction * star
        verdict = decide(inst, lam)
        assert picked[-1] is None, fraction
        assert not verdict.feasible and verdict.centers is None
        assert verdict.feasible == oracle_decide(reduced, lam)[0]


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


def _with_flat_and_free_points(inst, rng):
    """The draw plus a weightless point and a point split half and half
    between two vertices, whose profile is flat along every bridge between
    them."""
    a, b = rng.sample(range(inst.graph.vertex_count), 2)
    extra = [
        UncertainPoint("free", 0.0, (Location(a, 1.0),)),
        UncertainPoint(
            "flat", rng.choice([0.5, 1.0, 2.0]), (Location(a, 0.5), Location(b, 0.5))
        ),
    ]
    return build_instance(inst.graph, [*inst.points, *extra], inst.eps)


def test_coverage_witness_equals_the_edge_by_edge_reference():
    found = missed = flat = 0
    for seed in range(150):
        rng = random.Random(seed)
        inst = _with_flat_and_free_points(draw_case(seed), rng)
        g, w = inst.graph, inst.weights
        edv = inst.ed_at_vertices
        flat += int(np.sum(edv[g.u[g.bridges], -1] == edv[g.v[g.bridges], -1]))
        # every weighted value at a vertex or cycle breakpoint
        ends = [inst.ed_at_vertices] + [
            cycle_profiles(inst, c)[1] for c in range(len(g.cycles))
        ]
        ends = np.concatenate([(y * w).ravel() for y in ends]).tolist()
        for _ in range(6):
            subset = sorted(rng.sample(range(inst.n), rng.randint(1, inst.n)))
            lams = [-1.0, -0.5 * inst.eps, rng.uniform(0.0, max(ends))]
            lams += rng.sample(ends, 3)
            for lam in lams:
                got = coverage_witness(inst, subset, lam)
                want = refs.coverage_witness(inst, subset, lam)
                assert (got is None) == (want is None), (seed, subset, lam)
                if got is None:
                    missed += 1
                    continue
                found += 1
                # a cut sits on lam + tol, and pricing it again may land an
                # ulp above: the terminals' double slack
                tol = inst.eps * max(1.0, abs(lam))
                costs = w[subset] * expected_distances(inst, got)[subset]
                assert np.all(costs <= lam + 2.0 * tol), (seed, subset, lam)
    # 2306 witnesses, 3094 misses, 164 flat bridge cells
    assert found >= 2000 and missed >= 2500 and flat >= 150, (found, missed, flat)


def test_edge_terminal_equals_the_point_loop(monkeypatch):
    calls = []
    terminal = decision.decide_on_edge

    def both(inst, edge, lam):
        got = terminal(inst, edge, lam)
        want = refs.decide_on_edge(inst, edge, lam)
        assert got.feasible == want.feasible, (edge, lam)
        calls.append(got.feasible)
        return got

    monkeypatch.setattr(decision, "decide_on_edge", both)
    for seed in range(150):
        inst = draw_case(seed, max_cycles=1, edge_locations=seed % 2 == 1)
        star = solve(inst).value
        for lam in (0.5 * star, 0.9 * star, star, 1.1 * star, 2.0 * star):
            decide(inst, lam)
    # 474 calls, 318 of them feasible
    assert len(calls) >= 400 and 250 <= sum(calls) <= len(calls) - 100


def test_one_center_equals_the_bridge_and_cycle_loops():
    lifted = 0
    for seed in range(80):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        if inst.is_vertex_constrained:
            want = refs.one_center(inst)
        else:
            red = reduce_instance(inst)
            where, value = refs.one_center(red.reduced)
            want = (red.lift_point(where), value)
            lifted += 1
        assert one_center(inst) == want, seed
    assert lifted >= 20


def test_cycle_terminal_equals_the_candidate_loop(monkeypatch):
    # the one second-center search against the loop it replaced, on the
    # acceptance sweep's draws and radius ladder: the same verdicts and
    # centers, with coverage_witness asked as often (once per residual)
    asked = []
    witness = decision.coverage_witness
    monkeypatch.setattr(
        decision, "coverage_witness", lambda *a: asked.append(a) or witness(*a)
    )
    calls = []
    terminal = decision.decide_on_cycle

    def both(inst, node, lam):
        start = len(asked)
        got = terminal(inst, node, lam)
        mid = len(asked)
        want = refs.decide_on_cycle(inst, node, lam)
        assert got == want, (node, lam)
        assert mid - start == len(asked) - mid, (node, lam)
        calls.append(mid - start)
        return got

    monkeypatch.setattr(decision, "decide_on_cycle", both)
    for seed in range(500):
        inst = draw_case(seed, max_vertices=12, max_cycles=3, max_points=5, max_locations=3)
        star = solve(inst).value
        delta = max(1e-3, 1e-3 * star)
        for lam in (0.5 * star, star - delta, star, star + delta, 2.0 * star):
            decide(inst, lam)
    # 1220 terminal calls, 342 of them asking 942 residuals in all
    assert len(calls) >= 1000 and sum(calls) >= 800, (len(calls), sum(calls))
