"""Instance construction, expected distances, mass bookkeeping, and medians."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import draw_case, square_instance, tri_graph, tri_instance
from ucactus.errors import ValidationError
from ucactus.graph import GraphPoint, point_distance, validate_cactus
from ucactus.plf import cycle_profiles
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Location,
    UncertainPoint,
    build_instance,
    component_sums,
    expected_distance,
    expected_distances,
    group_eccentricity,
    location_point,
    median,
    median_values,
    objective,
)


def _two_vertex_graph():
    return validate_cactus(["x", "y"], [("x", "y", 1.0)])


# ---------------------------------------------------------------------------
# validation


def test_rejects_negative_weight():
    with pytest.raises(ValidationError, match="negative weight"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", -1.0, (Location(0, 1.0),))]
        )


def test_accepts_zero_weight():
    inst = build_instance(
        _two_vertex_graph(), [UncertainPoint("P", 0.0, (Location(0, 1.0),))]
    )
    assert inst.n == 1


def test_rejects_probabilities_not_summing_to_one():
    with pytest.raises(ValidationError, match="probabilities sum to 0.5"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(0, 0.5),))]
        )


def test_rejects_negative_probability():
    with pytest.raises(ValidationError, match="probability -0.25"):
        build_instance(
            _two_vertex_graph(),
            [UncertainPoint("P", 1.0, (Location(0, -0.25), Location(1, 1.25)))],
        )


def test_rejects_unknown_location_vertex():
    with pytest.raises(ValidationError, match="no vertex 5"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(5, 1.0),))]
        )


@pytest.mark.parametrize(
    "place, message",
    [(GraphPoint(3, 0.5), "no edge 3"), (GraphPoint(0, 2.0), "offset 2.0 outside")],
)
def test_rejects_an_interior_location_off_its_edge(place, message):
    with pytest.raises(ValidationError, match=message):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(place, 1.0),))]
        )


def test_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="duplicate point label 'P'"):
        build_instance(
            _two_vertex_graph(),
            [
                UncertainPoint("P", 1.0, (Location(0, 1.0),)),
                UncertainPoint("P", 1.0, (Location(1, 1.0),)),
            ],
        )


def test_rejects_empty_point_list():
    with pytest.raises(ValidationError, match="at least one uncertain point"):
        build_instance(_two_vertex_graph(), [])


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.inf, math.nan])
def test_rejects_an_eps_that_is_not_finite_and_positive(eps):
    with pytest.raises(ValidationError, match="eps must be finite and positive"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(0, 1.0),))], eps
        )


# ---------------------------------------------------------------------------
# expected distance and the two-center objective


def test_expected_distance_on_fixed_instance():
    inst = tri_instance()
    g = inst.graph
    assert expected_distance(inst, 0, g.vertex_point(2)) == pytest.approx(1.0)
    assert expected_distance(inst, 0, GraphPoint(0, 0.5)) == pytest.approx(0.5)
    assert expected_distance(inst, 1, g.vertex_point(3)) == 0.0


def test_expected_distances_match_single_queries():
    for seed in range(10):
        inst = draw_case(seed, edge_locations=True)
        rng = random.Random(seed)
        e = rng.choice(inst.graph.edges)
        q = GraphPoint(e.id, rng.uniform(0.0, e.length))
        vec = expected_distances(inst, q)
        for k in range(inst.n):
            assert vec[k] == pytest.approx(expected_distance(inst, k, q), abs=1e-9)


def _matrix_distance(g, p, q):
    """Reference: the distance between two points read off the all-pairs
    vertex matrix."""
    dist = g.vertex_distances
    ep, eq = g.edges[p.edge], g.edges[q.edge]
    if p.edge == q.edge:
        around = dist[ep.u, ep.v] + min(
            p.t + (ep.length - q.t), (ep.length - p.t) + q.t
        )
        return min(abs(p.t - q.t), around)
    du = np.minimum(p.t + dist[ep.u], (ep.length - p.t) + dist[ep.v])
    return min(q.t + du[eq.u], (eq.length - q.t) + du[eq.v])


def test_interior_expected_distances_match_the_matrix_formula():
    kinds = set()
    for seed in range(30):
        inst = draw_case(seed, edge_locations=True)
        kinds.add(inst.is_vertex_constrained)
        g = inst.graph
        queries = [g.vertex_point(v) for v in range(g.vertex_count)]
        queries += [GraphPoint(e.id, 0.37 * e.length) for e in g.edges]
        for p in inst.points:
            for loc in p.locations:
                if not loc.is_vertex:  # the location itself and its own edge
                    at = loc.place
                    queries += [at, GraphPoint(at.edge, 0.5 * at.t)]
        for q in queries:
            vec = expected_distances(inst, q)
            for k, p in enumerate(inst.points):
                want = 0.0
                for loc in p.locations:
                    here = location_point(g, loc)
                    d = _matrix_distance(g, here, q)
                    assert abs(point_distance(g, here, q) - d) <= 1e-9 * max(1.0, d)
                    want += loc.prob * d
                tol = 1e-9 * max(1.0, want)
                assert abs(vec[k] - want) <= tol, (seed, q, k)
                assert abs(expected_distance(inst, k, q) - want) <= tol, (seed, q, k)
    assert kinds == {False, True}


def _mass_on_every_vertex(names, spec, seed):
    """Three points with random masses on every vertex of the cactus, whose
    edge lengths are not dyadic, so rerooting rounds unlike the matrix."""
    rng = random.Random(seed)
    g = validate_cactus(names, spec)
    points = []
    for k in range(3):
        raw = [rng.random() for _ in names]
        locs = tuple(Location(v, r / sum(raw)) for v, r in enumerate(raw))
        points.append(UncertainPoint(f"P{k}", 1.0, locs))
    return build_instance(g, points)


def _rescaled(inst, seed):
    rng = random.Random(seed)
    g = inst.graph
    spec = [
        (g.names[e.u], g.names[e.v], e.length * rng.uniform(0.3, 1.7))
        for e in g.edges
    ]
    return build_instance(validate_cactus(g.names, spec), inst.points)


def _rerooting_cases():
    """Vertex-constrained instances: plain draws and the same draws with
    non-dyadic lengths, the reductions of draws with edge-interior locations
    (whose zero-probability padding leaves vertices without mass), a lone
    cycle (the skeleton root is its cycle node), a path, a hinge on two
    cycles at the root, two cycles joined by a hinge-to-hinge bridge, and a
    single vertex."""
    cases = [draw_case(seed) for seed in range(30)]
    cases += [_rescaled(draw_case(seed), seed) for seed in range(30)]
    cases += [
        reduce_instance(draw_case(seed, edge_locations=True)).reduced
        for seed in range(30)
    ]
    names = list("abcdefg")
    cases.append(_mass_on_every_vertex(
        names[:5],
        [("a", "b", 1.3), ("b", "c", 0.7), ("c", "d", 2.9), ("d", "e", 1.1),
         ("e", "a", 0.45)],
        1,
    ))
    cases.append(_mass_on_every_vertex(
        names[:5],
        [("a", "b", 0.3), ("b", "c", 1.7), ("c", "d", 2.2), ("d", "e", 0.9)],
        2,
    ))
    cases.append(_mass_on_every_vertex(
        names[:5],
        [("a", "b", 0.3), ("b", "c", 1.1), ("c", "a", 0.7), ("a", "d", 2.3),
         ("d", "e", 0.6), ("e", "a", 1.9)],
        3,
    ))
    cases.append(_mass_on_every_vertex(
        names,
        [("a", "b", 0.3), ("b", "c", 1.1), ("c", "a", 0.7), ("c", "d", 2.3),
         ("d", "e", 0.6), ("e", "f", 1.9), ("f", "g", 0.35), ("g", "d", 1.25)],
        4,
    ))
    solo = build_instance(
        validate_cactus(["solo"], []), [UncertainPoint("P", 1.0, (Location(0, 1.0),))]
    )
    return cases + [solo]


def test_rerooted_ed_matches_the_reference_matrix():
    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    roots, hinge_bridges, paths = set(), 0, 0
    for inst in _rerooting_cases():
        g = inst.graph
        tree = g.skeleton
        roots.add(tree.nodes[tree.order[0]].kind)
        hinge_bridges += any(
            tree.nodes[x].kind == tree.nodes[link.other].kind == "hinge"
            for x in range(len(tree))
            for link in tree.links[x]
        )
        paths += bool(g.edges) and not g.cycles.cycles
        dist, mass = g.vertex_distances, inst.vertex_mass
        assert close(inst.ed_at_vertices, dist @ mass)
        for cyc in g.cycles.cycles:
            xs, ys = cycle_profiles(inst, cyc.id)
            for x, row in zip(xs, ys):
                p = cyc.coord_point(g, x)
                e = g.edges[p.edge]
                d = np.minimum(p.t + dist[e.u], (e.length - p.t) + dist[e.v])
                assert close(row, d @ mass)
    assert roots == {"vertex", "hinge", "cycle"}
    assert hinge_bridges >= 1 and paths >= 1


def test_objective_takes_the_better_center_per_point():
    inst = tri_instance()
    assert objective(inst, GraphPoint(0, 0.0), GraphPoint(3, 2.0)) == pytest.approx(0.5)


def test_ed_at_vertices_on_pendant_edge():
    inst = tri_instance()
    e = inst.graph.edges[3]
    assert list(inst.ed_at_vertices[[e.u, e.v], 1]) == [2.0, 0.0]


def test_ed_at_vertices_interpolate_expected_distance_along_bridges():
    # expected distance is affine along an out-of-cycle edge, so the two
    # endpoint rows give it everywhere on the edge
    for seed in range(10):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        bridges = [e for e in g.edges if g.cycles.edge_cycle[e.id] is None]
        for e in rng.choices(bridges, k=2) if bridges else []:
            k = rng.randrange(inst.n)
            ends = inst.ed_at_vertices[[e.u, e.v], k]
            for _ in range(5):
                t = rng.uniform(0.0, e.length)
                want = expected_distance(inst, k, GraphPoint(e.id, t))
                got = np.interp(t, [0.0, e.length], ends)
                assert got == pytest.approx(want, abs=1e-9)


def test_expected_distance_is_affine_along_bridge_edges():
    for seed in range(15):
        inst = draw_case(seed)
        g = inst.graph
        bridges = [e for e in g.edges if g.cycles.edge_cycle[e.id] is None]
        rng = random.Random(seed)
        for e in rng.choices(bridges, k=3) if bridges else []:
            at_u = expected_distances(inst, g.vertex_point(e.u))
            at_v = expected_distances(inst, g.vertex_point(e.v))
            t = rng.uniform(0.0, e.length)
            frac = t / e.length
            want = (1.0 - frac) * at_u + frac * at_v
            got = expected_distances(inst, GraphPoint(e.id, t))
            assert np.allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# mass split at a skeleton node


def test_component_sums_on_fixed_instance():
    inst = tri_instance()
    cs = component_sums(inst, 0)
    tree = inst.graph.skeleton
    assert [
        (c.gate, c.first, set(tree.component_toward(c.gate, c.first)))
        for c in cs.comps
    ] == [
        (0, 1, {1}),
        (0, 2, {2}),
    ]
    assert [list(s) for s in cs.sums] == [[0.0, 1.0], [1.0, 0.0]]
    assert list(_removed_mass(inst, 0)) == [0.0, 0.0]


def _removed_mass(inst, node):
    """Mass per point held by the structure a split at ``node`` removes: the
    node itself and, for a cycle node, its hinges."""
    tree = inst.graph.skeleton
    held = inst.node_mass[node].copy()
    if tree.nodes[node].kind == "cycle":
        for h in tree.hinge_nodes(node):
            held += inst.node_mass[h]
    return held


def test_component_sums_account_for_all_mass():
    for seed in range(15):
        inst = draw_case(seed)
        for node in range(len(inst.graph.skeleton.nodes)):
            cs = component_sums(inst, node)
            total = _removed_mass(inst, node)
            for s in cs.sums:
                total = total + np.asarray(s, dtype=float)
            assert np.allclose(total, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# medians


def test_median_on_fixed_instance():
    inst = tri_instance()
    where0, val0 = median(inst, 0)
    assert (where0, val0) == (GraphPoint(0, 0.0), 0.5)
    where1, val1 = median(inst, 1)
    assert (where1, val1) == (GraphPoint(3, 2.0), 0.0)
    assert list(median_values(inst)) == [0.5, 0.0]


def test_median_of_flat_profile_still_achieves_its_value():
    # equal mass on opposite corners of a unit square: every ring position
    # has expected distance exactly 1
    g = square_instance().graph
    inst = build_instance(
        g, [UncertainPoint("P", 1.0, (Location(0, 0.5), Location(2, 0.5)))]
    )
    where, val = median(inst, 0)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert expected_distance(inst, 0, where) == pytest.approx(val, abs=1e-9)


def test_median_is_no_worse_than_sampled_positions():
    for seed in range(10):
        inst = draw_case(seed)
        vals = median_values(inst)
        rng = random.Random(seed)
        for _ in range(20):
            e = rng.choice(inst.graph.edges)
            q = GraphPoint(e.id, rng.uniform(0.0, e.length))
            ed = expected_distances(inst, q)
            assert np.all(vals <= ed + 1e-9)


# ---------------------------------------------------------------------------
# group eccentricity


def test_group_eccentricity_on_fixed_instance():
    inst = tri_instance()
    assert group_eccentricity(inst, [0, 1], 2) == (2.0, 1)
    assert group_eccentricity(inst, [], 2) == (0.0, None)


def test_group_eccentricity_accepts_interior_points():
    # P1 is two units from the pendant midpoint, P2 only one
    inst = tri_instance()
    val, worst = group_eccentricity(inst, [0, 1], GraphPoint(3, 1.0))
    assert val == pytest.approx(2.0)
    assert worst == 0


# ---------------------------------------------------------------------------
# odds and ends


def test_location_point_places_vertex_and_interior_locations():
    g = tri_graph()
    assert location_point(g, Location(3, 1.0)) == g.vertex_point(3)
    p = GraphPoint(3, 0.25)
    assert location_point(g, Location(p, 1.0)) == p


def test_vertex_constrained_flag():
    assert tri_instance().is_vertex_constrained
    inst = draw_case(3, edge_locations=True)
    assert not inst.is_vertex_constrained


def test_node_mass_distributes_each_points_probability():
    for seed in range(10):
        inst = draw_case(seed)
        assert np.allclose(inst.node_mass.sum(axis=0), 1.0, atol=1e-9)


def test_mass_matrices_match_the_location_loops():
    """Both matrices equal, bit for bit, the loops that add every location,
    and every vertex of a node, one at a time."""
    # probabilities in tenths make the sums depend on their order
    cases = [
        draw_case(seed, max_vertices=16, max_locations=10, prob_denominator=10)
        for seed in range(40)
    ]
    cases += [
        reduce_instance(
            draw_case(seed, edge_locations=True, prob_denominator=10)
        ).reduced
        for seed in range(40)
    ]
    # several locations on one vertex: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    shared = (Location(0, 0.1), Location(0, 0.2), Location(0, 0.3), Location(1, 0.4))
    cases.append(
        build_instance(_two_vertex_graph(), [UncertainPoint("P", 1.0, shared)])
    )
    for inst in cases:
        want = np.zeros((inst.graph.vertex_count, inst.n))
        for k, p in enumerate(inst.points):
            for loc in p.locations:
                want[loc.place, k] += loc.prob
        assert np.array_equal(inst.vertex_mass, want)
        tree = inst.graph.skeleton
        want = np.zeros((len(tree), inst.n))
        for node in range(len(tree)):
            for v in tree.node_vertices[node]:
                want[node] += inst.vertex_mass[v]
        assert np.array_equal(inst.node_mass, want)


def test_vertex_mass_requires_vertex_constrained_input():
    inst = draw_case(3, edge_locations=True)
    with pytest.raises(ValidationError, match="edge-interior locations"):
        inst.vertex_mass
