"""Cactus validation, decomposition, metric queries, and tree search helpers."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import draw_case, tri_graph
from ucactus.errors import (
    InternalInvariantError,
    InvalidPoint,
    NonPositiveEdgeLength,
    NotConnected,
    SharedCycleEdge,
    ValidationError,
)
from ucactus.graph import (
    GraphPoint,
    centroid,
    descend,
    point_distance,
    point_vertex_distances,
    validate_cactus,
)


# ---------------------------------------------------------------------------
# validation


def test_rejects_edge_shared_by_two_cycles():
    with pytest.raises(SharedCycleEdge, match="edge 'b'-'c' lies on two cycles"):
        validate_cactus(
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", 1), ("c", "a", 1), ("b", "d", 1), ("d", "c", 1)],
        )


def test_rejects_disconnected_graph():
    with pytest.raises(NotConnected, match="not connected"):
        validate_cactus(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])


def test_rejects_zero_length_edge():
    with pytest.raises(NonPositiveEdgeLength, match="edge 'a'-'b' has length 0.0"):
        validate_cactus(["a", "b"], [("a", "b", 0.0)])


def test_rejects_parallel_edges():
    with pytest.raises(ValidationError, match="parallel edge 'a'-'b'"):
        validate_cactus(["a", "b"], [("a", "b", 1), ("a", "b", 2)])


def test_rejects_unknown_endpoint():
    with pytest.raises(ValidationError, match="unknown"):
        validate_cactus(["a", "b"], [("a", "z", 1)])


def test_rejects_duplicate_names():
    with pytest.raises(ValidationError, match="duplicate vertex names"):
        validate_cactus(["a", "a"], [("a", "a", 1)])


# ---------------------------------------------------------------------------
# decomposition


def test_triangle_with_pendant_decomposition():
    g = tri_graph()
    tree = g.skeleton
    assert [(n.id, n.kind, n.ref) for n in tree.nodes] == [
        (0, "hinge", 2),
        (1, "vertex", 3),
        (2, "cycle", 0),
    ]
    assert [(l.other, l.length, l.edge) for l in tree.links[0]] == [
        (1, 2.0, 3),
        (2, 0.0, None),
    ]
    assert list(tree.node_of_vertex) == [None, None, 0, 1]
    assert list(tree.node_of_cycle) == [2]
    cyc = g.cycles.cycles[0]
    assert tuple(cyc.vertices) == (0, 1, 2)
    assert cyc.perimeter == 3.0
    assert list(g.cycles.edge_cycle) == [0, 0, 0, None]


def test_skeleton_is_a_tree():
    for seed in range(30):
        g = draw_case(seed).graph
        tree = g.skeleton
        n = len(tree.nodes)
        directed = sum(len(tree.links[i]) for i in range(n))
        assert directed == 2 * (n - 1)
        # every link must be mirrored and the whole thing reachable
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for link in tree.links[u]:
                assert any(back.other == u for back in tree.links[link.other])
                if link.other not in seen:
                    seen.add(link.other)
                    stack.append(link.other)
        assert len(seen) == n


def test_split_components_partition_every_node():
    for seed in range(30):
        g = draw_case(seed).graph
        tree = g.skeleton
        everyone = set(range(len(tree.nodes)))
        for node in everyone:
            comps = tree.split_components(node)
            if len(tree.nodes) == 1:
                assert comps == []
                continue
            pieces = [set(c.nodes) for c in comps]
            gates = {c.gate for c in comps}
            assert set().union(*pieces) | {node} | gates == everyone
            for c in comps:
                assert node not in c.nodes
                if tree.nodes[node].kind != "cycle":
                    assert c.gate == node
                else:
                    assert tree.nodes[c.gate].kind == "hinge"
            for i, a in enumerate(pieces):
                for b in pieces[i + 1 :]:
                    assert not (a & b)


# ---------------------------------------------------------------------------
# metric


def test_fixed_distances_on_triangle_with_pendant():
    g = tri_graph()
    assert point_distance(g, g.vertex_point(0), g.vertex_point(3)) == 3.0
    assert point_distance(g, GraphPoint(0, 0.5), g.vertex_point(2)) == 1.5


def test_distance_wraps_around_a_long_cycle_edge():
    g = validate_cactus(
        ["a", "b", "c"], [("a", "b", 10.0), ("b", "c", 1.0), ("c", "a", 1.0)]
    )
    # going around through c beats staying on the long edge
    assert point_distance(g, GraphPoint(0, 1.0), GraphPoint(0, 9.0)) == 4.0


def test_vertex_distance_matrix_matches_floyd_warshall():
    for seed in range(20):
        g = draw_case(seed).graph
        n = g.vertex_count
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for e in g.edges:
            dist[e.u, e.v] = dist[e.v, e.u] = min(dist[e.u, e.v], e.length)
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        assert np.allclose(g.vertex_distances, dist)


def test_point_distance_is_a_metric_on_samples():
    for seed in range(15):
        g = draw_case(seed).graph
        rng = random.Random(seed)
        pts = [
            GraphPoint(e.id, rng.uniform(0.0, e.length))
            for e in rng.choices(g.edges, k=4)
        ]
        for p in pts:
            assert point_distance(g, p, p) == pytest.approx(0.0, abs=1e-9)
            for q in pts:
                dpq = point_distance(g, p, q)
                assert dpq == pytest.approx(point_distance(g, q, p), abs=1e-9)
                for r in pts:
                    assert dpq <= (
                        point_distance(g, p, r) + point_distance(g, r, q) + 1e-9
                    )


def test_point_vertex_distances_agree_with_pairwise_queries():
    g = tri_graph()
    p = GraphPoint(3, 0.75)
    vec = point_vertex_distances(g, p)
    for v in range(g.vertex_count):
        assert vec[v] == pytest.approx(
            point_distance(g, p, g.vertex_point(v)), abs=1e-12
        )


def test_rejects_points_off_the_graph():
    g = validate_cactus(["x", "y"], [("x", "y", 1.0)])
    with pytest.raises(InvalidPoint, match="no edge 7"):
        point_vertex_distances(g, GraphPoint(7, 0.0))
    with pytest.raises(InvalidPoint, match="offset 5.0 outside edge 0"):
        point_vertex_distances(g, GraphPoint(0, 5.0))


def test_point_on_vertex_detects_endpoints_only():
    g = tri_graph()
    assert g.point_on_vertex(g.vertex_point(2)) == 2
    assert g.point_on_vertex(GraphPoint(0, 0.5)) is None


# ---------------------------------------------------------------------------
# centroid


def test_centroid_of_triangle_skeleton():
    g = tri_graph()
    assert centroid(g.skeleton, frozenset(range(3))) == 0


def test_centroid_of_empty_set_is_rejected():
    g = tri_graph()
    with pytest.raises(ValidationError, match="empty active set"):
        centroid(g.skeleton, frozenset())


def test_centroid_leaves_no_heavy_branch():
    # active sets must induce connected subtrees, so grow them by BFS
    for seed in range(40):
        tree = draw_case(seed).graph.skeleton
        rng = random.Random(seed)
        start = rng.randrange(len(tree.nodes))
        want = rng.randint(1, len(tree.nodes))
        active_list = [start]
        seen = {start}
        i = 0
        while i < len(active_list) and len(active_list) < want:
            for link in tree.links[active_list[i]]:
                if link.other not in seen and len(active_list) < want:
                    seen.add(link.other)
                    active_list.append(link.other)
            i += 1
        active = frozenset(active_list)
        c = centroid(tree, active)
        assert c in active
        remaining = active - {c}
        while remaining:
            comp = {next(iter(remaining))}
            stack = list(comp)
            while stack:
                x = stack.pop()
                for link in tree.links[x]:
                    if link.other in remaining and link.other not in comp:
                        comp.add(link.other)
                        stack.append(link.other)
            assert 2 * len(comp) <= len(active)
            remaining -= comp


# ---------------------------------------------------------------------------
# centroid descent


def _path_tree(n: int):
    """Skeleton of a path of ``n`` vertices; node ``i`` holds vertex ``i``."""
    names = [f"v{i}" for i in range(n)]
    g = validate_cactus(names, [(names[i], names[i + 1], 1.0) for i in range(n - 1)])
    return g.skeleton


def _at_node(node):
    return ("node", node)


def _at_edge(edge):
    return ("edge", edge)


def test_descend_narrowing_toward_a_leaf_ends_at_that_node():
    tree = _path_tree(31)
    probed = []

    def probe(u, active):
        probed.append(u)
        return tree.component_toward(u, 0) & active

    result, probes = descend(tree, frozenset(range(31)), probe, _at_node, _at_edge)
    assert result == ("node", 0)
    assert probes == len(probed) <= math.ceil(math.log2(31))


def test_descend_ends_an_edge_linked_pair_at_the_edge_without_a_probe():
    tree = _path_tree(4)

    def probe(u, active):
        raise AssertionError("an edge-linked pair needs no probe")

    result, probes = descend(tree, frozenset({1, 2}), probe, _at_node, _at_edge)
    assert (result, probes) == (("edge", 1), 0)


def test_descend_probes_the_cycle_side_of_a_hinge_cycle_pair():
    tree = tri_graph().skeleton
    hinge, cycle = tree.node_of_vertex[2], tree.node_of_cycle[0]
    probed = []

    def probe(u, active):
        probed.append(u)
        return "done"

    result, probes = descend(
        tree, frozenset({hinge, cycle}), probe, _at_node, _at_edge
    )
    assert (result, probes, probed) == ("done", 1, [cycle])


def test_descend_that_never_narrows_hits_the_probe_budget():
    tree = _path_tree(31)
    probed = []

    def probe(u, active):
        probed.append(u)
        return active

    with pytest.raises(InternalInvariantError, match="probe budget"):
        descend(tree, frozenset(range(31)), probe, _at_node, _at_edge)
    assert len(probed) == 2 * math.ceil(math.log2(31)) + 17
