"""Cactus validation, decomposition, metric queries, and tree search helpers."""

from __future__ import annotations

import gc
import math
import random
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_case, edge_rows, gen, tri_graph
from ucactus.io import parse_instance, random_instance
from ucactus.errors import (
    InternalInvariantError,
    InvalidPoint,
    NonPositiveEdgeLength,
    NotConnected,
    SharedCycleEdge,
    ValidationError,
)
import references as refs
from ucactus.graph import (
    _POS_EPS,
    CYCLE,
    HINGE,
    VERTEX,
    CactusGraph,
    CycleDecomposition,
    GraphPoint,
    _decompose,
    centroid,
    descend,
    half_edge_index,
    pair_key,
    stable_order,
    validate_cactus,
)
from ucactus.reduction import reduce_instance
from ucactus.uncertain import component_mass


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


@pytest.mark.parametrize(
    "first, error, message",
    [
        ("a", SharedCycleEdge, "edge 'b'-'c' lies on two cycles"),
        ("x", NotConnected, "graph is not connected"),
    ],
)
def test_disconnected_non_cactus_fails_on_what_the_walk_meets_first(
    first, error, message
):
    # one DFS from the first vertex checks both: a shared cycle edge in its
    # component stops the walk, one elsewhere leaves vertices unreached
    names = ["a", "b", "c", "d", "x", "y"]
    names.remove(first)
    spec = [("a", "b", 1), ("b", "c", 1), ("c", "a", 1), ("b", "d", 1), ("d", "c", 1)]
    with pytest.raises(error, match=message):
        validate_cactus([first, *names], spec + [("x", "y", 1)])


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


def reference_edge_checks(names, edge_spec) -> None:
    """The per-edge loop that the vectorised checks of ``validate_cactus``
    replaced: it raises on the first faulty edge, each edge's checks in the
    order unknown endpoint, self-loop, non-finite length, non-positive
    length, parallel pair."""
    index = {name: i for i, name in enumerate(names)}
    seen_pairs: set[tuple[int, int]] = set()
    for u_name, v_name, length in edge_spec:
        if u_name not in index or v_name not in index:
            raise ValidationError(f"edge endpoint {u_name!r} or {v_name!r} unknown")
        u, v = index[u_name], index[v_name]
        if u == v:
            raise ValidationError(f"self-loop at {u_name!r}")
        if not math.isfinite(length):
            raise ValidationError(f"edge {u_name!r}-{v_name!r} has non-finite length {length}")
        if length <= 0:
            raise NonPositiveEdgeLength(f"edge {u_name!r}-{v_name!r} has length {length}")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ValidationError(f"parallel edge {u_name!r}-{v_name!r}")
        seen_pairs.add(pair)


_FAULTS = ("unknown", "self-loop", "nan", "inf", "-inf", "non-positive", "parallel")


@st.composite
def one_fault_specs(draw):
    """Vertex names and the edges of a random tree with exactly one faulty
    edge, at a random position."""
    n = draw(st.integers(2, 12))
    names = [f"v{i}" for i in range(n)]
    lengths = st.floats(0.1, 10.0) | st.integers(1, 9)
    spec = [
        (names[draw(st.integers(0, i - 1))], names[i], draw(lengths)) for i in range(1, n)
    ]
    spec = draw(st.permutations(spec))
    fault = draw(st.sampled_from(_FAULTS))
    at = draw(st.integers(0, len(spec) - 1))
    u, v, length = spec[at]
    if fault == "parallel":
        # the copy may land before or after the edge it repeats
        pos = draw(st.integers(0, len(spec)))
        copy = draw(st.sampled_from([(u, v), (v, u)]))
        spec.insert(pos, (*copy, draw(lengths)))
        return names, spec
    if fault == "unknown":
        if draw(st.booleans()):
            u = "zz"
        else:
            v = "zz"
    elif fault == "self-loop":
        v = u
    elif fault == "non-positive":
        length = draw(st.floats(max_value=0.0, allow_nan=False) | st.integers(-9, 0))
    else:
        length = float(fault)
    spec[at] = (u, v, length)
    return names, spec


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(one_fault_specs())
def test_vectorised_checks_raise_as_the_per_edge_loop(case):
    names, spec = case
    with pytest.raises(ValidationError) as want:
        reference_edge_checks(names, spec)
    with pytest.raises(ValidationError) as got:
        validate_cactus(names, spec)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# index sorts


@pytest.mark.parametrize("bound", [1, 2**16, 2**16 + 1, 2**32, 2**32 + 1])
def test_stable_order_equals_the_stable_argsort(bound):
    rng = np.random.default_rng(bound)
    assert stable_order(np.zeros(0, dtype=np.intp), bound).tolist() == []
    for size in (1, 7, 5000):
        # few distinct keys, so ties are many, and keys at the bound's edge
        for key in (
            rng.integers(0, bound, size),
            rng.integers(0, min(bound, 5), size),
            np.full(size, bound - 1),
            rng.choice([0, bound - 1, (bound - 1) // 2], size),
        ):
            key = key.astype(np.intp)
            want = np.argsort(key, kind="stable")
            assert np.array_equal(stable_order(key, bound), want)


def test_half_edge_index_equals_the_argsort_index_past_16_bits():
    # a 70,000-vertex path sorts two 16-bit digits; its index must equal
    # the one a stable argsort of the edge tails builds
    n = 70_000
    order = np.random.default_rng(5).permutation(n)
    u, v = order[:-1], order[1:]
    tail = np.column_stack([u, v]).ravel()
    by = np.argsort(tail, kind="stable")
    indptr, nbr, half_edge = half_edge_index(n, u, v)
    assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))]))
    assert np.array_equal(nbr, np.column_stack([v, u]).ravel()[by])
    assert np.array_equal(half_edge, by // 2)


def _path_graph(n: int, seed: int):
    """A path through ``n`` vertices in a random order."""
    order = np.random.default_rng(seed).permutation(n)
    names = [f"v{i}" for i in range(n)]
    return validate_cactus(names, [(names[a], names[b], 1.0) for a, b in zip(order, order[1:])])


def _wide_graphs():
    """Networks whose vertex-pair keys need two 16-bit digits (1000
    vertices) and three (70,000 vertices)."""
    yield parse_instance(gen.tree_like(random.Random(21), 1000, n_points=4)).graph
    yield _path_graph(70_000, 21)


def test_pair_index_equals_the_unique_keys_on_draws():
    draws = (draw_case(seed, max_vertices=30, max_cycles=6).graph for seed in range(50))
    for g in (*draws, *_wide_graphs()):
        keys, first = np.unique(pair_key(g.vertex_count, g.u, g.v), return_index=True)
        assert np.array_equal(g.pair_index[0], keys)
        assert np.array_equal(g.pair_index[1], first)


def test_parallel_edge_past_16_bits_raises_as_the_per_edge_loop():
    rng = random.Random(22)
    for g in _wide_graphs():
        spec = [(g.names[a], g.names[b], float(w)) for a, b, w in zip(g.u, g.v, g.length)]
        for _ in range(3):
            u, v, _w = spec[rng.randrange(len(spec))]
            case = list(spec)
            case.insert(rng.randrange(len(case) + 1), (*rng.choice([(u, v), (v, u)]), 2.0))
            with pytest.raises(ValidationError) as want:
                reference_edge_checks(g.names, case)
            with pytest.raises(ValidationError) as got:
                validate_cactus(g.names, case)
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# decomposition


def test_triangle_with_pendant_decomposition():
    g = tri_graph()
    tree = g.skeleton
    assert list(zip(range(len(tree)), tree.kind.tolist(), tree.ref.tolist())) == [
        (0, HINGE, 2),
        (1, VERTEX, 3),
        (2, CYCLE, 0),
    ]
    # node 0 is the root, so its links are its children's links up
    links = tree.neighbours(0)
    assert list(zip(links, tree.up_length[links].tolist(), tree.up_edge[links].tolist())) == [
        (1, 2.0, 3),
        (2, 0.0, -1),
    ]
    assert list(tree.node_of_vertex) == [-1, -1, 0, 1]
    assert list(tree.node_of_cycle) == [2]
    cyc = refs.rings(g.cycles)[0]
    assert tuple(cyc.vertices) == (0, 1, 2)
    assert cyc.perimeter == 3.0
    assert list(g.cycles.edge_cycle) == [0, 0, 0, -1]
    assert list(g.bridges) == [3]
    assert cyc.pos[cyc.vertices.index(2)] == 2.0
    assert refs.decomposition(tri_graph().cycles) == refs.decomposition(g.cycles)


def test_skeleton_is_a_tree():
    for seed in range(30):
        g = draw_case(seed).graph
        tree = g.skeleton
        n = len(tree)
        directed = sum(len(tree.neighbours(i)) for i in range(n))
        assert directed == 2 * (n - 1)
        # every link must be mirrored and the whole thing reachable
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for other in tree.neighbours(u):
                assert u in tree.neighbours(other)
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        assert len(seen) == n


def test_split_components_partition_every_node():
    for seed in range(30):
        g = draw_case(seed).graph
        tree = g.skeleton
        everyone = set(range(len(tree)))
        for node in everyone:
            gate, first = tree.split_components(node)
            comps = list(zip(gate.tolist(), first.tolist()))
            if len(tree) == 1:
                assert comps == []
                continue
            pieces = [set(refs.nodes(tree, tree.component_toward(g, x))) for g, x in comps]
            gates = set(gate.tolist())
            assert set().union(*pieces) | {node} | gates == everyone
            for (g, _), piece in zip(comps, pieces):
                assert node not in piece
                if tree.kind[node] != CYCLE:
                    assert g == node
                else:
                    assert tree.kind[g] == HINGE
            for i, a in enumerate(pieces):
                for b in pieces[i + 1 :]:
                    assert not (a & b)


# Reference searches: the component queries as plain graph searches over the
# links of the reference skeleton, which the rooted preorder answers by
# slicing.


def _ref_component_toward(sk, removed, start):
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for link in sk.links[x]:
            if link.other != removed and link.other not in seen:
                seen.add(link.other)
                stack.append(link.other)
    return frozenset(seen)


def _ref_split(sk, node):
    removed = {node}
    gates = []
    if sk.nodes[node].kind == "cycle":
        hinges = sk.hinge_nodes(node)
        removed.update(hinges)
        for h in hinges:
            gates += [(h, l.other) for l in sk.links[h] if l.other not in removed]
    else:
        gates = [(node, l.other) for l in sk.links[node]]
    comps = []
    for gate, first in gates:
        seen = {first}
        stack = [first]
        while stack:
            x = stack.pop()
            for link in sk.links[x]:
                if link.other not in removed and link.other not in seen:
                    seen.add(link.other)
                    stack.append(link.other)
        comps.append((gate, first, frozenset(seen)))
    return comps


def _ref_centroid(sk, active):
    root = min(active)
    order = [root]
    parent = {root: -1}
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for link in sk.links[x]:
            if link.other in active and link.other != parent[x]:
                parent[link.other] = x
                order.append(link.other)
    size = {x: 1 for x in order}
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    total = len(order)
    best, best_load = -1, total + 1
    for x in order:
        load = total - size[x]
        for link in sk.links[x]:
            if link.other in active and parent.get(link.other) == x:
                load = max(load, size[link.other])
        if load < best_load or (load == best_load and x < best):
            best, best_load = x, load
    return best


def _query_instances():
    """40 small sweep draws and three 200-vertex instances."""
    yield from (draw_case(seed, max_vertices=16) for seed in range(40))
    for seed in range(3):
        yield random_instance(
            seed, n_vertices=200, n_cycles=20 * seed + 5, n_points=6
        )


def _ref_sides(inst, sk, removed):
    """Each node's component once ``removed`` is deleted, with the neighbour
    of ``removed`` that leads into it and the component's mass per point."""
    side = {}
    for link in sk.links[removed]:
        comp = _ref_component_toward(sk, removed, link.other)
        mass = inst.node_mass[sorted(comp)].sum(axis=0)
        for x in comp:
            side[x] = (link.other, comp, mass)
    return side


def test_component_queries_match_the_reference_search():
    for inst in _query_instances():
        tree, sk = inst.graph.skeleton, refs.skeleton(inst.graph)
        assert sorted(tree.order.tolist()) == list(range(len(tree)))
        for removed in range(len(tree)):
            side = _ref_sides(inst, sk, removed)
            assert set(side) == set(range(len(tree))) - {removed}
            for start, (step, comp, _) in side.items():
                assert tree.step_toward(removed, start) == step
                assert refs.nodes(tree, tree.component_toward(removed, start)) == comp
            if side:
                got = [component_mass(inst, removed, start) for start in side]
                want = [mass for _, _, mass in side.values()]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            gate, first = tree.split_components(removed)
            got = list(zip(gate.tolist(), first.tolist()))
            want = _ref_split(sk, removed)
            assert got == [w[:2] for w in want]
            for (g, x), (_, _, nodes) in zip(got, want):
                assert refs.nodes(tree, tree.component_toward(g, x)) == nodes


def _connected_sets(sk, rng, count):
    """``count`` random connected node sets, each grown from a random node
    by adding a random neighbour of the set until it reaches a random size."""
    for _ in range(count):
        first = rng.randrange(len(sk))
        active = {first}
        frontier = [l.other for l in sk.links[first]]
        want = rng.randint(1, len(sk))
        while frontier and len(active) < want:
            x = frontier.pop(rng.randrange(len(frontier)))
            if x not in active:
                active.add(x)
                frontier += [l.other for l in sk.links[x]]
        yield frozenset(active)


def test_centroid_matches_the_reference_search():
    for inst in _query_instances():
        tree, sk = inst.graph.skeleton, refs.skeleton(inst.graph)
        rng = random.Random(len(tree))
        for active in _connected_sets(sk, rng, 40):
            got = centroid(tree, refs.mask(tree, active))
            assert got == _ref_centroid(sk, active) == refs.centroid(sk, active), active


def _skeleton_draws():
    """Sweep draws with and without edge locations and their reductions,
    and benchmark-shaped networks of 60-1000 vertices."""
    for seed in range(300):
        inst = draw_case(seed, max_vertices=30, max_cycles=8, edge_locations=seed % 2 == 1)
        yield inst.graph
        yield reduce_instance(inst).reduced.graph
    rng = random.Random(16)
    for n in (60, 250, 1000):
        yield parse_instance(gen.tree_like(rng, n, n_points=4)).graph
        yield parse_instance(gen.rings(rng, n_rings=6, ring_size=n // 6, n_points=4)).graph
    yield validate_cactus(["solo"], [])


def test_skeleton_arrays_equal_the_reference_on_random_draws():
    kinds = set()
    for g in _skeleton_draws():
        sk = refs.skeleton(g)
        refs.assert_same_skeleton(g.skeleton, sk)
        kinds.add(tuple(sorted({node.kind for node in sk.nodes})))
    assert ("cycle", "hinge", "vertex") in kinds and ("cycle",) in kinds


def test_centroid_equals_the_sorting_reference_on_random_draws():
    sets = 0
    for g in _skeleton_draws():
        tree, sk = g.skeleton, refs.skeleton(g)
        for active in _connected_sets(sk, random.Random(len(tree)), 10):
            assert centroid(tree, refs.mask(tree, active)) == refs.centroid(sk, active)
            sets += 1
    assert sets >= 6000


# ---------------------------------------------------------------------------
# metric


def test_fixed_distances_on_triangle_with_pendant():
    g = tri_graph()
    assert refs.point_distance(g, g.vertex_point(0), g.vertex_point(3)) == 3.0
    assert refs.point_distance(g, GraphPoint(0, 0.5), g.vertex_point(2)) == 1.5


def test_distance_wraps_around_a_long_cycle_edge():
    g = validate_cactus(
        ["a", "b", "c"], [("a", "b", 10.0), ("b", "c", 1.0), ("c", "a", 1.0)]
    )
    # going around through c beats staying on the long edge
    assert refs.point_distance(g, GraphPoint(0, 1.0), GraphPoint(0, 9.0)) == 4.0


def test_vertex_distance_matrix_matches_floyd_warshall():
    for seed in range(20):
        g = draw_case(seed).graph
        n = g.vertex_count
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for e in edge_rows(g):
            dist[e.u, e.v] = dist[e.v, e.u] = min(dist[e.u, e.v], e.length)
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        assert np.allclose(g.vertex_distances, dist)
        sources = list(range(0, n, 2))
        assert np.array_equal(g.distance_rows(sources), g.vertex_distances[sources])


def test_point_distance_is_a_metric_on_samples():
    for seed in range(15):
        g = draw_case(seed).graph
        rng = random.Random(seed)
        pts = [
            GraphPoint(e.id, rng.uniform(0.0, e.length))
            for e in rng.choices(edge_rows(g), k=4)
        ]
        for p in pts:
            assert refs.point_distance(g, p, p) == pytest.approx(0.0, abs=1e-9)
            for q in pts:
                dpq = refs.point_distance(g, p, q)
                assert dpq == pytest.approx(refs.point_distance(g, q, p), abs=1e-9)
                for r in pts:
                    assert dpq <= (
                        refs.point_distance(g, p, r) + refs.point_distance(g, r, q) + 1e-9
                    )


def test_distances_from_agree_with_pairwise_queries():
    for g in [tri_graph()] + [draw_case(seed).graph for seed in range(10)]:
        dist = g.vertex_distances
        for e in edge_rows(g):
            p = GraphPoint(e.id, 0.37 * e.length)
            vec = g.distances_from(p)
            ref = np.minimum(p.t + dist[e.u], (e.length - p.t) + dist[e.v])
            assert np.allclose(vec, ref, rtol=1e-12, atol=1e-12)
            for v in range(g.vertex_count):
                assert vec[v] == pytest.approx(
                    refs.point_distance(g, p, g.vertex_point(v)), abs=1e-12
                )


def test_rejects_points_off_the_graph():
    g = validate_cactus(["x", "y"], [("x", "y", 1.0)])
    with pytest.raises(InvalidPoint, match="no edge 7"):
        g.distances_from(GraphPoint(7, 0.0))
    with pytest.raises(InvalidPoint, match="offset 5.0 outside edge 0"):
        g.distances_from(GraphPoint(0, 5.0))


def test_point_on_vertex_detects_endpoints_only():
    g = tri_graph()
    assert g.point_on_vertex(g.vertex_point(2)) == 2
    assert g.point_on_vertex(GraphPoint(0, 0.5)) is None


def test_a_graph_is_freed_without_the_cycle_collector():
    # the skeleton holds no reference back to its graph, so dropping the
    # last instance frees the graph and its cached matrices at once
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seed in range(5):
            inst = draw_case(seed)
            inst.graph.skeleton
            ref = weakref.ref(inst.graph)
            del inst
            assert ref() is None, seed
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# centroid


def test_centroid_of_triangle_skeleton():
    g = tri_graph()
    assert centroid(g.skeleton, np.ones(3, dtype=bool)) == 0


def test_centroid_of_empty_set_is_rejected():
    g = tri_graph()
    with pytest.raises(ValidationError, match="empty active set"):
        centroid(g.skeleton, np.zeros(3, dtype=bool))


def test_centroid_leaves_no_heavy_branch():
    # active sets must induce connected subtrees, so grow them by BFS
    for seed in range(40):
        tree = draw_case(seed).graph.skeleton
        rng = random.Random(seed)
        start = rng.randrange(len(tree))
        want = rng.randint(1, len(tree))
        active_list = [start]
        seen = {start}
        i = 0
        while i < len(active_list) and len(active_list) < want:
            for other in tree.neighbours(active_list[i]):
                if other not in seen and len(active_list) < want:
                    seen.add(other)
                    active_list.append(other)
            i += 1
        active = frozenset(active_list)
        c = centroid(tree, refs.mask(tree, active))
        assert c in active
        remaining = active - {c}
        while remaining:
            comp = {next(iter(remaining))}
            stack = list(comp)
            while stack:
                x = stack.pop()
                for other in tree.neighbours(x):
                    if other in remaining and other not in comp:
                        comp.add(other)
                        stack.append(other)
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

    result, probes = descend(tree, np.ones(31, dtype=bool), probe, _at_node, _at_edge)
    assert result == ("node", 0)
    assert probes == len(probed) <= math.ceil(math.log2(31))


def test_descend_ends_an_edge_linked_pair_at_the_edge_without_a_probe():
    tree = _path_tree(4)

    def probe(u, active):
        raise AssertionError("an edge-linked pair needs no probe")

    result, probes = descend(tree, refs.mask(tree, {1, 2}), probe, _at_node, _at_edge)
    assert (result, probes) == (("edge", 1), 0)


def test_descend_probes_the_cycle_side_of_a_hinge_cycle_pair():
    tree = tri_graph().skeleton
    hinge, cycle = tree.node_of_vertex[2], tree.node_of_cycle[0]
    probed = []

    def probe(u, active):
        probed.append(u)
        return "done"

    result, probes = descend(
        tree, refs.mask(tree, {hinge, cycle}), probe, _at_node, _at_edge
    )
    assert (result, probes, probed) == ("done", 1, [cycle])


def test_descend_that_never_narrows_hits_the_probe_budget():
    tree = _path_tree(31)
    probed = []

    def probe(u, active):
        probed.append(u)
        return active

    with pytest.raises(InternalInvariantError, match="probe budget"):
        descend(tree, np.ones(31, dtype=bool), probe, _at_node, _at_edge)
    assert len(probed) == 2 * math.ceil(math.log2(31)) + 17


# ---------------------------------------------------------------------------
# reference decomposition: an explicit-stack DFS in Python that closes each
# cycle as it meets the back edge.  The package's array decomposition must
# give an equal CycleDecomposition, cycle numbering and errors included.


def reference_decompose(graph) -> SimpleNamespace:
    n = graph.vertex_count
    indptr, nbr = graph.indptr.tolist(), graph.nbr.tolist()
    half_edge = graph.half_edge.tolist()
    u, length = graph.u.tolist(), graph.length.tolist()
    depth = [-1] * n
    parent_edge = [-1] * n
    parent_vertex = [-1] * n
    scan = indptr[:-1]  # the next half-edge of each vertex to look at
    edge_cycle = [-1] * graph.edge_count
    raw_cycles: list[tuple[list[int], list[int]]] = []

    depth[0] = 0
    stack = [0]
    while stack:
        v = stack[-1]
        h = scan[v]
        if h == indptr[v + 1]:
            stack.pop()
            continue
        scan[v] = h + 1
        eid, w = half_edge[h], nbr[h]
        if eid == parent_edge[v]:
            continue
        if depth[w] == -1:
            depth[w] = depth[v] + 1
            parent_edge[w] = eid
            parent_vertex[w] = v
            stack.append(w)
        elif depth[w] < depth[v]:
            # back edge closes a cycle through the tree path w .. v
            verts = [v]
            edges = []
            x = v
            while x != w:
                edges.append(parent_edge[x])
                x = parent_vertex[x]
                verts.append(x)
            verts.reverse()
            edges.reverse()
            edges.append(eid)
            cid = len(raw_cycles)
            for e in edges:
                if edge_cycle[e] >= 0:
                    a, b = graph.names[graph.u[e]], graph.names[graph.v[e]]
                    raise SharedCycleEdge(f"edge {a!r}-{b!r} lies on two cycles")
                edge_cycle[e] = cid
            raw_cycles.append((verts, edges))
    if -1 in depth:
        raise NotConnected("graph is not connected")

    cycles = [
        _reference_cycle(cid, verts, edges, u, length)
        for cid, (verts, edges) in enumerate(raw_cycles)
    ]
    ring_ptr = [0]
    for cyc in cycles:
        ring_ptr.append(ring_ptr[-1] + len(cyc.vertices))

    def column(field: str) -> np.ndarray:
        return np.array([x for cyc in cycles for x in getattr(cyc, field)])

    return SimpleNamespace(
        ring_ptr=np.array(ring_ptr),
        ring_vertex=column("vertices"),
        ring_edge=column("edges"),
        ring_forward=column("forward"),
        ring_pos=column("pos"),
        perimeter=np.array([cyc.perimeter for cyc in cycles]),
        ring_cycle=np.array([cyc.id for cyc in cycles for _ in cyc.vertices]),
        edge_cycle=np.array(edge_cycle),
    )


def _reference_cycle(cid, verts, edges, u, length) -> refs.Ring:
    c = len(verts)
    i0 = verts.index(min(verts))
    if verts[(i0 - 1) % c] < verts[(i0 + 1) % c]:
        verts = [verts[i0]] + [verts[(i0 - k) % c] for k in range(1, c)]
        edges = [edges[(i0 - 1 - k) % c] for k in range(c)]
    else:
        verts = verts[i0:] + verts[:i0]
        edges = edges[i0:] + edges[:i0]
    forward = tuple(u[e] == x for e, x in zip(edges, verts))
    lengths = [length[e] for e in edges]
    pos = [0.0]
    for x in lengths[:-1]:
        pos.append(pos[-1] + x)
    return refs.Ring(cid, tuple(verts), tuple(edges), forward, tuple(pos), pos[-1] + lengths[-1])


def _decomposition_or_error(decompose, graph):
    try:
        return refs.decomposition(decompose(graph))
    except ValidationError as exc:
        return type(exc), str(exc)


def test_decomposition_equals_the_reference_on_draws_and_their_reductions():
    cycles = 0
    for seed in range(2000):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        for g in (inst.graph, reduce_instance(inst).reduced.graph):
            assert refs.decomposition(_decompose(g)) == refs.decomposition(reference_decompose(g))
        cycles += len(inst.graph.cycles)
    assert cycles >= 2000


def _benchmark_graphs(n: int):
    """Networks of the benchmark's two shapes at ``n`` vertices, each
    followed by its reduction."""
    rng = random.Random(n)
    networks = [gen.tree_like(rng, n, n_points=4), gen.tree_like(rng, n, n_points=4)]
    networks.append(gen.rings(rng, n_rings=6, ring_size=n // 6, n_points=4))
    for data in networks:
        inst = parse_instance(data)
        yield inst.graph
        yield reduce_instance(inst).reduced.graph


@pytest.mark.parametrize("n", [60, 250, 1000, 4000])
def test_decomposition_equals_the_reference_on_benchmark_networks(n):
    for g in _benchmark_graphs(n):
        assert refs.decomposition(_decompose(g)) == refs.decomposition(reference_decompose(g))


def _assert_ring_queries_equal_the_reference(graph) -> None:
    """``point`` and ``ring_distances`` equal the edge-by-edge loop and the
    tuple arithmetic of :class:`references.Ring` on every cycle of
    ``graph``: at each ring position, at each far end of a ring edge,
    ``_POS_EPS``/2 and 2·``_POS_EPS`` either side of it and ``_POS_EPS``
    past it, at 0 and the perimeter, and below 0 and above the perimeter."""
    dec = graph.cycles
    by_size: dict[int, list] = {}
    for ring in refs.rings(dec):
        per = ring.perimeter
        near = (-2 * _POS_EPS, -_POS_EPS / 2, _POS_EPS / 2, _POS_EPS, 2 * _POS_EPS)
        at = [*ring.pos, *(end + d for end in (*ring.pos[1:], per) for d in near)]
        at += [0.0, per, -1e-300, -per / 3, -per - ring.pos[-1], 1.5 * per, 7 * per + ring.pos[1]]
        for x in [*at, *np.array(at)]:
            assert dec.point(graph, ring.id, x) == ring.coord_point(graph, x), x
        by_size.setdefault(len(ring.pos), []).append((ring, at))
    # the rings of one size as one block, and each alone
    for rows in by_size.values():
        block = np.array([ring.id for ring, _ in rows])
        got = dec.ring_distances(block, np.array([at for _, at in rows]))
        for b, (ring, at) in enumerate(rows):
            want = ring.ring_distances(at)
            assert np.array_equal(got[b], want)
            assert np.array_equal(dec.ring_distances(block[b : b + 1], np.array([at]))[0], want)


def test_ring_points_and_distances_equal_the_reference_on_draws():
    cycles = 0
    for seed in range(200):
        inst = draw_case(seed, edge_locations=seed % 2 == 1)
        _assert_ring_queries_equal_the_reference(inst.graph)
        cycles += len(inst.graph.cycles)
    assert cycles >= 200


@pytest.mark.parametrize("n", [60, 250, 1000, 4000])
def test_ring_points_and_distances_equal_the_reference_on_benchmark_networks(n):
    for g in _benchmark_graphs(n):
        _assert_ring_queries_equal_the_reference(g)


def test_decomposition_errors_equal_the_reference_on_random_graphs():
    # random simple graphs, most of them no cactus or not connected: the
    # first shared edge the reference's walk meets is the one named
    seen = set()
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 2 * n))}
        pairs = sorted(pairs)
        rng.shuffle(pairs)
        u, v = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        g = CactusGraph([f"x{i}" for i in range(n)], u, v, np.ones(len(pairs)))
        got = _decomposition_or_error(_decompose, g)
        assert got == _decomposition_or_error(reference_decompose, g)
        seen.add(got[0] if isinstance(got[0], type) else CycleDecomposition)
    assert seen == {SharedCycleEdge, NotConnected, CycleDecomposition}
