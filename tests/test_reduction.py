"""Rewriting instances onto vertex-held locations without moving the optimum."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_case, square_instance, tri_graph, tri_instance
from ucactus import reduction
from ucactus.graph import GraphPoint, point_distance, validate_cactus
from ucactus.io import random_instance
from ucactus.optimizer import solve
from ucactus.oracle import oracle_solve
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Location,
    UncertainPoint,
    build_instance,
    expected_distance,
)


def test_fully_loaded_vertex_instance_passes_through():
    inst = square_instance()
    red = reduce_instance(inst)
    assert red.identity
    assert red.reduced is inst
    assert red.vertex_origin == []
    assert red.edge_paths == []


def test_unloaded_vertex_survives_when_structural():
    # c carries no mass but holds the pendant and the cycle together
    inst = tri_instance()
    red = reduce_instance(inst)
    g = red.reduced.graph
    assert not red.identity
    assert g.vertex_count == 4
    assert [(e.u, e.v, e.length) for e in g.edges] == [
        (0, 1, 1.0),
        (1, 2, 1.0),
        (2, 0, 1.0),
        (2, 3, 2.0),
    ]
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def test_interior_location_splits_its_edge():
    inst = build_instance(
        tri_graph(),
        [
            UncertainPoint("P1", 1.0, (Location(0, 0.5), Location(1, 0.5))),
            UncertainPoint("P2", 1.0, (Location(GraphPoint(3, 1.0), 1.0),)),
        ],
    )
    red = reduce_instance(inst)
    g = red.reduced.graph
    # the emptied stub past the split point is pruned with the old pendant tip
    assert g.vertex_count == 4
    assert sorted(e.length for e in g.edges) == [1.0, 1.0, 1.0, 1.0]
    assert red.reduced.is_vertex_constrained
    assert red.vertex_origin[3] == GraphPoint(3, 1.0)
    assert red.lift_point(GraphPoint(3, 1.0)) == GraphPoint(3, 1.0)
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def test_massless_pendant_is_pruned():
    g = validate_cactus(
        ["a", "b", "c", "d", "e"],
        [
            ("a", "b", 1.0),
            ("b", "c", 1.0),
            ("c", "a", 1.0),
            ("c", "d", 2.0),
            ("d", "e", 1.0),
        ],
    )
    inst = build_instance(
        g,
        [
            UncertainPoint("P1", 1.0, (Location(0, 0.5), Location(1, 0.5))),
            UncertainPoint("P2", 1.0, (Location(3, 1.0),)),
        ],
    )
    red = reduce_instance(inst)
    assert red.reduced.graph.vertex_count == 4
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def test_empty_two_hinge_cycle_collapses_to_its_short_arc():
    g = validate_cactus(
        ["u", "h1", "x1", "h2", "y2", "y1", "v"],
        [
            ("u", "h1", 1.0),
            ("h1", "x1", 1.0),
            ("x1", "h2", 1.0),
            ("h2", "y2", 2.0),
            ("y2", "y1", 1.0),
            ("y1", "h1", 1.0),
            ("h2", "v", 2.0),
        ],
    )
    inst = build_instance(
        g,
        [
            UncertainPoint("A", 1.0, (Location(0, 1.0),)),
            UncertainPoint("B", 1.0, (Location(6, 1.0),)),
        ],
    )
    red = reduce_instance(inst)
    rg = red.reduced.graph
    # 1 to the cycle, 2 around its short side, 2 onward
    assert rg.vertex_count == 2
    assert [e.length for e in rg.edges] == [5.0]
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.0


def test_reduction_never_adds_more_than_the_interior_locations():
    for seed in range(25):
        inst = draw_case(seed, edge_locations=True)
        red = reduce_instance(inst)
        interior = sum(
            1 for p in inst.points for loc in p.locations if not loc.is_vertex
        )
        assert red.reduced.graph.vertex_count <= inst.graph.vertex_count + interior
        assert red.reduced.is_vertex_constrained


def test_lifting_preserves_distances_between_kept_vertices():
    for seed in range(15):
        inst = draw_case(seed, edge_locations=True)
        red = reduce_instance(inst)
        if red.identity:
            continue
        rg = red.reduced.graph
        rng = random.Random(seed)
        for _ in range(10):
            i = rng.randrange(rg.vertex_count)
            j = rng.randrange(rg.vertex_count)
            want = rg.vertex_distances[i, j]
            got = point_distance(
                inst.graph, red.lift_point(rg.vertex_point(i)), red.lift_point(rg.vertex_point(j))
            )
            assert got == pytest.approx(want, abs=1e-9)


def test_lifting_preserves_expected_distances():
    for seed in range(15):
        inst = draw_case(seed, max_points=3, edge_locations=True)
        red = reduce_instance(inst)
        rg = red.reduced.graph
        rng = random.Random(seed)
        for _ in range(8):
            v = rng.randrange(rg.vertex_count)
            q_red = rg.vertex_point(v)
            q_orig = red.lift_point(q_red)
            for k in range(inst.n):
                assert expected_distance(red.reduced, k, q_red) == pytest.approx(
                    expected_distance(inst, k, q_orig), abs=1e-9
                )


def test_reducing_twice_changes_nothing_more():
    for seed in range(20):
        inst = draw_case(seed, edge_locations=True)
        once = reduce_instance(inst).reduced
        twice = reduce_instance(once).reduced
        assert twice.graph.vertex_count == once.graph.vertex_count
        assert sorted(e.length for e in twice.graph.edges) == sorted(
            e.length for e in once.graph.edges
        )


def test_lift_source_is_the_point_lift_point_maps():
    inst = draw_case(3, max_points=3, edge_locations=True)
    red = reduce_instance(inst)
    rg = red.reduced.graph
    e = rg.edges[0]
    near_u, inside = GraphPoint(e.id, 1e-10), GraphPoint(e.id, 0.5 * e.length)
    assert red.lift_source(near_u) == rg.vertex_point(e.u)
    assert red.lift_point(near_u) == red.lift_point(rg.vertex_point(e.u))
    assert red.lift_source(inside) == inside
    ident = reduce_instance(square_instance())
    assert ident.lift_source(near_u) == near_u


def test_reduction_validates_only_the_reduced_graph(monkeypatch):
    calls = []
    inner = reduction.validate_cactus
    monkeypatch.setattr(
        reduction, "validate_cactus", lambda *a: calls.append(1) or inner(*a)
    )
    for seed in range(20):
        calls.clear()
        red = reduce_instance(draw_case(seed, edge_locations=True))
        assert len(calls) == (0 if red.identity else 1)


# ---------------------------------------------------------------------------
# reference: the reduction as a fixpoint of three passes over a dict graph,
# repeated until nothing changes.  The one-pass worklist must agree with it.


@dataclass(slots=True)
class _WEdge:
    u: int
    v: int
    length: float
    path: list
    cycle: int | None  # id of the original cycle this edge lies on, if any

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u

    def oriented(self, start: int) -> list:
        if start == self.u:
            return self.path
        return [(e, b, a) for e, a, b in reversed(self.path)]


def _adjacency(
    verts: dict[int, bool], edges: dict[int, _WEdge]
) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for eid, e in edges.items():
        adj[e.u].append(eid)
        adj[e.v].append(eid)
    return adj


def _prune(verts: dict[int, bool], edges: dict[int, _WEdge]) -> None:
    """Drop mass-free leaves and dissolve mass-free cycle stretches until
    nothing changes; ``verts`` maps each vertex to whether it holds mass."""
    while True:
        changed = False
        adj = _adjacency(verts, edges)

        for v in list(verts):
            while v in verts and len(adj[v]) == 1 and not verts[v]:
                eid = adj[v][0]
                other = edges[eid].u if edges[eid].v == v else edges[eid].v
                del edges[eid]
                del verts[v]
                adj[other].remove(eid)
                del adj[v]
                changed = True
                v = other

        changed |= _reduce_cycles(verts, edges)
        changed |= _contract_paths(verts, edges)
        if not changed:
            return


def _working_cycles(
    verts: dict[int, bool], edges: dict[int, _WEdge]
) -> list[list[int]]:
    """Edge ids of each surviving cycle in ring order, by original cycle id."""
    groups: dict[int, list[int]] = {}
    for eid, e in edges.items():
        if e.cycle is not None:
            groups.setdefault(e.cycle, []).append(eid)
    rings = []
    for cid in sorted(groups):
        at: dict[int, list[int]] = {}
        for eid in groups[cid]:
            at.setdefault(edges[eid].u, []).append(eid)
            at.setdefault(edges[eid].v, []).append(eid)
        start = min(at)
        eid = min(at[start], key=lambda x: edges[x].other(start))
        ring, v = [], start
        while True:
            ring.append(eid)
            v = edges[eid].other(v)
            if v == start:
                break
            eid = next(x for x in at[v] if x != eid)
        rings.append(ring)
    return rings


def _reduce_cycles(verts: dict[int, bool], edges: dict[int, _WEdge]) -> bool:
    adj = _adjacency(verts, edges)
    changed = False
    for cyc_edges in _working_cycles(verts, edges):
        ring: list[int] = []
        for eid in cyc_edges:
            e = edges[eid]
            if not ring:
                nxt = edges[cyc_edges[1]]
                ring.append(e.u if e.v in (nxt.u, nxt.v) else e.v)
            ring.append(e.other(ring[-1]))
        ring.pop()  # closes back on ring[0]
        keep = [v for v in ring if verts[v] or len(adj[v]) >= 3]
        if len(keep) >= 3 or len(keep) == 0:
            continue
        if len(keep) == 1:
            for eid in cyc_edges:
                del edges[eid]
            for v in ring:
                if v != keep[0]:
                    del verts[v]
            changed = True
            continue
        # two anchors: swap the cycle for its shorter arc
        a, b = keep
        i, j = sorted((ring.index(a), ring.index(b)))
        arc1_v, arc1_e = ring[i : j + 1], cyc_edges[i:j]
        arc2_v = ring[j:] + ring[: i + 1]
        arc2_e = cyc_edges[j:] + cyc_edges[:i]
        len1 = sum(edges[e].length for e in arc1_e)
        len2 = sum(edges[e].length for e in arc2_e)
        arc_v, arc_e = (arc1_v, arc1_e) if len1 <= len2 else (arc2_v, arc2_e)
        path: list = []
        cur = arc_v[0]
        for eid in arc_e:
            path.extend(edges[eid].oriented(cur))
            cur = edges[eid].other(cur)
        new_id = max(edges) + 1
        for eid in cyc_edges:
            del edges[eid]
        for v in ring:
            if v not in (a, b):
                del verts[v]
        edges[new_id] = _WEdge(arc_v[0], arc_v[-1], min(len1, len2), path, None)
        changed = True
    return changed


def _contract_paths(verts: dict[int, bool], edges: dict[int, _WEdge]) -> bool:
    changed = False
    adj = _adjacency(verts, edges)
    neighbours = {v: {edges[e].other(v) for e in adj[v]} for v in verts}
    for v in list(verts):
        if verts[v] or len(adj[v]) != 2:
            continue
        e1, e2 = adj[v]
        u, w = edges[e1].other(v), edges[e2].other(v)
        if u == w or w in neighbours[u]:
            continue  # contraction would create a parallel edge; pad later
        path = edges[e1].oriented(u) + edges[e2].oriented(v)
        new_id = max(edges) + 1
        # both edges at a degree-2 vertex lie on the same cycle, or on none
        edges[new_id] = _WEdge(
            u, w, edges[e1].length + edges[e2].length, path, edges[e1].cycle
        )
        del edges[e1]
        del edges[e2]
        del verts[v]
        adj[u].remove(e1)
        adj[u].append(new_id)
        adj[w].remove(e2)
        adj[w].append(new_id)
        adj.pop(v)
        neighbours[u].discard(v)
        neighbours[u].add(w)
        neighbours[w].discard(v)
        neighbours[w].add(u)
        changed = True
    return changed


def fixpoint_reduce(inst):
    """``reduce_instance`` with the fixpoint above in place of the worklist."""
    if inst.is_vertex_constrained and reduction._fully_occupied(inst):
        return reduce_instance(inst)
    split = reduction._split(inst)
    verts = dict(enumerate(split.mass))
    cycle_of = split.graph.cycles.edge_cycle
    edges = {
        i: _WEdge(e.u, e.v, e.length, e.path, cycle_of[e.path[0][0]])
        for i, e in enumerate(split.edges)
    }
    _prune(verts, edges)
    kept = [
        reduction._Edge(e.u, e.v, e.length, e.path) for _, e in sorted(edges.items())
    ]
    return reduction._finish(inst, split, sorted(verts), kept)


def assert_same_reduction(got, want):
    """Same identity flag, vertex origins and points, and the same edges as
    endpoint pairs with lengths within 1e-12 relative."""
    assert got.identity == want.identity
    assert got.vertex_origin == want.vertex_origin
    assert got.reduced.points == want.reduced.points

    def edges(red):
        return sorted(
            (min(e.u, e.v), max(e.u, e.v), e.length) for e in red.reduced.graph.edges
        )

    assert got.reduced.graph.vertex_count == want.reduced.graph.vertex_count
    got_edges, want_edges = edges(got), edges(want)
    assert [e[:2] for e in got_edges] == [e[:2] for e in want_edges]
    for (_, _, a), (_, _, b) in zip(got_edges, want_edges):
        assert abs(a - b) <= 1e-12 * max(1.0, b)


# ---------------------------------------------------------------------------
# the one-pass worklist against the fixpoint


@pytest.mark.parametrize("max_vertices", [12, 16])
@pytest.mark.parametrize("edge_locations", [False, True])
def test_one_pass_matches_the_fixpoint_on_random_draws(max_vertices, edge_locations):
    reduced = 0
    for seed in range(1000):
        inst = draw_case(seed, max_vertices=max_vertices, edge_locations=edge_locations)
        got = reduce_instance(inst)
        assert_same_reduction(got, fixpoint_reduce(inst))
        reduced += not got.identity
    assert reduced >= 800


def test_one_pass_matches_the_fixpoint_on_large_draws():
    for seed in range(3):
        inst = random_instance(
            seed, n_vertices=1000, n_cycles=60, n_points=20, n_locations=6,
            edge_locations=True,
        )
        got = reduce_instance(inst)
        assert got.reduced.graph.vertex_count < 400
        assert_same_reduction(got, fixpoint_reduce(inst))


# ---------------------------------------------------------------------------
# metamorphic properties beyond the oracle's size: a massless addition moves
# neither the optimum nor the reduced vertex count


@st.composite
def _mid_size_instances(draw):
    return random_instance(
        draw(st.integers(0, 2**16)),
        n_vertices=draw(st.integers(30, 60)),
        n_cycles=draw(st.integers(0, 8)),
        n_points=draw(st.integers(1, 6)),
        n_locations=draw(st.integers(1, 4)),
        edge_locations=draw(st.booleans()),
    )


_LENGTHS = st.lists(st.integers(1, 9).map(float), min_size=1, max_size=4)


def _spec(graph):
    return [(graph.names[e.u], graph.names[e.v], e.length) for e in graph.edges]


def _assert_same_optimum(inst, changed):
    want = solve(inst).value
    assert solve(changed).value == pytest.approx(want, rel=1e-9, abs=1e-12)
    count = reduce_instance(inst).reduced.graph.vertex_count
    assert reduce_instance(changed).reduced.graph.vertex_count == count


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_mid_size_instances(), st.data())
def test_subdividing_an_edge_changes_nothing(inst, data):
    g = inst.graph
    e = g.edges[data.draw(st.integers(0, len(g.edges) - 1))]
    cut = e.length * data.draw(st.floats(0.05, 0.95))
    spec = _spec(g)
    spec[e.id] = (g.names[e.u], "cut", cut)
    spec.append(("cut", g.names[e.v], e.length - cut))
    points = []
    for p in inst.points:
        locs = []
        for loc in p.locations:
            place = loc.place
            if not loc.is_vertex and place.edge == e.id and place.t > cut:
                place = GraphPoint(len(spec) - 1, place.t - cut)
            locs.append(Location(place, loc.prob))
        points.append(UncertainPoint(p.label, p.weight, tuple(locs)))
    changed = build_instance(validate_cactus(g.names + ["cut"], spec), points, inst.eps)
    _assert_same_optimum(inst, changed)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_mid_size_instances(), st.data())
def test_a_massless_pendant_path_changes_nothing(inst, data):
    g = inst.graph
    lengths = data.draw(_LENGTHS)
    path = [g.names[data.draw(st.integers(0, g.vertex_count - 1))]]
    path += [f"path{i}" for i in range(len(lengths))]
    spec = _spec(g) + list(zip(path, path[1:], lengths))
    graph = validate_cactus(g.names + path[1:], spec)
    changed = build_instance(graph, inst.points, inst.eps)
    _assert_same_optimum(inst, changed)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_mid_size_instances(), st.data())
def test_a_massless_pendant_cycle_changes_nothing(inst, data):
    g = inst.graph
    lengths = data.draw(_LENGTHS) + data.draw(_LENGTHS) + [1.0]
    ring = [g.names[data.draw(st.integers(0, g.vertex_count - 1))]]
    ring += [f"ring{i}" for i in range(len(lengths) - 1)]
    spec = _spec(g) + list(zip(ring, ring[1:] + ring[:1], lengths))
    graph = validate_cactus(g.names + ring[1:], spec)
    changed = build_instance(graph, inst.points, inst.eps)
    _assert_same_optimum(inst, changed)
