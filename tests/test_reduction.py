"""Rewriting instances onto vertex-held locations without moving the optimum."""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    draw_case,
    edge_row,
    edge_rows,
    gen,
    mid_size_instances,
    square_instance,
    tri_graph,
    tri_instance,
)
import references as refs
from test_graph import reference_decompose
from ucactus import reduction
from ucactus.decision import decide
from ucactus.graph import (
    CactusGraph,
    GraphPoint,
    _decompose,
    centroid,
    validate_cactus,
    validate_edge_columns,
)
from ucactus.io import instance_to_dict, parse_instance, random_instance
from ucactus.optimizer import solve
from ucactus.oracle import oracle_solve
from ucactus.reduction import Reduction, reduce_instance
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
    assert refs.vertex_origin(red) == []
    assert refs.edge_paths(red) == []


def test_unloaded_vertex_survives_when_structural():
    # c carries no mass but holds the pendant and the cycle together
    inst = tri_instance()
    red = reduce_instance(inst)
    g = red.reduced.graph
    assert not red.identity
    assert g.vertex_count == 4
    assert [(e.u, e.v, e.length) for e in edge_rows(g)] == [
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
    assert sorted(e.length for e in edge_rows(g)) == [1.0, 1.0, 1.0, 1.0]
    assert red.reduced.is_vertex_constrained
    assert refs.vertex_origin(red)[3] == GraphPoint(3, 1.0)
    assert red.lift_point(GraphPoint(3, 1.0)) == GraphPoint(3, 1.0)
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def _reference_kept_cuts(e, t, snap) -> list[bool]:
    """The loop that ``_kept_cuts`` replaced: along each edge, an offset
    within snap of the last kept cut joins it."""
    keep, last = [], (-1, 0.0)
    for ei, ti, si in zip(e.tolist(), t.tolist(), snap.tolist()):
        keep.append(ei != last[0] or ti - last[1] > si)
        if keep[-1]:
            last = (ei, ti)
    return keep


def test_kept_cuts_follow_the_last_kept_cut():
    # a run of cuts each within snap of the one before, longer than snap
    t = 1.0 + np.array([0.0, 0.6, 1.2, 1.8, 2.4, 3.0, 4e12]) * 1e-12
    e = np.zeros(len(t), dtype=np.intp)
    snap = np.full(len(t), 1e-12)
    keep = reduction._kept_cuts(e, t, snap)
    assert keep.tolist() == [True, False, True, False, True, False, True]
    assert keep.tolist() == _reference_kept_cuts(e, t, snap)
    rng = random.Random(5)
    for _ in range(300):
        size = rng.randint(0, 30)
        e = np.sort(np.array([rng.randrange(3) for _ in range(size)], dtype=np.intp))
        steps = [rng.choice([0.0, 0.3e-12, 0.7e-12, 1e-12, 2e-12, 0.5]) for _ in range(size)]
        t = 1.0 + np.cumsum(steps)
        snap = np.full(size, 1e-12)
        got = reduction._kept_cuts(e, t, snap).tolist()
        assert got == _reference_kept_cuts(e, t, snap)


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
    assert [e.length for e in edge_rows(rg)] == [5.0]
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
            got = refs.point_distance(
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
        assert sorted(e.length for e in edge_rows(twice.graph)) == sorted(
            e.length for e in edge_rows(once.graph)
        )


def test_lift_source_is_the_point_lift_point_maps():
    inst = draw_case(3, max_points=3, edge_locations=True)
    red = reduce_instance(inst)
    rg = red.reduced.graph
    e = edge_row(rg, 0)
    near_u, inside = GraphPoint(e.id, 1e-10), GraphPoint(e.id, 0.5 * e.length)
    assert red.lift_source(near_u) == rg.vertex_point(e.u)
    assert red.lift_point(near_u) == red.lift_point(rg.vertex_point(e.u))
    assert red.lift_source(inside) == inside
    ident = reduce_instance(square_instance())
    assert ident.lift_source(near_u) == near_u


def test_handed_out_points_hold_python_numbers():
    # the edge table is numpy; ids and offsets leave the package as int/float
    def assert_python(points):
        for p in points:
            assert type(p.edge) is int and type(p.t) is float, p

    for seed in range(60):
        inst = draw_case(seed, edge_locations=True)
        sol = solve(inst)
        assert_python(sol.centers)
        for lam in (0.5 * sol.value, sol.value, 1.1 * sol.value):
            v = decide(inst, lam)
            assert_python(v.centers or ())
        red = reduce_instance(inst)
        rg = red.reduced.graph
        assert_python(refs.vertex_origin(red))
        assert_python(red.lift_point(rg.vertex_point(x)) for x in range(rg.vertex_count))
        assert_python(
            red.lift_point(GraphPoint(e.id, f * e.length))
            for e in edge_rows(rg)
            for f in (0.25, 0.5)
        )


def test_validate_cactus_runs_once_per_solve_and_decide(monkeypatch):
    # outside input is validated at parse; the reduced network is not
    # validated again at run time.  validate_cactus checks its rows as
    # columns, so the column check counts every validation.
    calls = []

    def counted(*args):
        calls.append(1)
        return validate_edge_columns(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("ucactus") and hasattr(module, "validate_edge_columns"):
            monkeypatch.setattr(module, "validate_edge_columns", counted)
    for seed in range(20):
        doc = instance_to_dict(draw_case(seed, edge_locations=True))
        calls.clear()
        star = solve(parse_instance(doc)).value
        assert len(calls) == 1
        calls.clear()
        assert decide(parse_instance(doc), star).feasible
        assert len(calls) == 1


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


# ---------------------------------------------------------------------------
# reference split: a loop over every edge that numbers the split vertices
# and split edges edge by edge, with one object per split edge


@dataclass(slots=True)
class _Edge:
    """An edge of the split cactus: a walk from ``u`` to ``v`` along the
    runs of ``path``."""

    u: int
    v: int
    length: float
    path: list


@dataclass(slots=True)
class _RefSplit:
    graph: object
    mass: list[bool]
    cut_points: list[GraphPoint]
    edges: list[_Edge]
    placed: list[list[tuple[int, float]]]

    def origin(self, v: int) -> GraphPoint:
        n = self.graph.vertex_count
        return self.graph.vertex_point(v) if v < n else self.cut_points[v - n]


def reference_split(inst) -> _RefSplit:
    graph = inst.graph
    rows = edge_rows(graph)
    snap_unit = reduction._SNAP
    placed: list[list[tuple[int, float]]] = [[] for _ in inst.points]

    # split every edge at its interior locations, snapping near-endpoint
    # offsets onto the endpoints
    interior: dict[int, list[float]] = {}
    loc_site: dict[tuple[int, int], tuple[str, int | float]] = {}
    for k, p in enumerate(inst.points):
        for li, loc in enumerate(p.locations):
            if loc.prob <= 0.0:
                continue
            if loc.is_vertex:
                loc_site[(k, li)] = ("vertex", loc.place)
                continue
            pt = loc.place
            e = rows[pt.edge]
            snap = snap_unit * max(1.0, e.length)
            if pt.t <= snap:
                loc_site[(k, li)] = ("vertex", e.u)
            elif pt.t >= e.length - snap:
                loc_site[(k, li)] = ("vertex", e.v)
            else:
                interior.setdefault(pt.edge, []).append(pt.t)
                loc_site[(k, li)] = ("interior", pt.t)

    cut_points: list[GraphPoint] = []
    edges: list[_Edge] = []
    split_vertex: dict[int, list[tuple[float, int]]] = {}
    for e in rows:
        cuts: list[float] = []
        for t in sorted(interior.get(e.id, ())):
            if not cuts or t - cuts[-1] > snap_unit * max(1.0, e.length):
                cuts.append(t)
        stations: list[tuple[float, int]] = [(0.0, e.u)]
        for t in cuts:
            stations.append((t, graph.vertex_count + len(cut_points)))
            cut_points.append(GraphPoint(e.id, t))
        stations.append((e.length, e.v))
        split_vertex[e.id] = stations[1:-1]
        for (t0, a), (t1, b) in zip(stations, stations[1:]):
            edges.append(_Edge(a, b, t1 - t0, [(e.id, t0, t1)]))

    for (k, li), site in loc_site.items():
        prob = inst.points[k].locations[li].prob
        if site[0] == "vertex":
            placed[k].append((site[1], prob))
        else:
            pt = inst.points[k].locations[li].place
            snap = snap_unit * max(1.0, rows[pt.edge].length)
            wv = next(
                w for t, w in split_vertex[pt.edge] if abs(t - site[1]) <= snap
            )
            placed[k].append((wv, prob))

    mass = [False] * (graph.vertex_count + len(cut_points))
    for locs in placed:
        for w, _ in locs:
            mass[w] = True
    return _RefSplit(graph, mass, cut_points, edges, placed)


def _reference_finish(inst, split, survivors, edges) -> SimpleNamespace:
    new_index = {v: i for i, v in enumerate(survivors)}
    graph = CactusGraph(
        [f"v{i}" for i in range(len(survivors))],
        np.array([new_index[e.u] for e in edges], dtype=np.intp),
        np.array([new_index[e.v] for e in edges], dtype=np.intp),
        np.array([e.length for e in edges], dtype=float),
    )
    points = []
    empty = set(range(len(survivors)))
    for k, p in enumerate(inst.points):
        locs = [Location(new_index[w], prob) for w, prob in split.placed[k]]
        empty -= {new_index[w] for w, _ in split.placed[k]}
        points.append(UncertainPoint(p.label, p.weight, tuple(locs)))
    if empty:
        first = points[0]
        pad = tuple(Location(v, 0.0) for v in sorted(empty))
        points[0] = UncertainPoint(first.label, first.weight, first.locations + pad)
    reduced = build_instance(graph, points, inst.eps)
    origin = [split.origin(v) for v in survivors]
    return SimpleNamespace(
        identity=False, reduced=reduced, vertex_origin=origin, edge_paths=[e.path for e in edges]
    )


class Splits(NamedTuple):
    """``reduce_instance`` of one instance and, unless it is the identity,
    the package's split and the reference split, each computed once."""

    red: Reduction
    got: reduction._Split | None
    want: _RefSplit | None


def splits(inst) -> Splits:
    red = reduce_instance(inst)
    if red.identity:
        return Splits(red, None, None)
    return Splits(red, reduction._split(inst), reference_split(inst))


def fixpoint_reduce(inst, sp: Splits):
    """``reduce_instance`` with the reference split and the fixpoint above
    in place of the package's split and worklist."""
    if sp.red.identity:
        return SimpleNamespace(identity=True, reduced=sp.red.reduced, vertex_origin=[])
    split = sp.want
    verts = dict(enumerate(split.mass))
    cycle_of = [None if c < 0 else c for c in split.graph.cycles.edge_cycle.tolist()]
    edges = {
        i: _WEdge(e.u, e.v, e.length, e.path, cycle_of[e.path[0][0]])
        for i, e in enumerate(split.edges)
    }
    _prune(verts, edges)
    return _reference_finish(inst, split, sorted(verts), [e for _, e in sorted(edges.items())])


def assert_same_split(inst, sp: Splits):
    """The package's split numbers vertices and split edges, and places the
    locations, exactly as the reference does."""
    if sp.red.identity:
        return
    got, want = sp.got, sp.want
    n = inst.graph.vertex_count
    assert got.mass.tolist() == want.mass
    placed: list[list[tuple[int, float]]] = [[] for _ in inst.points]
    for i, w in zip(got.live.tolist(), got.site.tolist()):
        placed[int(inst.owner[i])].append((w, float(inst.table.prob[i])))
    assert placed == want.placed
    assert [got.origin(v) for v in range(n, len(got.mass))] == want.cut_points
    assert [
        (got.u[i], got.v[i], got.length[i], [got.oriented(i, int(got.u[i]))])
        for i in range(len(got.u))
    ] == [(e.u, e.v, e.length, e.path) for e in want.edges]
    want_at: list[list[tuple[int, int]]] = [[] for _ in want.mass]
    for i, e in enumerate(want.edges):
        want_at[e.u].append((i, e.v))
        want_at[e.v].append((i, e.u))
    got_at = [
        [(got.half_edge[h], got.nbr[h]) for h in range(a, b)]
        for a, b in zip(got.indptr, got.indptr[1:])
    ]
    assert got_at == want_at


def assert_same_reduction(got, want):
    """Same identity flag, vertex origins and points, and the same edges as
    endpoint pairs with lengths within 1e-12 relative."""
    assert got.identity == want.identity
    assert refs.vertex_origin(got) == want.vertex_origin
    assert got.reduced.points == want.reduced.points

    def edges(red):
        return sorted(
            (min(e.u, e.v), max(e.u, e.v), e.length) for e in edge_rows(red.reduced.graph)
        )

    assert got.reduced.graph.vertex_count == want.reduced.graph.vertex_count
    got_edges, want_edges = edges(got), edges(want)
    assert [e[:2] for e in got_edges] == [e[:2] for e in want_edges]
    for (_, _, a), (_, _, b) in zip(got_edges, want_edges):
        assert abs(a - b) <= 1e-12 * max(1.0, b)


def assert_passes_validation(red):
    """The reduced network and points, built without validation, pass the
    checks that outside input passes, and ``validate_cactus`` decomposes the
    network as the reduced graph does itself."""
    g = red.reduced.graph
    checked = validate_cactus(
        g.names, [(g.names[e.u], g.names[e.v], e.length) for e in edge_rows(g)]
    )
    assert edge_rows(checked) == edge_rows(g)
    for name in ("indptr", "nbr", "half_edge"):
        assert list(getattr(checked, name)) == list(getattr(g, name))
    # compares the cycles and every map of the decomposition
    assert refs.decomposition(checked.cycles) == refs.decomposition(g.cycles)
    build_instance(g, red.reduced.points, red.reduced.eps)


# ---------------------------------------------------------------------------
# reference worklist: peels mass-free leaves and drops rings with one anchor
# as degrees fall, cuts two-anchor rings to their shorter arc, then walks
# every chain from its survivor.  The package's rooted mass count must
# find the same survivors and chains.


def _ring(split, cyc) -> tuple[list[int], list[int]]:
    """Vertices and split edges of one original cycle, in its ring order."""
    u, v, first = split.u.tolist(), split.v.tolist(), split.first.tolist()
    verts: list[int] = []
    ring_edges: list[int] = []
    for x, e, forward in zip(cyc.vertices, cyc.edges, cyc.forward):
        pieces = range(first[e], first[e + 1])
        for i in pieces if forward else reversed(pieces):
            verts.append(x)
            ring_edges.append(i)
            x = u[i] + v[i] - x
    return verts, ring_edges


def _cycles_at(split, x: int) -> tuple[int, ...]:
    """Ids of the original cycles that split vertex ``x`` lies on."""
    cycles = split.graph.cycles
    n = split.graph.vertex_count
    if x < n:
        return tuple(cycles.ring_cycle[cycles.ring_vertex == x].tolist())
    c = int(cycles.edge_cycle[split.cut_edge[x - n]])
    return () if c < 0 else (c,)


def worklist_reduce(split) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    """The survivors in id order and the chains, each as the vertices walked
    and the split edges taken, in order of their lowest split edge and run
    its way."""
    mass, length = split.mass.tolist(), split.length.tolist()
    indptr, nbr = split.indptr.tolist(), split.nbr.tolist()
    half_edge, split_u = split.half_edge.tolist(), split.u.tolist()
    deg = [b - a for a, b in zip(indptr, indptr[1:])]
    live = [True] * len(length)
    cycles = refs.rings(split.graph.cycles)
    rings = [_ring(split, cyc) for cyc in cycles]
    ring_live = [True] * len(cycles)

    def anchor(v: int) -> bool:
        return mass[v] or deg[v] >= 3

    def live_half(v: int) -> int:
        return next(h for h in range(indptr[v], indptr[v + 1]) if live[half_edge[h]])

    def lower(v: int, by: int) -> None:
        was = anchor(v)
        deg[v] -= by
        if was and not anchor(v):
            for c in _cycles_at(split, v):
                if ring_live[c]:
                    anchors[c] -= 1
                    if anchors[c] == 1:
                        drops.append(c)
        if deg[v] == 1 and not mass[v]:
            leaves.append(v)

    anchors = [sum(map(anchor, verts)) for verts, _ in rings]
    leaves = [v for v in range(len(mass)) if deg[v] == 1 and not mass[v]]
    drops = [c for c, count in enumerate(anchors) if count == 1]

    while leaves or drops:
        if leaves:
            v = leaves.pop()
            h = live_half(v)
            live[half_edge[h]] = False
            deg[v] = 0
            lower(nbr[h], 1)
            continue
        c = drops.pop()
        ring_live[c] = False
        verts, ring_edges = rings[c]
        for i in ring_edges:
            live[i] = False
        kept = next(filter(anchor, verts))
        for v in verts:
            if v != kept:
                deg[v] = 0
        lower(kept, 2)

    # a ring with two anchors keeps its shorter arc
    for c, (verts, ring_edges) in enumerate(rings):
        if not ring_live[c] or anchors[c] != 2:
            continue
        i, j = (k for k, v in enumerate(verts) if anchor(v))
        inner = sum(length[e] for e in ring_edges[i:j])
        outer = sum(length[e] for e in ring_edges[j:] + ring_edges[:i])
        if inner <= outer:
            drop_v, drop_e = verts[j + 1 :] + verts[:i], ring_edges[j:] + ring_edges[:i]
        else:
            drop_v, drop_e = verts[i + 1 : j], ring_edges[i:j]
        for e in drop_e:
            live[e] = False
        for v in drop_v:
            deg[v] = 0
        deg[verts[i]] -= 1
        deg[verts[j]] -= 1

    survivors = [v for v in range(len(mass)) if anchor(v)]
    chains: list[tuple[list[int], list[int]]] = []
    for s in survivors:
        for h in range(indptr[s], indptr[s + 1]):
            if not live[half_edge[h]]:
                continue
            live[half_edge[h]] = False
            walk, chain = [s], [half_edge[h]]
            v = nbr[h]
            while not anchor(v):
                step = live_half(v)
                live[half_edge[step]] = False
                walk.append(v)
                chain.append(half_edge[step])
                v = nbr[step]
            walk.append(v)
            # orient each chain along its first split edge
            low = chain.index(min(chain))
            if walk[low] != split_u[chain[low]]:
                walk.reverse()
                chain.reverse()
            chains.append((walk, chain))
    chains.sort(key=lambda item: min(item[1]))
    return survivors, chains


def assert_same_chains(inst):
    """The rooted mass count keeps the worklist's survivors and chains, and
    sums each chain's length in walk order."""
    if not reduce_instance(inst).identity:
        assert_same_chains_of(reduction._split(inst))


def assert_same_chains_of(split):
    """:func:`assert_same_chains` on the package's split of an instance."""
    got = reduction._reduce(split)
    survivors, chains = worklist_reduce(split)
    assert got.survivors.tolist() == survivors
    walks = []
    for k, (a, b) in enumerate(zip(got.start, got.start[1:])):
        walks.append((got.enter[a:b].tolist() + [got.ends[1][k]], got.edges[a:b].tolist()))
    assert walks == chains
    lengths = split.length.tolist()
    assert got.length.tolist() == [sum(lengths[i] for i in chain) for _, chain in chains]
    # the package's own walk, summed in Python as the bincount must add it
    runs = split.length[got.edges].tolist()
    bounds = got.start.tolist()
    assert got.length.tolist() == [sum(runs[a:b]) for a, b in zip(bounds, bounds[1:])]


def assert_lifts_match_the_tables(red):
    """``lift_point`` on every reduced vertex and at points along every
    reduced edge equals a lift read off the eager tables."""
    if red.identity:
        return
    rg = red.reduced.graph
    origin, paths = refs.vertex_origin(red), refs.edge_paths(red)
    for x in range(rg.vertex_count):
        assert red.lift_point(rg.vertex_point(x)) == origin[x]
    for k in range(rg.edge_count):
        _, _, total = rg.edge(k)
        for f in (0.0, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3, 1.0):
            p = GraphPoint(k, f * total)
            v = rg.point_on_vertex(p)
            want = origin[v] if v is not None else _table_lift(red, paths[p.edge], p)
            assert red.lift_point(p) == want


def _table_lift(red, path, p: GraphPoint) -> GraphPoint:
    """Lift an interior point by walking ``path``, its edge's row of
    ``edge_paths``."""
    walked = 0.0
    for eid, a, b in path:
        span = abs(b - a)
        if p.t <= walked + span + reduction._SNAP:
            frac = min(max(p.t - walked, 0.0), span)
            t = a + frac if b >= a else a - frac
            return GraphPoint(eid, min(max(t, 0.0), float(red.original.graph.length[eid])))
        walked += span
    raise AssertionError("point beyond reduced edge path")


# ---------------------------------------------------------------------------
# the one-pass worklist against the fixpoint


@pytest.mark.parametrize("max_vertices", [12, 16])
@pytest.mark.parametrize("edge_locations", [False, True])
def test_one_pass_matches_the_fixpoint_on_random_draws(max_vertices, edge_locations):
    reduced = 0
    for seed in range(1000):
        inst = draw_case(seed, max_vertices=max_vertices, edge_locations=edge_locations)
        sp = splits(inst)
        got = sp.red
        assert_same_split(inst, sp)
        assert_same_reduction(got, fixpoint_reduce(inst, sp))
        if sp.got is not None:
            assert_same_chains_of(sp.got)
        assert_lifts_match_the_tables(got)
        assert_passes_validation(got)
        reduced += not got.identity
    assert reduced >= 800


def test_one_pass_matches_the_fixpoint_on_large_draws():
    for seed in range(3):
        inst = random_instance(
            seed, n_vertices=1000, n_cycles=60, n_points=20, n_locations=6,
            edge_locations=True,
        )
        sp = splits(inst)
        got = sp.red
        assert got.reduced.graph.vertex_count < 400
        assert_same_split(inst, sp)
        assert_same_reduction(got, fixpoint_reduce(inst, sp))
        if sp.got is not None:
            assert_same_chains_of(sp.got)
        assert_lifts_match_the_tables(got)
        assert_passes_validation(got)


@pytest.mark.parametrize("n", [60, 250, 1000, 4000])
def test_rooted_count_matches_the_worklist_on_benchmark_networks(n):
    # tree-like networks with interior locations, and rings whose few points
    # leave rings with one, two and more anchors
    rng = random.Random(n)
    for data in (
        gen.tree_like(rng, n),
        gen.tree_like(rng, n, n_points=3, n_locations=2, edge_share=0.8),
        gen.rings(rng, n_rings=6, ring_size=n // 6, n_points=3, n_locations=2),
    ):
        inst = parse_instance(data)
        assert_same_chains(inst)
        assert_lifts_match_the_tables(reduce_instance(inst))


# ---------------------------------------------------------------------------
# deep and wide networks: every pass is linear, with no loop over the depth
# of a search tree and no rescan of a vertex's edges


def _deep_network(shape: str, size: int):
    """A path of ``size`` vertices, a star of ``size`` vertices or a chain
    of ``size`` triangles with seeded lengths, its points and its optimum.
    One point sits on both ends (the first and last vertex) with equal
    chance, another on the first end, so half the distance between the
    ends is the least cost."""
    rng = random.Random(size)
    spec, far = [], 0.0
    if shape == "path":
        names = [f"p{i}" for i in range(size)]
        for a, b in zip(names, names[1:]):
            spec.append((a, b, float(rng.randint(1, 9))))
            far += spec[-1][2]
    elif shape == "star":
        names = [f"s{i}" for i in range(size)]
        spec = [(names[1], x, float(rng.randint(1, 9))) for x in names if x != names[1]]
        far = spec[0][2] + spec[-1][2]
    else:
        names = [f"t{i}" for i in range(2 * size + 1)]
        for i in range(0, 2 * size, 2):
            a, mid, b = names[i : i + 3]
            sides = [float(rng.randint(1, 9)) for _ in range(3)]
            spec += [(a, mid, sides[0]), (mid, b, sides[1]), (a, b, sides[2])]
            far += min(sides[0] + sides[1], sides[2])
    points = [
        UncertainPoint("both", 1.0, (Location(0, 0.5), Location(len(names) - 1, 0.5))),
        UncertainPoint("first", 1.0, (Location(0, 1.0),)),
    ]
    return names, spec, points, 0.5 * far


def _best_alternating(seconds, size: int) -> tuple[float, float]:
    """The best of five ``seconds(n)`` at ``size`` and at twice the size,
    the two taken in turn, so that a slow stretch of the host lands on both
    sizes alike."""
    best = [float("inf"), float("inf")]
    for _ in range(5):
        for i, n in enumerate((size, 2 * size)):
            best[i] = min(best[i], seconds(n))
    return best[0], best[1]


def _solve_seconds(shape: str, size: int) -> float:
    """Build the network (one decomposition), reduce and solve, checking
    the optimum."""
    names, spec, points, want = _deep_network(shape, size)
    start = time.perf_counter()
    value = solve(build_instance(validate_cactus(names, spec), points)).value
    seconds = time.perf_counter() - start
    assert value == pytest.approx(want, rel=1e-12)
    return seconds


@pytest.mark.parametrize(
    "shape, size", [("path", 10_000), ("star", 10_000), ("triangles", 1_500)]
)
def test_deep_networks_reduce_and_solve_in_linear_time(shape, size):
    names, spec, points, _ = _deep_network(shape, 1_000 if shape == "triangles" else 2_000)
    small = build_instance(validate_cactus(names, spec), points)
    # at about 2,000 vertices every pass still equals its reference
    assert refs.decomposition(_decompose(small.graph)) == refs.decomposition(
        reference_decompose(small.graph)
    )
    assert_same_chains(small)
    red = reduce_instance(small)
    assert red.reduced.graph.vertex_count == 2
    assert_lifts_match_the_tables(red)
    once, twice = _best_alternating(lambda n: _solve_seconds(shape, n), size)
    assert twice <= 3.0 * once, (once, twice)


def _spread_instance(shape: str, size: int):
    """The deep network of ``shape`` and ``size`` with a weightless point on
    every vertex, so the reduction keeps them all and the skeleton is as
    deep as the network; the probabilities are dyadic, so they sum to 1."""
    names, spec, points, want = _deep_network(shape, size)
    share = 2.0 ** -math.ceil(math.log2(len(names)))
    spread = [Location(v, share) for v in range(1, len(names))]
    spread.append(Location(0, 1.0 - share * (len(names) - 1)))
    points = points + [UncertainPoint("spread", 0.0, tuple(spread))]
    return build_instance(validate_cactus(names, spec), points), want


def _rerooted_solve_seconds(shape: str, size: int) -> float:
    """The skeleton, the rerooted expected distances and the solve of a
    fresh instance, checking the optimum."""
    inst, want = _spread_instance(shape, size)
    start = time.perf_counter()
    inst.graph.skeleton
    inst.ed_at_vertices
    value = solve(inst).value
    seconds = time.perf_counter() - start
    assert value == pytest.approx(want, rel=1e-12)
    return seconds


@pytest.mark.parametrize("shape, size", [("path", 10_000), ("triangles", 1_500)])
def test_deep_skeletons_reroot_and_solve_in_linear_time(shape, size):
    inst, _ = _spread_instance(shape, 1_000 if shape == "triangles" else 2_000)
    assert reduce_instance(inst).identity
    # at about 2,000 vertices the skeleton is as deep as the network, and
    # its arrays, masses and rerooted distances equal the references
    tree, sk = inst.graph.skeleton, refs.skeleton(inst.graph)
    refs.assert_same_skeleton(tree, sk)
    depth, x = 0, sk.order[-1]
    while sk.parent[x] >= 0:
        depth, x = depth + 1, sk.parent[x]
    assert depth >= len(tree) // 2
    assert np.abs(inst.subtree_mass - refs.subtree_mass(inst, sk)).max() <= 1e-12
    want = refs.ed_at_vertices(inst, sk)
    assert np.all(np.abs(inst.ed_at_vertices - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    everyone = frozenset(range(len(tree)))
    assert centroid(tree, refs.mask(tree, everyone)) == refs.centroid(sk, everyone)
    once, twice = _best_alternating(lambda n: _rerooted_solve_seconds(shape, n), size)
    assert twice <= 3.0 * once, (once, twice)


# ---------------------------------------------------------------------------
# metamorphic properties beyond the oracle's size: a massless addition moves
# neither the optimum nor the reduced vertex count


_LENGTHS = st.lists(st.integers(1, 9).map(float), min_size=1, max_size=4)


def _spec(graph):
    return [(graph.names[e.u], graph.names[e.v], e.length) for e in edge_rows(graph)]


def _assert_same_optimum(inst, changed):
    want = solve(inst).value
    assert solve(changed).value == pytest.approx(want, rel=1e-9, abs=1e-12)
    count = reduce_instance(inst).reduced.graph.vertex_count
    assert reduce_instance(changed).reduced.graph.vertex_count == count


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mid_size_instances(), st.data())
def test_subdividing_an_edge_changes_nothing(inst, data):
    g = inst.graph
    e = edge_row(g, data.draw(st.integers(0, g.edge_count - 1)))
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
@given(mid_size_instances(), st.data())
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
@given(mid_size_instances(), st.data())
def test_a_massless_pendant_cycle_changes_nothing(inst, data):
    g = inst.graph
    lengths = data.draw(_LENGTHS) + data.draw(_LENGTHS) + [1.0]
    ring = [g.names[data.draw(st.integers(0, g.vertex_count - 1))]]
    ring += [f"ring{i}" for i in range(len(lengths) - 1)]
    spec = _spec(g) + list(zip(ring, ring[1:] + ring[:1], lengths))
    graph = validate_cactus(g.names + ring[1:], spec)
    changed = build_instance(graph, inst.points, inst.eps)
    _assert_same_optimum(inst, changed)
