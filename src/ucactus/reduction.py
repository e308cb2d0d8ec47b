"""Normalisation to vertex-constrained form.

Splits edges at interior locations, prunes mass-free parts that can never
host a useful center, and pads what remains so every vertex holds a
location.  The returned object lifts positions on the reduced graph back to
the original one; expected distances are preserved exactly, so solution
values need no lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ucactus.errors import InternalInvariantError
from ucactus.graph import GraphPoint, validate_cactus
from ucactus.uncertain import Instance, Location, UncertainPoint, build_instance

_SNAP = 1e-12

# one directed run along an original edge: (edge id, start offset, end offset)
_Seg = tuple[int, float, float]


@dataclass(slots=True)
class _WVert:
    origin: GraphPoint
    mass: bool = False


@dataclass(slots=True)
class _WEdge:
    u: int
    v: int
    length: float
    path: list[_Seg]
    cycle: int | None  # id of the original cycle this edge lies on, if any

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u

    def oriented(self, start: int) -> list[_Seg]:
        if start == self.u:
            return self.path
        return [(e, b, a) for e, a, b in reversed(self.path)]


@dataclass(slots=True)
class Reduction:
    original: Instance
    reduced: Instance
    identity: bool
    vertex_origin: list[GraphPoint] = field(default_factory=list)
    edge_paths: list[list[_Seg]] = field(default_factory=list)

    def _snapped_vertex(self, p: GraphPoint) -> int | None:
        """The reduced vertex that ``p`` lifts onto: a non-identity lift snaps
        a point within ``_POS_EPS`` of a vertex onto it.  None when ``p``
        lifts as it is."""
        if self.identity:
            return None
        return self.reduced.graph.point_on_vertex(p)

    def lift_source(self, p: GraphPoint) -> GraphPoint:
        """The point of the reduced graph that :meth:`lift_point` maps ``p``
        from; expected distances there equal those at the lifted point."""
        v = self._snapped_vertex(p)
        return p if v is None else self.reduced.graph.vertex_point(v)

    def lift_point(self, p: GraphPoint) -> GraphPoint:
        """Map a position on the reduced graph to the original graph."""
        if self.identity:
            return p
        v = self._snapped_vertex(p)
        if v is not None:
            return self.vertex_origin[v]
        walked = 0.0
        for eid, a, b in self.edge_paths[p.edge]:
            span = abs(b - a)
            if p.t <= walked + span + _SNAP:
                frac = min(max(p.t - walked, 0.0), span)
                t = a + frac if b >= a else a - frac
                length = self.original.graph.edges[eid].length
                return GraphPoint(eid, min(max(t, 0.0), length))
            walked += span
        raise InternalInvariantError("point beyond reduced edge path")


def reduce_instance(inst: Instance) -> Reduction:
    """Reduce ``inst`` to an equivalent vertex-constrained instance."""
    if inst.is_vertex_constrained and _fully_occupied(inst):
        return Reduction(inst, inst, identity=True)

    graph = inst.graph
    verts: dict[int, _WVert] = {}
    edges: dict[int, _WEdge] = {}
    placed: list[list[tuple[int, float]]] = [[] for _ in inst.points]

    for v in range(graph.vertex_count):
        verts[v] = _WVert(graph.vertex_point(v))

    # split every edge at its interior locations, snapping near-endpoint
    # offsets onto the endpoints
    interior: dict[int, list[float]] = {e.id: [] for e in graph.edges}
    loc_site: dict[tuple[int, int], tuple[str, int | float]] = {}
    for k, p in enumerate(inst.points):
        for li, loc in enumerate(p.locations):
            if loc.prob <= 0.0:
                continue  # carries nothing; its site may then be prunable
            if loc.is_vertex:
                loc_site[(k, li)] = ("vertex", loc.place)
                continue
            pt: GraphPoint = loc.place
            e = graph.edges[pt.edge]
            snap = _SNAP * max(1.0, e.length)
            if pt.t <= snap:
                loc_site[(k, li)] = ("vertex", e.u)
            elif pt.t >= e.length - snap:
                loc_site[(k, li)] = ("vertex", e.v)
            else:
                interior[pt.edge].append(pt.t)
                loc_site[(k, li)] = ("interior", pt.t)

    next_id = graph.vertex_count
    split_vertex: dict[int, list[tuple[float, int]]] = {}
    eid_next = 0
    for e in graph.edges:
        cuts: list[float] = []
        for t in sorted(interior[e.id]):
            if not cuts or t - cuts[-1] > _SNAP * max(1.0, e.length):
                cuts.append(t)
        stations: list[tuple[float, int]] = [(0.0, e.u)]
        for t in cuts:
            verts[next_id] = _WVert(GraphPoint(e.id, t))
            stations.append((t, next_id))
            next_id += 1
        stations.append((e.length, e.v))
        split_vertex[e.id] = stations[1:-1]
        for (t0, a), (t1, b) in zip(stations, stations[1:]):
            edges[eid_next] = _WEdge(
                a, b, t1 - t0, [(e.id, t0, t1)], graph.cycles.edge_cycle[e.id]
            )
            eid_next += 1

    for (k, li), site in loc_site.items():
        prob = inst.points[k].locations[li].prob
        if site[0] == "vertex":
            placed[k].append((site[1], prob))
        else:
            pt = inst.points[k].locations[li].place
            snap = _SNAP * max(1.0, graph.edges[pt.edge].length)
            wv = next(
                w for t, w in split_vertex[pt.edge] if abs(t - site[1]) <= snap
            )
            placed[k].append((wv, prob))

    for locs in placed:
        for w, _ in locs:
            verts[w].mass = True

    _prune(verts, edges)
    return _finish(inst, verts, edges, placed)


def _fully_occupied(inst: Instance) -> bool:
    """True when every vertex carries positive probability mass, leaving
    nothing for the pruning passes to remove."""
    occupied = [False] * inst.graph.vertex_count
    for p in inst.points:
        for loc in p.locations:
            if loc.is_vertex and loc.prob > 0.0:
                occupied[loc.place] = True
    return all(occupied)


def _adjacency(
    verts: dict[int, _WVert], edges: dict[int, _WEdge]
) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for eid, e in edges.items():
        adj[e.u].append(eid)
        adj[e.v].append(eid)
    return adj


def _prune(verts: dict[int, _WVert], edges: dict[int, _WEdge]) -> None:
    """Drop mass-free leaves and dissolve mass-free cycle stretches until
    nothing changes; every removed position is dominated by a survivor."""
    while True:
        changed = False
        adj = _adjacency(verts, edges)

        for v in list(verts):
            while v in verts and len(adj[v]) == 1 and not verts[v].mass:
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
    verts: dict[int, _WVert], edges: dict[int, _WEdge]
) -> list[list[int]]:
    """Edge ids of each surviving cycle in ring order, by original cycle id.

    A ring starts at its smallest vertex and heads toward that vertex's
    smaller ring neighbour, as :class:`~ucactus.graph.Cycle` orders rings.
    """
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


def _reduce_cycles(verts: dict[int, _WVert], edges: dict[int, _WEdge]) -> bool:
    adj = _adjacency(verts, edges)
    changed = False
    for cyc_edges in _working_cycles(verts, edges):
        ring: list[int] = []
        for eid in cyc_edges:
            e = edges[eid]
            if not ring:
                nxt = edges[cyc_edges[1]]
                first = e.u if e.v in (nxt.u, nxt.v) else e.v
                ring.append(first)
            ring.append(edges[eid].u if edges[eid].v == ring[-1] else edges[eid].v)
        ring.pop()  # closes back on ring[0]
        keep = [
            v for v in ring if verts[v].mass or len(adj[v]) >= 3
        ]
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
        i, j = ring.index(a), ring.index(b)
        if i > j:
            i, j = j, i
        arc1_v, arc1_e = ring[i : j + 1], cyc_edges[i:j]
        arc2_v = ring[j:] + ring[: i + 1]
        arc2_e = cyc_edges[j:] + cyc_edges[:i]
        len1 = sum(edges[e].length for e in arc1_e)
        len2 = sum(edges[e].length for e in arc2_e)
        arc_v, arc_e = (arc1_v, arc1_e) if len1 <= len2 else (arc2_v, arc2_e)
        path: list[_Seg] = []
        cur = arc_v[0]
        for eid in arc_e:
            path.extend(edges[eid].oriented(cur))
            cur = edges[eid].u if edges[eid].v == cur else edges[eid].v
        new_id = max(edges) + 1
        length = min(len1, len2)
        for eid in cyc_edges:
            del edges[eid]
        for v in ring:
            if v not in (a, b):
                del verts[v]
        edges[new_id] = _WEdge(arc_v[0], arc_v[-1], length, path, None)
        changed = True
    return changed


def _contract_paths(verts: dict[int, _WVert], edges: dict[int, _WEdge]) -> bool:
    changed = False
    adj = _adjacency(verts, edges)
    neighbours = {
        v: {edges[e].u if edges[e].v == v else edges[e].v for e in adj[v]}
        for v in verts
    }
    for v in list(verts):
        if verts[v].mass or len(adj[v]) != 2:
            continue
        e1, e2 = adj[v]
        u = edges[e1].u if edges[e1].v == v else edges[e1].v
        w = edges[e2].u if edges[e2].v == v else edges[e2].v
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


def _finish(
    inst: Instance,
    verts: dict[int, _WVert],
    edges: dict[int, _WEdge],
    placed: list[list[tuple[int, float]]],
) -> Reduction:
    ids = sorted(verts)
    new_index = {v: i for i, v in enumerate(ids)}
    names = [f"v{i}" for i in range(len(ids))]
    spec = [
        (names[new_index[edges[e].u]], names[new_index[edges[e].v]], edges[e].length)
        for e in sorted(edges)
    ]
    graph = validate_cactus(names, spec)

    points = []
    empty = set(range(len(ids)))
    for k, p in enumerate(inst.points):
        locs = [Location(new_index[w], prob) for w, prob in placed[k]]
        for w, _ in placed[k]:
            empty.discard(new_index[w])
        points.append(UncertainPoint(p.label, p.weight, tuple(locs)))
    if empty:
        # mass-free survivors get a weightless location so the instance is
        # vertex-constrained
        first = points[0]
        pad = tuple(Location(v, 0.0) for v in sorted(empty))
        points[0] = UncertainPoint(first.label, first.weight, first.locations + pad)

    reduced = build_instance(graph, points, inst.eps)
    vertex_origin = [verts[v].origin for v in ids]
    edge_paths = [edges[e].path for e in sorted(edges)]
    return Reduction(inst, reduced, False, vertex_origin, edge_paths)
