"""Normalisation to vertex-constrained form.

Splits edges at interior locations, then reduces the split cactus in one
worklist pass, with no position removed that could host a better center:

* as degrees fall, mass-free leaves are peeled and every ring left with at
  most one anchor (a ring vertex holding mass or of degree three or more)
  is dropped;
* every ring left with exactly two anchors keeps only its shorter arc;
* every chain between survivors (vertices holding mass or of degree three
  or more) becomes one reduced edge.

Ring membership and ring order come from the original graph's cycle
decomposition.  What remains is padded so every vertex holds a location.
The returned object lifts positions on the reduced graph back to the
original one; expected distances are preserved exactly, so solution values
need no lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ucactus.errors import InternalInvariantError
from ucactus.graph import CactusGraph, Cycle, Edge, GraphPoint
from ucactus.uncertain import Instance, Location, UncertainPoint

_SNAP = 1e-12

# one directed run along an original edge: (edge id, start offset, end offset)
_Seg = tuple[int, float, float]


@dataclass(slots=True)
class _Edge:
    """An edge of the split cactus, or a reduced edge: a walk from ``u`` to
    ``v`` along the runs of ``path``."""

    u: int
    v: int
    length: float
    path: list[_Seg]

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u

    def oriented(self, start: int) -> list[_Seg]:
        if start == self.u:
            return self.path
        return [(e, b, a) for e, a, b in reversed(self.path)]


@dataclass(slots=True)
class _Split:
    """The cactus with every interior location made a vertex.

    Original vertices keep their ids; split vertices follow, numbered edge
    by edge, and ``cut_points`` holds their positions.  ``pieces[e]`` lists
    the split edges of original edge ``e`` from its ``u`` end to its ``v``
    end; ``placed[k]`` holds point ``k``'s (vertex, probability) pairs."""

    graph: CactusGraph
    mass: list[bool]
    cut_points: list[GraphPoint]
    edges: list[_Edge]
    pieces: list[list[int]]
    placed: list[list[tuple[int, float]]]

    def origin(self, v: int) -> GraphPoint:
        n = self.graph.vertex_count
        return self.graph.vertex_point(v) if v < n else self.cut_points[v - n]

    def cycles_at(self, v: int) -> tuple[int, ...]:
        """Ids of the original cycles that vertex ``v`` lies on."""
        cycles = self.graph.cycles
        n = self.graph.vertex_count
        if v < n:
            return cycles.vertex_cycles[v]
        c = cycles.edge_cycle[self.cut_points[v - n].edge]
        return () if c is None else (c,)

    def ring(self, cyc: Cycle) -> tuple[list[int], list[int]]:
        """Vertices and split edges of one original cycle, in its ring
        order."""
        verts: list[int] = []
        ring_edges: list[int] = []
        for v, e, forward in zip(cyc.vertices, cyc.edges, cyc.forward):
            for i in self.pieces[e] if forward else reversed(self.pieces[e]):
                verts.append(v)
                ring_edges.append(i)
                v = self.edges[i].other(v)
        return verts, ring_edges


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
    split = _split(inst)
    survivors, edges = _reduce(split)
    return _finish(inst, split, survivors, edges)


def _fully_occupied(inst: Instance) -> bool:
    """True when every vertex carries positive probability mass, leaving
    nothing for the reduction to remove."""
    occupied = [False] * inst.graph.vertex_count
    for p in inst.points:
        for loc in p.locations:
            if loc.is_vertex and loc.prob > 0.0:
                occupied[loc.place] = True
    return all(occupied)


def _split(inst: Instance) -> _Split:
    graph = inst.graph
    placed: list[list[tuple[int, float]]] = [[] for _ in inst.points]

    # split every edge at its interior locations, snapping near-endpoint
    # offsets onto the endpoints
    interior: dict[int, list[float]] = {}
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
                interior.setdefault(pt.edge, []).append(pt.t)
                loc_site[(k, li)] = ("interior", pt.t)

    cut_points: list[GraphPoint] = []
    edges: list[_Edge] = []
    pieces: list[list[int]] = []
    split_vertex: dict[int, list[tuple[float, int]]] = {}
    for e in graph.edges:
        cuts: list[float] = []
        for t in sorted(interior.get(e.id, ())):
            if not cuts or t - cuts[-1] > _SNAP * max(1.0, e.length):
                cuts.append(t)
        stations: list[tuple[float, int]] = [(0.0, e.u)]
        for t in cuts:
            stations.append((t, graph.vertex_count + len(cut_points)))
            cut_points.append(GraphPoint(e.id, t))
        stations.append((e.length, e.v))
        split_vertex[e.id] = stations[1:-1]
        pieces.append(list(range(len(edges), len(edges) + len(cuts) + 1)))
        for (t0, a), (t1, b) in zip(stations, stations[1:]):
            edges.append(_Edge(a, b, t1 - t0, [(e.id, t0, t1)]))

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

    mass = [False] * (graph.vertex_count + len(cut_points))
    for locs in placed:
        for w, _ in locs:
            mass[w] = True
    return _Split(graph, mass, cut_points, edges, pieces, placed)


def _reduce(split: _Split) -> tuple[list[int], list[_Edge]]:
    """The survivors of the split cactus, in id order, and the reduced edges
    that join them, each a chain of split edges walked in one piece; the
    edges come in order of their lowest split edge and run its way.

    Peeling a mass-free leaf or dropping a ring lowers degrees, which can
    make new leaves and rings to drop, so both run off one worklist.  Every
    removed position is dominated by a survivor: a peeled leaf by its
    neighbour, a dropped ring by its anchor, a longer arc by the shorter."""
    mass, edges = split.mass, split.edges
    adj: list[list[int]] = [[] for _ in mass]
    for i, e in enumerate(edges):
        adj[e.u].append(i)
        adj[e.v].append(i)
    deg = [len(a) for a in adj]
    live = [True] * len(edges)
    cycles = split.graph.cycles.cycles
    rings = [split.ring(cyc) for cyc in cycles]
    ring_live = [True] * len(cycles)

    def anchor(v: int) -> bool:
        return mass[v] or deg[v] >= 3

    def lower(v: int, by: int) -> None:
        was = anchor(v)
        deg[v] -= by
        if was and not anchor(v):
            for c in split.cycles_at(v):
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
            i = next(i for i in adj[v] if live[i])
            live[i] = False
            deg[v] = 0
            lower(edges[i].other(v), 1)
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

    # a ring with two anchors keeps its shorter arc; the arc's anchors stay
    # anchors of any other ring they lie on, so nothing else changes
    for c, (verts, ring_edges) in enumerate(rings):
        if not ring_live[c] or anchors[c] != 2:
            continue
        i, j = (k for k, v in enumerate(verts) if anchor(v))
        inner = sum(edges[e].length for e in ring_edges[i:j])
        outer = sum(edges[e].length for e in ring_edges[j:] + ring_edges[:i])
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
    chains: list[tuple[int, list[int], list[int]]] = []
    for s in survivors:
        for first in adj[s]:
            if not live[first]:
                continue
            live[first] = False
            walk, chain = [s], [first]
            v = edges[first].other(s)
            while not anchor(v):
                i = next(i for i in adj[v] if live[i])
                live[i] = False
                walk.append(v)
                chain.append(i)
                v = edges[i].other(v)
            walk.append(v)
            # orient each chain along its first split edge
            low = chain.index(min(chain))
            if walk[low] != edges[chain[low]].u:
                walk.reverse()
                chain.reverse()
            chains.append((min(chain), walk, chain))
    chains.sort(key=lambda item: item[0])
    return survivors, [_joined(edges, walk, chain) for _, walk, chain in chains]


def _joined(edges: list[_Edge], walk: list[int], chain: list[int]) -> _Edge:
    """One edge along the split edges ``chain``, entered at ``walk``."""
    path: list[_Seg] = []
    for v, i in zip(walk, chain):
        path.extend(edges[i].oriented(v))
    return _Edge(walk[0], walk[-1], sum(edges[i].length for i in chain), path)


def _finish(
    inst: Instance, split: _Split, survivors: list[int], edges: list[_Edge]
) -> Reduction:
    # a cactus by construction: its decomposition, which the skeleton reads,
    # still proves that, and the tests check it against validate_cactus
    new_index = {v: i for i, v in enumerate(survivors)}
    graph = CactusGraph(
        [f"v{i}" for i in range(len(survivors))],
        [Edge(i, new_index[e.u], new_index[e.v], e.length) for i, e in enumerate(edges)],
    )

    points = []
    empty = set(range(len(survivors)))
    for k, p in enumerate(inst.points):
        locs = [Location(new_index[w], prob) for w, prob in split.placed[k]]
        for w, _ in split.placed[k]:
            empty.discard(new_index[w])
        points.append(UncertainPoint(p.label, p.weight, tuple(locs)))
    if empty:
        # mass-free survivors get a weightless location so the instance is
        # vertex-constrained
        first = points[0]
        pad = tuple(Location(v, 0.0) for v in sorted(empty))
        points[0] = UncertainPoint(first.label, first.weight, first.locations + pad)

    reduced = Instance(graph, points, inst.eps)
    vertex_origin = [split.origin(v) for v in survivors]
    edge_paths = [e.path for e in edges]
    return Reduction(inst, reduced, False, vertex_origin, edge_paths)
