"""Normalisation to vertex-constrained form.

Splits edges at interior locations, then reduces the split cactus in one
worklist pass, with no position removed that could host a better center:

* as degrees fall, mass-free leaves are peeled and every ring left with at
  most one anchor (a ring vertex holding mass or of degree three or more)
  is dropped;
* every ring left with exactly two anchors keeps only its shorter arc;
* every chain between survivors (vertices holding mass or of degree three
  or more) becomes one reduced edge.

The split cactus is an edge table with a half-edge index, as a
``CactusGraph`` is: one sort of the edge ends and the snapped interior cuts
by (edge, offset) numbers its vertices and edges, and the worklist walks
its index.  Ring membership and ring order come from the original graph's
cycle decomposition.  What remains is padded so every vertex holds a
location.
The returned object lifts positions on the reduced graph back to the
original one; expected distances are preserved exactly, so solution values
need no lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ucactus.errors import InternalInvariantError
from ucactus.graph import CactusGraph, Cycle, GraphPoint, half_edge_index
from ucactus.uncertain import Instance, Location, UncertainPoint

_SNAP = 1e-12

# one directed run along an original edge: (edge id, start offset, end offset)
_Seg = tuple[int, float, float]


@dataclass(slots=True)
class _Split:
    """The cactus with every interior location made a vertex, as an edge
    table with its half-edge index.

    Original vertices keep their ids; split vertices follow, numbered by
    (edge, offset), and sit at offset ``cut_t`` of original edge
    ``cut_edge``.  Original edge ``e`` becomes the split edges
    ``first[e]:first[e + 1]``, from its ``u`` end to its ``v`` end; split
    edge ``i`` joins ``u[i]`` to ``v[i]`` along original edge ``edge[i]``,
    from offset ``t0[i]`` to ``t1[i]``.  ``placed[k]`` holds point ``k``'s
    (vertex, probability) pairs."""

    graph: CactusGraph
    mass: list[bool]
    cut_edge: list[int]
    cut_t: list[float]
    u: list[int]
    v: list[int]
    length: list[float]
    edge: list[int]
    t0: list[float]
    t1: list[float]
    first: list[int]
    indptr: list[int]
    nbr: list[int]
    half_edge: list[int]
    placed: list[list[tuple[int, float]]]

    def origin(self, v: int) -> GraphPoint:
        n = self.graph.vertex_count
        if v < n:
            return self.graph.vertex_point(v)
        return GraphPoint(self.cut_edge[v - n], self.cut_t[v - n])

    def cycles_at(self, v: int) -> tuple[int, ...]:
        """Ids of the original cycles that vertex ``v`` lies on."""
        cycles = self.graph.cycles
        n = self.graph.vertex_count
        if v < n:
            return cycles.vertex_cycles[v]
        c = cycles.edge_cycle[self.cut_edge[v - n]]
        return () if c is None else (c,)

    def ring(self, cyc: Cycle) -> tuple[list[int], list[int]]:
        """Vertices and split edges of one original cycle, in its ring
        order."""
        verts: list[int] = []
        ring_edges: list[int] = []
        for v, e, forward in zip(cyc.vertices, cyc.edges, cyc.forward):
            pieces = range(self.first[e], self.first[e + 1])
            for i in pieces if forward else reversed(pieces):
                verts.append(v)
                ring_edges.append(i)
                v = self.u[i] + self.v[i] - v
        return verts, ring_edges

    def oriented(self, i: int, start: int) -> _Seg:
        """Split edge ``i`` as a run entered at its end ``start``."""
        if start == self.u[i]:
            return self.edge[i], self.t0[i], self.t1[i]
        return self.edge[i], self.t1[i], self.t0[i]


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
                length = float(self.original.graph.length[eid])
                return GraphPoint(eid, min(max(t, 0.0), length))
            walked += span
        raise InternalInvariantError("point beyond reduced edge path")


def reduce_instance(inst: Instance) -> Reduction:
    """Reduce ``inst`` to an equivalent vertex-constrained instance."""
    # with mass on every vertex there is nothing to remove
    if inst.is_vertex_constrained and inst.vertex_mass.any(axis=1).all():
        return Reduction(inst, inst, identity=True)
    split = _split(inst)
    survivors, chains = _reduce(split)
    return _finish(inst, split, survivors, chains)


def _split(inst: Instance) -> _Split:
    graph = inst.graph
    n, m = graph.vertex_count, graph.edge_count
    # every location with mass, with its point; a massless one may leave
    # its site prunable
    rows = [
        (k, loc) for k, p in enumerate(inst.points) for loc in p.locations if loc.prob > 0.0
    ]
    site = np.array(
        [loc.place if loc.is_vertex else -1 for _, loc in rows], dtype=np.intp
    )
    inside = np.flatnonzero(site < 0)

    # snap near-endpoint offsets onto the endpoints; the rest cut their edge
    e = np.array([rows[i][1].place.edge for i in inside], dtype=np.intp)
    t = np.array([rows[i][1].place.t for i in inside], dtype=float)
    snap = _SNAP * np.maximum(1.0, graph.length[e])
    to_u, to_v = t <= snap, t >= graph.length[e] - snap
    site[inside] = np.where(to_u, graph.u[e], np.where(to_v, graph.v[e], -1))
    cut = np.flatnonzero(~to_u & ~to_v)
    order = cut[np.lexsort((t[cut], e[cut]))]
    # along each edge, an offset within snap of the last kept cut joins it
    keep, last = [], (-1, 0.0)
    for ei, ti, si in zip(e[order].tolist(), t[order].tolist(), snap[order].tolist()):
        keep.append(ei != last[0] or ti - last[1] > si)
        if keep[-1]:
            last = (ei, ti)
    kept = order[np.array(keep, dtype=bool)]
    site[inside[order]] = n + np.cumsum(keep, dtype=np.intp) - 1
    cut_edge, cut_t = e[kept], t[kept]

    # the stations of every edge, its ends and its cuts, in (edge, offset)
    # order; consecutive stations of one edge bound a split edge
    st_edge = np.concatenate([np.arange(m), np.arange(m), cut_edge])
    st_t = np.concatenate([np.zeros(m), graph.length, cut_t])
    st_v = np.concatenate([graph.u, graph.v, n + np.arange(kept.size)])
    by = np.lexsort((st_t, st_edge))
    st_edge, st_t, st_v = st_edge[by], st_t[by], st_v[by]
    a = np.flatnonzero(st_edge[:-1] == st_edge[1:])
    u, v, t0, t1 = st_v[a], st_v[a + 1], st_t[a], st_t[a + 1]
    first = np.concatenate([[0], np.cumsum(np.bincount(cut_edge, minlength=m) + 1)])

    placed: list[list[tuple[int, float]]] = [[] for _ in inst.points]
    for (k, loc), w in zip(rows, site.tolist()):
        placed[k].append((w, loc.prob))
    mass = np.zeros(n + kept.size, dtype=bool)
    mass[site] = True
    table = (cut_edge, cut_t, u, v, t1 - t0, st_edge[a], t0, t1, first)
    index = half_edge_index(mass.size, u, v)
    return _Split(graph, mass.tolist(), *(x.tolist() for x in table + index), placed)


def _reduce(split: _Split) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    """The survivors of the split cactus, in id order, and the chains of
    split edges that join them, each as the vertices walked and the split
    edges taken; the chains come in order of their lowest split edge and
    run its way.

    Peeling a mass-free leaf or dropping a ring lowers degrees, which can
    make new leaves and rings to drop, so both run off one worklist.  Every
    removed position is dominated by a survivor: a peeled leaf by its
    neighbour, a dropped ring by its anchor, a longer arc by the shorter."""
    mass, length = split.mass, split.length
    indptr, nbr, half_edge = split.indptr, split.nbr, split.half_edge
    deg = [b - a for a, b in zip(indptr, indptr[1:])]
    live = [True] * len(length)
    cycles = split.graph.cycles.cycles
    rings = [split.ring(cyc) for cyc in cycles]
    ring_live = [True] * len(cycles)

    def anchor(v: int) -> bool:
        return mass[v] or deg[v] >= 3

    def live_half(v: int) -> int:
        return next(
            h for h in range(indptr[v], indptr[v + 1]) if live[half_edge[h]]
        )

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

    # a ring with two anchors keeps its shorter arc; the arc's anchors stay
    # anchors of any other ring they lie on, so nothing else changes
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
            if walk[low] != split.u[chain[low]]:
                walk.reverse()
                chain.reverse()
            chains.append((walk, chain))
    chains.sort(key=lambda item: min(item[1]))
    return survivors, chains


def _finish(
    inst: Instance,
    split: _Split,
    survivors: list[int],
    chains: list[tuple[list[int], list[int]]],
) -> Reduction:
    # a cactus by construction: its decomposition, which the skeleton reads,
    # still proves that, and the tests check it against validate_cactus
    renumber = np.zeros(len(split.mass), dtype=np.intp)
    renumber[survivors] = np.arange(len(survivors))
    graph = CactusGraph(
        [f"v{i}" for i in range(len(survivors))],
        renumber[[walk[0] for walk, _ in chains]],
        renumber[[walk[-1] for walk, _ in chains]],
        np.array([sum(split.length[i] for i in chain) for _, chain in chains]),
    )

    new_index = renumber.tolist()
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
    edge_paths = [
        [split.oriented(i, x) for x, i in zip(walk, chain)] for walk, chain in chains
    ]
    return Reduction(inst, reduced, False, vertex_origin, edge_paths)
