"""Normalisation to vertex-constrained form.

Splits edges at interior locations, then keeps only what can host a better
center.  One depth-first search of the split cactus, rooted at a vertex
holding mass, counts ``below[x]``, the mass vertices in x's subtree; the
rest are array passes over that tree:

* a bridge into x stays when ``below[x] > 0``: both its sides hold mass;
* a ring stays when at least two of its vertices, its anchors, have mass
  on their own side (the part of the network that hangs off the ring
  there, the vertex included);
* a ring with exactly two anchors keeps only its shorter arc;
* every chain between survivors (vertices holding mass or of degree three
  or more) becomes one reduced edge.

Every removed position is dominated by a survivor: a dropped bridge or
ring by where it hangs, a longer arc by the shorter.  The split cactus is
an edge table with a half-edge index, as a ``CactusGraph`` is: one sort of
the snapped interior cuts by (edge, offset) numbers its vertices, and each
edge's stations, its ends and its cuts, are placed by index arithmetic,
with no sort.  Ring membership and ring order come from the original
graph's cycle decomposition.  The interior locations are read from the
instance's location table as columns; the reduced instance's table keeps
the locations with mass in location order, each on its survivor, and pads
point 0 with a weightless location on every survivor that holds none,
ascending, so every vertex holds a location.

The returned object lifts positions on the reduced graph back to the
original one, reading only the chain it lifts along; expected distances are
preserved exactly, so solution values need no lifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ucactus.errors import InternalInvariantError
from ucactus.graph import (
    CactusGraph,
    DepthFirst,
    GraphPoint,
    depth_first,
    half_edge_index,
    stable_order,
    subtree_stop,
)
from ucactus.uncertain import Instance, LocationTable

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
    from offset ``t0[i]`` to ``t1[i]``.  ``mass[x]`` says that vertex x
    holds a location with mass: the locations ``live`` of the instance's
    table, those with mass in location order, lie on the vertices
    ``site``."""

    graph: CactusGraph
    mass: np.ndarray
    cut_edge: np.ndarray
    cut_t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    length: np.ndarray
    edge: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    first: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    half_edge: np.ndarray
    live: np.ndarray
    site: np.ndarray

    def origin(self, v: int) -> GraphPoint:
        n = self.graph.vertex_count
        if v < n:
            return self.graph.vertex_point(v)
        return GraphPoint(int(self.cut_edge[v - n]), float(self.cut_t[v - n]))

    def oriented(self, i: int, start: int) -> _Seg:
        """Split edge ``i`` as a run entered at its end ``start``."""
        e, t0, t1 = int(self.edge[i]), float(self.t0[i]), float(self.t1[i])
        return (e, t0, t1) if start == self.u[i] else (e, t1, t0)


@dataclass(slots=True)
class _Chains:
    """The survivors of the split cactus, ascending, and the chains of split
    edges that join them, one per reduced edge, in order of their lowest
    split edge.  Chain ``k`` takes the split edges ``edges[start[k]:start[k
    + 1]]`` in turn, entering each at vertex ``enter``, and passes its
    lowest split edge from that edge's ``u`` end; ``ends`` are its first
    and last vertices and ``length`` its length."""

    survivors: np.ndarray
    edges: np.ndarray
    enter: np.ndarray
    start: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    length: np.ndarray


class Reduction:
    """An instance, its vertex-constrained reduction, and the way back.

    An identity reduction hands the instance through.  Otherwise
    :meth:`lift_point` maps a position on the reduced graph to the original
    graph, reading only the chain of split edges it lies on."""

    def __init__(
        self,
        original: Instance,
        reduced: Instance,
        split: _Split | None = None,
        chains: _Chains | None = None,
    ) -> None:
        self.original = original
        self.reduced = reduced
        self.identity = split is None
        self._split = split
        self._chains = chains

    def _origin(self, v: int) -> GraphPoint:
        """Where reduced vertex ``v`` lies on the original graph."""
        return self._split.origin(int(self._chains.survivors[v]))

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
            return self._origin(v)
        # the first run whose far end, walked from the edge's u end, lies
        # within _SNAP past p
        c = self._chains
        a, b = c.start[p.edge], c.start[p.edge + 1]
        walked = np.cumsum(self._split.length[c.edges[a:b]])
        i = int(np.searchsorted(walked + _SNAP, p.t))
        if i == b - a:
            raise InternalInvariantError("point beyond reduced edge path")
        eid, t0, t1 = self._split.oriented(int(c.edges[a + i]), int(c.enter[a + i]))
        before = float(walked[i - 1]) if i else 0.0
        frac = min(max(p.t - before, 0.0), abs(t1 - t0))
        t = t0 + frac if t1 >= t0 else t0 - frac
        return GraphPoint(eid, min(max(t, 0.0), float(self.original.graph.length[eid])))


def reduce_instance(inst: Instance) -> Reduction:
    """Reduce ``inst`` to an equivalent vertex-constrained instance."""
    # with mass on every vertex there is nothing to remove
    if inst.is_vertex_constrained and inst.vertex_mass.any(axis=1).all():
        return Reduction(inst, inst)
    split = _split(inst)
    return _finish(inst, split, _reduce(split))


def _split(inst: Instance) -> _Split:
    graph, tab = inst.graph, inst.table
    n, m = graph.vertex_count, graph.edge_count
    # every location with mass; a massless one may leave its site prunable
    live = np.flatnonzero(tab.prob > 0.0)
    site = tab.vertex[live]
    inside = np.flatnonzero(site < 0)

    # snap near-endpoint offsets onto the endpoints; the rest cut their edge
    e, t = tab.edge[live[inside]], tab.t[live[inside]]
    snap = _SNAP * np.maximum(1.0, graph.length[e])
    to_u, to_v = t <= snap, t >= graph.length[e] - snap
    site[inside] = np.where(to_u, graph.u[e], np.where(to_v, graph.v[e], -1))
    cut = np.flatnonzero(~to_u & ~to_v)
    order = cut[np.lexsort((t[cut], e[cut]))]
    keep = _kept_cuts(e[order], t[order], snap[order])
    kept = order[keep]
    site[inside[order]] = n + np.cumsum(keep, dtype=np.intp) - 1
    cut_edge, cut_t = e[kept], t[kept]

    # the stations of every edge in order along it: edge e's start at
    # first[e] + e with its u end, then its cuts, which ``kept`` holds in
    # (edge, offset) order, so cut j of edge e is station 2e + 1 + j, then
    # its v end; consecutive stations of one edge bound a split edge
    pieces = np.bincount(cut_edge, minlength=m) + 1
    first = np.concatenate([[0], np.cumsum(pieces)])
    ids = np.arange(m)
    st_v = np.empty(first[-1] + m, dtype=np.intp)
    st_t = np.empty(first[-1] + m)
    at_u, at_v = first[:-1] + ids, first[1:] + ids
    st_v[at_u], st_t[at_u] = graph.u, 0.0
    st_v[at_v], st_t[at_v] = graph.v, graph.length
    at = 2 * cut_edge + 1 + np.arange(kept.size)
    st_v[at], st_t[at] = n + np.arange(kept.size), cut_t
    edge = np.repeat(ids, pieces)
    a = np.arange(first[-1]) + edge
    u, v, t0, t1 = st_v[a], st_v[a + 1], st_t[a], st_t[a + 1]

    mass = np.zeros(n + kept.size, dtype=bool)
    mass[site] = True
    index = half_edge_index(mass.size, u, v)
    return _Split(
        graph, mass, cut_edge, cut_t, u, v, t1 - t0, edge, t0, t1, first, *index,
        live, site,
    )


def _kept_cuts(e: np.ndarray, t: np.ndarray, snap: np.ndarray) -> np.ndarray:
    """Which cuts, sorted by (edge ``e``, offset ``t``), become split
    vertices: along each edge, a cut within ``snap`` past the last kept cut
    joins it.  A cut more than ``snap`` past the cut before it is kept, as
    is the first of its edge; each round then keeps, after every kept cut,
    the first cut that lies more than ``snap`` past it, until none does."""
    keep = np.ones(len(e), dtype=bool)
    keep[1:] = (e[1:] != e[:-1]) | (t[1:] - t[:-1] > snap[1:])
    at = np.arange(len(e))
    while True:
        last = np.maximum.accumulate(np.where(keep, at, 0))
        far = np.flatnonzero(~keep & (t - t[last] > snap))
        if not far.size:
            return keep
        after = last[far]
        keep[far[np.diff(after, prepend=-1) != 0]] = True


def _reduce(split: _Split) -> _Chains:
    """The survivors of the split cactus and the chains that join them."""
    root = int(np.argmax(split.mass))
    live = _live_edges(split, root)
    n = len(split.mass)
    degree = np.bincount(split.u[live], minlength=n) + np.bincount(split.v[live], minlength=n)
    return _chains(split, live, split.mass | (degree >= 3), root)


def _live_edges(split: _Split, root: int) -> np.ndarray:
    """Which split edges stay, from one depth-first search rooted at a mass
    vertex: the bridges with mass below them, and the rings with two
    anchors or more, cut to the shorter arc when they have exactly two."""
    u, v, m = split.u, split.v, len(split.u)
    walk = depth_first(split.indptr, split.nbr, split.half_edge, root)
    held = np.concatenate([[0], np.cumsum(split.mass[walk.order])])
    below = held[subtree_stop(walk, split.nbr)] - held[walk.start]
    top, low, tree = _tree_ends(walk, u, v)
    ring_edges, ring_from, ring, bounds = _rings(split)
    ring_of = np.full(m, -1)
    ring_of[ring_edges] = ring

    # the mass on each ring vertex's own side, kept on one ring edge at the
    # vertex: a lower vertex's on its parent edge, as its subtree's mass
    # less its ring child's; the ring top's on the ring's back edge, as all
    # mass less the top's ring child's
    closing = ~tree[ring_edges]
    back = np.empty(len(bounds) - 1, dtype=np.intp)
    back[ring[closing]] = ring_edges[closing]
    down, r = ring_edges[~closing], ring[~closing]
    up = walk.parent_edge[top[down]]
    at_top = (up < 0) | (ring_of[up] != r)
    side = np.zeros(m, dtype=np.intp)
    side[down] = below[low[down]]
    side[np.where(at_top, back[r], up)] -= below[low[down]]
    side[back] += held[-1]
    # ring vertex ``ring_from[i]`` keeps its side on the ring edge it leaves
    # or on the one before
    prev = np.arange(-1, len(ring_edges) - 1)
    prev[bounds[:-1]] = bounds[1:] - 1
    holder = np.where(tree, low, top)[ring_edges] == ring_from
    anchor = side[np.where(holder, ring_edges, ring_edges[prev])] > 0
    anchors = np.bincount(ring[anchor], minlength=len(bounds) - 1)

    dropped = np.zeros(len(ring_edges) + 1, dtype=np.intp)
    two = np.flatnonzero(anchors == 2)
    if len(two):
        # a ring with two anchors keeps its shorter arc, each arc summed in
        # ring order from its first anchor
        at = np.flatnonzero(anchor & (anchors[ring] == 2)).reshape(-1, 2).tolist()
        lengths = split.length[ring_edges].tolist()
        cut_from, cut_to = [], []
        for (i, j), a, b in zip(at, bounds[two].tolist(), bounds[two + 1].tolist()):
            if sum(lengths[i:j]) <= sum(lengths[j:b] + lengths[a:i]):
                cut_from += [j, a]
                cut_to += [b, i]
            else:
                cut_from.append(i)
                cut_to.append(j)
        np.add.at(dropped, cut_from, 1)
        np.add.at(dropped, cut_to, -1)
    live = ring_of < 0
    live[live] = below[low[live]] > 0
    live[ring_edges] = (anchors[ring] >= 2) & (np.cumsum(dropped[:-1]) == 0)
    return live


def _rings(split: _Split) -> tuple[np.ndarray, ...]:
    """The split edges of every original cycle in its ring order: positions
    ``bounds[r]:bounds[r + 1]`` of ``ring_edges`` hold ring ``r``, and
    position ``i`` leaves vertex ``ring_from[i]`` and lies on ring
    ``ring[i]``."""
    dec = split.graph.cycles
    orig, fwd = dec.ring_edge, dec.ring_forward
    # a forward edge is split from its u end on, a backward one from its v end
    pieces = split.first[orig + 1] - split.first[orig]
    slot = np.repeat(np.arange(len(orig)), pieces)
    step = np.arange(len(slot)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    ring_edges = np.where(
        fwd[slot], split.first[orig[slot]] + step, split.first[orig[slot] + 1] - 1 - step
    )
    ring_from = np.where(fwd[slot], split.u[ring_edges], split.v[ring_edges])
    ring = dec.ring_cycle[slot]
    bounds = np.searchsorted(ring, np.arange(len(dec) + 1))
    return ring_edges, ring_from, ring, bounds


def _chains(split: _Split, live: np.ndarray, survivor: np.ndarray, root: int) -> _Chains:
    """The chains of live split edges between survivors.

    In a depth-first search of the live edges, a vertex of degree two has
    a parent edge, so every chain runs down the tree from a survivor and
    may end by a back edge up to a survivor.  Each edge entered at a vertex
    that is not a survivor follows that vertex's parent edge, and pointer
    doubling finds the top edge of each chain."""
    u, v, n, m = split.u, split.v, len(split.mass), len(split.u)
    keep = live[split.half_edge]
    tail = np.repeat(np.arange(n), np.diff(split.indptr))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tail[keep], minlength=n))])
    walk = depth_first(indptr, split.nbr[keep], split.half_edge[keep], root)
    top, low, tree = _tree_ends(walk, u, v)
    enter, leave = np.where(tree, top, low), np.where(tree, low, top)
    follows = np.where(survivor[enter] | ~live, np.arange(m), walk.parent_edge[enter])
    while True:
        higher = follows[follows]
        if np.array_equal(higher, follows):
            break
        follows = higher
    # each chain's edges top down, chain after chain: two stable sorts, the
    # minor key first
    ids = np.flatnonzero(live)
    ids = ids[stable_order(np.where(tree, walk.start[low], n)[ids], n + 1)]
    ids = ids[stable_order(follows[ids], m)]
    heads = np.flatnonzero(np.diff(follows[ids], prepend=-1))
    # chains in order of their lowest split edge, each turned to pass that
    # edge from its u end
    lowest = np.minimum.reduceat(ids, heads) if len(ids) else ids
    by = stable_order(lowest, m)
    onward = (enter[lowest] == u[lowest])[by]
    sizes = np.diff(heads, append=len(ids))[by]
    start = np.concatenate([[0], np.cumsum(sizes)])
    k = np.repeat(np.arange(len(by)), sizes)
    step = np.arange(len(ids)) - start[k]
    edges = ids[heads[by][k] + np.where(onward[k], step, sizes[k] - 1 - step)]
    entered = np.where(onward[k], enter[edges], leave[edges])
    last = start[1:] - 1
    return _Chains(
        np.flatnonzero(survivor),
        edges,
        entered,
        start,
        (entered[start[:-1]], u[edges[last]] + v[edges[last]] - entered[last]),
        # bincount adds each chain's lengths in walk order
        np.bincount(k, split.length[edges], len(by)),
    )


def _tree_ends(walk: DepthFirst, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each edge's end nearer the search's root, its other end, and whether
    it is a tree edge: the parent edge of its other end.  Every other edge
    of the searched part closes a ring."""
    upper = walk.start[u] < walk.start[v]
    top, low = np.where(upper, u, v), np.where(upper, v, u)
    return top, low, walk.parent_edge[low] == np.arange(len(u))


def _finish(inst: Instance, split: _Split, chains: _Chains) -> Reduction:
    # a cactus by construction: its decomposition, which the skeleton reads,
    # still proves that, and the tests check it against validate_cactus
    survivors = chains.survivors
    renumber = np.zeros(len(split.mass), dtype=np.intp)
    renumber[survivors] = np.arange(len(survivors))
    graph = CactusGraph(
        [f"v{i}" for i in range(len(survivors))],
        renumber[chains.ends[0]],
        renumber[chains.ends[1]],
        chains.length,
    )

    # the live locations in location order, then point 0's pads: mass-free
    # survivors get a weightless location so the instance is
    # vertex-constrained
    tab = inst.table
    vertex = renumber[split.site]
    held = np.zeros(len(survivors), dtype=bool)
    held[vertex] = True
    pad = np.flatnonzero(~held)
    sizes = np.bincount(inst.owner[split.live], minlength=inst.n)
    end = sizes[0]
    sizes[0] += pad.size
    vertex = np.insert(vertex, end, pad)
    size = len(vertex)
    table = LocationTable(
        tab.labels,
        tab.weights,
        np.concatenate([[0], np.cumsum(sizes)]),
        vertex,
        np.full(size, -1, dtype=np.intp),
        np.zeros(size),
        np.insert(tab.prob[split.live], end, np.zeros(pad.size)),
    )
    return Reduction(inst, Instance(graph, table, inst.eps), split, chains)
