"""Cactus graph model: validation, cycle decomposition, skeleton tree, metric.

Vertices are dense integers internally; external names live in
``CactusGraph.names``.  A network is one edge table, ``u``/``v``/``length``
arrays indexed by edge id, and one half-edge index that the cycle
decomposition, the skeleton and Dijkstra all read.  A point on the network
is a ``GraphPoint``: an edge id plus an offset from the edge's ``u``
endpoint, both Python numbers.  Every integer index key is sorted by
:func:`stable_order`, which hands numpy keys of 16 bits, the width it radix
sorts.

Dijkstra serves only the pricing of an arbitrary point
(:meth:`CactusGraph.distances_from`), which ``objective`` and
``expected_distance`` read to check a solution independently of the
solver; ``solve`` and ``decide`` read distances off the skeleton instead.

The cycle decomposition is one depth-first search in C (scipy's
``depth_first_order``, which takes each vertex's edges in index order);
the tree and the back edges are read off in array passes, with no loop
over the levels of the tree, and each back edge closes one cycle.  The
cycles are one ring table, flat columns over every cycle's positions in
ring order that every later stage slices.  The walk up each cycle's tree
path is the one Python pass, once per ring vertex; the ring order, the
orientation and the arc coordinates are array passes.

The skeleton tree is a set of arrays built from one more such search,
which roots it; every component query (what one removed node cuts off,
which way a target lies, a centroid) reads its preorder, since each such
component is a preorder slice or its complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order, dijkstra

from ucactus.errors import (
    InternalInvariantError,
    InvalidPoint,
    NonPositiveEdgeLength,
    NotConnected,
    SharedCycleEdge,
    ValidationError,
)

_POS_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class GraphPoint:
    """A point on an edge, ``t`` metric units from the edge's ``u`` endpoint."""

    edge: int
    t: float


class CactusGraph:
    """A connected cactus held as one edge table: edge ``i`` joins ``u[i]``
    and ``v[i]`` and has length ``length[i]``.  Positions
    ``indptr[x]:indptr[x + 1]`` of ``nbr`` (the far end) and ``half_edge``
    (the edge id) list the edges at vertex ``x`` in id order.  Outside input
    comes through :func:`validate_cactus`, which hands over the name index
    it built as ``vertex_id``; the reduction builds its output directly.
    The cycle decomposition proves connectivity and cactus-ness when it is
    first read."""

    def __init__(
        self,
        names: list[str],
        u: np.ndarray,
        v: np.ndarray,
        length: np.ndarray,
        vertex_id: dict[str, int] | None = None,
        pair_index: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.names = names
        self.u, self.v, self.length = u, v, length
        self.vertex_count = len(names)
        self.edge_count = len(length)
        self.indptr, self.nbr, self.half_edge = half_edge_index(len(names), u, v)
        if vertex_id is not None:
            self.vertex_id = vertex_id
        if pair_index is not None:
            self.pair_index = pair_index

    @cached_property
    def vertex_id(self) -> dict[str, int]:
        """Each vertex name's id."""
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, ids)``: every edge's :func:`pair_key`, ascending, and the
        id of the edge holding each; the edges between two vertices are found
        by one ``searchsorted``."""
        key = pair_key(self.vertex_count, self.u, self.v)
        order = stable_order(key, self.vertex_count**2)
        return key[order], order

    def edges_between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The id of the edge joining ``a[i]`` and ``b[i]``, in either
        direction, or -1 where there is none."""
        keys, ids = self.pair_index
        key = pair_key(self.vertex_count, a, b)
        if not len(keys):
            return np.full(len(key), -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where(keys[at] == key, ids[at], -1)

    def edge(self, i: int) -> tuple[int, int, float]:
        """``u``, ``v`` and length of edge ``i`` as Python numbers."""
        return int(self.u[i]), int(self.v[i]), float(self.length[i])

    @cached_property
    def adjacency(self) -> csr_matrix:
        """The half-edge index as a sparse matrix weighted by edge length,
        each row's columns sorted, the order Dijkstra relaxes them in."""
        n = self.vertex_count
        data = self.length[self.half_edge]
        m = csr_matrix((data, self.nbr, self.indptr), shape=(n, n), copy=True)
        m.sort_indices()
        return m

    @cached_property
    def vertex_distances(self) -> np.ndarray:
        """Dense all-pairs shortest-path matrix over vertices: the reference
        that the oracle and the tests check against; no solver stage reads it."""
        return dijkstra(self.adjacency, directed=False)

    def distance_rows(self, sources: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row ``i`` holds the distances from vertex ``sources[i]`` to every
        vertex, from one Dijkstra run.  Only :meth:`distances_from` reads
        it; no stage of ``solve`` or ``decide`` runs it."""
        return dijkstra(self.adjacency, directed=False, indices=sources)

    def distances_from(self, p: GraphPoint) -> np.ndarray:
        """Distances from ``p`` to every vertex, through the nearer end of
        ``p``'s edge."""
        check_point(self, p)
        if p.edge < 0:
            return np.zeros(self.vertex_count)
        u, v, length = self.edge(p.edge)
        d = self.distance_rows([u, v])
        return np.minimum(p.t + d[0], (length - p.t) + d[1])

    @cached_property
    def cycles(self) -> CycleDecomposition:
        return _decompose(self)

    @cached_property
    def bridges(self) -> np.ndarray:
        """Ids of the out-of-cycle edges, ascending."""
        return np.flatnonzero(self.cycles.edge_cycle < 0)

    @cached_property
    def skeleton(self) -> SkeletonTree:
        return _build_skeleton(self)

    def vertex_point(self, v: int) -> GraphPoint:
        """A canonical GraphPoint on vertex ``v``, on its lowest-id edge."""
        if self.indptr[v] == self.indptr[v + 1]:
            # isolated single-vertex graph; edge id -1 is understood by the
            # distance routines as "the lone vertex"
            return GraphPoint(-1, 0.0)
        eid = int(self.half_edge[self.indptr[v]])
        u, _, length = self.edge(eid)
        return GraphPoint(eid, 0.0 if u == v else length)

    def point_on_vertex(self, p: GraphPoint) -> int | None:
        """The vertex ``p`` coincides with, or None for interior points."""
        if p.edge < 0:
            return 0
        u, v, length = self.edge(p.edge)
        if p.t <= _POS_EPS:
            return u
        if p.t >= length - _POS_EPS:
            return v
        return None


def half_edge_index(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """``indptr``, ``nbr`` and ``half_edge`` of the edges ``u[i]``-``v[i]``
    among ``n`` vertices.  Half-edge 2i leaves u[i] and 2i + 1 leaves v[i];
    a stable sort by the vertex left, :func:`stable_order` at ``n``, keeps
    each vertex's edges in id order."""
    tail = np.column_stack([u, v]).ravel()
    order = stable_order(tail, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))])
    return indptr, np.column_stack([v, u]).ravel()[order], order // 2


def stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys in ``[0,
    bound)``.  numpy radix sorts 16-bit keys, so the key is sorted one
    16-bit digit at a time, the lowest first, each pass stable."""
    order = np.argsort((key & 0xFFFF).astype(np.uint16), kind="stable")
    for shift in range(16, (bound - 1).bit_length(), 16):
        digit = ((key[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def pair_key(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One integer per vertex pair, the same for ``(a, b)`` and ``(b, a)``."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def validate_cactus(
    names: Sequence[str], edge_spec: Sequence[tuple[str, str, float]]
) -> CactusGraph:
    """Build a :class:`CactusGraph` from ``(u, v, length)`` rows; see
    :func:`validate_edge_columns`."""
    u_names, v_names, lengths = zip(*edge_spec) if edge_spec else ((), (), ())
    return validate_edge_columns(names, u_names, v_names, lengths)


def validate_edge_columns(
    names: Sequence[str],
    u_names: Sequence[str],
    v_names: Sequence[str],
    lengths: Sequence[float],
) -> CactusGraph:
    """Build a :class:`CactusGraph` from edge columns, edge ``i`` joining
    ``u_names[i]`` and ``v_names[i]``, checking connectivity and cactus-ness.

    Each edge check runs over all edges at once and reports its first
    faulty edge; they run in the order unknown endpoint, self-loop,
    non-finite length, non-positive length, parallel pair."""
    names = list(names)
    index = dict(zip(names, range(len(names))))
    if len(index) != len(names):
        raise ValidationError("duplicate vertex names")
    if not names:
        raise ValidationError("graph needs at least one vertex")
    m = len(lengths)
    u = np.fromiter(map(index.get, u_names, repeat(-1)), np.intp, m)
    v = np.fromiter(map(index.get, v_names, repeat(-1)), np.intp, m)
    length = np.array(lengths, dtype=float)

    def check(bad: np.ndarray, error: type[Exception], message: str) -> None:
        if bad.any():
            i = np.argmax(bad)
            raise error(message.format(u_names[i], v_names[i], lengths[i]))

    check((u < 0) | (v < 0), ValidationError, "edge endpoint {0!r} or {1!r} unknown")
    check(u == v, ValidationError, "self-loop at {0!r}")
    check(~np.isfinite(length), ValidationError, "edge {0!r}-{1!r} has non-finite length {2}")
    check(length <= 0, NonPositiveEdgeLength, "edge {0!r}-{1!r} has length {2}")
    # with every endpoint known, each key is a pair's; in the stable order,
    # every edge but the first of its pair is a parallel one
    key = pair_key(len(names), u, v)
    order = stable_order(key, len(names) ** 2)
    keys = key[order]
    parallel = np.zeros(m, dtype=bool)
    parallel[order[1:][keys[1:] == keys[:-1]]] = True
    check(parallel, ValidationError, "parallel edge {0!r}-{1!r}")
    total = sum(lengths)
    if not math.isfinite(total):
        raise ValidationError(f"total edge length {total} is not finite")
    graph = CactusGraph(names, u, v, length, index, (keys, order))
    graph.cycles  # the decomposition raises NotConnected or SharedCycleEdge
    return graph


# ---------------------------------------------------------------------------
# cycle decomposition


@dataclass(frozen=True, slots=True)
class CycleDecomposition:
    """The cycles as one ring table, numbered in the order the search closes
    them, built by one Python walk, once per ring vertex, and array passes.
    Cycle ``c`` holds positions ``ring(c)`` of the ring columns, from its
    smallest vertex toward that vertex's smaller neighbour, so the order of
    the search never shows in a coordinate.  At position ``i``,
    ``ring_vertex[i]`` is a vertex, ``ring_edge[i]`` the edge on to the next
    position (the last one back to the first), ``ring_forward[i]`` whether
    its ``u`` endpoint is ``ring_vertex[i]``, ``ring_pos[i]`` the vertex's
    arc coordinate, the ring's edge lengths added up in ring order from 0,
    and ``ring_cycle[i]`` its cycle.  Coordinates of cycle ``c`` live in
    ``[0, perimeter[c])``; ``edge_cycle[e]`` is the cycle of edge ``e``, -1
    for a bridge."""

    ring_ptr: np.ndarray
    ring_vertex: np.ndarray
    ring_edge: np.ndarray
    ring_forward: np.ndarray
    ring_pos: np.ndarray
    perimeter: np.ndarray
    ring_cycle: np.ndarray
    edge_cycle: np.ndarray

    def __len__(self) -> int:
        return len(self.perimeter)

    def ring(self, c: int) -> slice:
        """Cycle ``c``'s positions in the ring columns."""
        return slice(self.ring_ptr[c], self.ring_ptr[c + 1])

    def point(self, graph: CactusGraph, c: int, x: float) -> GraphPoint:
        """The point at arc coordinate ``x`` of cycle ``c``, taken modulo the
        perimeter, on the first ring edge whose far end is at least ``x -
        _POS_EPS``."""
        at, per = self.ring(c), self.perimeter[c].item()
        x %= per
        ends = np.append(self.ring_pos[at][1:], per)
        i = int(np.searchsorted(ends + _POS_EPS, x))
        if i == len(ends):
            raise AssertionError("coordinate outside ring")
        start, end = self.ring_pos[at][i].item(), ends[i].item()
        eid = self.ring_edge[at][i].item()
        off = min(x - start, end - start)
        length = graph.length[eid].item()
        t = off if self.ring_forward[at][i] else length - off
        return GraphPoint(eid, min(max(t, 0.0), length))

    def block(self, cycles: np.ndarray) -> np.ndarray:
        """The ring positions of a block of cycles of one size, one row per
        cycle."""
        size = self.ring_ptr[cycles[0] + 1] - self.ring_ptr[cycles[0]]
        return self.ring_ptr[cycles, None] + np.arange(size)

    def ring_distances(self, cycles: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Distances along each cycle of a block of one size, as a
        ``(len(cycles), k, size)`` array, from the ``k`` arc coordinates
        ``at[b]`` of cycle ``cycles[b]`` to every one of its ring vertices."""
        gaps = np.abs(at[:, :, None] - self.ring_pos[self.block(cycles)][:, None, :])
        return np.minimum(gaps, self.perimeter[cycles, None, None] - gaps)


class DepthFirst(NamedTuple):
    """One depth-first search of a half-edge index, each vertex's edges
    taken in index order.

    ``order`` lists the reached vertices in preorder and ``start[x]`` is
    x's place in it (the vertex count when x is unreached).  ``parent`` and
    ``parent_edge`` are -1 at the root and at unreached vertices.
    ``tail[h]`` is the vertex that index position ``h`` leaves, ``down[h]``
    says that position ``h`` is a tree edge from parent to child, and the
    search takes up the positions in the order of ``taken``."""

    order: np.ndarray
    start: np.ndarray
    parent: np.ndarray
    parent_edge: np.ndarray
    tail: np.ndarray
    down: np.ndarray
    taken: np.ndarray


def depth_first(
    indptr: np.ndarray, nbr: np.ndarray, half_edge: np.ndarray, root: int
) -> DepthFirst:
    """Search the index from ``root`` with scipy's depth-first order, which
    visits each vertex's neighbours in index order, and read off the tree in
    array passes.

    scipy rescans a vertex's row from its start whenever a child returns,
    which costs the square of the degree, so the search runs through one
    node per index position instead: vertex x leads to node ``n +
    indptr[x]``, and node ``n + p`` to vertex ``nbr[p]`` and then to node
    ``n + p + 1`` of the same row.  Each row has two entries, padded with
    the root, which is always seen.  Vertices are met in the same order,
    and node ``n + p`` is met when the search takes up position ``p``."""
    n, h = len(indptr) - 1, len(nbr)
    nodes = n + h
    has_edges = indptr[1:] > indptr[:-1]
    rows = np.empty((nodes, 2), dtype=np.int32)
    rows[:n, 0] = np.where(has_edges, n + indptr[:-1], root)
    rows[:n, 1] = root
    rows[n:, 0] = nbr
    rows[n:, 1] = np.arange(n + 1, nodes + 1)
    rows[n + indptr[1:][has_edges] - 1, 1] = root
    adj = csr_matrix(
        (np.ones(2 * nodes), rows.ravel(), np.arange(0, 2 * nodes + 1, 2, dtype=np.int32)),
        shape=(nodes, nodes),
    )
    met, pred = depth_first_order(adj, root, directed=True, return_predecessors=True)
    rank = np.full(nodes, nodes, dtype=np.intp)
    rank[met] = np.arange(len(met))
    order = met[met < n].astype(np.intp)
    start = np.full(n, n, dtype=np.intp)
    start[order] = np.arange(len(order))
    tail = np.repeat(np.arange(n), np.diff(indptr))
    down = pred[nbr] == np.arange(n, nodes)
    child = np.flatnonzero(down)
    parent = np.full(n, -1, dtype=np.intp)
    parent_edge = np.full(n, -1, dtype=np.intp)
    parent[nbr[child]] = tail[child]
    parent_edge[nbr[child]] = half_edge[child]
    return DepthFirst(order, start, parent, parent_edge, tail, down, rank[n:])


def _decompose(graph: CactusGraph) -> CycleDecomposition:
    """The cycles of one depth-first search from vertex 0: each back edge
    closes one, numbered in the order the search meets it.  An edge closed
    twice raises SharedCycleEdge and an unreached vertex NotConnected."""
    n, m = graph.vertex_count, graph.edge_count
    walk = depth_first(graph.indptr, graph.nbr, graph.half_edge, 0)
    tail, nbr, start = walk.tail, graph.nbr, walk.start
    tree_edge = np.zeros(m, dtype=bool)
    tree_edge[graph.half_edge[walk.down]] = True
    # every other edge of the reached part joins a vertex to an ancestor,
    # and the search meets it when it takes it up from the deeper end
    back = np.flatnonzero(~tree_edge[graph.half_edge] & (start[tail] > start[nbr]))
    back = back[stable_order(walk.taken[back], n + len(walk.taken))]

    parent, parent_edge = walk.parent.tolist(), walk.parent_edge.tolist()
    ends = zip(tail[back].tolist(), nbr[back].tolist(), graph.half_edge[back].tolist())
    verts, edges, ptr, closed = [], [], [0], bytearray(m)
    for x, top, eid in ends:
        # the tree path up from the deeper end, each vertex with its edge up,
        # then the top with the back edge; of the edges closed before, the
        # topmost is named
        shared = -1
        while x != top:
            e = parent_edge[x]
            if closed[e]:
                shared = e
            closed[e] = 1
            verts.append(x)
            edges.append(e)
            x = parent[x]
        if shared >= 0:
            a, b = graph.names[int(graph.u[shared])], graph.names[int(graph.v[shared])]
            raise SharedCycleEdge(f"edge {a!r}-{b!r} lies on two cycles")
        verts.append(top)
        edges.append(eid)
        ptr.append(len(verts))
    if len(walk.order) < n:
        raise NotConnected("graph is not connected")
    return _ring_table(graph, np.array(ptr), np.array(verts, np.intp), np.array(edges, np.intp))


def _ring_table(
    graph: CactusGraph, ring_ptr: np.ndarray, vert: np.ndarray, edge: np.ndarray
) -> CycleDecomposition:
    """The decomposition of rings walked up the tree: ring ``r`` visits
    ``vert[ring_ptr[r]:ring_ptr[r + 1]]``, and ``edge[i]`` joins ``vert[i]``
    to the ring's next vertex."""
    size, first = np.diff(ring_ptr), ring_ptr[:-1]
    ring_cycle = np.repeat(np.arange(len(size)), size)
    # rotate each ring to start at its smallest vertex and turn it toward
    # that vertex's smaller neighbour; the walk ran up the tree, so a tie,
    # on a ring of two, turns it down the tree as the search went
    low = np.flatnonzero(vert == np.minimum.reduceat(vert, first)[ring_cycle]) - first
    back = (vert[first + (low - 1) % size] <= vert[first + (low + 1) % size])[ring_cycle]
    base, wrap = first[ring_cycle], size[ring_cycle]
    k = np.arange(len(vert)) - base
    turn = low[ring_cycle] + np.where(back, -k, k)
    ring_vertex = vert[base + turn % wrap]
    ring_edge = edge[base + (turn - back) % wrap]
    # running sums in ring order, one block of equal-sized rings at a time:
    # at most sqrt(2 * len(vert)) sizes
    length, run = graph.length[ring_edge], np.empty(len(vert))
    for s in set(size.tolist()):
        at = first[size == s, None] + np.arange(s)
        run[at] = np.cumsum(length[at], axis=1)
    ring_pos = np.where(k == 0, 0.0, np.concatenate([run[-1:], run[:-1]]))
    edge_cycle = np.full(graph.edge_count, -1, dtype=np.intp)
    edge_cycle[ring_edge] = ring_cycle
    return CycleDecomposition(
        ring_ptr=ring_ptr,
        ring_vertex=ring_vertex,
        ring_edge=ring_edge,
        ring_forward=graph.u[ring_edge] == ring_vertex,
        ring_pos=ring_pos,
        perimeter=run[ring_ptr[1:] - 1],
        ring_cycle=ring_cycle,
        edge_cycle=edge_cycle,
    )


# ---------------------------------------------------------------------------
# skeleton tree


VERTEX, HINGE, CYCLE = 0, 1, 2  # skeleton node kinds


@dataclass(frozen=True, slots=True)
class SkeletonTree:
    """Tree of out-of-cycle vertices, hinges, and whole cycles, as arrays
    indexed by node.  Nodes ``0..H-1`` hold one vertex each, in vertex
    order: an out-of-cycle vertex (VERTEX) or a cycle vertex of degree three
    or more (HINGE); node ``H + c`` is cycle ``c`` (CYCLE) and holds its
    other ring vertices.  ``ref`` is the vertex or cycle id.  Node ``x``
    holds ``node_vertex[node_ptr[x]:node_ptr[x + 1]]`` (a cycle's in ring
    order); ``node_of_vertex[v]`` is -1 when a cycle node holds ``v``.

    Each bridge joins its ends' nodes, then each cycle its hinges; node
    ``x``'s neighbours are ``nbr[indptr[x]:indptr[x + 1]]`` in that order,
    so a cycle's are its hinges in ring order.  A search taking them in
    order roots the tree at node 0: ``order`` is the preorder, ``parent``
    is -1 at the root, x's subtree is ``order[start[x]:stop[x]]``, and the
    edge up from ``x`` has length ``up_length[x]`` and is graph edge
    ``up_edge[x]`` (-1 from a hinge to its cycle).  A component left by
    deleting one node is a preorder slice or its complement, and a node
    set is a mask over preorder positions."""

    kind: np.ndarray
    ref: np.ndarray
    parent: np.ndarray
    up_length: np.ndarray
    up_edge: np.ndarray
    order: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    node_ptr: np.ndarray
    node_vertex: np.ndarray
    node_of_vertex: np.ndarray
    node_of_cycle: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def neighbours(self, node: int) -> list[int]:
        return self.nbr[self.indptr[node] : self.indptr[node + 1]].tolist()

    def split_components(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Components of the tree after removing ``node`` (and, for cycle
        nodes, its adjacent hinge nodes) as ``(gate, first)``, one entry per
        link leaving the removed structure: component ``i`` attaches to it
        at ``gate[i]`` and is entered through ``first[i]``.  The gates come
        in link order (a cycle's hinges in ring order), and each gate's
        links in link order."""
        # in a cactus no two hinges of one cycle are linked to each other
        gates = self.neighbours(node) if self.kind[node] == CYCLE else [node]
        pairs = [(g, x) for g in gates for x in self.neighbours(g) if x != node]
        gate, first = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        return gate, first

    def step_toward(self, removed: int, target: int) -> int:
        """Neighbour of ``removed`` on the side of ``target``."""
        at = self.start[target]
        if not self.start[removed] < at < self.stop[removed]:
            return int(self.parent[removed])
        # the children enter the preorder in link order
        kids = self.nbr[self.indptr[removed] : self.indptr[removed + 1]]
        kids = kids[self.parent[kids] == removed]
        return int(kids[np.searchsorted(self.start[kids], at, side="right") - 1])

    def component_toward(self, removed: int, start: int) -> np.ndarray:
        """Mask over preorder positions of the full-tree component of
        ``start`` once ``removed`` (alone, regardless of kind) is deleted."""
        step = self.step_toward(removed, start)
        inside = step != self.parent[removed]
        x = step if inside else removed
        mask = np.full(len(self.kind), not inside)
        mask[self.start[x] : self.stop[x]] = inside
        return mask


def _build_skeleton(graph: CactusGraph) -> SkeletonTree:
    dec = graph.cycles
    on_ring = np.zeros(graph.vertex_count, dtype=bool)
    on_ring[dec.ring_vertex] = True
    held = np.flatnonzero(~on_ring | (np.diff(graph.indptr) >= 3))
    h, c = len(held), len(dec)
    node_of_vertex = np.full(graph.vertex_count, -1, dtype=np.intp)
    node_of_vertex[held] = np.arange(h)
    ring_node = node_of_vertex[dec.ring_vertex]
    ring_cycle = dec.ring_cycle
    hinge = ring_node >= 0
    # the tree edges, bridges first, and a last entry that a root's -1 reads
    bid, hinged = graph.bridges, np.count_nonzero(hinge)
    link_edge = np.concatenate([bid, np.full(hinged + 1, -1)])
    link_length = np.concatenate([graph.length[bid], np.zeros(hinged + 1)])
    link_u = np.concatenate([node_of_vertex[graph.u[bid]], h + ring_cycle[hinge]])
    link_v = np.concatenate([node_of_vertex[graph.v[bid]], ring_node[hinge]])
    indptr, nbr, link = half_edge_index(h + c, link_u, link_v)
    walk = depth_first(indptr, nbr, link, 0)
    cycle_holds = np.cumsum(np.bincount(ring_cycle[~hinge], minlength=c))
    return SkeletonTree(
        kind=np.concatenate([np.where(on_ring[held], HINGE, VERTEX), np.full(c, CYCLE)]),
        ref=np.concatenate([held, np.arange(c)]),
        parent=walk.parent,
        up_length=link_length[walk.parent_edge],
        up_edge=link_edge[walk.parent_edge],
        order=walk.order,
        start=walk.start,
        stop=subtree_stop(walk, nbr),
        indptr=indptr,
        nbr=nbr,
        node_ptr=np.concatenate([np.arange(h + 1), h + cycle_holds]),
        node_vertex=np.concatenate([held, dec.ring_vertex[~hinge]]),
        node_of_vertex=node_of_vertex,
        node_of_cycle=h + np.arange(c),
    )


def subtree_stop(walk: DepthFirst, nbr: np.ndarray) -> np.ndarray:
    """Where each vertex's subtree ends in the preorder of ``walk``, a
    search of the index with far ends ``nbr``: after its last child's
    subtree, found by pointer doubling in log(depth) passes."""
    last = np.arange(len(walk.start))
    child = np.flatnonzero(walk.down)
    final = child[np.diff(walk.tail[child], append=-1) != 0]
    last[walk.tail[final]] = nbr[final]
    while True:
        deeper = last[last]
        if np.array_equal(deeper, last):
            return walk.start[last] + 1
        last = deeper


# ---------------------------------------------------------------------------
# metric


def check_point(graph: CactusGraph, p: GraphPoint) -> None:
    """Raise :class:`InvalidPoint` unless ``p`` lies on an edge of ``graph``."""
    if p.edge < 0:
        if graph.edge_count:
            raise InvalidPoint("vertex sentinel point used on a non-trivial graph")
        return
    if not 0 <= p.edge < graph.edge_count:
        raise InvalidPoint(f"no edge {p.edge}")
    if not -_POS_EPS <= p.t <= graph.length[p.edge] + _POS_EPS:
        raise InvalidPoint(f"offset {p.t} outside edge {p.edge}")


def centroid(tree: SkeletonTree, active: np.ndarray) -> int:
    """Node of ``active``, a mask over preorder positions that must induce a
    connected subtree, minimising the largest hanging piece; ties go to the
    smallest node id.  One prefix sum counts the active nodes below each.
    Only nodes with half the set below can win, and they form a path down
    from the top: the deepest, whose load is its heaviest piece, and its
    parent, whose load is the deepest's count, are the candidates."""
    total = int(np.count_nonzero(active))
    if not total:
        raise ValidationError("centroid of an empty active set")
    held = np.concatenate([[0], np.cumsum(active)])
    size = held[tree.stop[tree.order]] - held[:-1]
    heavy = np.flatnonzero(active & (2 * size >= total))
    at = heavy[-1]
    x = int(tree.order[at])
    below = slice(at + 1, tree.stop[x])
    kids = active[below] & (tree.parent[tree.order[below]] == x)
    best = (max(total - int(size[at]), int(size[below][kids].max(initial=0))), x)
    if len(heavy) > 1:
        best = min(best, (int(size[at]), int(tree.parent[x])))
    return best[1]


T = TypeVar("T")


def descend(
    tree: SkeletonTree,
    active: np.ndarray,
    probe: Callable[[int, np.ndarray], np.ndarray | T],
    at_node: Callable[[int], T],
    at_edge: Callable[[int], T],
) -> tuple[T, int]:
    """Centroid descent over ``active``, a mask over preorder positions
    that induces a connected subtree of ``tree``.  Each step probes one
    node: the centroid, or with two nodes left the cycle node of the pair.
    ``probe(u, active)`` returns the next active mask or a final result.  A
    single node left ends in ``at_node``; two nodes joined by a graph edge
    end in ``at_edge`` without a probe.  Returns the result and the number
    of probes made."""
    budget = 2 * math.ceil(math.log2(max(2, len(tree)))) + 16
    probes = 0
    while True:
        if probes > budget:
            raise InternalInvariantError("probe budget exceeded")
        left = tree.order[np.flatnonzero(active)].tolist()
        if len(left) == 1:
            return at_node(left[0]), probes
        if len(left) == 2:
            # in preorder the parent comes first
            up, down = left
            if tree.up_edge[down] >= 0:
                return at_edge(int(tree.up_edge[down])), probes
            # a hinge-cycle link: probe the cycle side
            u = up if tree.kind[up] == CYCLE else down
        else:
            u = centroid(tree, active)
        probes += 1
        out = probe(u, active)
        if not isinstance(out, np.ndarray):
            return out, probes
        active = out
