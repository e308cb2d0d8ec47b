"""Cactus graph model: validation, cycle decomposition, skeleton tree, metric.

Vertices are dense integers internally; external names live in
``CactusGraph.names``.  A network is one edge table, ``u``/``v``/``length``
arrays indexed by edge id, and one half-edge index that the cycle
decomposition, the Dijkstra matrix and the skeleton all read.  A point on
the network is a ``GraphPoint``: an edge id plus an offset from the edge's
``u`` endpoint, both Python numbers.

The cycle decomposition is one depth-first search in C (scipy's
``depth_first_order``, which takes each vertex's edges in index order);
the tree and the back edges are read off in array passes, with no loop
over the levels of the tree, and each back edge closes one cycle.

The skeleton tree is a set of arrays built from one more such search,
which roots it; every component query (what one removed node cuts off,
which way a target lies, a centroid) reads its preorder, since each such
component is a preorder slice or its complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import eq
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
        order = np.argsort(key, kind="stable")
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
        vertex, from one Dijkstra run.  The solver reads it in two places:
        :meth:`distances_from` and the skeleton root's row of
        ``Instance.ed_at_vertices``."""
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
    """``indptr``, ``nbr`` and ``half_edge`` of the edges ``u[i]``-``v[i]``.
    Half-edge 2i leaves u[i] and 2i + 1 leaves v[i]; a stable sort by the
    vertex left keeps each vertex's edges in id order."""
    tail = np.column_stack([u, v]).ravel()
    order = np.argsort(tail, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))])
    return indptr, np.column_stack([v, u]).ravel()[order], order // 2


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
    # every edge but the first of its vertex pair is a parallel one
    parallel = np.ones(m, dtype=bool)
    keys, first = np.unique(pair_key(len(names), u, v), return_index=True)
    parallel[first] = False
    checks = (
        ((u < 0) | (v < 0), ValidationError, "edge endpoint {0!r} or {1!r} unknown"),
        (u == v, ValidationError, "self-loop at {0!r}"),
        (~np.isfinite(length), ValidationError, "edge {0!r}-{1!r} has non-finite length {2}"),
        (length <= 0, NonPositiveEdgeLength, "edge {0!r}-{1!r} has length {2}"),
        (parallel, ValidationError, "parallel edge {0!r}-{1!r}"),
    )
    for bad, error, message in checks:
        if bad.any():
            i = np.argmax(bad)
            raise error(message.format(u_names[i], v_names[i], lengths[i]))
    total = sum(lengths)
    if not math.isfinite(total):
        raise ValidationError(f"total edge length {total} is not finite")
    graph = CactusGraph(names, u, v, length, index, (keys, first))
    graph.cycles  # the decomposition raises NotConnected or SharedCycleEdge
    return graph


# ---------------------------------------------------------------------------
# cycle decomposition


@dataclass(slots=True)
class Cycle:
    """One simple cycle in ring order.

    ``vertices[i]`` and ``vertices[(i+1) % c]`` are joined by ``edges[i]``;
    ``forward[i]`` says whether that edge's ``u`` endpoint is ``vertices[i]``.
    ``pos[i]`` is the arc coordinate of ``vertices[i]``; coordinates live in
    ``[0, perimeter)`` increasing along the ring.
    """

    id: int
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    forward: tuple[bool, ...]
    pos: tuple[float, ...]
    perimeter: float

    def coord_point(self, graph: CactusGraph, x: float) -> GraphPoint:
        """The point at arc coordinate ``x``, taken modulo the perimeter."""
        x %= self.perimeter
        c = len(self.vertices)
        for i in range(c):
            end = self.pos[i + 1] if i + 1 < c else self.perimeter
            if x <= end + _POS_EPS:
                off = min(x - self.pos[i], end - self.pos[i])
                length = float(graph.length[self.edges[i]])
                t = off if self.forward[i] else length - off
                return GraphPoint(self.edges[i], min(max(t, 0.0), length))
        raise AssertionError("coordinate outside ring")

    def ring_distances(self, at: Sequence[float] | np.ndarray) -> np.ndarray:
        """``(len(at), c)`` distances along the ring from each arc coordinate
        of ``at`` to every ring vertex."""
        gaps = np.abs(np.asarray(at)[:, None] - np.array(self.pos)[None, :])
        return np.minimum(gaps, self.perimeter - gaps)


class CycleDecomposition:
    """The cycles, numbered in the order the search closes them, and maps
    built on first read.  Cycle ``c``'s vertices in ring order are
    ``ring_vertex[ring_ptr[c]:ring_ptr[c + 1]]``, and ``ring_cycle`` names
    each position's cycle; ``edge_cycle[e]`` is the cycle of edge ``e``, -1
    for a bridge; the cycles through vertex ``x`` are
    ``vertex_cycles[vertex_ptr[x]:vertex_ptr[x + 1]]``, ascending."""

    def __init__(self, cycles: list[Cycle], vertex_count: int, edge_count: int) -> None:
        self.cycles, self.vertex_count, self.edge_count = cycles, vertex_count, edge_count
        self.ring_ptr = np.cumsum([0] + [len(c.vertices) for c in cycles])

    @cached_property
    def ring_vertex(self) -> np.ndarray:
        return np.fromiter(chain(*(c.vertices for c in self.cycles)), np.intp, self.ring_ptr[-1])

    @cached_property
    def ring_cycle(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.cycles)), np.diff(self.ring_ptr))

    @cached_property
    def edge_cycle(self) -> np.ndarray:
        ring_edge = np.fromiter(chain(*(c.edges for c in self.cycles)), np.intp, self.ring_ptr[-1])
        out = np.full(self.edge_count, -1, dtype=np.intp)
        out[ring_edge] = self.ring_cycle
        return out

    @cached_property
    def vertex_ptr(self) -> np.ndarray:
        held = np.bincount(self.ring_vertex, minlength=self.vertex_count)
        return np.concatenate([[0], np.cumsum(held)])

    @cached_property
    def vertex_cycles(self) -> np.ndarray:
        # a stable sort by vertex keeps each vertex's cycles ascending
        return self.ring_cycle[np.argsort(self.ring_vertex, kind="stable")]


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
    back = back[np.argsort(walk.taken[back])]

    parent, parent_edge = walk.parent.tolist(), walk.parent_edge.tolist()
    ends = zip(tail[back].tolist(), nbr[back].tolist(), graph.half_edge[back].tolist())
    u, length = graph.u.tolist(), graph.length.tolist()
    closed = bytearray(m)
    cycles = []
    for cid, (x, top, eid) in enumerate(ends):
        # the tree path from the deeper end up to the top, then the back edge
        verts, edges = [x], [eid]
        while x != top:
            edges.append(parent_edge[x])
            x = parent[x]
            verts.append(x)
        verts.reverse()
        edges = edges[:0:-1] + edges[:1]
        for e in edges:
            if closed[e]:
                a, b = graph.names[u[e]], graph.names[int(graph.v[e])]
                raise SharedCycleEdge(f"edge {a!r}-{b!r} lies on two cycles")
            closed[e] = 1
        cycles.append(_canonical_cycle(cid, verts, edges, u, length))
    if len(walk.order) < n:
        raise NotConnected("graph is not connected")
    return CycleDecomposition(cycles, n, m)


def _canonical_cycle(
    cid: int, verts: list[int], edges: list[int], u: list[int], length: list[float]
) -> Cycle:
    # rotate the ring to start at the smallest vertex, then orient toward its
    # smaller neighbour, so decomposition order never affects coordinates
    i0 = verts.index(min(verts))
    if verts[i0 - 1] < verts[(i0 + 1) % len(verts)]:
        verts = verts[i0::-1] + verts[:i0:-1]
        edges = edges[i0 - 1 :: -1] + edges[: i0 - 1 : -1]
    else:
        verts = verts[i0:] + verts[:i0]
        edges = edges[i0:] + edges[:i0]
    forward = tuple(map(eq, map(u.__getitem__, edges), verts))
    lengths = list(map(length.__getitem__, edges))
    pos = tuple(accumulate(lengths[:-1], initial=0.0))
    return Cycle(cid, tuple(verts), tuple(edges), forward, pos, pos[-1] + lengths[-1])


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

    def split_components(self, node: int) -> list[SplitComponent]:
        """Components of the tree after removing ``node`` (and, for cycle
        nodes, its adjacent hinge nodes), one per link leaving the removed
        structure."""
        # in a cactus no two hinges of one cycle are linked to each other
        gates = self.neighbours(node) if self.kind[node] == CYCLE else [node]
        return [SplitComponent(g, x) for g in gates for x in self.neighbours(g) if x != node]

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


@dataclass(frozen=True, slots=True)
class SplitComponent:
    """One component left by a split: it attaches to the removed structure at
    ``gate`` and enters the component through ``first``."""

    gate: int
    first: int


def _build_skeleton(graph: CactusGraph) -> SkeletonTree:
    dec = graph.cycles
    on_ring = np.diff(dec.vertex_ptr) > 0
    held = np.flatnonzero(~on_ring | (np.diff(graph.indptr) >= 3))
    h, c = len(held), len(dec.cycles)
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


def distance_via(
    graph: CactusGraph, q: GraphPoint, dq: np.ndarray, p: GraphPoint
) -> float:
    """Distance between ``q`` and ``p``, given ``dq = graph.distances_from(q)``:
    through an end of ``p``'s edge, or along that edge when ``q`` shares it."""
    if p.edge < 0:
        return float(dq[0])
    u, v, length = graph.edge(p.edge)
    d = min(p.t + dq[u], (length - p.t) + dq[v])
    if p.edge == q.edge:
        d = min(d, abs(p.t - q.t))
    return float(d)


def point_distance(graph: CactusGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Exact shortest-path distance between two points of the network."""
    check_point(graph, p)
    return distance_via(graph, q, graph.distances_from(q), p)


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
