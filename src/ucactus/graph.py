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

The skeleton tree is rooted once, when it is built; every component query
(what one removed node cuts off, which way a target lies, a centroid) reads
its preorder, since each such component is a preorder slice or its
complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import eq
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

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
    ) -> None:
        self.names = names
        self.u, self.v, self.length = u, v, length
        self.vertex_count = len(names)
        self.edge_count = len(length)
        self.indptr, self.nbr, self.half_edge = half_edge_index(len(names), u, v)
        if vertex_id is not None:
            self.vertex_id = vertex_id

    @cached_property
    def vertex_id(self) -> dict[str, int]:
        """Each vertex name's id."""
        return {name: i for i, name in enumerate(self.names)}

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
        return np.flatnonzero([c is None for c in self.cycles.edge_cycle])

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


def validate_cactus(
    names: Sequence[str], edge_spec: Sequence[tuple[str, str, float]]
) -> CactusGraph:
    """Build a :class:`CactusGraph`, checking connectivity and cactus-ness.

    Each edge check runs over all edges at once and reports its first
    faulty edge; they run in the order unknown endpoint, self-loop,
    non-finite length, non-positive length, parallel pair."""
    names = list(names)
    if len(set(names)) != len(names):
        raise ValidationError("duplicate vertex names")
    if not names:
        raise ValidationError("graph needs at least one vertex")
    index = {name: i for i, name in enumerate(names)}
    m = len(edge_spec)
    u_names, v_names, lengths = zip(*edge_spec) if m else ((), (), ())
    u = np.fromiter(map(index.get, u_names, repeat(-1)), np.intp, m)
    v = np.fromiter(map(index.get, v_names, repeat(-1)), np.intp, m)
    length = np.array(lengths, dtype=float)
    # every edge but the first of its vertex pair is a parallel one
    parallel = np.ones(m, dtype=bool)
    pair = np.minimum(u, v) * len(names) + np.maximum(u, v)
    parallel[np.unique(pair, return_index=True)[1]] = False
    checks = (
        ((u < 0) | (v < 0), ValidationError, "edge endpoint {0!r} or {1!r} unknown"),
        (u == v, ValidationError, "self-loop at {0!r}"),
        (~np.isfinite(length), ValidationError, "edge {0!r}-{1!r} has non-finite length {2}"),
        (length <= 0, NonPositiveEdgeLength, "edge {0!r}-{1!r} has length {2}"),
        (parallel, ValidationError, "parallel edge {0!r}-{1!r}"),
    )
    for bad, error, message in checks:
        if bad.any():
            raise error(message.format(*edge_spec[np.argmax(bad)]))
    total = sum(lengths)
    if not math.isfinite(total):
        raise ValidationError(f"total edge length {total} is not finite")
    graph = CactusGraph(names, u, v, length, index)
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

    def vertex_coord(self, v: int) -> float:
        return self.pos[self.vertices.index(v)]

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


@dataclass(slots=True)
class CycleDecomposition:
    cycles: list[Cycle]
    edge_cycle: list[int | None]
    vertex_cycles: list[tuple[int, ...]]


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
    edge_cycle: list[int | None] = [None] * m
    vertex_cycles: list[tuple[int, ...]] = [()] * n
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
            if edge_cycle[e] is not None:
                a, b = graph.names[u[e]], graph.names[int(graph.v[e])]
                raise SharedCycleEdge(f"edge {a!r}-{b!r} lies on two cycles")
            edge_cycle[e] = cid
        cycles.append(_canonical_cycle(cid, verts, edges, u, length))
    if len(walk.order) < n:
        raise NotConnected("graph is not connected")
    for cyc in cycles:
        for v in cyc.vertices:
            vertex_cycles[v] += (cyc.id,)
    return CycleDecomposition(cycles, edge_cycle, vertex_cycles)


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


@dataclass(frozen=True, slots=True)
class SkelNode:
    id: int
    kind: str  # "vertex" | "hinge" | "cycle"
    ref: int  # vertex id for vertex/hinge nodes, cycle id for cycle nodes


@dataclass(frozen=True, slots=True)
class TreeLink:
    other: int
    length: float
    edge: int | None  # graph edge id; None for zero-length hinge-cycle links


class SkeletonTree:
    """Tree of out-of-cycle vertices, hinges, and whole cycles.

    Cycle-interior vertices (degree 2, on a cycle) collapse into their cycle's
    node; hinges stay separate nodes joined to the cycle node by a zero-length
    link, so every graph vertex is held by exactly one node.

    The tree is rooted once, at node 0, when it is built.  ``order`` is the
    preorder, ``parent[x]`` is -1 for the root, and the subtree of ``x`` is
    the slice ``order[start[x]:stop[x]]``.  Deleting one node leaves its
    children's subtrees and the rest of the tree, so every component query is
    a preorder slice or its complement.
    """

    def __init__(
        self,
        nodes: list[SkelNode],
        links: list[list[TreeLink]],
        node_of_vertex: list[int | None],
        node_of_cycle: list[int],
        node_vertices: list[tuple[int, ...]],
    ) -> None:
        self.nodes = nodes
        self.links = links
        self.node_of_vertex = node_of_vertex
        self.node_of_cycle = node_of_cycle
        self.node_vertices = node_vertices
        self.parent = [-1] * len(nodes)
        self.order: list[int] = []
        stack = [0]
        while stack:
            x = stack.pop()
            self.order.append(x)
            for link in reversed(links[x]):
                if link.other != self.parent[x]:
                    self.parent[link.other] = x
                    stack.append(link.other)
        self.start = [0] * len(nodes)
        for i, x in enumerate(self.order):
            self.start[x] = i
        size = [1] * len(nodes)
        for x in reversed(self.order[1:]):
            size[self.parent[x]] += size[x]
        self.stop = [self.start[x] + size[x] for x in range(len(nodes))]

    def __len__(self) -> int:
        return len(self.nodes)

    def hinge_nodes(self, cycle_node: int) -> list[int]:
        return [
            link.other
            for link in self.links[cycle_node]
            if self.nodes[link.other].kind == "hinge" and link.length == 0.0
            and link.edge is None
        ]

    def split_components(self, node: int) -> list[SplitComponent]:
        """Components of the tree after removing ``node`` (and, for cycle
        nodes, its adjacent hinge nodes), one per link leaving the removed
        structure."""
        if self.nodes[node].kind != "cycle":
            return [SplitComponent(node, link.other) for link in self.links[node]]
        # in a cactus no two hinges of one cycle are linked to each other
        return [
            SplitComponent(h, link.other)
            for h in self.hinge_nodes(node)
            for link in self.links[h]
            if link.other != node
        ]

    def step_toward(self, removed: int, target: int) -> int:
        """Neighbour of ``removed`` on the side of ``target``."""
        at = self.start[target]
        for link in self.links[removed]:
            c = link.other
            if c != self.parent[removed] and self.start[c] <= at < self.stop[c]:
                return c
        return self.parent[removed]

    def component_toward(self, removed: int, start: int) -> frozenset[int]:
        """Node set of the full-tree component of ``start`` once ``removed``
        (alone, regardless of kind) is deleted."""
        step = self.step_toward(removed, start)
        if step != self.parent[removed]:
            return frozenset(self.order[self.start[step] : self.stop[step]])
        return frozenset(
            self.order[: self.start[removed]] + self.order[self.stop[removed] :]
        )


@dataclass(frozen=True, slots=True)
class SplitComponent:
    """One component left by a split: it attaches to the removed structure at
    ``gate`` and enters the component through ``first``."""

    gate: int
    first: int


def _build_skeleton(graph: CactusGraph) -> SkeletonTree:
    dec = graph.cycles
    n = graph.vertex_count
    degree = np.diff(graph.indptr).tolist()
    node_of_vertex: list[int | None] = [None] * n
    nodes: list[SkelNode] = []
    for v in range(n):
        if dec.vertex_cycles[v]:
            if degree[v] >= 3:
                node_of_vertex[v] = len(nodes)
                nodes.append(SkelNode(len(nodes), "hinge", v))
        else:
            node_of_vertex[v] = len(nodes)
            nodes.append(SkelNode(len(nodes), "vertex", v))
    node_of_cycle = []
    for cyc in dec.cycles:
        node_of_cycle.append(len(nodes))
        nodes.append(SkelNode(len(nodes), "cycle", cyc.id))

    node_vertices: list[list[int]] = [[] for _ in nodes]
    for v in range(n):
        if node_of_vertex[v] is not None:
            node_vertices[node_of_vertex[v]].append(v)
    for cyc in dec.cycles:
        for v in cyc.vertices:
            if node_of_vertex[v] is None:
                node_vertices[node_of_cycle[cyc.id]].append(v)

    links: list[list[TreeLink]] = [[] for _ in nodes]
    bid = graph.bridges
    rows = zip(*(x.tolist() for x in (bid, graph.u[bid], graph.v[bid], graph.length[bid])))
    for e, u, v, length in rows:
        a, b = node_of_vertex[u], node_of_vertex[v]
        assert a is not None and b is not None
        links[a].append(TreeLink(b, length, e))
        links[b].append(TreeLink(a, length, e))
    for cyc in dec.cycles:
        cnode = node_of_cycle[cyc.id]
        for v in cyc.vertices:
            h = node_of_vertex[v]
            if h is not None:
                links[cnode].append(TreeLink(h, 0.0, None))
                links[h].append(TreeLink(cnode, 0.0, None))

    return SkeletonTree(
        nodes,
        links,
        node_of_vertex,
        node_of_cycle,
        [tuple(vs) for vs in node_vertices],
    )


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


def centroid(tree: SkeletonTree, active: frozenset[int]) -> int:
    """Node of ``active`` minimising the largest hanging piece; ties go to the
    smallest node id.  ``active`` must induce a connected subtree."""
    if not active:
        raise ValidationError("centroid of an empty active set")
    # in preorder, every active node but the first has an active parent
    order = sorted(active, key=tree.start.__getitem__)
    size = dict.fromkeys(order, 1)
    heaviest_child = dict.fromkeys(order, 0)
    for x in reversed(order[1:]):
        p = tree.parent[x]
        size[p] += size[x]
        heaviest_child[p] = max(heaviest_child[p], size[x])
    total = len(order)
    return min(order, key=lambda x: (max(total - size[x], heaviest_child[x]), x))


T = TypeVar("T")


def descend(
    tree: SkeletonTree,
    active: frozenset[int],
    probe: Callable[[int, frozenset[int]], frozenset[int] | T],
    at_node: Callable[[int], T],
    at_edge: Callable[[int], T],
) -> tuple[T, int]:
    """Centroid descent over ``active``, a connected subtree of ``tree``.

    Each step probes one node: the centroid, or with two nodes left the cycle
    node of the pair.  ``probe(u, active)`` returns the next active set
    (a frozenset) or a final result.  A single node left ends in
    ``at_node``; two nodes joined by a graph edge end in ``at_edge`` without
    a probe.  Returns the result and the number of probes made.
    """
    budget = 2 * math.ceil(math.log2(max(2, len(tree)))) + 16
    probes = 0
    while True:
        if probes > budget:
            raise InternalInvariantError("probe budget exceeded")
        if len(active) == 1:
            return at_node(next(iter(active))), probes
        if len(active) == 2:
            a, b = sorted(active)
            link = next(l for l in tree.links[a] if l.other == b)
            if link.edge is not None:
                return at_edge(link.edge), probes
            # a hinge-cycle link: probe the cycle side
            u = a if tree.nodes[a].kind == "cycle" else b
        else:
            u = centroid(tree, active)
        probes += 1
        out = probe(u, active)
        if not isinstance(out, frozenset):
            return out, probes
        active = out
