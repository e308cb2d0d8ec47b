"""Cactus graph model: validation, cycle decomposition, skeleton tree, metric.

Vertices are dense integers internally; external names live in
``CactusGraph.names``.  A point on the network is a ``GraphPoint``: an edge id
plus an offset from the edge's ``u`` endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

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


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    u: int
    v: int
    length: float

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


class CactusGraph:
    """A validated connected cactus.  Construct via :func:`validate_cactus`."""

    def __init__(self, names: list[str], edges: list[Edge]) -> None:
        self.names = names
        self.edges = edges
        self.vertex_count = len(names)
        self.adj: list[list[tuple[int, int]]] = [[] for _ in names]
        for e in edges:
            self.adj[e.u].append((e.id, e.v))
            self.adj[e.v].append((e.id, e.u))
        self.vertex_id = {name: i for i, name in enumerate(names)}

    @cached_property
    def vertex_distances(self) -> np.ndarray:
        """Dense all-pairs shortest-path matrix over vertices."""
        n = self.vertex_count
        if not self.edges:
            return np.zeros((n, n))
        rows = [e.u for e in self.edges] + [e.v for e in self.edges]
        cols = [e.v for e in self.edges] + [e.u for e in self.edges]
        data = [e.length for e in self.edges] * 2
        mat = csr_matrix((data, (rows, cols)), shape=(n, n))
        return dijkstra(mat, directed=False)

    @cached_property
    def cycles(self) -> CycleDecomposition:
        return _decompose(self)

    @cached_property
    def bridge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``u``, ``v``, length and id arrays of the out-of-cycle edges."""
        free = [e for e in self.edges if self.cycles.edge_cycle[e.id] is None]
        return (
            np.array([e.u for e in free], dtype=int),
            np.array([e.v for e in free], dtype=int),
            np.array([e.length for e in free]),
            np.array([e.id for e in free], dtype=int),
        )

    @cached_property
    def skeleton(self) -> SkeletonTree:
        return _build_skeleton(self)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def vertex_point(self, v: int) -> GraphPoint:
        """A canonical GraphPoint sitting exactly on vertex ``v``."""
        if not self.adj[v]:
            # isolated single-vertex graph; edge id -1 is understood by the
            # distance routines as "the lone vertex"
            return GraphPoint(-1, 0.0)
        eid, _ = min(self.adj[v])
        e = self.edges[eid]
        return GraphPoint(eid, 0.0 if e.u == v else e.length)

    def point_on_vertex(self, p: GraphPoint) -> int | None:
        """The vertex ``p`` coincides with, or None for interior points."""
        if p.edge < 0:
            return 0
        e = self.edges[p.edge]
        if p.t <= _POS_EPS:
            return e.u
        if p.t >= e.length - _POS_EPS:
            return e.v
        return None


def validate_cactus(
    names: Sequence[str], edge_spec: Sequence[tuple[str, str, float]]
) -> CactusGraph:
    """Build a :class:`CactusGraph`, checking connectivity and cactus-ness."""
    names = list(names)
    if len(set(names)) != len(names):
        raise ValidationError("duplicate vertex names")
    if not names:
        raise ValidationError("graph needs at least one vertex")
    index = {name: i for i, name in enumerate(names)}
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    for u_name, v_name, length in edge_spec:
        if u_name not in index or v_name not in index:
            raise ValidationError(f"edge endpoint {u_name!r} or {v_name!r} unknown")
        u, v = index[u_name], index[v_name]
        if u == v:
            raise ValidationError(f"self-loop at {u_name!r}")
        if length <= 0:
            raise NonPositiveEdgeLength(f"edge {u_name!r}-{v_name!r} has length {length}")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ValidationError(f"parallel edge {u_name!r}-{v_name!r}")
        seen_pairs.add(pair)
        edges.append(Edge(len(edges), u, v, float(length)))
    graph = CactusGraph(names, edges)
    _check_connected(graph)
    graph.cycles  # decomposition raises SharedCycleEdge on non-cactus input
    return graph


def _check_connected(graph: CactusGraph) -> None:
    seen = [False] * graph.vertex_count
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for _, w in graph.adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        raise NotConnected("graph is not connected")


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
    _vpos: dict[int, float] = field(default_factory=dict)

    def vertex_coord(self, v: int) -> float:
        if not self._vpos:
            self._vpos.update(zip(self.vertices, self.pos))
        return self._vpos[v]

    def point_coord(self, graph: CactusGraph, p: GraphPoint) -> float:
        """Arc coordinate of a point lying on one of this cycle's edges."""
        i = self.edges.index(p.edge)
        length = graph.edges[p.edge].length
        off = p.t if self.forward[i] else length - p.t
        return (self.pos[i] + off) % self.perimeter

    def coord_point(self, graph: CactusGraph, x: float) -> GraphPoint:
        """Inverse of :meth:`point_coord`; ``x`` taken modulo the perimeter."""
        x %= self.perimeter
        c = len(self.vertices)
        for i in range(c):
            end = self.pos[i + 1] if i + 1 < c else self.perimeter
            if x <= end + _POS_EPS:
                off = min(x - self.pos[i], end - self.pos[i])
                length = graph.edges[self.edges[i]].length
                t = off if self.forward[i] else length - off
                return GraphPoint(self.edges[i], min(max(t, 0.0), length))
        raise AssertionError("coordinate outside ring")

    def ring_distance(self, x: float, y: float) -> float:
        d = abs(x - y)
        return min(d, self.perimeter - d)


@dataclass(slots=True)
class CycleDecomposition:
    cycles: list[Cycle]
    edge_cycle: list[int | None]
    vertex_cycles: list[tuple[int, ...]]

    def on_cycle(self, v: int) -> bool:
        return bool(self.vertex_cycles[v])


def _decompose(graph: CactusGraph) -> CycleDecomposition:
    n = graph.vertex_count
    depth = [-1] * n
    parent_edge = [-1] * n
    parent_vertex = [-1] * n
    scan = [0] * n
    edge_cycle: list[int | None] = [None] * len(graph.edges)
    raw_cycles: list[tuple[list[int], list[int]]] = []

    depth[0] = 0
    stack = [0]
    while stack:
        v = stack[-1]
        if scan[v] == len(graph.adj[v]):
            stack.pop()
            continue
        eid, w = graph.adj[v][scan[v]]
        scan[v] += 1
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
                if edge_cycle[e] is not None:
                    raise SharedCycleEdge(
                        f"edge {graph.names[graph.edges[e].u]!r}-"
                        f"{graph.names[graph.edges[e].v]!r} lies on two cycles"
                    )
                edge_cycle[e] = cid
            raw_cycles.append((verts, edges))

    cycles = [
        _canonical_cycle(graph, cid, verts, edges)
        for cid, (verts, edges) in enumerate(raw_cycles)
    ]
    vertex_cycles: list[list[int]] = [[] for _ in range(n)]
    for cyc in cycles:
        for v in cyc.vertices:
            vertex_cycles[v].append(cyc.id)
    return CycleDecomposition(cycles, edge_cycle, [tuple(c) for c in vertex_cycles])


def _canonical_cycle(
    graph: CactusGraph, cid: int, verts: list[int], edges: list[int]
) -> Cycle:
    # rotate the ring to start at the smallest vertex, then orient toward its
    # smaller neighbour, so decomposition order never affects coordinates
    c = len(verts)
    i0 = verts.index(min(verts))
    nxt = verts[(i0 + 1) % c]
    prv = verts[(i0 - 1) % c]
    if prv < nxt:
        verts = [verts[i0]] + [verts[(i0 - k) % c] for k in range(1, c)]
        edges = [edges[(i0 - 1 - k) % c] for k in range(c)]
    else:
        verts = verts[i0:] + verts[:i0]
        edges = edges[i0:] + edges[:i0]
    forward = tuple(graph.edges[e].u == verts[i] for i, e in enumerate(edges))
    pos = [0.0]
    for e in edges[:-1]:
        pos.append(pos[-1] + graph.edges[e].length)
    perimeter = pos[-1] + graph.edges[edges[-1]].length
    return Cycle(cid, tuple(verts), tuple(edges), forward, tuple(pos), perimeter)


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
    """

    def __init__(
        self,
        graph: CactusGraph,
        nodes: list[SkelNode],
        links: list[list[TreeLink]],
        node_of_vertex: list[int | None],
        node_of_cycle: list[int],
        node_vertices: list[tuple[int, ...]],
    ) -> None:
        self.graph = graph
        self.nodes = nodes
        self.links = links
        self.node_of_vertex = node_of_vertex
        self.node_of_cycle = node_of_cycle
        self.node_vertices = node_vertices
        self._splits: dict[int, list[SplitComponent]] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def home_vertex(self, node: int) -> int:
        """A graph vertex inside the node, for distance anchoring."""
        return self.node_vertices[node][0]

    def hinge_nodes(self, cycle_node: int) -> list[int]:
        return [
            link.other
            for link in self.links[cycle_node]
            if self.nodes[link.other].kind == "hinge" and link.length == 0.0
            and link.edge is None
        ]

    def split_components(self, node: int) -> list[SplitComponent]:
        """Components of the tree after removing ``node`` (and, for cycle
        nodes, its adjacent hinge nodes).  Cached; computed on the full tree.
        """
        if node not in self._splits:
            self._splits[node] = self._compute_split(node)
        return self._splits[node]

    def _compute_split(self, node: int) -> list[SplitComponent]:
        removed = {node}
        gates: list[tuple[int, int]] = []  # (gate node, first node of component)
        if self.nodes[node].kind == "cycle":
            hinges = self.hinge_nodes(node)
            removed.update(hinges)
            for h in hinges:
                for link in self.links[h]:
                    if link.other not in removed:
                        gates.append((h, link.other))
        else:
            for link in self.links[node]:
                gates.append((node, link.other))
        comps = []
        for gate, first in gates:
            seen = {first}
            stack = [first]
            while stack:
                x = stack.pop()
                for link in self.links[x]:
                    if link.other not in removed and link.other not in seen:
                        seen.add(link.other)
                        stack.append(link.other)
            comps.append(SplitComponent(gate, first, frozenset(seen)))
        return comps

    def component_toward(self, removed: int, start: int) -> frozenset[int]:
        """Node set of the full-tree component of ``start`` once ``removed``
        (alone, regardless of kind) is deleted."""
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for link in self.links[x]:
                if link.other != removed and link.other not in seen:
                    seen.add(link.other)
                    stack.append(link.other)
        return frozenset(seen)


@dataclass(frozen=True, slots=True)
class SplitComponent:
    """One component left by a split: it attaches to the removed structure at
    ``gate`` and enters the component through ``first``."""

    gate: int
    first: int
    nodes: frozenset[int]


def _build_skeleton(graph: CactusGraph) -> SkeletonTree:
    dec = graph.cycles
    n = graph.vertex_count
    node_of_vertex: list[int | None] = [None] * n
    nodes: list[SkelNode] = []
    for v in range(n):
        if dec.on_cycle(v):
            if graph.degree(v) >= 3:
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
    for e in graph.edges:
        if dec.edge_cycle[e.id] is None:
            a, b = node_of_vertex[e.u], node_of_vertex[e.v]
            assert a is not None and b is not None
            links[a].append(TreeLink(b, e.length, e.id))
            links[b].append(TreeLink(a, e.length, e.id))
    for cyc in dec.cycles:
        cnode = node_of_cycle[cyc.id]
        for v in cyc.vertices:
            h = node_of_vertex[v]
            if h is not None:
                links[cnode].append(TreeLink(h, 0.0, None))
                links[h].append(TreeLink(cnode, 0.0, None))

    return SkeletonTree(
        graph,
        nodes,
        links,
        node_of_vertex,
        node_of_cycle,
        [tuple(vs) for vs in node_vertices],
    )


# ---------------------------------------------------------------------------
# metric


def _check_on_edge(graph: CactusGraph, p: GraphPoint) -> None:
    if p.edge < 0:
        if graph.edges:
            raise InvalidPoint("vertex sentinel point used on a non-trivial graph")
        return
    if not 0 <= p.edge < len(graph.edges):
        raise InvalidPoint(f"no edge {p.edge}")
    if not -_POS_EPS <= p.t <= graph.edges[p.edge].length + _POS_EPS:
        raise InvalidPoint(f"offset {p.t} outside edge {p.edge}")


def point_vertex_distances(graph: CactusGraph, p: GraphPoint) -> np.ndarray:
    """Distances from ``p`` to every vertex, as a vector."""
    _check_on_edge(graph, p)
    if p.edge < 0:
        return np.zeros(graph.vertex_count)
    dist = graph.vertex_distances
    e = graph.edges[p.edge]
    return np.minimum(p.t + dist[e.u], (e.length - p.t) + dist[e.v])


def point_distance(graph: CactusGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Exact shortest-path distance between two points of the network."""
    _check_on_edge(graph, p)
    _check_on_edge(graph, q)
    if p.edge < 0 or q.edge < 0:
        return 0.0
    dist = graph.vertex_distances
    ep, eq = graph.edges[p.edge], graph.edges[q.edge]
    if p.edge == q.edge:
        direct = abs(p.t - q.t)
        around = dist[ep.u][ep.v] + min(
            p.t + (ep.length - q.t), (ep.length - p.t) + q.t
        )
        return min(direct, around)
    du = point_vertex_distances(graph, p)
    return min(q.t + du[eq.u], (eq.length - q.t) + du[eq.v])


def centroid(tree: SkeletonTree, active: frozenset[int]) -> int:
    """Node of ``active`` minimising the largest hanging piece; ties go to the
    smallest node id.  ``active`` must induce a connected subtree."""
    if not active:
        raise ValidationError("centroid of an empty active set")
    if len(active) == 1:
        return next(iter(active))
    root = min(active)
    order = [root]
    parent: dict[int, int] = {root: -1}
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for link in tree.links[x]:
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
        for link in tree.links[x]:
            if link.other in active and parent.get(link.other) == x:
                load = max(load, size[link.other])
        if load < best_load or (load == best_load and x < best):
            best, best_load = x, load
    return best


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
