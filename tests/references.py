"""Reference versions of what the package computes in array passes,
written as loops over Python objects one item at a time: each cycle of
the ring table as tuples, with its points found edge by edge, the skeleton
tree as node and link lists and the quantities read off it, a probe's
group eccentricities one group at a time, a query point's
expected distances priced location by location, the whole map from a
reduced graph back to the original one, and the single-center questions
asked edge by edge and piece by piece, with interval tables read as
per-family lists, and the cycle terminal's residual sweep one candidate
at a time.  The tests check that both give the same ring points, tree,
masses, group eccentricities, expected distances, centroids, lifts,
witnesses, terminal verdicts, 1-centers and base values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ucactus import decision
from ucactus.decision import Verdict
from ucactus.graph import _POS_EPS, CYCLE, HINGE, VERTEX, GraphPoint, check_point
from ucactus.plf import coverage_set, crossings, cycle_profiles, intersect_families, stab_two
from ucactus.uncertain import component_mass, median_values

KIND = {"vertex": VERTEX, "hinge": HINGE, "cycle": CYCLE}


class Node(NamedTuple):
    id: int
    kind: str  # "vertex" | "hinge" | "cycle"
    ref: int  # vertex id for vertex/hinge nodes, cycle id for cycle nodes


class Link(NamedTuple):
    other: int
    length: float
    edge: int | None  # graph edge id; None for zero-length hinge-cycle links


@dataclass
class Skeleton:
    nodes: list[Node]
    links: list[list[Link]]
    node_of_vertex: list[int | None]
    node_of_cycle: list[int]
    node_vertices: list[tuple[int, ...]]
    parent: list[int]
    order: list[int]
    start: list[int]
    stop: list[int]

    def __len__(self) -> int:
        return len(self.nodes)

    def hinge_nodes(self, cycle_node: int) -> list[int]:
        return [link.other for link in self.links[cycle_node]]


@dataclass(frozen=True)
class Ring:
    """One cycle of a decomposition as tuples: ``vertices[i]`` and the next
    ring vertex are joined by ``edges[i]``, whose ``u`` endpoint is
    ``vertices[i]`` when ``forward[i]``, and ``pos[i]`` is the arc coordinate
    of ``vertices[i]``."""

    id: int
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    forward: tuple[bool, ...]
    pos: tuple[float, ...]
    perimeter: float

    def coord_point(self, graph, x: float) -> GraphPoint:
        """The point at arc coordinate ``x``, taken modulo the perimeter:
        the edges tried in ring order, on the first whose far end is at
        least ``x - _POS_EPS``."""
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

    def ring_distances(self, at) -> np.ndarray:
        """``(len(at), c)`` distances along the ring from each arc
        coordinate of ``at`` to every ring vertex."""
        gaps = np.abs(np.asarray(at)[:, None] - np.array(self.pos)[None, :])
        return np.minimum(gaps, self.perimeter - gaps)


def rings(dec) -> list[Ring]:
    """Every cycle of a decomposition's ring table, in cycle order."""
    cut = dec.ring_ptr[1:-1]
    columns = (dec.ring_vertex, dec.ring_edge, dec.ring_forward, dec.ring_pos)
    split = (np.split(col, cut) for col in columns)
    return [
        Ring(c, *(tuple(col.tolist()) for col in cols), per)
        for c, (cols, per) in enumerate(zip(zip(*split), dec.perimeter.tolist()))
    ]


def skeleton(graph) -> Skeleton:
    """One node per out-of-cycle vertex, hinge and cycle, numbered in that
    order; links for bridges in edge order, then each cycle's hinge links
    in ring order; rooted at node 0 with a stack, children in link order."""
    cycles = rings(graph.cycles)
    n = graph.vertex_count
    on_cycle = [False] * n
    for cyc in cycles:
        for v in cyc.vertices:
            on_cycle[v] = True
    node_of_vertex: list[int | None] = [None] * n
    nodes: list[Node] = []
    for v in range(n):
        degree = int(graph.indptr[v + 1] - graph.indptr[v])
        if not on_cycle[v] or degree >= 3:
            node_of_vertex[v] = len(nodes)
            nodes.append(Node(len(nodes), "hinge" if on_cycle[v] else "vertex", v))
    node_of_cycle = []
    for cyc in cycles:
        node_of_cycle.append(len(nodes))
        nodes.append(Node(len(nodes), "cycle", cyc.id))

    node_vertices: list[list[int]] = [[] for _ in nodes]
    for v in range(n):
        if node_of_vertex[v] is not None:
            node_vertices[node_of_vertex[v]].append(v)
    for cyc in cycles:
        for v in cyc.vertices:
            if node_of_vertex[v] is None:
                node_vertices[node_of_cycle[cyc.id]].append(v)

    links: list[list[Link]] = [[] for _ in nodes]
    for e in range(graph.edge_count):
        if graph.cycles.edge_cycle[e] < 0:
            u, v, length = graph.edge(e)
            a, b = node_of_vertex[u], node_of_vertex[v]
            links[a].append(Link(b, length, e))
            links[b].append(Link(a, length, e))
    for cyc in cycles:
        cnode = node_of_cycle[cyc.id]
        for v in cyc.vertices:
            h = node_of_vertex[v]
            if h is not None:
                links[cnode].append(Link(h, 0.0, None))
                links[h].append(Link(cnode, 0.0, None))

    parent = [-1] * len(nodes)
    order: list[int] = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for link in reversed(links[x]):
            if link.other != parent[x]:
                parent[link.other] = x
                stack.append(link.other)
    start = [0] * len(nodes)
    for i, x in enumerate(order):
        start[x] = i
    size = [1] * len(nodes)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    stop = [start[x] + size[x] for x in range(len(nodes))]
    return Skeleton(
        nodes,
        links,
        node_of_vertex,
        node_of_cycle,
        [tuple(vs) for vs in node_vertices],
        parent,
        order,
        start,
        stop,
    )


def assert_same_skeleton(tree, ref: Skeleton) -> None:
    """The array skeleton numbers, roots and links its nodes as ``ref``."""
    assert tree.kind.tolist() == [KIND[node.kind] for node in ref.nodes]
    assert tree.ref.tolist() == [node.ref for node in ref.nodes]
    for name in ("order", "parent", "start", "stop", "node_of_cycle"):
        assert getattr(tree, name).tolist() == getattr(ref, name), name
    assert tree.node_of_vertex.tolist() == [
        -1 if x is None else x for x in ref.node_of_vertex
    ]
    assert [tree.neighbours(x) for x in range(len(tree))] == [
        [link.other for link in links] for links in ref.links
    ]
    up = [
        next(link for link in ref.links[x] if link.other == ref.parent[x])
        for x in ref.order[1:]
    ]
    assert tree.up_length[ref.order[1:]].tolist() == [link.length for link in up]
    assert tree.up_edge[ref.order[1:]].tolist() == [
        -1 if link.edge is None else link.edge for link in up
    ]
    assert [
        tuple(tree.node_vertex[a:b].tolist())
        for a, b in zip(tree.node_ptr[:-1], tree.node_ptr[1:])
    ] == ref.node_vertices
    assert [tree.neighbours(c) for c in ref.node_of_cycle] == [
        ref.hinge_nodes(c) for c in ref.node_of_cycle
    ]


def subtree_mass(inst, ref: Skeleton) -> np.ndarray:
    """Each node's own mass, added up into its parent in reversed preorder."""
    mass = np.zeros((len(ref), inst.n))
    for x, verts in enumerate(ref.node_vertices):
        for v in verts:
            mass[x] += inst.vertex_mass[v]
    for x in reversed(ref.order[1:]):
        mass[ref.parent[x]] += mass[x]
    return mass


def ed_at_vertices(inst, ref: Skeleton) -> np.ndarray:
    """One Dijkstra row at the root's vertex, then every vertex rerooted
    from its parent in preorder: ``l·(T − 2M)`` across a bridge, and the
    ring mixture of the entry vertex's row around a cycle."""
    g = inst.graph
    cycles = rings(g.cycles)
    sub = subtree_mass(inst, ref)
    total = sub[ref.order[0]]
    ed = np.empty((g.vertex_count, inst.n))
    top = ref.node_vertices[ref.order[0]][0]
    ed[top] = g.distance_rows([top])[0] @ inst.vertex_mass
    for x in ref.order:
        node, up = ref.nodes[x], ref.parent[x]
        if node.kind == "cycle":
            cyc = cycles[node.ref]
            entry, gate = _cycle_gates(inst, ref, sub, cyc)
            shift = cyc.ring_distances(cyc.pos) - cyc.ring_distances([cyc.pos[entry]])
            ed[list(cyc.vertices)] = ed[cyc.vertices[entry]] + shift @ gate
        elif up >= 0 and ref.nodes[up].kind != "cycle":
            length = next(link.length for link in ref.links[x] if link.other == up)
            ed[node.ref] = ed[ref.nodes[up].ref] + length * (total - 2.0 * sub[x])
    return ed


def _cycle_gates(inst, ref: Skeleton, sub: np.ndarray, cyc: Ring):
    node = ref.node_of_cycle[cyc.id]
    up = ref.parent[node]
    # the root's own vertex serves as the entry of a cycle at the root
    entry = cyc.vertices.index(ref.node_vertices[node][0]) if up < 0 else -1
    gate = np.empty((len(cyc.vertices), inst.n))
    for i, v in enumerate(cyc.vertices):
        hinge = ref.node_of_vertex[v]
        if hinge is None:
            gate[i] = inst.vertex_mass[v]
        elif hinge == up:
            gate[i] = sub[ref.order[0]] - sub[node]
            entry = i
        else:
            gate[i] = sub[hinge]
    return entry, gate


def centroid(ref: Skeleton, active: frozenset[int]) -> int:
    """Node of ``active`` minimising the largest hanging piece, ties to the
    smallest id: the active nodes sorted into preorder, their piece sizes
    added up into their parents in reverse."""
    order = sorted(active, key=ref.start.__getitem__)
    size = dict.fromkeys(order, 1)
    heaviest_child = dict.fromkeys(order, 0)
    for x in reversed(order[1:]):
        p = ref.parent[x]
        size[p] += size[x]
        heaviest_child[p] = max(heaviest_child[p], size[x])
    total = len(order)
    return min(order, key=lambda x: (max(total - size[x], heaviest_child[x]), x))


def mask(tree, nodes) -> np.ndarray:
    """The mask over preorder positions of a set of nodes."""
    out = np.zeros(len(tree), dtype=bool)
    out[tree.start[np.fromiter(nodes, np.intp)]] = True
    return out


def nodes(tree, active: np.ndarray) -> frozenset[int]:
    """The nodes of a mask over preorder positions."""
    return frozenset(tree.order[active].tolist())


def decomposition(dec) -> tuple:
    """A cycle decomposition's fields as lists, to compare two of them."""
    arrays = (
        "ring_ptr", "ring_vertex", "ring_edge", "ring_forward", "ring_pos", "perimeter",
        "ring_cycle", "edge_cycle",
    )
    return tuple(getattr(dec, name).tolist() for name in arrays)


def distance_via(graph, q: GraphPoint, dq: np.ndarray, p: GraphPoint) -> float:
    """Distance between ``q`` and ``p``, given ``dq = graph.distances_from(q)``:
    through an end of ``p``'s edge, or along that edge when ``q`` shares it."""
    if p.edge < 0:
        return float(dq[0])
    u, v, length = graph.edge(p.edge)
    d = min(p.t + dq[u], (length - p.t) + dq[v])
    if p.edge == q.edge:
        d = min(d, abs(p.t - q.t))
    return float(d)


def point_distance(graph, p: GraphPoint, q: GraphPoint) -> float:
    """Exact shortest-path distance between two points of the network."""
    check_point(graph, p)
    return distance_via(graph, q, graph.distances_from(q), p)


def priced(inst, q: GraphPoint, k: int) -> float:
    """Expected distance of point ``k`` to ``q``: each location's distance,
    through :func:`distance_via`, times its probability,
    added up location by location."""
    g = inst.graph
    dq = g.distances_from(q)
    total = 0.0
    for loc in inst.points[k].locations:
        d = dq[loc.place] if loc.is_vertex else distance_via(g, q, dq, loc.place)
        total += loc.prob * d
    return float(total)


def vertex_origin(red) -> list[GraphPoint]:
    """Where each reduced vertex lies on the original graph; empty for an
    identity reduction."""
    if red.identity:
        return []
    return [red._origin(v) for v in range(red.reduced.graph.vertex_count)]


def edge_paths(red) -> list[list[tuple[int, float, float]]]:
    """The runs along original edges, ``(edge, start, end)``, that each
    reduced edge stands for, from its ``u`` end; empty for an identity
    reduction."""
    if red.identity:
        return []
    c, oriented = red._chains, red._split.oriented
    runs = list(map(oriented, c.edges.tolist(), c.enter.tolist()))
    return [runs[a:b] for a, b in zip(c.start[:-1].tolist(), c.start[1:].tolist())]


def group_eccentricity(inst, subset, where: int) -> tuple[float, int | None]:
    """Largest weighted expected distance from vertex ``where`` over the
    points of ``subset``, ascending, with the first point attaining it;
    ``(0.0, None)`` for an empty subset."""
    idx = np.asarray(subset, dtype=np.intp)
    if idx.size == 0:
        return 0.0, None
    vals = inst.weights[idx] * inst.ed_at_vertices[where, idx]
    best = int(np.argmax(vals))
    return float(vals[best]), int(idx[best])


# ---------------------------------------------------------------------------
# single-center questions, edge by edge and piece by piece


def table(fams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-family lists of ``(lo, hi)`` intervals as the package's interval
    table ``(ptr, lo, hi)``."""
    pairs = [ab for fam in fams for ab in fam]
    lo, hi = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return np.cumsum([0, *map(len, fams)]), lo, hi


def families(tab) -> list[list[tuple[float, float]]]:
    """An interval table ``(ptr, lo, hi)`` as per-family lists of ``(lo,
    hi)`` tuples."""
    ptr, lo, hi = tab
    pairs = list(zip(lo.tolist(), hi.tolist()))
    return [pairs[i:j] for i, j in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


def _tol(inst, lam: float) -> float:
    return inst.eps * max(1.0, abs(lam))


def coverage_witness(inst, subset, lam: float) -> GraphPoint | None:
    """A position serving every point of ``subset`` within ``lam``, or None:
    each bridge's reach from the slopes of its profiles, then each cycle's
    coverage sets intersected as interval families."""
    idx = np.asarray(list(subset), dtype=int)
    g = inst.graph
    if idx.size == 0:
        return g.vertex_point(0)
    tol = _tol(inst, lam)
    w = inst.weights[idx]
    thr = np.where(
        w > 0.0,
        (lam + tol) / np.where(w > 0.0, w, 1.0),
        np.inf if lam + tol >= 0.0 else -np.inf,
    )
    edv = inst.ed_at_vertices
    if not g.edge_count:
        return g.vertex_point(0) if np.all(edv[0, idx] <= thr) else None

    bid = g.bridges
    if bid.size:
        bu, bv, bl = g.u[bid], g.v[bid], g.length[bid]
        y0 = edv[np.ix_(bu, idx)]
        slope = (edv[np.ix_(bv, idx)] - y0) / bl[:, None]
        span = thr[None, :] - y0
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = span / slope
        lo = np.maximum(np.where(slope < 0.0, cross, 0.0).max(axis=1), 0.0)
        hi = np.minimum(np.where(slope > 0.0, cross, np.inf), bl[:, None]).min(axis=1)
        ok = (lo <= hi) & ~((slope == 0.0) & (span < 0.0)).any(axis=1)
        hit = np.flatnonzero(ok)
        if hit.size:
            e = int(hit[0])
            return GraphPoint(int(bid[e]), float(lo[e]))

    for cyc in rings(g.cycles):
        xs, ys = cycle_profiles(inst, cyc.id)
        if np.any(inst.weights[idx] * ys.min(axis=0)[idx] > lam + tol):
            continue
        arcs = coverage_set(xs, ys[:, idx], w, lam, inst.eps)
        (common,) = families(intersect_families(arcs))
        if common:
            return cyc.coord_point(g, common[0][0])
    return None


def decide_on_edge(inst, edge: int, lam: float) -> Verdict:
    """The edge terminal with its push computed point by point: each
    majority point on the far side caps how far the on-edge center moves
    toward it, and the rest go to :func:`coverage_witness`."""
    g = inst.graph
    u, v, length = g.edge(edge)
    tol = _tol(inst, lam)
    tree = g.skeleton
    side_u = component_mass(inst, tree.node_of_vertex[v], tree.node_of_vertex[u])
    y0 = inst.weights * inst.ed_at_vertices[u]
    y1 = inst.weights * inst.ed_at_vertices[v]
    slope = (y1 - y0) / length
    for from_u in (True, False):
        heavy = side_u >= 0.5 - inst.eps if from_u else 1.0 - side_u >= 0.5 - inst.eps
        t = length if from_u else 0.0
        for k in np.flatnonzero(heavy):
            if from_u:
                if slope[k] > 0 and y0[k] <= lam + tol:
                    t = min(t, (lam + tol - y0[k]) / slope[k])
            else:
                if slope[k] < 0 and y1[k] <= lam + tol:
                    t = max(t, length + (lam + tol - y1[k]) / slope[k])
        t = float(np.clip(t, 0.0, length))
        rest = np.flatnonzero(y0 + slope * t > lam + 2.0 * tol)
        if rest.size == 0:
            here = GraphPoint(edge, t)
            return Verdict(True, (here, here))
        other = coverage_witness(inst, rest, lam)
        if other is not None:
            return Verdict(True, (GraphPoint(edge, t), other))
    return Verdict(False)


def interp_rows(xs: np.ndarray, ys: np.ndarray, x: float) -> np.ndarray:
    """The row of the profile matrix ``ys`` at one arc coordinate ``x``:
    found by one binary search, then a breakpoint's own row, an end row,
    or the line between the two rows around ``x``."""
    i = int(np.searchsorted(xs, x))
    if i >= len(xs):
        return ys[-1]
    if xs[i] == x or i == 0:
        return ys[i]
    frac = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] + frac * (ys[i] - ys[i - 1])


def decide_on_cycle(inst, node: int, lam: float) -> Verdict:
    """The cycle terminal with its residual sweep as a loop: both centers
    on the ring by one stab, else each arc endpoint in order as the
    on-ring center, priced by :func:`interp_rows`, its residual set handed
    to the package's ``coverage_witness`` once per distinct set."""
    g = inst.graph
    c = int(g.skeleton.ref[node])
    arcs = decision._cycle_arcs(inst, c, lam)
    fams = families(arcs)
    if all(fams):
        hit = stab_two(arcs)
        if hit is not None:
            x, y = hit[0], hit[0] if hit[1] is None else hit[1]
            return Verdict(True, (g.cycles.point(g, c, x), g.cycles.point(g, c, y)))
    xs, ys = cycle_profiles(inst, c)
    tol = _tol(inst, lam)
    cands = sorted({0.0} | {end for fam in fams for ab in fam for end in ab})
    seen_masks: set[frozenset[int]] = set()
    for x in cands:
        yx = interp_rows(xs, ys, x)
        rest = np.flatnonzero(inst.weights * yx > lam + 2.0 * tol)
        if rest.size == 0:
            here = g.cycles.point(g, c, x)
            return Verdict(True, (here, here))
        mask = frozenset(rest.tolist())
        if mask in seen_masks:
            continue
        seen_masks.add(mask)
        other = decision.coverage_witness(inst, rest, lam)
        if other is not None:
            return Verdict(True, (g.cycles.point(g, c, x), other))
    return Verdict(False)


def one_center(inst) -> tuple[GraphPoint, float]:
    """The exact weighted 1-center of a vertex-constrained instance from
    two loops: every bridge, then every cycle piece, each trying its ends
    and every crossing of two weighted profiles."""
    weights = inst.weights
    g = inst.graph
    if not np.any(weights > 0) or not g.edge_count:
        return g.vertex_point(0), 0.0
    best = None
    for e in g.bridges.tolist():
        u, v, length = g.edge(e)
        y0 = weights * inst.ed_at_vertices[u]
        y1 = weights * inst.ed_at_vertices[v]
        ts = np.concatenate([[0.0, length], crossings(y0, y1)[0] * length])
        env = np.max(y0[None, :] + (ts[:, None] / length) * (y1 - y0)[None, :], axis=1)
        i = int(np.argmin(env))
        if best is None or env[i] < best[0]:
            best = (float(env[i]), GraphPoint(e, float(ts[i])))
    for cyc in rings(g.cycles):
        xs, ys = cycle_profiles(inst, cyc.id)
        ys = ys * weights
        for i in range(len(xs) - 1):
            length = xs[i + 1] - xs[i]
            ts = np.concatenate([[0.0, length], crossings(ys[i], ys[i + 1])[0] * length])
            frac = ts[:, None] / length
            env = np.max(ys[i][None, :] + frac * (ys[i + 1] - ys[i])[None, :], axis=1)
            j = int(np.argmin(env))
            if best is None or env[j] < best[0]:
                best = (float(env[j]), cyc.coord_point(g, float(xs[i] + ts[j])))
    return best[1], best[0]


def base_values(inst) -> np.ndarray:
    """Median values, every vertex's weighted values, and every cycle
    profile's weighted values at its breakpoints."""
    vals = [[0.0], inst.weights * median_values(inst)]
    vals.append((inst.ed_at_vertices * inst.weights).ravel())
    for cyc in rings(inst.graph.cycles):
        vals.append((cycle_profiles(inst, cyc.id)[1] * inst.weights).ravel())
    return np.concatenate(vals)
