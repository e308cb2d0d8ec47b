"""Uncertain points on a cactus: expected distances and derived quantities.

An instance holds its points as one location table (:class:`LocationTable`):
labels and weights per point, a per-point pointer into the locations, and
per location its vertex, or its edge and offset, and its probability.
Every check and every quantity below is an array pass over those columns.
:class:`Location` and :class:`UncertainPoint` are the library's input
types; :attr:`Instance.points` rebuilds them from the table.

The tables read off the skeleton tree are array passes over its arrays:
each node's mass is one bincount, each subtree's mass is preorder prefix
sums differenced at the subtree's ends, and the expected distances at
every vertex are rerooted from the skeleton root's vertex by summing
per-vertex steps along root paths with pointer doubling; the root's own
row comes from its distances, summed along the same paths.  Around a
cycle every step is one ring-shift formula, :func:`ring_shifts`, which the
cycle profiles of :mod:`ucactus.plf` also read.  Expected distance is
concave along every edge, so each point's least value around a cycle
(:attr:`Instance.ring_floor`) is read off the ring vertices' rows.  No
Dijkstra runs for these tables: only :func:`expected_distances`, the
independent pricing of an arbitrary point, reads the graph's Dijkstra rows.

A probe's split around a skeleton node is arrays too: the components'
gates, first nodes and masses (:func:`component_sums`, one row per
component read off the subtree masses), and every point group's weighted
eccentricity and worst point in one pass (:func:`group_eccentricity`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Callable, Hashable, NamedTuple, Sequence, TypeVar

import numpy as np

from ucactus.errors import InvalidPoint, ValidationError
from ucactus.graph import _POS_EPS, CactusGraph, GraphPoint

DEFAULT_EPS = 1e-9
PROB_EPS = 1e-12
# floats in one block of :func:`ring_shifts`' ring distances and products:
# rings of one size share a block while they fit, and a larger ring takes
# a block of its own
_RING_BLOCK = 1 << 18

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class Location:
    """One possible position of an uncertain point, with its probability.

    ``place`` is a vertex id, or a :class:`GraphPoint` for edge-interior
    positions.
    """

    place: int | GraphPoint
    prob: float

    @property
    def is_vertex(self) -> bool:
        return isinstance(self.place, int)


@dataclass(frozen=True, slots=True)
class UncertainPoint:
    label: str
    weight: float
    locations: tuple[Location, ...]


class LocationTable(NamedTuple):
    """Uncertain points as columns.  Point ``k`` is labelled ``labels[k]``,
    weighs ``weights[k]`` and owns locations ``ptr[k]:ptr[k + 1]``.
    Location ``i`` has probability ``prob[i]`` and lies on vertex
    ``vertex[i]``, or, where that is -1, ``t[i]`` units from the ``u`` end
    of edge ``edge[i]``; a vertex location has edge -1 and offset 0."""

    labels: list[str]
    weights: np.ndarray
    ptr: np.ndarray
    vertex: np.ndarray
    edge: np.ndarray
    t: np.ndarray
    prob: np.ndarray


class Instance:
    """A cactus plus uncertain points held as a :class:`LocationTable`.
    Outside input comes through :func:`build_instance` or
    :func:`instance_from_table`; the reduction builds its output directly."""

    def __init__(self, graph: CactusGraph, table: LocationTable, eps: float) -> None:
        self.graph = graph
        self.table = table
        self.labels = table.labels
        self.weights = table.weights
        self.eps = eps
        self.n = len(table.labels)
        self._memo: dict = {}

    def memo(self, key: Hashable, build: Callable[[], T]) -> T:
        """Per-instance cache for values that take an argument, such as one
        cycle's profiles; ``build`` runs on the first call for ``key`` only.
        Values without an argument are ``cached_property`` instead."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @cached_property
    def points(self) -> tuple[UncertainPoint, ...]:
        """The table as input objects, for readers that walk the points one
        by one; no solver stage reads it."""
        tab = self.table
        places = [
            v if v >= 0 else GraphPoint(e, t)
            for v, e, t in zip(tab.vertex.tolist(), tab.edge.tolist(), tab.t.tolist())
        ]
        locs = list(map(Location, places, tab.prob.tolist()))
        ptr = tab.ptr.tolist()
        return tuple(
            UncertainPoint(label, w, tuple(locs[a:b]))
            for label, w, a, b in zip(self.labels, self.weights.tolist(), ptr, ptr[1:])
        )

    @cached_property
    def owner(self) -> np.ndarray:
        """The point that owns each location."""
        return np.repeat(np.arange(self.n), np.diff(self.table.ptr))

    @cached_property
    def is_vertex_constrained(self) -> bool:
        return bool((self.table.vertex >= 0).all())

    @cached_property
    def vertex_mass(self) -> np.ndarray:
        """Probability mass per (vertex, point); vertex-constrained only."""
        if not self.is_vertex_constrained:
            raise ValidationError("instance has edge-interior locations")
        cells = self.table.vertex * self.n + self.owner
        size = self.graph.vertex_count * self.n
        # bincount adds up each cell in location order
        mass = np.bincount(cells, self.table.prob, size)
        return mass.reshape(self.graph.vertex_count, self.n)

    @cached_property
    def ed_at_vertices(self) -> np.ndarray:
        """``ed_at_vertices[v, k]`` is the expected distance of point k to v.

        Every vertex but the skeleton root's differs from one vertex nearer
        the root by a row that neither one's value enters: across a bridge
        of length ``l`` into a subtree holding mass ``M`` of a point whose
        total mass is ``T``, by ``l·(T − 2M)``; around a cycle, from its
        entry vertex, by :func:`ring_shifts`, one product per block of
        equal-sized cycles.  The root's row is its distance to every vertex
        against the vertex masses, and those distances are steps along the
        same paths: ``l`` across a bridge and the ring distance from the
        entry around a cycle.  Both are summed along root paths by pointer
        doubling, so no loop runs once per level or once per cycle.
        O(|V|·n·log(depth) + Σ c²·n) for cycles of c vertices."""
        g, tree, sub = self.graph, self.graph.skeleton, self.subtree_mass
        dec, entry = g.cycles, self.ring_gates[0]
        up = np.full(g.vertex_count, -1, dtype=np.intp)
        size = np.diff(dec.ring_ptr)
        at_entry = np.repeat(entry, size)
        ring = np.flatnonzero(at_entry != np.arange(len(at_entry)))
        up[dec.ring_vertex[ring]] = dec.ring_vertex[at_entry[ring]]
        shift, reach = np.empty((len(at_entry), self.n)), np.empty(len(at_entry))
        for s in set(size.tolist()):
            cycles = np.flatnonzero(size == s)
            per = max(1, _RING_BLOCK // (s * (s + self.n)))
            for lo in range(0, len(cycles), per):
                block = cycles[lo : lo + per]
                at = dec.block(block)
                shift[at], reach[at] = ring_shifts(self, block, dec.ring_pos[at])
        # an entry takes its step from a bridge, the cycle above or the root
        step, dist = np.empty((g.vertex_count, self.n)), np.zeros((g.vertex_count, 1))
        step[dec.ring_vertex[ring]] = shift[ring]
        dist[dec.ring_vertex[ring], 0] = reach[ring]
        x = np.flatnonzero(tree.up_edge >= 0)  # entered across a bridge
        v = tree.ref[x]
        up[v] = tree.ref[tree.parent[x]]
        step[v] = tree.up_length[x, None] * (sub[0] - 2.0 * sub[x])
        dist[v, 0] = tree.up_length[x]
        top = tree.node_vertex[0]
        step[top] = _sum_root_paths(up.copy(), dist)[:, 0] @ self.vertex_mass
        return _sum_root_paths(up, step)

    @cached_property
    def ring_floor(self) -> np.ndarray:
        """``ring_floor[c, k]`` is point k's least expected distance around
        cycle c, a (cycles × n) matrix.  Each point's expected distance is
        concave along every edge of a vertex-constrained instance, so a
        ring vertex attains it, as a vertex attains the median."""
        dec = self.graph.cycles
        return np.minimum.reduceat(self.ed_at_vertices[dec.ring_vertex], dec.ring_ptr[:-1], axis=0)

    @cached_property
    def ring_gates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(entry, gate)`` over the ring positions of every cycle, in the
        order of ``graph.cycles.ring_vertex``.  ``gate[i, k]`` is the mass of
        point k that reaches its ring first at position ``i``: a hinge's
        whole side off the ring, or a plain ring vertex's own mass.
        ``entry[c]`` is the position of cycle c's vertex nearest the
        skeleton root, whose gate holds everything outside the cycle's
        subtree; a cycle at the root enters at its first ring vertex."""
        tree, dec, sub = self.graph.skeleton, self.graph.cycles, self.subtree_mass
        cycle_node = tree.node_of_cycle[dec.ring_cycle]
        hinge = tree.node_of_vertex[dec.ring_vertex]
        gate = self.vertex_mass[dec.ring_vertex]
        at = np.flatnonzero(hinge >= 0)
        gate[at] = sub[hinge[at]]
        above = at[hinge[at] == tree.parent[cycle_node[at]]]
        gate[above] = sub[0] - sub[cycle_node[above]]
        entry = dec.ring_ptr[:-1].copy()
        entry[tree.ref[cycle_node[above]]] = above
        gate.setflags(write=False)
        return entry, gate

    @cached_property
    def node_mass(self) -> np.ndarray:
        """Probability mass per (skeleton node, point)."""
        tree = self.graph.skeleton
        node = np.repeat(np.arange(len(tree)), np.diff(tree.node_ptr))
        cells = (node[:, None] * self.n + np.arange(self.n)).ravel()
        # bincount adds up each cell in input order: each node its vertices
        # in the order it lists them
        rows = self.vertex_mass[tree.node_vertex].ravel()
        return np.bincount(cells, rows, len(tree) * self.n).reshape(len(tree), self.n)

    @cached_property
    def subtree_mass(self) -> np.ndarray:
        """Probability mass per (skeleton node, point) over the node's subtree
        in the rooted skeleton: preorder prefix sums differenced at each
        node's ``[start, stop)``."""
        tree = self.graph.skeleton
        held = np.zeros((len(tree) + 1, self.n))
        np.cumsum(self.node_mass[tree.order], axis=0, out=held[1:])
        mass = held[tree.stop] - held[tree.start]
        mass.setflags(write=False)  # component_mass hands out its rows
        return mass


def _sum_root_paths(up: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Turn row ``x`` of ``step``, in place, into the sum of the rows at
    ``x`` and at every vertex above it, ``up`` being -1 at the root.
    Pointer doubling, one pass per doubling of the depth, runs over the
    vertices that others hang from (and overwrites their ``up``); each of
    the rest then adds its parent's finished row once."""
    inner = np.zeros(len(up), dtype=bool)
    inner[up[up >= 0]] = True
    leaf = np.flatnonzero(~inner & (up >= 0))
    leaf_up = up[leaf]
    live = np.flatnonzero(inner & (up >= 0))
    while live.size:
        above = up[live]
        step[live] += step[above]
        up[live] = up[above]
        live = live[up[live] >= 0]
    step[leaf] += step[leaf_up]
    return step


def instance_eps(explicit: float | None) -> float:
    """The comparison tolerance: ``explicit`` if given, else
    :data:`DEFAULT_EPS`; it must be finite and positive, since with no
    slack a comparison one rounding error off flips a verdict."""
    if explicit is None:
        return DEFAULT_EPS
    if not 0.0 < explicit < math.inf:
        raise ValidationError(f"eps must be finite and positive, got {explicit}")
    return explicit


def build_instance(
    graph: CactusGraph,
    points: Sequence[UncertainPoint],
    eps: float | None = None,
) -> Instance:
    """Validate places, probabilities and weights and assemble an
    :class:`Instance` from input objects.  The checks are those of
    :func:`instance_from_table`, with each place checked right after its
    probability, as :func:`ucactus.graph.check_point` checks a point."""
    locs = list(chain.from_iterable(p.locations for p in points))
    places = list(map(attrgetter("place"), locs))
    size = len(places)
    at_vertex = np.fromiter(map(isinstance, places, repeat(int)), bool, size)
    inside = ~at_vertex
    spots = list(compress(places, inside))
    vertex = np.full(size, -1, dtype=np.intp)
    vertex[at_vertex] = list(compress(places, at_vertex))
    edge = np.full(size, -1, dtype=np.intp)
    edge[inside] = list(map(attrgetter("edge"), spots))
    t = np.zeros(size)
    t[inside] = list(map(attrgetter("t"), spots))
    m = graph.edge_count
    known = inside & (edge >= 0) & (edge < m)
    length = graph.length[np.where(known, edge, 0)] if m else np.zeros(size)

    def no_vertex(i, label):
        return ValidationError(f"point {label!r}: no vertex {places[i]}")

    def sentinel(i, label):
        return InvalidPoint("vertex sentinel point used on a non-trivial graph")

    def no_edge(i, label):
        return InvalidPoint(f"no edge {places[i].edge}")

    def off_edge(i, label):
        return InvalidPoint(f"offset {places[i].t} outside edge {places[i].edge}")

    place_checks = (
        (at_vertex & ((vertex < 0) | (vertex >= graph.vertex_count)), no_vertex),
        (inside & (edge < 0) & (m > 0), sentinel),
        (inside & (edge >= m), no_edge),
        (known & ~((t >= -_POS_EPS) & (t <= length + _POS_EPS)), off_edge),
    )
    # the lone vertex's sentinel point is that vertex
    vertex[inside & (edge < 0)] = 0
    edge[vertex >= 0] = -1
    t[vertex >= 0] = 0.0
    table = LocationTable(
        [p.label for p in points],
        np.array([p.weight for p in points], dtype=float),
        np.cumsum([0] + [len(p.locations) for p in points]),
        vertex,
        edge,
        t,
        np.fromiter(map(attrgetter("prob"), locs), float, size),
    )
    return _checked_instance(graph, table, eps, place_checks)


def instance_from_table(
    graph: CactusGraph, table: LocationTable, eps: float | None = None
) -> Instance:
    """Validate the probabilities and weights of a location table whose
    places lie on ``graph`` and assemble an :class:`Instance`."""
    return _checked_instance(graph, table, eps, ())


def _checked_instance(
    graph: CactusGraph,
    table: LocationTable,
    eps: float | None,
    place_checks: Sequence[tuple[np.ndarray, Callable[[int, str], Exception]]],
) -> Instance:
    """Each check runs over all points or all locations at once, and the
    first fault in point order is raised.  Within a point the checks run in
    the order duplicate label, non-finite weight, negative weight, no
    locations; then each location's probability range and
    ``place_checks`` (a mask over the locations and the error for location
    ``i`` of the point labelled ``label``), location by location; then the
    probability sum, added up in location order."""
    labels, weights, ptr, _, _, _, prob = table
    n = len(labels)
    if not n:
        raise ValidationError("instance needs at least one uncertain point")
    owner = np.repeat(np.arange(n), np.diff(ptr))
    total = np.bincount(owner, prob, n)
    duplicate = np.zeros(n, dtype=bool)
    if len(set(labels)) < n:
        seen: dict[str, int] = {}
        duplicate[[k for k, label in enumerate(labels) if seen.setdefault(label, k) != k]] = True
    # each check's mask, its positions in document order (a point's own
    # checks, then its locations, then its sum) and its error
    head = ptr[:-1] + 2 * np.arange(n)
    body = np.arange(len(prob)) + 2 * owner + 1
    checks = [
        (duplicate, head, lambda k: ValidationError(f"duplicate point label {labels[k]!r}")),
        (
            ~np.isfinite(weights),
            head,
            lambda k: ValidationError(
                f"point {labels[k]!r} has non-finite weight {float(weights[k])}"
            ),
        ),
        (weights < 0, head, lambda k: ValidationError(f"point {labels[k]!r} has negative weight")),
        (
            ptr[1:] == ptr[:-1],
            head,
            lambda k: ValidationError(f"point {labels[k]!r} has no locations"),
        ),
        (
            ~((prob >= 0.0) & (prob <= 1.0)),
            body,
            lambda i: ValidationError(f"point {labels[owner[i]]!r}: probability {float(prob[i])}"),
        ),
        *(
            (bad, body, lambda i, error=error: error(i, labels[owner[i]]))
            for bad, error in place_checks
        ),
        (
            np.abs(total - 1.0) > PROB_EPS,
            head + np.diff(ptr) + 1,
            lambda k: ValidationError(
                f"point {labels[k]!r}: probabilities sum to {float(total[k])!r}, not 1"
            ),
        ),
    ]
    # the earliest position; at one position, the check listed first
    faults = [
        (at[hit[0]], c, int(hit[0]))
        for c, (bad, at, _) in enumerate(checks)
        if (hit := np.flatnonzero(bad)).size
    ]
    if faults:
        _, c, i = min(faults)
        raise checks[c][2](i)
    # every weighted expected distance is at most this product
    heaviest, span = float(weights.max()), float(graph.length.sum())
    if not math.isfinite(heaviest * span):
        raise ValidationError(
            f"largest weight {heaviest} times total edge length {span} is not finite"
        )
    return Instance(graph, table, instance_eps(eps))


def location_point(graph: CactusGraph, loc: Location) -> GraphPoint:
    return graph.vertex_point(loc.place) if loc.is_vertex else loc.place


def expected_distance(inst: Instance, k: int, q: GraphPoint) -> float:
    """Expected distance between uncertain point ``k`` and the fixed point
    ``q``; exact, works for edge-interior locations too."""
    return float(expected_distances(inst, q)[k])


def expected_distances(inst: Instance, q: GraphPoint) -> np.ndarray:
    """Expected distance of every point to ``q`` as a vector, each summed in
    location order.  A vertex location is ``q``'s distance to its vertex;
    an interior one is the nearer of its arms through either end of its
    edge, or along the edge when ``q`` shares it."""
    g, tab = inst.graph, inst.table
    dq = g.distances_from(q)
    d = dq[tab.vertex]
    inner = np.flatnonzero(tab.vertex < 0)
    if inner.size:
        e, t = tab.edge[inner], tab.t[inner]
        arm = np.minimum(t + dq[g.u[e]], (g.length[e] - t) + dq[g.v[e]])
        same = np.flatnonzero(e == q.edge)
        arm[same] = np.minimum(arm[same], np.abs(t[same] - q.t))
        d[inner] = arm
    return np.bincount(inst.owner, tab.prob * d, inst.n)


def objective(inst: Instance, q1: GraphPoint, q2: GraphPoint) -> float:
    """The two-center cost of the pair: every point served by its better
    center, weighted, worst point taken."""
    ed = np.minimum(expected_distances(inst, q1), expected_distances(inst, q2))
    return float(np.max(inst.weights * ed))


class ComponentSums(NamedTuple):
    """Split of probability mass around a skeleton node, one entry per
    component of :meth:`ucactus.graph.SkeletonTree.split_components`:
    component ``i`` attaches at node ``gate[i]``, is entered through node
    ``first[i]`` and holds mass ``sums[i, k]`` of point k."""

    gate: np.ndarray
    first: np.ndarray
    sums: np.ndarray  # (components, n)


def component_mass(inst: Instance, removed: int, start: int) -> np.ndarray:
    """Mass per point in the skeleton component of ``start`` once node
    ``removed`` is deleted: one subtree's row, or the total minus one."""
    tree = inst.graph.skeleton
    step = tree.step_toward(removed, start)
    if step != tree.parent[removed]:
        return inst.subtree_mass[step]
    return inst.subtree_mass[tree.order[0]] - inst.subtree_mass[removed]


def ring_shifts(
    inst: Instance, cycles: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """How much every point's expected distance exceeds that at the entry
    vertex, for a block of cycles of one size: ``at[b]`` holds arc
    coordinates of cycle ``cycles[b]``, and the first result is a
    ``(len(cycles), at.shape[1], n)`` array.  Each location reaches its
    ring through one gate vertex, so the shift is the ring distances from
    ``at`` less those from the entry, weighted by the gate masses of
    :attr:`Instance.ring_gates`; one batched product, and no expected
    distance enters it.  The second result holds each cycle's ring
    distances from its entry to its ring vertices."""
    dec = inst.graph.cycles
    entry, gate = inst.ring_gates
    here = dec.ring_distances(cycles, dec.ring_pos[entry[cycles], None])
    shift = (dec.ring_distances(cycles, at) - here) @ gate[dec.block(cycles)]
    return shift, here[:, 0]


def component_sums(inst: Instance, node: int) -> ComponentSums:
    tree, sub = inst.graph.skeleton, inst.subtree_mass
    gate, first = tree.split_components(node)
    # each component is the subtree of ``first`` or all but that of ``gate``
    below = tree.parent[first] == gate
    return ComponentSums(gate, first, np.where(below[:, None], sub[first], sub[0] - sub[gate]))


def median(inst: Instance, k: int) -> tuple[GraphPoint, float]:
    """The 1-median of uncertain point ``k`` and its expected distance.

    Expected distance is concave along every edge of a vertex-constrained
    instance, so a vertex always attains the minimum.  Other instances are
    solved on their reduction and the median is lifted back.
    """
    if not inst.is_vertex_constrained:
        from ucactus.reduction import reduce_instance

        red = reduce_instance(inst)
        where, value = median(red.reduced, k)
        return red.lift_point(where), value
    col = inst.ed_at_vertices[:, k]
    v = int(np.argmin(col))
    return inst.graph.vertex_point(v), float(col[v])


def median_values(inst: Instance) -> np.ndarray:
    """Every point's minimum expected distance, as a vector."""
    return inst.ed_at_vertices.min(axis=0)


def group_eccentricity(
    inst: Instance, group: np.ndarray, where: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every group's largest weighted expected distance, group ``g`` being
    the points k with ``group[k] == g`` measured from vertex ``where[g]``.
    A point whose group is negative or has no entry in ``where`` is left
    out.

    Returns ``(value, worst)`` per group: the value and the first point, in
    point order, that attains it.  An empty group has value ``-inf`` and
    worst point -1, so it exceeds no radius and pins nothing.
    """
    member = group == np.arange(len(where))[:, None]
    table = np.where(member, inst.weights * inst.ed_at_vertices[where], -np.inf)
    value = table.max(axis=1)
    # argmax takes the first of tied maxima
    worst = np.where(value > -np.inf, table.argmax(axis=1), -1)
    return value, worst
