"""Uncertain points on a cactus: expected distances and derived quantities.

The tables read off the skeleton tree are array passes over its arrays:
each node's mass is one bincount, each subtree's mass is preorder prefix
sums differenced at the subtree's ends, and the expected distances at
every vertex are rerooted from one Dijkstra row by summing per-vertex
steps along root paths with pointer doubling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from ucactus.errors import ValidationError
from ucactus.graph import CactusGraph, GraphPoint, check_point, distance_via

DEFAULT_EPS = 1e-9
PROB_EPS = 1e-12

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


class Instance:
    """A cactus plus uncertain points.  Outside input comes through
    :func:`build_instance`; the reduction builds its output directly."""

    def __init__(
        self, graph: CactusGraph, points: Sequence[UncertainPoint], eps: float
    ) -> None:
        self.graph = graph
        self.points = tuple(points)
        self.eps = eps
        self.n = len(self.points)
        self._memo: dict = {}

    def memo(self, key: Hashable, build: Callable[[], T]) -> T:
        """Per-instance cache for values that take an argument, such as one
        cycle's profiles; ``build`` runs on the first call for ``key`` only.
        Values without an argument are ``cached_property`` instead."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.points])

    @cached_property
    def is_vertex_constrained(self) -> bool:
        return all(loc.is_vertex for p in self.points for loc in p.locations)

    @cached_property
    def vertex_mass(self) -> np.ndarray:
        """Probability mass per (vertex, point); vertex-constrained only."""
        if not self.is_vertex_constrained:
            raise ValidationError("instance has edge-interior locations")
        cells = [
            loc.place * self.n + k
            for k, p in enumerate(self.points)
            for loc in p.locations
        ]
        probs = [loc.prob for p in self.points for loc in p.locations]
        mass = np.zeros((self.graph.vertex_count, self.n))
        # unbuffered, so a cell that several locations share adds them up in
        # location order
        np.add.at(mass.ravel(), cells, probs)
        return mass

    @cached_property
    def ed_at_vertices(self) -> np.ndarray:
        """``ed_at_vertices[v, k]`` is the expected distance of point k to v.

        One Dijkstra row prices the vertex held by the skeleton root.  Every
        other vertex differs from one vertex nearer the root by a row that
        neither one's value enters: across a bridge of length ``l`` into a
        subtree holding mass ``M`` of a point whose total mass is ``T``, by
        ``l·(T − 2M)``; around a cycle, from its entry vertex, by
        :func:`ring_shift`, one product per cycle.  All rows are built at
        once and summed along root paths by pointer doubling, so no loop runs
        once per level.  O(|V|·n·log(depth) + Σ c²·n) for cycles of c
        vertices."""
        g, tree, sub = self.graph, self.graph.skeleton, self.subtree_mass
        dec, entry = g.cycles, self.ring_gates[0]
        up = np.full(g.vertex_count, -1, dtype=np.intp)
        at_entry = np.repeat(entry, np.diff(dec.ring_ptr))
        ring = np.flatnonzero(at_entry != np.arange(len(at_entry)))
        up[dec.ring_vertex[ring]] = dec.ring_vertex[at_entry[ring]]
        step = np.empty((g.vertex_count, self.n))
        # children's cycles first: each writes a zero row at its entry, which
        # the entry's own step, from a cycle above or a bridge, overwrites
        for c in np.argsort(-tree.start[tree.node_of_cycle]).tolist():
            cyc = dec.cycles[c]
            step[list(cyc.vertices)] = ring_shift(self, c, cyc.pos)
        x = np.flatnonzero(tree.up_edge >= 0)  # entered across a bridge
        v = tree.ref[x]
        up[v] = tree.ref[tree.parent[x]]
        step[v] = tree.up_length[x, None] * (sub[0] - 2.0 * sub[x])
        top = tree.node_vertex[0]
        step[top] = g.distance_rows([top])[0] @ self.vertex_mass
        return _sum_root_paths(up, step)

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
    """The comparison tolerance: ``explicit`` if given, else ``UCACTUS_EPS``,
    else :data:`DEFAULT_EPS`; it must be finite and positive, since with no
    slack a comparison one rounding error off flips a verdict."""
    if explicit is not None:
        eps, source = explicit, "eps"
    else:
        env = os.environ.get("UCACTUS_EPS")
        if not env:
            return DEFAULT_EPS
        source = "UCACTUS_EPS"
        try:
            eps = float(env)
        except ValueError as exc:
            raise ValidationError(f"UCACTUS_EPS is not a number: {env!r}") from exc
    if not 0.0 < eps < math.inf:
        raise ValidationError(f"{source} must be finite and positive, got {eps}")
    return eps


def build_instance(
    graph: CactusGraph,
    points: Sequence[UncertainPoint],
    eps: float | None = None,
) -> Instance:
    """Validate probabilities and weights and assemble an :class:`Instance`."""
    if not points:
        raise ValidationError("instance needs at least one uncertain point")
    labels = set()
    for p in points:
        if p.label in labels:
            raise ValidationError(f"duplicate point label {p.label!r}")
        labels.add(p.label)
        if not math.isfinite(p.weight):
            raise ValidationError(f"point {p.label!r} has non-finite weight {p.weight}")
        if p.weight < 0:
            raise ValidationError(f"point {p.label!r} has negative weight")
        if not p.locations:
            raise ValidationError(f"point {p.label!r} has no locations")
        total = 0.0
        for loc in p.locations:
            if not 0.0 <= loc.prob <= 1.0:
                raise ValidationError(f"point {p.label!r}: probability {loc.prob}")
            if loc.is_vertex:
                if not 0 <= loc.place < graph.vertex_count:
                    raise ValidationError(f"point {p.label!r}: no vertex {loc.place}")
            else:
                check_point(graph, loc.place)
            total += loc.prob
        if abs(total - 1.0) > PROB_EPS:
            raise ValidationError(
                f"point {p.label!r}: probabilities sum to {total!r}, not 1"
            )
    # every weighted expected distance is at most this product
    heaviest, span = max(p.weight for p in points), float(graph.length.sum())
    if not math.isfinite(heaviest * span):
        raise ValidationError(
            f"largest weight {heaviest} times total edge length {span} is not finite"
        )
    return Instance(graph, points, instance_eps(eps))


def location_point(graph: CactusGraph, loc: Location) -> GraphPoint:
    return graph.vertex_point(loc.place) if loc.is_vertex else loc.place


def expected_distance(inst: Instance, k: int, q: GraphPoint) -> float:
    """Expected distance between uncertain point ``k`` and the fixed point
    ``q``; exact, works for edge-interior locations too."""
    return _priced(inst, q, inst.graph.distances_from(q), k)


def expected_distances(inst: Instance, q: GraphPoint) -> np.ndarray:
    """Expected distance of every point to ``q`` as a vector."""
    dq = inst.graph.distances_from(q)
    return np.array([_priced(inst, q, dq, k) for k in range(inst.n)])


def _priced(inst: Instance, q: GraphPoint, dq: np.ndarray, k: int) -> float:
    """Expected distance of point ``k`` to ``q``, given
    ``dq = inst.graph.distances_from(q)``; O(1) per location."""
    g = inst.graph
    total = 0.0
    for loc in inst.points[k].locations:
        d = dq[loc.place] if loc.is_vertex else distance_via(g, q, dq, loc.place)
        total += loc.prob * d
    return float(total)


def objective(inst: Instance, q1: GraphPoint, q2: GraphPoint) -> float:
    """The two-center cost of the pair: every point served by its better
    center, weighted, worst point taken."""
    ed = np.minimum(expected_distances(inst, q1), expected_distances(inst, q2))
    return float(np.max(inst.weights * ed))


@dataclass(slots=True)
class ComponentSums:
    """Split of probability mass around a skeleton node: one row of ``sums``
    per split component."""

    comps: list  # SplitComponent list, aligned with rows of sums
    sums: np.ndarray  # (components, n)


def component_mass(inst: Instance, removed: int, start: int) -> np.ndarray:
    """Mass per point in the skeleton component of ``start`` once node
    ``removed`` is deleted: one subtree's row, or the total minus one."""
    tree = inst.graph.skeleton
    step = tree.step_toward(removed, start)
    if step != tree.parent[removed]:
        return inst.subtree_mass[step]
    return inst.subtree_mass[tree.order[0]] - inst.subtree_mass[removed]


def ring_shift(
    inst: Instance, cycle_id: int, at: Sequence[float] | np.ndarray
) -> np.ndarray:
    """How much every point's expected distance at the arc coordinates
    ``at`` of one cycle exceeds that at the cycle's entry vertex, as an
    ``(len(at), n)`` matrix: each location reaches the ring through one
    gate vertex, so it is the ring distances from ``at`` less those from
    the entry, weighted by the gate masses of :attr:`Instance.ring_gates`;
    one product, and no expected distance enters it."""
    dec = inst.graph.cycles
    cyc, a, b = dec.cycles[cycle_id], dec.ring_ptr[cycle_id], dec.ring_ptr[cycle_id + 1]
    entry, gate = inst.ring_gates
    shift = cyc.ring_distances(at) - cyc.ring_distances([cyc.pos[entry[cycle_id] - a]])
    return shift @ gate[a:b]


def ring_mixture(
    inst: Instance, cycle_id: int, at: Sequence[float] | np.ndarray, ed: np.ndarray
) -> np.ndarray:
    """Every point's expected distance at the arc coordinates ``at`` of one
    cycle, as an ``(len(at), n)`` matrix, given ``ed``, whose row for the
    cycle's entry vertex must hold that vertex's expected distances."""
    entry = inst.ring_gates[0][cycle_id]
    return ed[inst.graph.cycles.ring_vertex[entry]] + ring_shift(inst, cycle_id, at)


def component_sums(inst: Instance, node: int) -> ComponentSums:
    tree, sub = inst.graph.skeleton, inst.subtree_mass
    comps = tree.split_components(node)
    gate = np.array([c.gate for c in comps], dtype=np.intp)
    first = np.array([c.first for c in comps], dtype=np.intp)
    # each component is the subtree of ``first`` or all but that of ``gate``
    below = tree.parent[first] == gate
    return ComponentSums(comps, np.where(below[:, None], sub[first], sub[0] - sub[gate]))


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
    inst: Instance, subset: Sequence[int] | np.ndarray, where: int | GraphPoint
) -> tuple[float, int | None]:
    """Largest weighted expected distance from ``where`` over ``subset``.

    Returns ``(value, worst_point)``; an empty subset yields ``(0.0, None)``
    and means there is nothing to serve.
    """
    idx = np.asarray(subset, dtype=np.intp)
    if idx.size == 0:
        return 0.0, None
    if isinstance(where, int):
        ed = inst.ed_at_vertices[where, idx]
    else:
        ed = expected_distances(inst, where)[idx]
    vals = inst.weights[idx] * ed
    best = int(np.argmax(vals))
    return float(vals[best]), int(idx[best])
