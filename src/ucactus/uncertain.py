"""Uncertain points on a cactus: expected distances and derived quantities."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

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

        One Dijkstra row prices the vertex of the skeleton root; every other
        vertex is rerooted from its parent, in preorder.  Across a bridge of
        length ``l`` into a subtree holding mass ``M`` of a point whose total
        mass is ``T``, the value moves by ``l·(T − 2M)``; around a cycle it
        follows :func:`ring_mixture`.  O(|V|·n + Σ c²·n) for cycles of c
        vertices."""
        g, tree = self.graph, self.graph.skeleton
        sub = self.subtree_mass
        total = sub[tree.order[0]]
        ed = np.empty((g.vertex_count, self.n))
        top = tree.node_vertices[tree.order[0]][0]
        ed[top] = g.distance_rows([top])[0] @ self.vertex_mass
        for x in tree.order:
            node, up = tree.nodes[x], tree.parent[x]
            if node.kind == "cycle":
                cyc = g.cycles.cycles[node.ref]
                ed[list(cyc.vertices)] = ring_mixture(self, node.ref, cyc.pos, ed)
            elif up >= 0 and tree.nodes[up].kind != "cycle":
                length = next(link.length for link in tree.links[x] if link.other == up)
                ed[node.ref] = ed[tree.nodes[up].ref] + length * (total - 2.0 * sub[x])
        return ed

    @cached_property
    def node_mass(self) -> np.ndarray:
        """Probability mass per (skeleton node, point)."""
        held = self.graph.skeleton.node_vertices
        nodes = np.array([x for x, vs in enumerate(held) for _ in vs])
        verts = [v for vs in held for v in vs]
        mass = np.zeros((len(held), self.n))
        cells = (nodes[:, None] * self.n + np.arange(self.n)).ravel()
        # unbuffered, so each node adds up its vertices in the order it
        # lists them
        np.add.at(mass.ravel(), cells, self.vertex_mass[verts].ravel())
        return mass

    @cached_property
    def subtree_mass(self) -> np.ndarray:
        """Probability mass per (skeleton node, point) over the node's subtree
        in the rooted skeleton."""
        tree = self.graph.skeleton
        mass = self.node_mass.copy()
        for x in reversed(tree.order[1:]):
            mass[tree.parent[x]] += mass[x]
        mass.setflags(write=False)  # component_mass hands out its rows
        return mass


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


def _cycle_gates(inst: Instance, cycle_id: int) -> tuple[int, np.ndarray]:
    """``(entry, gate)`` for one cycle: ``gate[i, k]`` is the mass of point k
    that reaches the ring first at its ``i``-th vertex, which is a hinge's
    whole side off the ring or a plain ring vertex's own mass.  ``entry``
    indexes the ring vertex nearest the skeleton root; its gate holds
    everything outside the cycle's subtree."""
    tree = inst.graph.skeleton
    cyc = inst.graph.cycles.cycles[cycle_id]
    node = tree.node_of_cycle[cycle_id]
    up = tree.parent[node]
    sub = inst.subtree_mass
    # the root's own vertex serves as the entry of a cycle at the root
    entry = cyc.vertices.index(tree.node_vertices[node][0]) if up < 0 else -1
    gate = np.empty((len(cyc.vertices), inst.n))
    for i, v in enumerate(cyc.vertices):
        hinge = tree.node_of_vertex[v]
        if hinge is None:
            gate[i] = inst.vertex_mass[v]
        elif hinge == up:
            gate[i] = sub[tree.order[0]] - sub[node]
            entry = i
        else:
            gate[i] = sub[hinge]
    gate.setflags(write=False)
    return entry, gate


def ring_mixture(
    inst: Instance, cycle_id: int, at: Sequence[float] | np.ndarray, ed: np.ndarray
) -> np.ndarray:
    """Every point's expected distance at the arc coordinates ``at`` of one
    cycle, as an ``(len(at), n)`` matrix, given ``ed``, whose row for the
    cycle's entry vertex must hold that vertex's expected distances.

    Each location reaches the ring through one gate vertex, so moving from
    the entry to ``x`` changes a point's expected distance by the ring
    distances from ``x`` less those from the entry, weighted by the gate
    masses, which are built once per cycle and instance."""
    cyc = inst.graph.cycles.cycles[cycle_id]
    entry, gate = inst.memo(
        ("cycle_gates", cycle_id), lambda: _cycle_gates(inst, cycle_id)
    )
    shift = cyc.ring_distances(at) - cyc.ring_distances([cyc.pos[entry]])
    return ed[cyc.vertices[entry]] + shift @ gate


def component_sums(inst: Instance, node: int) -> ComponentSums:
    tree = inst.graph.skeleton
    comps = inst.graph.skeleton.split_components(node)
    sums = np.zeros((len(comps), inst.n))
    for i, comp in enumerate(comps):
        sums[i] = component_mass(inst, comp.gate, comp.first)
    return ComponentSums(comps, sums)


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
    inst: Instance, subset: Iterable[int], where: int | GraphPoint
) -> tuple[float, int | None]:
    """Largest weighted expected distance from ``where`` over ``subset``.

    Returns ``(value, worst_point)``; an empty subset yields ``(0.0, None)``
    and means there is nothing to serve.
    """
    idx = np.fromiter(subset, dtype=int)
    if idx.size == 0:
        return 0.0, None
    if isinstance(where, int):
        ed = inst.ed_at_vertices[where, idx]
    else:
        ed = expected_distances(inst, where)[idx]
    vals = inst.weights[idx] * ed
    best = int(np.argmax(vals))
    return float(vals[best]), int(idx[best])
