"""Uncertain points on a cactus: expected distances and derived quantities."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from ucactus.errors import ValidationError
from ucactus.graph import CactusGraph, GraphPoint, point_vertex_distances

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
    """A cactus plus uncertain points.  Construct via :func:`build_instance`."""

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
        mass = np.zeros((self.graph.vertex_count, self.n))
        for k, p in enumerate(self.points):
            for loc in p.locations:
                mass[loc.place, k] += loc.prob
        return mass

    @cached_property
    def ed_at_vertices(self) -> np.ndarray:
        """``ed_at_vertices[v, k]`` is the expected distance of point k to v."""
        return self.graph.vertex_distances @ self.vertex_mass

    @cached_property
    def node_mass(self) -> np.ndarray:
        """Probability mass per (skeleton node, point)."""
        tree = self.graph.skeleton
        mass = np.zeros((len(tree), self.n))
        for node in range(len(tree)):
            for v in tree.node_vertices[node]:
                mass[node] += self.vertex_mass[v]
        return mass


def instance_eps(explicit: float | None) -> float:
    if explicit is not None:
        return explicit
    env = os.environ.get("UCACTUS_EPS")
    return float(env) if env else DEFAULT_EPS


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
            total += loc.prob
        if abs(total - 1.0) > PROB_EPS:
            raise ValidationError(
                f"point {p.label!r}: probabilities sum to {total!r}, not 1"
            )
    return Instance(graph, points, instance_eps(eps))


def location_point(graph: CactusGraph, loc: Location) -> GraphPoint:
    return graph.vertex_point(loc.place) if loc.is_vertex else loc.place


def expected_distance(inst: Instance, k: int, q: GraphPoint) -> float:
    """Expected distance between uncertain point ``k`` and the fixed point
    ``q``; exact, works for edge-interior locations too."""
    if inst.is_vertex_constrained:
        dq = point_vertex_distances(inst.graph, q)
        return float(dq @ inst.vertex_mass[:, k])
    from ucactus.graph import point_distance

    return sum(
        loc.prob * point_distance(inst.graph, location_point(inst.graph, loc), q)
        for loc in inst.points[k].locations
    )


def expected_distances(inst: Instance, q: GraphPoint) -> np.ndarray:
    """Expected distance of every point to ``q`` as a vector."""
    if inst.is_vertex_constrained:
        return point_vertex_distances(inst.graph, q) @ inst.vertex_mass
    return np.array([expected_distance(inst, k, q) for k in range(inst.n)])


def objective(inst: Instance, q1: GraphPoint, q2: GraphPoint) -> float:
    """The two-center cost of the pair: every point served by its better
    center, weighted, worst point taken."""
    ed = np.minimum(expected_distances(inst, q1), expected_distances(inst, q2))
    return float(np.max(inst.weights * ed))


@dataclass(slots=True)
class ComponentSums:
    """Split of probability mass around a skeleton node: one row of ``sums``
    per split component, plus the mass held by the removed structure."""

    node: int
    comps: list  # SplitComponent list, aligned with rows of sums
    sums: np.ndarray  # (components, n)
    at_node: np.ndarray  # (n,)


def component_sums(inst: Instance, node: int) -> ComponentSums:
    tree = inst.graph.skeleton
    comps = tree.split_components(node)
    mass = inst.node_mass
    sums = np.zeros((len(comps), inst.n))
    covered = mass[node].copy()
    if tree.nodes[node].kind == "cycle":
        for h in tree.hinge_nodes(node):
            covered += mass[h]
    for i, comp in enumerate(comps):
        for x in comp.nodes:
            sums[i] += mass[x]
    return ComponentSums(node, comps, sums, covered)


def median(inst: Instance, k: int) -> tuple[GraphPoint, float]:
    """The 1-median of uncertain point ``k`` and its expected distance.

    Expected distance is concave along every edge of a vertex-constrained
    instance, so a vertex always attains the minimum.
    """
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
