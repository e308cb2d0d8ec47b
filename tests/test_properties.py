"""Exactness beyond the oracle's size cap: certificates and metamorphic
relations on 30-60 vertex draws with edge-interior locations, and on
smaller draws from the benchmark's generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import benchmark_shaped_instances, edge_rows, mid_size_instances
from ucactus.decision import decide
from ucactus.graph import GraphPoint, validate_cactus
from ucactus.optimizer import solve
from ucactus.uncertain import (
    Instance,
    Location,
    UncertainPoint,
    build_instance,
    objective,
)

_DRAWS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_EDGE_DRAWS = mid_size_instances(edge_locations=st.just(True))


def _rebuilt(
    inst: Instance,
    *,
    length_scale: float = 1.0,
    weight_scale: float = 1.0,
    rng: random.Random | None = None,
) -> Instance:
    """``inst`` with every edge length and location offset times
    ``length_scale``, every weight times ``weight_scale`` and, given ``rng``,
    its vertices, edges and points listed in shuffled order."""
    g = inst.graph
    verts = list(range(g.vertex_count))
    edges = list(range(g.edge_count))
    points = list(range(inst.n))
    if rng is not None:
        for order in (verts, edges, points):
            rng.shuffle(order)
    vertex_to = {v: i for i, v in enumerate(verts)}
    edge_to = {e: i for i, e in enumerate(edges)}
    rows = edge_rows(g)
    spec = [
        (g.names[rows[e].u], g.names[rows[e].v], length_scale * rows[e].length)
        for e in edges
    ]
    moved = []
    for k in points:
        p = inst.points[k]
        locs = []
        for loc in p.locations:
            if loc.is_vertex:
                place = vertex_to[loc.place]
            else:
                place = GraphPoint(edge_to[loc.place.edge], length_scale * loc.place.t)
            locs.append(Location(place, loc.prob))
        moved.append(UncertainPoint(p.label, weight_scale * p.weight, tuple(locs)))
    graph = validate_cactus([g.names[v] for v in verts], spec)
    return build_instance(graph, moved, inst.eps)


def _certified(inst: Instance) -> float:
    """The optimum of ``inst``, checked: the returned centers attain it and
    nothing lower is feasible."""
    sol = solve(inst)
    tol = inst.eps * max(1.0, sol.value)
    assert objective(inst, *sol.centers) <= sol.value + 2.0 * tol
    assert not decide(inst, sol.value - 10.0 * tol).feasible
    return sol.value


def _doubles(inst: Instance, lam: float, **scale: float) -> None:
    """Rebuilt with ``scale``, ``inst`` has twice the optimum ``lam``."""
    got = solve(_rebuilt(inst, **scale)).value
    assert got == pytest.approx(2.0 * lam, rel=1e-9, abs=1e-12)


@_DRAWS
@given(_EDGE_DRAWS)
def test_the_centers_attain_the_optimum_and_nothing_lower_is_feasible(inst):
    _certified(inst)


@_DRAWS
@given(_EDGE_DRAWS)
def test_doubling_every_length_doubles_the_optimum(inst):
    _doubles(inst, solve(inst).value, length_scale=2.0)


@_DRAWS
@given(_EDGE_DRAWS)
def test_doubling_every_weight_doubles_the_optimum(inst):
    _doubles(inst, solve(inst).value, weight_scale=2.0)


@_DRAWS
@given(benchmark_shaped_instances())
def test_benchmark_shaped_draws_are_certified_and_scale(inst):
    lam = _certified(inst)
    _doubles(inst, lam, length_scale=2.0)
    _doubles(inst, lam, weight_scale=2.0)


@_DRAWS
@given(_EDGE_DRAWS, st.integers(0, 2**16))
def test_listing_vertices_edges_and_points_in_another_order_changes_nothing(
    inst, seed
):
    # the shuffle moves vertex 0, so the DFS and skeleton roots move too
    want = solve(inst).value
    got = solve(_rebuilt(inst, rng=random.Random(seed))).value
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
