"""Exactness beyond the oracle's size cap: certificates and metamorphic
relations (scaling, relabelling, a massless pendant) on 30-60 vertex draws
with edge-interior locations, and on smaller draws from the benchmark's
generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import benchmark_shaped_instances, edge_rows, mid_size_instances
from ucactus.decision import decide
from ucactus.graph import GraphPoint, validate_cactus
from ucactus.optimizer import solve
from ucactus.reduction import reduce_instance
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


@_DRAWS
@given(st.one_of(_EDGE_DRAWS, benchmark_shaped_instances()), st.data())
def test_a_massless_pendant_changes_nothing(inst, data):
    # a new vertex holding no location, hung off any vertex: the reduction
    # drops its bridge, so the optimum and the reduced network stay as they are
    g = inst.graph
    at = data.draw(st.integers(0, g.vertex_count - 1))
    length = data.draw(st.floats(0.5, 50.0))
    # longer than every name, so no name clashes with it
    pendant = max(g.names, key=len) + "'"
    spec = [(g.names[r.u], g.names[r.v], r.length) for r in edge_rows(g)]
    graph = validate_cactus([*g.names, pendant], [*spec, (g.names[at], pendant, length)])
    hung = build_instance(graph, inst.points, inst.eps)
    assert solve(hung).value == solve(inst).value
    want = reduce_instance(inst).reduced.graph.vertex_count
    assert reduce_instance(hung).reduced.graph.vertex_count == want


@_DRAWS
@given(st.one_of(_EDGE_DRAWS, benchmark_shaped_instances()), st.data())
def test_a_weightless_point_changes_nothing(inst, data):
    # a point of weight 0 costs 0 wherever the centers are, yet its
    # locations, inside edges too, keep cuts and vertices in the reduction
    g = inst.graph
    k = data.draw(st.sampled_from([1, 2, 4]))
    places = []
    for _ in range(k):
        e = data.draw(st.integers(-1, g.edge_count - 1))
        if e < 0:
            places.append(data.draw(st.integers(0, g.vertex_count - 1)))
        else:
            places.append(GraphPoint(e, data.draw(st.floats(0.0, float(g.length[e])))))
    label = max(inst.labels, key=len) + "'"
    weightless = UncertainPoint(label, 0.0, tuple(Location(p, 1.0 / k) for p in places))
    changed = build_instance(g, (*inst.points, weightless), inst.eps)
    assert _certified(changed) == pytest.approx(solve(inst).value, rel=1e-9, abs=1e-12)
