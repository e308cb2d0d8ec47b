"""Rewriting instances onto vertex-held locations without moving the optimum."""

from __future__ import annotations

import random

import pytest

from conftest import draw_case, square_instance, tri_graph, tri_instance
from ucactus import reduction
from ucactus.graph import GraphPoint, point_distance, validate_cactus
from ucactus.oracle import oracle_solve
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Location,
    UncertainPoint,
    build_instance,
    expected_distance,
)


def test_fully_loaded_vertex_instance_passes_through():
    inst = square_instance()
    red = reduce_instance(inst)
    assert red.identity
    assert red.reduced is inst
    assert red.vertex_origin == []
    assert red.edge_paths == []


def test_unloaded_vertex_survives_when_structural():
    # c carries no mass but holds the pendant and the cycle together
    inst = tri_instance()
    red = reduce_instance(inst)
    g = red.reduced.graph
    assert not red.identity
    assert g.vertex_count == 4
    assert [(e.u, e.v, e.length) for e in g.edges] == [
        (0, 1, 1.0),
        (1, 2, 1.0),
        (2, 0, 1.0),
        (2, 3, 2.0),
    ]
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def test_interior_location_splits_its_edge():
    inst = build_instance(
        tri_graph(),
        [
            UncertainPoint("P1", 1.0, (Location(0, 0.5), Location(1, 0.5))),
            UncertainPoint("P2", 1.0, (Location(GraphPoint(3, 1.0), 1.0),)),
        ],
    )
    red = reduce_instance(inst)
    g = red.reduced.graph
    # the emptied stub past the split point is pruned with the old pendant tip
    assert g.vertex_count == 4
    assert sorted(e.length for e in g.edges) == [1.0, 1.0, 1.0, 1.0]
    assert red.reduced.is_vertex_constrained
    assert red.vertex_origin[3] == GraphPoint(3, 1.0)
    assert red.lift_point(GraphPoint(3, 1.0)) == GraphPoint(3, 1.0)
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def test_massless_pendant_is_pruned():
    g = validate_cactus(
        ["a", "b", "c", "d", "e"],
        [
            ("a", "b", 1.0),
            ("b", "c", 1.0),
            ("c", "a", 1.0),
            ("c", "d", 2.0),
            ("d", "e", 1.0),
        ],
    )
    inst = build_instance(
        g,
        [
            UncertainPoint("P1", 1.0, (Location(0, 0.5), Location(1, 0.5))),
            UncertainPoint("P2", 1.0, (Location(3, 1.0),)),
        ],
    )
    red = reduce_instance(inst)
    assert red.reduced.graph.vertex_count == 4
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.5


def test_empty_two_hinge_cycle_collapses_to_its_short_arc():
    g = validate_cactus(
        ["u", "h1", "x1", "h2", "y2", "y1", "v"],
        [
            ("u", "h1", 1.0),
            ("h1", "x1", 1.0),
            ("x1", "h2", 1.0),
            ("h2", "y2", 2.0),
            ("y2", "y1", 1.0),
            ("y1", "h1", 1.0),
            ("h2", "v", 2.0),
        ],
    )
    inst = build_instance(
        g,
        [
            UncertainPoint("A", 1.0, (Location(0, 1.0),)),
            UncertainPoint("B", 1.0, (Location(6, 1.0),)),
        ],
    )
    red = reduce_instance(inst)
    rg = red.reduced.graph
    # 1 to the cycle, 2 around its short side, 2 onward
    assert rg.vertex_count == 2
    assert [e.length for e in rg.edges] == [5.0]
    assert oracle_solve(red.reduced)[0] == oracle_solve(inst)[0] == 0.0


def test_reduction_never_adds_more_than_the_interior_locations():
    for seed in range(25):
        inst = draw_case(seed, edge_locations=True)
        red = reduce_instance(inst)
        interior = sum(
            1 for p in inst.points for loc in p.locations if not loc.is_vertex
        )
        assert red.reduced.graph.vertex_count <= inst.graph.vertex_count + interior
        assert red.reduced.is_vertex_constrained


def test_lifting_preserves_distances_between_kept_vertices():
    for seed in range(15):
        inst = draw_case(seed, edge_locations=True)
        red = reduce_instance(inst)
        if red.identity:
            continue
        rg = red.reduced.graph
        rng = random.Random(seed)
        for _ in range(10):
            i = rng.randrange(rg.vertex_count)
            j = rng.randrange(rg.vertex_count)
            want = rg.vertex_distances[i, j]
            got = point_distance(
                inst.graph, red.lift_point(rg.vertex_point(i)), red.lift_point(rg.vertex_point(j))
            )
            assert got == pytest.approx(want, abs=1e-9)


def test_lifting_preserves_expected_distances():
    for seed in range(15):
        inst = draw_case(seed, max_points=3, edge_locations=True)
        red = reduce_instance(inst)
        rg = red.reduced.graph
        rng = random.Random(seed)
        for _ in range(8):
            v = rng.randrange(rg.vertex_count)
            q_red = rg.vertex_point(v)
            q_orig = red.lift_point(q_red)
            for k in range(inst.n):
                assert expected_distance(red.reduced, k, q_red) == pytest.approx(
                    expected_distance(inst, k, q_orig), abs=1e-9
                )


def test_reducing_twice_changes_nothing_more():
    for seed in range(20):
        inst = draw_case(seed, edge_locations=True)
        once = reduce_instance(inst).reduced
        twice = reduce_instance(once).reduced
        assert twice.graph.vertex_count == once.graph.vertex_count
        assert sorted(e.length for e in twice.graph.edges) == sorted(
            e.length for e in once.graph.edges
        )


def test_lift_source_is_the_point_lift_point_maps():
    inst = draw_case(3, max_points=3, edge_locations=True)
    red = reduce_instance(inst)
    rg = red.reduced.graph
    e = rg.edges[0]
    near_u, inside = GraphPoint(e.id, 1e-10), GraphPoint(e.id, 0.5 * e.length)
    assert red.lift_source(near_u) == rg.vertex_point(e.u)
    assert red.lift_point(near_u) == red.lift_point(rg.vertex_point(e.u))
    assert red.lift_source(inside) == inside
    ident = reduce_instance(square_instance())
    assert ident.lift_source(near_u) == near_u


def test_working_cycles_match_a_fresh_decomposition(monkeypatch):
    """The cycle ids carried on working edges give the same rings, in the
    same ring order, as validating the working graph would."""
    checked = []
    inner = reduction._reduce_cycles

    def reduce_cycles(verts, edges):
        eids = sorted(edges)
        spec = [(str(edges[e].u), str(edges[e].v), edges[e].length) for e in eids]
        g = validate_cactus([str(v) for v in sorted(verts)], spec)
        want = {tuple(eids[e] for e in cyc.edges) for cyc in g.cycles.cycles}
        got = reduction._working_cycles(verts, edges)
        assert {tuple(ring) for ring in got} == want
        assert len(got) == len(want)
        checked.append(len(want))
        return inner(verts, edges)

    monkeypatch.setattr(reduction, "_reduce_cycles", reduce_cycles)
    for seed in range(60):
        reduce_instance(draw_case(seed, max_vertices=16, edge_locations=True))
    assert sum(checked) >= 50


def test_reduction_validates_only_the_reduced_graph(monkeypatch):
    calls = []
    inner = reduction.validate_cactus
    monkeypatch.setattr(
        reduction, "validate_cactus", lambda *a: calls.append(1) or inner(*a)
    )
    for seed in range(20):
        calls.clear()
        red = reduce_instance(draw_case(seed, edge_locations=True))
        assert len(calls) == (0 if red.identity else 1)
