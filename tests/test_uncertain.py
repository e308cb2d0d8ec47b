"""Instance construction, expected distances, mass bookkeeping, and medians."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import (
    draw_case,
    gen,
    edge_row,
    edge_rows,
    square_instance,
    tri_graph,
    tri_instance,
)
import references as refs
from ucactus.errors import ValidationError
from ucactus.graph import (
    CYCLE,
    HINGE,
    VERTEX,
    GraphPoint,
    check_point,
    validate_cactus,
)
from ucactus.io import parse_instance
from ucactus.optimizer import solve
from ucactus.plf import cycle_profiles, ed_at_point
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    PROB_EPS,
    Location,
    UncertainPoint,
    build_instance,
    component_sums,
    expected_distance,
    expected_distances,
    group_eccentricity,
    location_point,
    median,
    median_values,
    objective,
    ring_shifts,
)


def _two_vertex_graph():
    return validate_cactus(["x", "y"], [("x", "y", 1.0)])


# ---------------------------------------------------------------------------
# validation


def test_rejects_negative_weight():
    with pytest.raises(ValidationError, match="negative weight"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", -1.0, (Location(0, 1.0),))]
        )


def test_accepts_zero_weight():
    inst = build_instance(
        _two_vertex_graph(), [UncertainPoint("P", 0.0, (Location(0, 1.0),))]
    )
    assert inst.n == 1


def test_rejects_probabilities_not_summing_to_one():
    with pytest.raises(ValidationError, match="probabilities sum to 0.5"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(0, 0.5),))]
        )


def test_rejects_negative_probability():
    with pytest.raises(ValidationError, match="probability -0.25"):
        build_instance(
            _two_vertex_graph(),
            [UncertainPoint("P", 1.0, (Location(0, -0.25), Location(1, 1.25)))],
        )


def test_rejects_unknown_location_vertex():
    with pytest.raises(ValidationError, match="no vertex 5"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(5, 1.0),))]
        )


@pytest.mark.parametrize(
    "place, message",
    [(GraphPoint(3, 0.5), "no edge 3"), (GraphPoint(0, 2.0), "offset 2.0 outside")],
)
def test_rejects_an_interior_location_off_its_edge(place, message):
    with pytest.raises(ValidationError, match=message):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(place, 1.0),))]
        )


def test_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="duplicate point label 'P'"):
        build_instance(
            _two_vertex_graph(),
            [
                UncertainPoint("P", 1.0, (Location(0, 1.0),)),
                UncertainPoint("P", 1.0, (Location(1, 1.0),)),
            ],
        )


def test_rejects_empty_point_list():
    with pytest.raises(ValidationError, match="at least one uncertain point"):
        build_instance(_two_vertex_graph(), [])


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.inf, math.nan])
def test_rejects_an_eps_that_is_not_finite_and_positive(eps):
    with pytest.raises(ValidationError, match="eps must be finite and positive"):
        build_instance(
            _two_vertex_graph(), [UncertainPoint("P", 1.0, (Location(0, 1.0),))], eps
        )


def reference_point_checks(graph, points) -> None:
    """The per-point loop that the column checks of ``build_instance``
    replaced: it raises on the first faulty point, each point's checks in
    the order label, weight, locations, then each location's probability
    and place, then the probability sum."""
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
            raise ValidationError(f"point {p.label!r}: probabilities sum to {total!r}, not 1")


_POINT_FAULTS = (
    "label", "weight", "locations", "prob", "vertex", "edge", "offset", "sentinel", "sum",
)


def _with_fault(inst, rng, points):
    """``points`` with one fault of a random kind at a random place."""
    g = inst.graph
    k = rng.randrange(len(points))
    p = points[k]
    locs = list(p.locations)
    fault = rng.choice(_POINT_FAULTS if locs else _POINT_FAULTS[:3])
    i = rng.randrange(len(locs)) if locs else None
    if fault == "label" and len(points) > 1:
        p = UncertainPoint(points[(k + 1) % len(points)].label, p.weight, p.locations)
    elif fault == "weight":
        p = UncertainPoint(p.label, rng.choice([-1.0, math.nan, math.inf]), p.locations)
    elif fault == "locations":
        p = UncertainPoint(p.label, p.weight, ())
    elif fault == "prob":
        locs[i] = Location(locs[i].place, rng.choice([-0.25, 1.5, math.nan]))
    elif fault == "vertex":
        locs[i] = Location(rng.choice([-1, g.vertex_count]), locs[i].prob)
    elif fault == "edge":
        locs[i] = Location(GraphPoint(g.edge_count + 2, 0.5), locs[i].prob)
    elif fault == "offset":
        e = edge_row(g, rng.randrange(g.edge_count))
        locs[i] = Location(GraphPoint(e.id, rng.choice([-1.0, e.length + 1.0])), locs[i].prob)
    elif fault == "sentinel":
        locs[i] = Location(GraphPoint(-1, 0.0), locs[i].prob)
    elif fault == "sum":
        locs[i] = Location(locs[i].place, 0.5 * locs[i].prob)
    if fault not in ("label", "weight", "locations"):
        p = UncertainPoint(p.label, p.weight, tuple(locs))
    return points[:k] + [p] + points[k + 1 :]


def test_column_checks_raise_as_the_per_point_loop():
    raised = set()
    for seed in range(300):
        rng = random.Random(seed)
        inst = draw_case(seed, max_vertices=8, edge_locations=True)
        points = list(inst.points)
        for _ in range(rng.randint(1, 3)):
            points = _with_fault(inst, rng, points)
        try:
            reference_point_checks(inst.graph, points)
        except ValidationError as exc:
            want = exc
        else:
            build_instance(inst.graph, points)
            continue
        with pytest.raises(ValidationError) as got:
            build_instance(inst.graph, points)
        assert type(got.value) is type(want), seed
        assert str(got.value) == str(want), seed
        raised.add(str(want).split(" ", 2)[-1][:12])
    assert len(raised) >= 8


# ---------------------------------------------------------------------------
# expected distance and the two-center objective


def test_expected_distance_on_fixed_instance():
    inst = tri_instance()
    g = inst.graph
    assert expected_distance(inst, 0, g.vertex_point(2)) == pytest.approx(1.0)
    assert expected_distance(inst, 0, GraphPoint(0, 0.5)) == pytest.approx(0.5)
    assert expected_distance(inst, 1, g.vertex_point(3)) == 0.0


def test_expected_distances_match_single_queries():
    for seed in range(10):
        inst = draw_case(seed, edge_locations=True)
        rng = random.Random(seed)
        e = rng.choice(edge_rows(inst.graph))
        q = GraphPoint(e.id, rng.uniform(0.0, e.length))
        vec = expected_distances(inst, q)
        for k in range(inst.n):
            assert vec[k] == pytest.approx(expected_distance(inst, k, q), abs=1e-9)


def _assert_priced_as_the_reference(inst, queries):
    """``expected_distances``, ``expected_distance`` and ``objective`` are
    ``==`` to the location-by-location reference at every query."""
    want = {q: [refs.priced(inst, q, k) for k in range(inst.n)] for q in queries}
    for q in queries:
        assert expected_distances(inst, q).tolist() == want[q], q
        assert [expected_distance(inst, k, q) for k in range(inst.n)] == want[q], q
    for q1, q2 in zip(queries, queries[1:] + queries[:1]):
        worst = np.max(inst.weights * np.minimum(want[q1], want[q2]))
        assert objective(inst, q1, q2) == float(worst)


def test_pricing_matches_the_location_loop():
    on_own_edge = 0
    for seed in range(40):
        inst = draw_case(seed, edge_locations=True)
        g = inst.graph
        rng = random.Random(seed)
        queries = [g.vertex_point(v) for v in range(g.vertex_count)]
        for e in edge_rows(g):
            # both ends of every edge, and a point inside it
            queries += [GraphPoint(e.id, 0.0), GraphPoint(e.id, e.length)]
            queries.append(GraphPoint(e.id, rng.uniform(0.0, e.length)))
        for p in inst.points:
            for loc in p.locations:
                if not loc.is_vertex:
                    # on the location itself, and elsewhere on its edge
                    at = loc.place
                    queries += [at, GraphPoint(at.edge, 0.5 * at.t)]
                    on_own_edge += 1
        _assert_priced_as_the_reference(inst, queries)
    assert on_own_edge > 50


def test_pricing_on_the_lone_vertex():
    g = validate_cactus(["solo"], [])
    inst = build_instance(
        g,
        [
            UncertainPoint("P", 2.0, (Location(0, 1.0),)),
            # the sentinel point is the lone vertex
            UncertainPoint("Q", 1.0, (Location(GraphPoint(-1, 0.0), 1.0),)),
        ],
    )
    assert inst.is_vertex_constrained
    _assert_priced_as_the_reference(inst, [GraphPoint(-1, 0.0)])
    assert expected_distances(inst, GraphPoint(-1, 0.0)).tolist() == [0.0, 0.0]
    # the reduction once read the sentinel as an edge and failed
    assert solve(inst).value == 0.0


def _matrix_distance(g, p, q):
    """Reference: the distance between two points read off the all-pairs
    vertex matrix."""
    dist = g.vertex_distances
    ep, eq = edge_row(g, p.edge), edge_row(g, q.edge)
    if p.edge == q.edge:
        around = dist[ep.u, ep.v] + min(
            p.t + (ep.length - q.t), (ep.length - p.t) + q.t
        )
        return min(abs(p.t - q.t), around)
    du = np.minimum(p.t + dist[ep.u], (ep.length - p.t) + dist[ep.v])
    return min(q.t + du[eq.u], (eq.length - q.t) + du[eq.v])


def test_interior_expected_distances_match_the_matrix_formula():
    kinds = set()
    for seed in range(30):
        inst = draw_case(seed, edge_locations=True)
        kinds.add(inst.is_vertex_constrained)
        g = inst.graph
        queries = [g.vertex_point(v) for v in range(g.vertex_count)]
        queries += [GraphPoint(e.id, 0.37 * e.length) for e in edge_rows(g)]
        for p in inst.points:
            for loc in p.locations:
                if not loc.is_vertex:  # the location itself and its own edge
                    at = loc.place
                    queries += [at, GraphPoint(at.edge, 0.5 * at.t)]
        for q in queries:
            vec = expected_distances(inst, q)
            for k, p in enumerate(inst.points):
                want = 0.0
                for loc in p.locations:
                    here = location_point(g, loc)
                    d = _matrix_distance(g, here, q)
                    assert abs(refs.point_distance(g, here, q) - d) <= 1e-9 * max(1.0, d)
                    want += loc.prob * d
                tol = 1e-9 * max(1.0, want)
                assert abs(vec[k] - want) <= tol, (seed, q, k)
                assert abs(expected_distance(inst, k, q) - want) <= tol, (seed, q, k)
    assert kinds == {False, True}


def _mass_on_every_vertex(names, spec, seed):
    """Three points with random masses on every vertex of the cactus, whose
    edge lengths are not dyadic, so rerooting rounds unlike the matrix."""
    rng = random.Random(seed)
    g = validate_cactus(names, spec)
    points = []
    for k in range(3):
        raw = [rng.random() for _ in names]
        locs = tuple(Location(v, r / sum(raw)) for v, r in enumerate(raw))
        points.append(UncertainPoint(f"P{k}", 1.0, locs))
    return build_instance(g, points)


def _rescaled(inst, seed):
    rng = random.Random(seed)
    g = inst.graph
    spec = [
        (g.names[e.u], g.names[e.v], e.length * rng.uniform(0.3, 1.7))
        for e in edge_rows(g)
    ]
    return build_instance(validate_cactus(g.names, spec), inst.points)


def _rerooting_cases():
    """Vertex-constrained instances: plain draws and the same draws with
    non-dyadic lengths, the reductions of draws with edge-interior locations
    (whose zero-probability padding leaves vertices without mass), a lone
    cycle (the skeleton root is its cycle node), a path, a hinge on two
    cycles at the root, two cycles joined by a hinge-to-hinge bridge, and a
    single vertex."""
    cases = [draw_case(seed) for seed in range(30)]
    cases += [_rescaled(draw_case(seed), seed) for seed in range(30)]
    cases += [
        reduce_instance(draw_case(seed, edge_locations=True)).reduced
        for seed in range(30)
    ]
    names = list("abcdefg")
    cases.append(_mass_on_every_vertex(
        names[:5],
        [("a", "b", 1.3), ("b", "c", 0.7), ("c", "d", 2.9), ("d", "e", 1.1),
         ("e", "a", 0.45)],
        1,
    ))
    cases.append(_mass_on_every_vertex(
        names[:5],
        [("a", "b", 0.3), ("b", "c", 1.7), ("c", "d", 2.2), ("d", "e", 0.9)],
        2,
    ))
    cases.append(_mass_on_every_vertex(
        names[:5],
        [("a", "b", 0.3), ("b", "c", 1.1), ("c", "a", 0.7), ("a", "d", 2.3),
         ("d", "e", 0.6), ("e", "a", 1.9)],
        3,
    ))
    cases.append(_mass_on_every_vertex(
        names,
        [("a", "b", 0.3), ("b", "c", 1.1), ("c", "a", 0.7), ("c", "d", 2.3),
         ("d", "e", 0.6), ("e", "f", 1.9), ("f", "g", 0.35), ("g", "d", 1.25)],
        4,
    ))
    solo = build_instance(
        validate_cactus(["solo"], []), [UncertainPoint("P", 1.0, (Location(0, 1.0),))]
    )
    return cases + [solo]


def test_rerooted_ed_matches_the_reference_matrix():
    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    roots, hinge_bridges, paths = set(), 0, 0
    for inst in _rerooting_cases():
        g = inst.graph
        tree = g.skeleton
        roots.add(int(tree.kind[tree.order[0]]))
        # every link is the link up from one node
        hinge_bridges += any(
            tree.kind[x] == tree.kind[tree.parent[x]] == HINGE
            for x in range(len(tree))
            if tree.up_edge[x] >= 0
        )
        paths += bool(g.edge_count) and not len(g.cycles)
        dist, mass = g.vertex_distances, inst.vertex_mass
        assert close(inst.ed_at_vertices, dist @ mass)
        for cyc in refs.rings(g.cycles):
            xs, ys = cycle_profiles(inst, cyc.id)
            for x, row in zip(xs, ys):
                p = cyc.coord_point(g, x)
                e = edge_row(g, p.edge)
                d = np.minimum(p.t + dist[e.u], (e.length - p.t) + dist[e.v])
                assert close(row, d @ mass)
    assert roots == {VERTEX, HINGE, CYCLE}
    assert hinge_bridges >= 1 and paths >= 1


def _rerooting_draws():
    """Sweep draws of up to 60 vertices, with non-dyadic lengths or reduced
    from edge locations, and benchmark-shaped networks of 250-1000 vertices
    whose points all sit on vertices."""
    for seed in range(200):
        inst = draw_case(seed, max_vertices=60, max_cycles=12, max_points=6)
        yield _rescaled(inst, seed) if seed % 2 else inst
        yield reduce_instance(
            draw_case(seed, max_vertices=60, max_cycles=12, edge_locations=True)
        ).reduced
    rng = random.Random(7)
    for n in (250, 1000):
        yield parse_instance(gen.tree_like(rng, n, n_points=6, edge_share=0.0))
        yield parse_instance(gen.rings(rng, n_rings=6, ring_size=n // 6, n_points=6))


def test_rerooting_matches_the_reference_loop_on_random_draws():
    def close(got, want, rel):
        return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))

    matrix_checks = 0
    for inst in _rerooting_draws():
        g = inst.graph
        sk = refs.skeleton(g)
        assert close(inst.subtree_mass, refs.subtree_mass(inst, sk), 1e-12)
        assert close(inst.ed_at_vertices, refs.ed_at_vertices(inst, sk), 1e-9)
        if g.vertex_count <= 60:
            assert close(inst.ed_at_vertices, g.vertex_distances @ inst.vertex_mass, 1e-9)
            matrix_checks += 1
    assert matrix_checks >= 350


def test_ring_shifts_of_a_block_equal_each_cycle_alone():
    # ed_at_vertices runs the blocked product over equal-sized rings; each
    # block's rows must equal the one-cycle case bit for bit, at the ring
    # vertices and between them
    blocks = 0
    for inst in _rerooting_cases():
        dec, entry = inst.graph.cycles, inst.ring_gates[0]
        size = np.diff(dec.ring_ptr)
        for s in set(size.tolist()):
            block = np.flatnonzero(size == s)
            pos = dec.ring_pos[dec.block(block)]
            at = np.concatenate([pos, pos + 0.3 * dec.perimeter[block, None] / s], axis=1)
            shift, reach = ring_shifts(inst, block, at)
            for b, c in enumerate(block.tolist()):
                alone = ring_shifts(inst, np.array([c]), at[b][None])[0][0]
                assert np.array_equal(shift[b], alone)
                here = np.abs(dec.ring_pos[dec.ring(c)] - dec.ring_pos[entry[c]])
                here = np.minimum(here, dec.perimeter[c] - here)
                assert np.array_equal(reach[b], here)
            blocks += len(block) > 1
    assert blocks >= 10


def test_ring_floor_is_the_least_ring_value():
    # the least ring vertex row, bit for bit; the profile around the ring,
    # antipodes included, goes no lower by more than the tolerance
    rings = 0
    for inst in _row_pricing_cases():
        dec = inst.graph.cycles
        assert inst.ring_floor.shape == (len(dec), inst.n)
        for c in range(len(dec)):
            rows = inst.ed_at_vertices[dec.ring_vertex[dec.ring(c)]]
            assert np.array_equal(inst.ring_floor[c], rows.min(axis=0))
            low = cycle_profiles(inst, c)[1].min(axis=0)
            gap = np.abs(inst.ring_floor[c] - low)
            assert np.all(gap <= inst.eps * np.maximum(1.0, np.abs(low)))
            rings += 1
    assert rings >= 100, rings


def _row_pricing_cases():
    """The rerooting cases and benchmark-shaped networks whose points all
    sit on vertices."""
    yield from _rerooting_cases()
    rng = random.Random(11)
    yield parse_instance(gen.tree_like(rng, 250, n_points=6, edge_share=0.0))
    yield parse_instance(gen.rings(rng, n_rings=6, ring_size=40, n_points=6))


def test_row_pricing_agrees_with_expected_distances():
    # solve prices its centers from the vertex rows; objective prices them
    # by Dijkstra, and the two must agree at vertices, inside bridges,
    # inside ring edges walked either way round, and at antipodes
    seen = set()
    for inst in _row_pricing_cases():
        g, dec = inst.graph, inst.graph.cycles

        def check(q, kind):
            want = expected_distances(inst, q)
            got = ed_at_point(inst, q)
            assert np.all(np.abs(got - want) <= inst.eps * np.maximum(1.0, np.abs(want)))
            seen.add(kind)

        for v in range(g.vertex_count):
            check(g.vertex_point(v), "vertex")
        for e in edge_rows(g):
            c = int(dec.edge_cycle[e.id])
            if c < 0:
                kind = "bridge"
            else:
                i = int(np.flatnonzero(dec.ring_edge == e.id)[0])
                kind = "forward" if dec.ring_forward[i] else "backward"
            for f in (0.0, 1e-3, 0.3, 0.5, 1.0 - 1e-3, 1.0):
                check(GraphPoint(e.id, f * e.length), kind)
        for i, c in enumerate(dec.ring_cycle.tolist()):
            per = dec.perimeter[c]
            check(dec.point(g, c, dec.ring_pos[i] + per / 2.0), "antipode")
    assert seen == {"vertex", "bridge", "forward", "backward", "antipode"}


def test_objective_takes_the_better_center_per_point():
    inst = tri_instance()
    assert objective(inst, GraphPoint(0, 0.0), GraphPoint(3, 2.0)) == pytest.approx(0.5)


def test_ed_at_vertices_on_pendant_edge():
    inst = tri_instance()
    e = edge_row(inst.graph, 3)
    assert list(inst.ed_at_vertices[[e.u, e.v], 1]) == [2.0, 0.0]


def test_ed_at_vertices_interpolate_expected_distance_along_bridges():
    # expected distance is affine along an out-of-cycle edge, so the two
    # endpoint rows give it everywhere on the edge
    for seed in range(10):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        bridges = [e for e in edge_rows(g) if g.cycles.edge_cycle[e.id] < 0]
        for e in rng.choices(bridges, k=2) if bridges else []:
            k = rng.randrange(inst.n)
            ends = inst.ed_at_vertices[[e.u, e.v], k]
            for _ in range(5):
                t = rng.uniform(0.0, e.length)
                want = expected_distance(inst, k, GraphPoint(e.id, t))
                got = np.interp(t, [0.0, e.length], ends)
                assert got == pytest.approx(want, abs=1e-9)


def test_expected_distance_is_affine_along_bridge_edges():
    for seed in range(15):
        inst = draw_case(seed)
        g = inst.graph
        bridges = [e for e in edge_rows(g) if g.cycles.edge_cycle[e.id] < 0]
        rng = random.Random(seed)
        for e in rng.choices(bridges, k=3) if bridges else []:
            at_u = expected_distances(inst, g.vertex_point(e.u))
            at_v = expected_distances(inst, g.vertex_point(e.v))
            t = rng.uniform(0.0, e.length)
            frac = t / e.length
            want = (1.0 - frac) * at_u + frac * at_v
            got = expected_distances(inst, GraphPoint(e.id, t))
            assert np.allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# mass split at a skeleton node


def test_component_sums_on_fixed_instance():
    inst = tri_instance()
    cs = component_sums(inst, 0)
    tree = inst.graph.skeleton
    assert [
        (g, x, set(refs.nodes(tree, tree.component_toward(g, x))))
        for g, x in zip(cs.gate.tolist(), cs.first.tolist())
    ] == [
        (0, 1, {1}),
        (0, 2, {2}),
    ]
    assert [list(s) for s in cs.sums] == [[0.0, 1.0], [1.0, 0.0]]
    assert list(_removed_mass(inst, 0)) == [0.0, 0.0]


def _removed_mass(inst, node):
    """Mass per point held by the structure a split at ``node`` removes: the
    node itself and, for a cycle node, its hinges."""
    tree = inst.graph.skeleton
    held = inst.node_mass[node].copy()
    if tree.kind[node] == CYCLE:
        for h in tree.neighbours(node):
            held += inst.node_mass[h]
    return held


def test_component_sums_account_for_all_mass():
    for seed in range(15):
        inst = draw_case(seed)
        for node in range(len(inst.graph.skeleton)):
            cs = component_sums(inst, node)
            total = _removed_mass(inst, node)
            for s in cs.sums:
                total = total + np.asarray(s, dtype=float)
            assert np.allclose(total, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# medians


def test_median_on_fixed_instance():
    inst = tri_instance()
    where0, val0 = median(inst, 0)
    assert (where0, val0) == (GraphPoint(0, 0.0), 0.5)
    where1, val1 = median(inst, 1)
    assert (where1, val1) == (GraphPoint(3, 2.0), 0.0)
    assert list(median_values(inst)) == [0.5, 0.0]


def test_median_of_flat_profile_still_achieves_its_value():
    # equal mass on opposite corners of a unit square: every ring position
    # has expected distance exactly 1
    g = square_instance().graph
    inst = build_instance(
        g, [UncertainPoint("P", 1.0, (Location(0, 0.5), Location(2, 0.5)))]
    )
    where, val = median(inst, 0)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert expected_distance(inst, 0, where) == pytest.approx(val, abs=1e-9)


def test_median_is_no_worse_than_sampled_positions():
    for seed in range(10):
        inst = draw_case(seed)
        vals = median_values(inst)
        rng = random.Random(seed)
        for _ in range(20):
            e = rng.choice(edge_rows(inst.graph))
            q = GraphPoint(e.id, rng.uniform(0.0, e.length))
            ed = expected_distances(inst, q)
            assert np.all(vals <= ed + 1e-9)


# ---------------------------------------------------------------------------
# group eccentricity


def test_group_eccentricity_on_fixed_instance():
    inst = tri_instance()
    value, worst = group_eccentricity(inst, np.array([0, 0]), np.array([2]))
    assert (value.tolist(), worst.tolist()) == ([2.0], [1])
    # an empty group exceeds no radius and names no point
    value, worst = group_eccentricity(inst, np.array([-1, -1]), np.array([2]))
    assert (value.tolist(), worst.tolist()) == ([-math.inf], [-1])


# ---------------------------------------------------------------------------
# odds and ends


def test_location_point_places_vertex_and_interior_locations():
    g = tri_graph()
    assert location_point(g, Location(3, 1.0)) == g.vertex_point(3)
    p = GraphPoint(3, 0.25)
    assert location_point(g, Location(p, 1.0)) == p


def test_vertex_constrained_flag():
    assert tri_instance().is_vertex_constrained
    inst = draw_case(3, edge_locations=True)
    assert not inst.is_vertex_constrained


def test_node_mass_distributes_each_points_probability():
    for seed in range(10):
        inst = draw_case(seed)
        assert np.allclose(inst.node_mass.sum(axis=0), 1.0, atol=1e-9)


def test_mass_matrices_match_the_location_loops():
    """Both matrices equal, bit for bit, the loops that add every location,
    and every vertex of a node, one at a time."""
    # probabilities in tenths make the sums depend on their order
    cases = [
        draw_case(seed, max_vertices=16, max_locations=10, prob_denominator=10)
        for seed in range(40)
    ]
    cases += [
        reduce_instance(
            draw_case(seed, edge_locations=True, prob_denominator=10)
        ).reduced
        for seed in range(40)
    ]
    # several locations on one vertex: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    shared = (Location(0, 0.1), Location(0, 0.2), Location(0, 0.3), Location(1, 0.4))
    cases.append(
        build_instance(_two_vertex_graph(), [UncertainPoint("P", 1.0, shared)])
    )
    for inst in cases:
        want = np.zeros((inst.graph.vertex_count, inst.n))
        for k, p in enumerate(inst.points):
            for loc in p.locations:
                want[loc.place, k] += loc.prob
        assert np.array_equal(inst.vertex_mass, want)
        tree = inst.graph.skeleton
        want = np.zeros((len(tree), inst.n))
        for node in range(len(tree)):
            for v in tree.node_vertex[tree.node_ptr[node] : tree.node_ptr[node + 1]]:
                want[node] += inst.vertex_mass[v]
        assert np.array_equal(inst.node_mass, want)


def test_vertex_mass_requires_vertex_constrained_input():
    inst = draw_case(3, edge_locations=True)
    with pytest.raises(ValidationError, match="edge-interior locations"):
        inst.vertex_mass
