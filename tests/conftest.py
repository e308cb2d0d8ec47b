"""Shared fixtures: small hand-checked instances and a seeded case drawer."""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from ucactus.graph import CactusGraph, GraphPoint, validate_cactus
from ucactus.io import parse_instance, random_instance
from ucactus.uncertain import Instance, Location, UncertainPoint, build_instance

# the benchmark's instance generators use nothing from ucactus
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


class EdgeRow(NamedTuple):
    id: int
    u: int
    v: int
    length: float


def edge_row(graph: CactusGraph, i: int) -> EdgeRow:
    """Edge ``i`` of the graph's edge table as Python numbers."""
    return EdgeRow(i, *graph.edge(i))


def edge_rows(graph: CactusGraph) -> list[EdgeRow]:
    """The graph's edge table, one row per edge."""
    return [edge_row(graph, i) for i in range(graph.edge_count)]


def tri_graph() -> CactusGraph:
    """Unit triangle a-b-c with a pendant edge (c, d) of length 2."""
    return validate_cactus(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0), ("c", "d", 2.0)],
    )


def tri_instance() -> Instance:
    """Two unit-weight points on the triangle-plus-pendant graph.

    P1 sits on a or b with equal chance; P2 is surely at d.  The optimum
    covering radius is 0.5: one center at d, the other at a (or b).
    """
    return build_instance(
        tri_graph(),
        [
            UncertainPoint("P1", 1.0, (Location(0, 0.5), Location(1, 0.5))),
            UncertainPoint("P2", 1.0, (Location(3, 1.0),)),
        ],
    )


def square_instance() -> Instance:
    """Unit 4-cycle with one certain point per corner; optimum is 0.5."""
    g = validate_cactus(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)],
    )
    pts = [
        UncertainPoint(f"Q{v}", 1.0, (Location(v, 1.0),)) for v in range(4)
    ]
    return build_instance(g, pts)


@pytest.fixture
def tri() -> Instance:
    return tri_instance()


@pytest.fixture
def square() -> Instance:
    return square_instance()


def draw_case(
    seed: int,
    *,
    max_vertices: int = 12,
    max_cycles: int = 3,
    max_points: int = 5,
    max_locations: int = 3,
    **extra,
) -> Instance:
    """A random instance with sizes themselves drawn from ``seed``."""
    rng = random.Random(seed)
    n_vertices = rng.randint(3, max_vertices)
    n_cycles = rng.randint(0, min(max_cycles, (n_vertices - 1) // 2))
    return random_instance(
        seed,
        n_vertices=n_vertices,
        n_cycles=n_cycles,
        n_points=rng.randint(1, max_points),
        n_locations=rng.randint(1, max_locations),
        **extra,
    )


def draw_many_cycles(seed: int) -> Instance:
    """A random instance of 3-4 cycles within the oracle's 20-vertex cap;
    about half reach the two-cycle terminal on a radius ladder around the
    optimum."""
    rng = random.Random(seed)
    n_cycles = rng.randint(3, 4)
    return random_instance(
        seed,
        n_vertices=rng.randint(2 * n_cycles + 1, 20),
        n_cycles=n_cycles,
        n_points=rng.randint(2, 5),
        n_locations=rng.randint(1, 3),
        edge_locations=seed % 2 == 1,
    )


def draw_flower(seed: int, petals: int = 6) -> Instance:
    """Rings of 3-6 vertices and pendant paths of 1-4 edges that share one
    hub, their edges listed in shuffled order, so a search from the hub
    meets tree edges and ring-closing back edges in turn at it.  The hub is
    vertex 0 in every other draw.  A third of the locations lie inside
    edges, on tree and back edges alike."""
    rng = random.Random(seed)
    spec, count = [], 1
    for _ in range(petals):
        ring = rng.random() < 0.6
        size = rng.randint(2, 5) if ring else rng.randint(1, 4)
        path = [0, *range(count, count + size)] + ([0] if ring else [])
        count += size
        spec += [(a, b, float(rng.randint(1, 9))) for a, b in zip(path, path[1:])]
    rng.shuffle(spec)
    ids = list(range(count))
    if seed % 2:
        rng.shuffle(ids)
    graph = validate_cactus([f"f{i}" for i in ids], [(f"f{a}", f"f{b}", t) for a, b, t in spec])
    points = []
    for k in range(rng.randint(1, 6)):
        m = rng.randint(1, 3)
        bounds = [0, *sorted(rng.sample(range(1, 8), m - 1)), 8]
        locs = []
        for j in range(m):
            place = rng.randrange(count)
            if rng.random() < 0.35:
                e = rng.randrange(graph.edge_count)
                place = GraphPoint(e, round(rng.uniform(0.0, float(graph.length[e])), 3))
            locs.append(Location(place, (bounds[j + 1] - bounds[j]) / 8))
        points.append(UncertainPoint(f"P{k}", float(rng.randint(1, 5)), tuple(locs)))
    return build_instance(graph, points)


@st.composite
def mid_size_instances(draw, edge_locations=st.booleans()) -> Instance:
    """Random instances of 30-60 vertices, past the oracle's size cap."""
    return random_instance(
        draw(st.integers(0, 2**16)),
        n_vertices=draw(st.integers(30, 60)),
        n_cycles=draw(st.integers(0, 8)),
        n_points=draw(st.integers(1, 6)),
        n_locations=draw(st.integers(1, 4)),
        edge_locations=draw(edge_locations),
    )


@st.composite
def benchmark_shaped_instances(draw) -> Instance:
    """Instances from the benchmark's generators: a tree-like cactus of
    60-120 vertices with 40 points of 8 locations, or three rings of 8
    vertices with 10-40 points of 4 locations."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        data = gen.tree_like(rng, draw(st.integers(60, 120)))
    else:
        n_points = draw(st.integers(10, 40))
        data = gen.rings(rng, n_rings=3, ring_size=8, n_points=n_points)
    return parse_instance(data)
