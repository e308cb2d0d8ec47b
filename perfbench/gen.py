"""Seeded instance generators for the benchmark workloads.

Both generators emit instance dicts in the package's JSON file format
(``vertices``, ``edges``, ``uncertain_points``) and use nothing from
``ucactus``, so a change to the package cannot change a workload.  Edge
lengths are integers 1-9, weights integers 1-5 and probabilities multiples
of 1/64, which sum to exactly 1 in binary floating point.

The same ``random.Random`` state always yields the same dict.
"""

from __future__ import annotations

import random

PROB_DENOM = 64


def _probabilities(rng: random.Random, m: int) -> list[float]:
    cuts = sorted(rng.sample(range(1, PROB_DENOM), m - 1))
    bounds = [0] + cuts + [PROB_DENOM]
    return [(b - a) / PROB_DENOM for a, b in zip(bounds, bounds[1:])]


def _length(rng: random.Random) -> float:
    return float(rng.randint(1, 9))


def tree_like(
    rng: random.Random,
    n_vertices: int,
    *,
    n_points: int = 40,
    n_locations: int = 8,
    edge_share: float = 0.35,
) -> dict:
    """A random recursive tree with about ``n_vertices / 17`` small cycles
    (3-6 vertices each) hung on it; about ``edge_share`` of the locations
    sit strictly inside an edge."""
    sizes = [rng.randint(3, 6) for _ in range(round(n_vertices / 17))]
    new_in_cycles = sum(s - 1 for s in sizes)
    n_tree = n_vertices - 1 - new_in_cycles
    if n_tree < 0:
        raise ValueError("too many cycle vertices for the vertex count")
    steps = sizes + [0] * n_tree  # 0 marks a single tree edge
    rng.shuffle(steps)

    names = [f"v{i}" for i in range(n_vertices)]
    edges: list[list] = []
    placed = 1
    for size in steps:
        anchor = rng.randrange(placed)
        if size == 0:
            edges.append([names[anchor], names[placed], _length(rng)])
            placed += 1
            continue
        ring = [anchor] + list(range(placed, placed + size - 1))
        placed += size - 1
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.append([names[a], names[b], _length(rng)])

    points = []
    for k in range(n_points):
        locs = []
        verts = rng.sample(range(n_vertices), n_locations)
        for v, prob in zip(verts, _probabilities(rng, n_locations)):
            if rng.random() < edge_share:
                u, w, length = edges[rng.randrange(len(edges))]
                place: object = [u, w, length * rng.randint(1, 999) / 1000]
            else:
                place = names[v]
            locs.append([place, prob])
        points.append({"id": f"P{k + 1}", "weight": float(rng.randint(1, 5)),
                       "locations": locs})
    return {"vertices": names, "edges": edges, "uncertain_points": points}


def rings(
    rng: random.Random,
    *,
    n_rings: int = 6,
    ring_size: int = 60,
    n_points: int = 200,
    n_locations: int = 4,
) -> dict:
    """``n_rings`` cycles of ``ring_size`` vertices, each after the first
    hinged on a vertex of an earlier ring.  Every point keeps all its
    locations on one ring, at distinct vertices."""
    names: list[str] = []
    edges: list[list] = []
    members: list[list[int]] = []
    for r in range(n_rings):
        ring = [] if r == 0 else [rng.choice(members[rng.randrange(r)])]
        while len(ring) < ring_size:
            ring.append(len(names))
            names.append(f"r{r}_{len(ring) - 1}")
        members.append(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.append([names[a], names[b], _length(rng)])

    points = []
    for k in range(n_points):
        ring = members[rng.randrange(n_rings)]
        verts = rng.sample(ring, n_locations)
        locs = [[names[v], p] for v, p in zip(verts, _probabilities(rng, n_locations))]
        points.append({"id": f"P{k + 1}", "weight": float(rng.randint(1, 5)),
                       "locations": locs})
    return {"vertices": names, "edges": edges, "uncertain_points": points}
