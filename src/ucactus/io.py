"""JSON input/output and the seeded instance generator.

File schema::

    {
      "vertices": ["a", "b", ...],
      "edges": [["a", "b", 2.0], ...],
      "uncertain_points": [
        {"id": "P1", "weight": 1.0,
         "locations": [["a", 0.5], [["a", "b", 0.75], 0.5]]}
      ],
      "eps": 1e-9
    }

A location is a vertex name, or ``[u, v, t]`` for the point ``t`` units from
``u`` along edge ``(u, v)``.  ``eps`` is optional.
"""

from __future__ import annotations

import json
import random
from itertools import repeat
from pathlib import Path
from typing import Any

from ucactus.errors import FormatError, InfeasibleParams, InternalInvariantError
from ucactus.graph import CactusGraph, GraphPoint, validate_cactus
from ucactus.uncertain import (
    Instance,
    Location,
    UncertainPoint,
    build_instance,
)


def _fmt(x: float) -> float:
    """Round-trip through %.12g so emitted files are stable across runs."""
    return float(f"{float(x):.12g}")


def _number(value: Any, what: str, *args: Any) -> float:
    """``value`` as a float; ``what.format(*args)`` names it in an error."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what.format(*args)} is not a number: {value!r}") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"{what.format(*args)} is out of range: {value!r}") from exc


def _list(value: Any, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, not {type(value).__name__}")
    return value


def parse_instance(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    try:
        names = data["vertices"]
        edge_rows = data["edges"]
        point_rows = data["uncertain_points"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing required key: {exc}") from exc
    if not isinstance(names, list) or not all(map(isinstance, names, repeat(str))):
        raise FormatError("vertices must be a list of names")
    graph = validate_cactus(names, _edge_spec(_list(edge_rows, "edges")))

    points = []
    for row in _list(point_rows, "uncertain_points"):
        if not isinstance(row, dict):
            raise FormatError(f"bad uncertain point entry {row!r}")
        try:
            label = row["id"]
            weight = row["weight"]
            loc_rows = row["locations"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"uncertain point missing key: {exc}") from exc
        weight = _number(weight, "weight of point {!r}", label)
        locs = []
        for pair in _list(loc_rows, f"locations of point {label!r}"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(f"bad location entry {pair!r}")
            where, prob = pair
            prob = _number(prob, "probability in point {!r}", label)
            locs.append(Location(_parse_place(graph, where), prob))
        points.append(UncertainPoint(str(label), weight, tuple(locs)))

    eps = data.get("eps")
    return build_instance(graph, points, None if eps is None else _number(eps, "eps"))


def _edge_spec(rows: list | tuple) -> list[tuple[str, str, float]]:
    """The edge rows as ``(u, v, length)``, checked a column at a time: the
    rows are pairs of names and a number.  With a bad row, the first one
    raises its error."""
    if all(map(isinstance, rows, repeat((list, tuple)))) and set(map(len, rows)) <= {3}:
        us, vs, lengths = zip(*rows) if rows else ((), (), ())
        if all(map(isinstance, us + vs, repeat(str))):
            try:
                return list(zip(us, vs, map(float, lengths)))
            except (TypeError, ValueError, OverflowError):
                pass
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise FormatError(f"bad edge entry {row!r}")
        u, v, length = row
        if not isinstance(u, str) or not isinstance(v, str):
            raise FormatError(f"bad edge entry {row!r}")
        _number(length, "length of edge {!r}-{!r}", u, v)
    raise InternalInvariantError("an edge column check failed on no row")


def _parse_place(graph: CactusGraph, where: Any) -> int | GraphPoint:
    if isinstance(where, str):
        if where not in graph.vertex_id:
            raise FormatError(f"unknown vertex {where!r}")
        return graph.vertex_id[where]
    if not isinstance(where, (list, tuple)) or len(where) != 3:
        raise FormatError(f"bad location place {where!r}")
    u_name, v_name, t = where
    try:
        u, v = graph.vertex_id[u_name], graph.vertex_id[v_name]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad location place {where!r}") from exc
    lo, hi = graph.indptr[u], graph.indptr[u + 1]
    nbrs = graph.nbr[lo:hi].tolist()
    if v not in nbrs:
        raise FormatError(f"no edge {u_name!r}-{v_name!r}")
    eid = int(graph.half_edge[lo + nbrs.index(v)])
    a, _, length = graph.edge(eid)
    t = _number(t, "offset on edge {!r}-{!r}", u_name, v_name)
    if not 0.0 <= t <= length:
        raise FormatError(f"offset {t} outside edge {u_name!r}-{v_name!r}")
    return GraphPoint(eid, t if a == u else length - t)


def read_instance(path: str | Path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise FormatError(f"{path}: {exc}") from exc
    return parse_instance(data)


def place_to_json(graph: CactusGraph, place: int | GraphPoint) -> Any:
    if isinstance(place, int):
        return graph.names[place]
    v = graph.point_on_vertex(place)
    if v is not None:
        return graph.names[v]
    u, v, _ = graph.edge(place.edge)
    return [graph.names[u], graph.names[v], _fmt(place.t)]


def instance_to_dict(inst: Instance) -> dict:
    g = inst.graph
    return {
        "vertices": list(g.names),
        "edges": [
            [g.names[u], g.names[v], _fmt(x)] for u, v, x in map(g.edge, range(g.edge_count))
        ],
        "uncertain_points": [
            {
                "id": p.label,
                "weight": _fmt(p.weight),
                "locations": [
                    [place_to_json(g, loc.place), _fmt(loc.prob)]
                    for loc in p.locations
                ],
            }
            for p in inst.points
        ],
        "eps": _fmt(inst.eps),
    }


def write_instance(inst: Instance, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def random_instance(
    seed: int,
    *,
    n_vertices: int = 12,
    n_cycles: int = 2,
    n_points: int = 4,
    n_locations: int = 3,
    prob_denominator: int = 8,
    edge_locations: bool = False,
    eps: float | None = None,
) -> Instance:
    """Seeded random cactus instance; identical arguments give identical
    output.  Probabilities are multiples of ``1/prob_denominator``."""
    if n_vertices < 1 or n_points < 1 or n_locations < 1 or n_cycles < 0:
        raise InfeasibleParams("all size parameters must be positive")
    if n_locations > prob_denominator:
        raise InfeasibleParams("need n_locations <= prob_denominator")
    if n_vertices < 1 + 2 * n_cycles:
        raise InfeasibleParams("each cycle needs at least two vertices of its own")

    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n_vertices)]
    spec: list[tuple[str, str, float]] = []
    used = [0]
    free = list(range(1, n_vertices))
    rng.shuffle(free)

    for i in range(n_cycles):
        # leave two fresh vertices for every cycle still to come
        avail = len(free) - 2 * (n_cycles - i - 1)
        take = min(rng.randint(2, 5), avail)
        ring = [rng.choice(used)] + [free.pop() for _ in range(take)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            spec.append((names[a], names[b], float(rng.randint(1, 9))))
        used.extend(ring[1:])
    while free:
        v = free.pop()
        spec.append((names[rng.choice(used)], names[v], float(rng.randint(1, 9))))
        used.append(v)
    graph = validate_cactus(names, spec)

    denom = prob_denominator
    points = []
    for k in range(n_points):
        m = n_locations
        if m <= n_vertices:
            verts = rng.sample(range(n_vertices), m)
        else:
            verts = rng.sample(range(n_vertices), n_vertices) + [
                rng.randrange(n_vertices) for _ in range(m - n_vertices)
            ]
        cuts = sorted(rng.sample(range(1, denom), m - 1)) if m > 1 else []
        bounds = [0] + cuts + [denom]
        locs = []
        for j, v in enumerate(verts):
            prob = (bounds[j + 1] - bounds[j]) / denom
            place: int | GraphPoint = v
            if edge_locations and spec and rng.random() < 0.35:
                eid = rng.randrange(graph.edge_count)
                length = float(graph.length[eid])
                place = GraphPoint(eid, round(rng.uniform(0.0, length), 3))
            locs.append(Location(place, prob))
        points.append(UncertainPoint(f"P{k + 1}", float(rng.randint(1, 5)), tuple(locs)))
    return build_instance(graph, points, eps)
