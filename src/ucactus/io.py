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
``u`` along edge ``(u, v)``.  ``eps`` is optional.  Every numeric field is a
JSON number; a boolean or a string there is a format error.  A point's
``id`` is a JSON string.

The parser reads the edge rows as columns and the point rows as one
location table (see :class:`ucactus.uncertain.LocationTable`), in one pass
over the rows, and checks each column as an array.  When a check fails,
the rows are walked one at a time to raise the first fault in document
order.
"""

from __future__ import annotations

import json
import random
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from ucactus.errors import FormatError, InfeasibleParams, InternalInvariantError
from ucactus.graph import CactusGraph, GraphPoint, validate_cactus, validate_edge_columns
from ucactus.uncertain import (
    Instance,
    Location,
    LocationTable,
    UncertainPoint,
    build_instance,
    instance_from_table,
)


def _fmt(x: float) -> float:
    """Round-trip through %.12g so emitted files are stable across runs."""
    return float(f"{float(x):.12g}")


def _number(value: Any, what: str, *args: Any) -> float:
    """``value`` as a float; ``what.format(*args)`` names it in an error.
    A boolean or a string is no number, though ``float`` takes both."""
    if isinstance(value, (bool, str)):
        raise FormatError(f"{what.format(*args)} is not a number: {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what.format(*args)} is not a number: {value!r}") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"{what.format(*args)} is out of range: {value!r}") from exc


def _numeric(column: tuple) -> bool:
    """Whether a column holds no boolean or string, which :func:`_number`
    refuses and ``float`` does not."""
    return {bool, str}.isdisjoint(map(type, column))


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
    graph = validate_edge_columns(names, *_edge_columns(_list(edge_rows, "edges")))
    table = _location_table(graph, _list(point_rows, "uncertain_points"))
    eps = data.get("eps")
    return instance_from_table(graph, table, None if eps is None else _number(eps, "eps"))


def _edge_columns(rows: list | tuple) -> tuple[tuple, tuple, list[float]]:
    """The edge rows as the columns ``u``, ``v`` and length, checked a
    column at a time: the rows are pairs of names and a number.  With a bad
    row, the first one raises its error."""
    if _all_rows(rows, 3):
        us, vs, lengths = zip(*rows) if rows else ((), (), ())
        if all(map(isinstance, us + vs, repeat(str))) and _numeric(lengths):
            try:
                return us, vs, list(map(float, lengths))
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


def _location_table(graph: CactusGraph, rows: list | tuple) -> LocationTable:
    """The point rows as a location table, checked a column at a time.
    With a bad row, the first one raises its error."""
    if all(map(isinstance, rows, repeat(dict))):
        try:
            table = _location_columns(graph, rows)
        except (KeyError, TypeError, ValueError, OverflowError):
            table = None
        if table is not None:
            return table
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise FormatError(f"bad uncertain point entry {row!r}")
        try:
            label, weight, loc_rows = row["id"], row["weight"], row["locations"]
        except KeyError as exc:
            raise FormatError(f"uncertain point missing key: {exc}") from exc
        if not isinstance(label, str):
            raise FormatError(f"uncertain_points[{i}]: id is not a string: {label!r}")
        _number(weight, "weight of point {!r}", label)
        for pair in _list(loc_rows, f"locations of point {label!r}"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(f"bad location entry {pair!r}")
            where, prob = pair
            _number(prob, "probability in point {!r}", label)
            _check_place(graph, where)
    raise InternalInvariantError("a location column check failed on no row")


def _all_rows(items: list | tuple, size: int) -> bool:
    """Whether every item is a list or tuple of ``size`` entries."""
    return all(map(isinstance, items, repeat((list, tuple)))) and set(map(len, items)) <= {size}


_POINT_KEYS = itemgetter("id", "weight", "locations")


def _location_columns(graph: CactusGraph, rows: list) -> LocationTable | None:
    """The table of well-formed point rows, or None when a row is not.
    Each numeric field goes through ``float`` as :func:`_number` takes it,
    so a bad one raises here, and a column holding a boolean or a string
    reads as not well-formed."""
    labels, weights, loc_rows = zip(*map(_POINT_KEYS, rows)) if rows else ((), (), ())
    if not all(map(isinstance, labels, repeat(str))) or not _numeric(weights):
        return None
    weight = np.fromiter(map(float, weights), float, len(rows))
    if not all(map(isinstance, loc_rows, repeat((list, tuple)))):
        return None
    pairs = list(chain.from_iterable(loc_rows))
    if not _all_rows(pairs, 2):
        return None
    places, probs = zip(*pairs) if pairs else ((), ())
    if not _numeric(probs):
        return None
    size = len(pairs)
    prob = np.fromiter(map(float, probs), float, size)
    named = np.fromiter(map(isinstance, places, repeat(str)), bool, size)
    ids = graph.vertex_id
    vertex = np.full(size, -1, dtype=np.intp)
    vertex[named] = list(map(ids.get, compress(places, named), repeat(-1)))
    # the rest are [u, v, t]: t units from u along the edge u-v
    inside = ~named
    spots = list(compress(places, inside))
    if (vertex[named] < 0).any() or not _all_rows(spots, 3):
        return None
    u_names, v_names, offsets = zip(*spots) if spots else ((), (), ())
    if not _numeric(offsets):
        return None
    u = np.fromiter(map(ids.get, u_names, repeat(-1)), np.intp, len(spots))
    v = np.fromiter(map(ids.get, v_names, repeat(-1)), np.intp, len(spots))
    e = graph.edges_between(u, v)
    at = np.fromiter(map(float, offsets), float, len(spots))
    if (u < 0).any() or (v < 0).any() or (e < 0).any():
        return None
    length = graph.length[e]
    if not ((at >= 0.0) & (at <= length)).all():
        return None
    edge = np.full(size, -1, dtype=np.intp)
    edge[inside] = e
    t = np.zeros(size)
    t[inside] = np.where(graph.u[e] == u, at, length - at)
    ptr = np.cumsum([0, *map(len, loc_rows)])
    return LocationTable(list(labels), weight, ptr, vertex, edge, t, prob)


def _check_place(graph: CactusGraph, where: Any) -> None:
    if isinstance(where, str):
        if where not in graph.vertex_id:
            raise FormatError(f"unknown vertex {where!r}")
        return
    if not isinstance(where, (list, tuple)) or len(where) != 3:
        raise FormatError(f"bad location place {where!r}")
    u_name, v_name, t = where
    try:
        u, v = graph.vertex_id[u_name], graph.vertex_id[v_name]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad location place {where!r}") from exc
    eid = int(graph.edges_between(np.array([u]), np.array([v]))[0])
    if eid < 0:
        raise FormatError(f"no edge {u_name!r}-{v_name!r}")
    t = _number(t, "offset on edge {!r}-{!r}", u_name, v_name)
    if not 0.0 <= t <= graph.length[eid]:
        raise FormatError(f"offset {t} outside edge {u_name!r}-{v_name!r}")


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
