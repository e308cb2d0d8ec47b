"""JSON round trips, the seeded generator, and the command line front end."""

from __future__ import annotations

import json

import pytest

from conftest import draw_case, edge_rows, tri_instance
from ucactus import cli
from ucactus.cli import main
from ucactus.decision import one_center
from ucactus.errors import FormatError, InfeasibleParams, ValidationError
from ucactus.graph import GraphPoint
from ucactus.io import (
    instance_to_dict,
    parse_instance,
    place_to_json,
    random_instance,
    read_instance,
    write_instance,
)
from ucactus.uncertain import median


# ---------------------------------------------------------------------------
# serialisation


def test_dict_round_trip_is_stable(tri):
    data = instance_to_dict(tri)
    again = instance_to_dict(parse_instance(data))
    assert again == data


def test_file_round_trip(tmp_path, tri):
    path = tmp_path / "tri.json"
    write_instance(tri, path)
    back = read_instance(path)
    assert instance_to_dict(back) == instance_to_dict(tri)


def test_interior_locations_survive_the_round_trip(tmp_path):
    inst = draw_case(3, edge_locations=True)
    assert not inst.is_vertex_constrained
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert instance_to_dict(back) == instance_to_dict(inst)
    assert not back.is_vertex_constrained


def test_place_serialisation(tri):
    g = tri.graph
    assert place_to_json(g, 2) == "c"
    assert place_to_json(g, GraphPoint(3, 0.75)) == ["c", "d", 0.75]
    assert place_to_json(g, GraphPoint(3, 2.0)) == "d"


def test_parse_rejects_malformed_documents():
    with pytest.raises(FormatError, match="top level must be an object"):
        parse_instance("nope")
    with pytest.raises(FormatError, match="missing required key: 'vertices'"):
        parse_instance({})
    with pytest.raises(FormatError, match="bad uncertain point entry"):
        parse_instance({"vertices": ["a"], "edges": [], "uncertain_points": ["x"]})
    with pytest.raises(FormatError, match="unknown vertex 'q'"):
        parse_instance(
            {
                "vertices": ["a", "b"],
                "edges": [["a", "b", 1.0]],
                "uncertain_points": [
                    {"id": "P", "weight": 1.0, "locations": [["q", 1.0]]}
                ],
            }
        )
    with pytest.raises(FormatError, match="missing key: 'weight'"):
        parse_instance(
            {
                "vertices": ["a", "b"],
                "edges": [["a", "b", 1.0]],
                "uncertain_points": [{"id": "P", "locations": [["a", 1.0]]}],
            }
        )


def test_parse_still_validates_the_graph():
    with pytest.raises(ValidationError, match="not connected"):
        parse_instance(
            {
                "vertices": ["a", "b", "c", "d"],
                "edges": [["a", "b", 1.0], ["c", "d", 1.0]],
                "uncertain_points": [
                    {"id": "P", "weight": 1.0, "locations": [["a", 1.0]]}
                ],
            }
        )


def test_read_instance_wraps_file_errors(tmp_path):
    with pytest.raises(FormatError, match="No such file"):
        read_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError, match="bad.json"):
        read_instance(bad)


# ---------------------------------------------------------------------------
# generator


def test_generator_is_deterministic():
    kw = dict(n_vertices=9, n_cycles=2, n_points=3, n_locations=2)
    a = instance_to_dict(random_instance(17, **kw))
    b = instance_to_dict(random_instance(17, **kw))
    assert a == b


def test_generator_output_shape():
    for seed in range(10):
        inst = random_instance(
            seed, n_vertices=10, n_cycles=2, n_points=3, n_locations=3,
            prob_denominator=8,
        )
        g = inst.graph
        assert g.vertex_count == 10
        assert len(g.cycles) == 2
        assert inst.n == 3
        for e in edge_rows(g):
            assert e.length == int(e.length) and 1 <= e.length <= 10
        for p in inst.points:
            assert p.weight == int(p.weight) and 1 <= p.weight <= 5
            assert len(p.locations) <= 3
            for loc in p.locations:
                assert (loc.prob * 8) == pytest.approx(round(loc.prob * 8), abs=1e-12)


def test_generator_without_cycles_builds_a_tree():
    inst = random_instance(5, n_vertices=8, n_cycles=0, n_points=2)
    g = inst.graph
    assert g.edge_count == g.vertex_count - 1
    assert (g.cycles.edge_cycle == -1).all()


def test_generator_rejects_impossible_shapes():
    with pytest.raises(InfeasibleParams, match="cycle needs at least two"):
        random_instance(0, n_vertices=4, n_cycles=2)
    with pytest.raises(InfeasibleParams, match="size parameters"):
        random_instance(0, n_points=0)
    with pytest.raises(InfeasibleParams, match="n_locations <= prob_denominator"):
        random_instance(0, n_locations=4, prob_denominator=2)


# ---------------------------------------------------------------------------
# command line


def _write_tri(tmp_path):
    path = tmp_path / "tri.json"
    write_instance(tri_instance(), path)
    return str(path)


def _strict_json(text: str):
    """``text`` parsed as standard JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_cli_output_is_standard_json(tmp_path, capsys):
    for seed in range(12):
        path = str(tmp_path / f"case{seed}.json")
        write_instance(draw_case(seed, edge_locations=seed % 2 == 1), path)
        assert main(["solve", path]) == 0
        star = _strict_json(capsys.readouterr().out)["lambda_star"]
        for lam in (0.5 * star, star, 1.1 * star):
            assert main(["decide", path, "--lambda", repr(lam)]) == 0
            _strict_json(capsys.readouterr().out)
        assert main(["reduce", path]) == 0
        _strict_json(capsys.readouterr().out)
        assert main(["reduce", path, "-o", str(tmp_path / "red.json")]) == 0
        _strict_json(capsys.readouterr().out)


def test_cli_solve_reports_the_optimum(tmp_path, capsys):
    rc = main(["solve", _write_tri(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["lambda_star"] == 0.5
    assert out["centers"] == ["d", "a"]
    assert out["assignments"] == [
        {"id": "P1", "center": 1, "cost": 0.5},
        {"id": "P2", "center": 0, "cost": 0.0},
    ]


def test_cli_solve_verify_flag(tmp_path, capsys):
    rc = main(["solve", "--verify", _write_tri(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verified"] is True


def test_cli_solve_verify_allows_the_instance_tolerance(tmp_path, capsys):
    # at eps 1e-6 the witness may cost up to twice the tolerance above the
    # optimum, more than a fixed 1e-9 allows
    path = str(tmp_path / "gen.json")
    assert main(["gen", "--seed", "0", "--vertices", "14", "--points", "6",
                 "-o", path]) == 0
    capsys.readouterr()
    for eps in ("1e-6", "1e-9"):
        assert main(["solve", "--eps", eps, "--verify", path]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
    assert main(["solve", "--eps", "0", "--verify", path]) == 2
    assert "eps must be finite and positive" in capsys.readouterr().err


def test_cli_decide_reports_feasibility_not_via_exit_code(tmp_path, capsys):
    path = _write_tri(tmp_path)
    assert main(["decide", path, "--lambda", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert main(["decide", path, "--lambda", "0.49"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is False


@pytest.mark.parametrize("lam", ["-inf", "-1"])
def test_cli_decide_reports_a_negative_radius_infeasible(tmp_path, capsys, lam):
    path = _write_tri(tmp_path)
    assert main(["decide", path, f"--lambda={lam}"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["feasible"] is False
    assert out["centers"] is None
    # an infinite radius is written as a string that --lambda reads back
    assert main(["decide", path, f"--lambda={out['lambda']}"]) == 0
    assert _strict_json(capsys.readouterr().out) == out
    assert main(["decide", path, "--lambda=inf"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["lambda"] == "inf"
    assert out["feasible"] is True
    assert main(["decide", path, f"--lambda={out['lambda']}"]) == 0
    assert _strict_json(capsys.readouterr().out) == out


def test_cli_decide_rejects_a_nan_radius(tmp_path, capsys):
    assert main(["decide", _write_tri(tmp_path), "--lambda", "nan"]) == 2
    assert "NaN" in capsys.readouterr().err


def _tri_doc(**changes):
    """The triangle instance as a document, with one field replaced; keys
    are ``edge_length``, ``id``, ``weight``, ``locations`` or a top-level
    key."""
    doc = instance_to_dict(tri_instance())
    if "edge_length" in changes:
        doc["edges"][0][2] = changes["edge_length"]
    if "id" in changes:
        doc["uncertain_points"][0]["id"] = changes["id"]
    if "weight" in changes:
        doc["uncertain_points"][0]["weight"] = changes["weight"]
    if "locations" in changes:
        doc["uncertain_points"][0]["locations"] = changes["locations"]
    for key in ("eps", "vertices", "edges", "uncertain_points"):
        if key in changes:
            doc[key] = changes[key]
    return doc


# one row per bad input the command line must turn into exit code 2
BAD_INPUTS = [
    ("nan-edge-length", {"edge_length": float("nan")}, [], "non-finite length nan"),
    ("inf-edge-length", {"edge_length": float("inf")}, [], "non-finite length inf"),
    ("nan-weight", {"weight": float("nan")}, [], "non-finite weight nan"),
    ("inf-weight", {"weight": float("inf")}, [], "non-finite weight inf"),
    ("nan-eps", {"eps": float("nan")}, [], "eps must be finite and positive"),
    ("negative-eps", {"eps": -1.0}, [], "eps must be finite and positive"),
    ("zero-eps", {"eps": 0.0}, [], "eps must be finite and positive"),
    ("nan-eps-flag", {}, ["--eps", "nan"], "eps must be finite and positive"),
    ("negative-eps-flag", {}, ["--eps=-1"], "eps must be finite and positive"),
    ("zero-eps-flag", {}, ["--eps", "0"], "eps must be finite and positive"),
    ("string-edge-length", {"edge_length": "long"}, [], "length of edge 'a'-'b' is not a number"),
    # float() takes a boolean or a numeral string; a JSON number field must not
    ("true-edge-length", {"edge_length": True}, [], "length of edge 'a'-'b' is not a number: True"),
    (
        "numeral-edge-length",
        {"edge_length": "2.5"},
        [],
        "length of edge 'a'-'b' is not a number: '2.5'",
    ),
    ("true-weight", {"weight": True}, [], "weight of point 'P1' is not a number: True"),
    (
        "numeral-probability",
        {"locations": [["a", "0.5"], ["b", 0.5]]},
        [],
        "probability in point 'P1' is not a number: '0.5'",
    ),
    (
        "numeral-offset",
        {"locations": [[["a", "b", "1"], 1.0]]},
        [],
        "offset on edge 'a'-'b' is not a number: '1'",
    ),
    ("true-eps", {"eps": True}, [], "eps is not a number: True"),
    # a point id is a string, not whatever str() makes of a JSON value
    ("true-id", {"id": True}, [], "uncertain_points[0]: id is not a string: True"),
    ("number-id", {"id": 5}, [], "uncertain_points[0]: id is not a string: 5"),
    ("list-id", {"id": [1]}, [], "uncertain_points[0]: id is not a string: [1]"),
    ("null-id", {"id": None}, [], "uncertain_points[0]: id is not a string: None"),
    ("non-list-edges", {"edges": 5}, [], "edges must be a list"),
    ("no-vertices", {"vertices": [], "edges": []}, [], "graph needs at least one vertex"),
    # a location on an edge of a graph that has none
    (
        "edgeless-edge-location",
        {"vertices": ["a"], "edges": [], "locations": [[["a", "a", 0.0], 1.0]]},
        [],
        "no edge 'a'-'a'",
    ),
    ("non-list-locations", {"locations": 5}, [], "locations of point 'P1' must be a list"),
    # integers too large for a float, one per numeric field
    ("huge-edge-length", {"edge_length": 10**400}, [], "length of edge 'a'-'b' is out of range"),
    ("huge-weight", {"weight": 10**400}, [], "weight of point 'P1' is out of range"),
    (
        "huge-probability",
        {"locations": [["a", 10**400]]},
        [],
        "probability in point 'P1' is out of range",
    ),
    (
        "huge-offset",
        {"locations": [[["a", "b", 10**400], 1.0]]},
        [],
        "offset on edge 'a'-'b' is out of range",
    ),
    ("huge-eps", {"eps": 10**400}, [], "eps is out of range"),
    # distances would overflow float64 (the first once summed along the path)
    (
        "overflowing-total-length",
        {
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1e308], ["b", "c", 1e308]],
            "uncertain_points": [{"id": "P1", "weight": 1.0, "locations": [["a", 1.0]]}],
        },
        [],
        "total edge length inf is not finite",
    ),
    (
        "overflowing-weighted-length",
        {"edges": [["a", "b", 1e300], ["b", "c", 1e300], ["c", "d", 1e300]], "weight": 1e10},
        ["--verify"],
        "largest weight 10000000000.0 times total edge length 3e+300 is not finite",
    ),
]


@pytest.mark.parametrize(
    "changes, flags, message", [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS]
)
def test_cli_rejects_bad_input(tmp_path, capsys, changes, flags, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_tri_doc(**changes)), encoding="utf-8")
    assert main(["solve", str(path), *flags]) == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_an_integer_too_long_to_read(tmp_path, capsys):
    # past Python's limit on integer digits, json itself refuses the number
    doc = json.dumps(_tri_doc(edge_length=0.5)).replace("0.5", "1" * 5000, 1)
    path = tmp_path / "long.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "long.json" in capsys.readouterr().err


def test_parse_rejects_non_numeric_fields():
    for changes, what in (
        ({"weight": "heavy"}, "weight of point 'P1'"),
        ({"locations": [["a", "half"], ["b", 0.5]]}, "probability in point 'P1'"),
        ({"locations": [[["a", "b", "mid"], 1.0]]}, "offset on edge 'a'-'b'"),
        ({"eps": "tiny"}, "eps"),
    ):
        with pytest.raises(FormatError, match=f"{what} is not a number"):
            parse_instance(_tri_doc(**changes))
    # an array conversion would read None as NaN; each is refused by name
    for bad in (None, [0.5], [[1.0]]):
        for changes, what in (
            ({"weight": bad}, "weight of point 'P1'"),
            ({"locations": [["a", bad], ["b", 0.5]]}, "probability in point 'P1'"),
            ({"locations": [[["a", "b", bad], 1.0]]}, "offset on edge 'a'-'b'"),
        ):
            with pytest.raises(FormatError, match=f"{what} is not a number"):
                parse_instance(_tri_doc(**changes))
    with pytest.raises(FormatError, match="uncertain_points must be a list"):
        parse_instance({"vertices": ["a"], "edges": [], "uncertain_points": 5})


def _point(label, weight, *locations):
    return {"id": label, "weight": weight, "locations": [list(loc) for loc in locations]}


@pytest.mark.parametrize(
    "points, error, message",
    [
        # two faulty points: the first in document order is named
        (
            [_point("P1", 1.0, ("a", None)), _point("P2", "heavy", ("b", 1.0))],
            FormatError,
            "probability in point 'P1' is not a number: None",
        ),
        (
            [_point("P1", None, ("a", 1.0)), _point("P2", 1.0, ("a", "x"))],
            FormatError,
            "weight of point 'P1' is not a number: None",
        ),
        (
            [_point("P1", 1.0, ("a", 0.5), ("q", 0.5)), _point("P2", 1.0, (["a", "b", None], 1.0))],
            FormatError,
            "unknown vertex 'q'",
        ),
        (
            [_point("P1", 1.0, (["a", "d", 0.5], 1.0)), "not a point"],
            FormatError,
            "no edge 'a'-'d'",
        ),
        (
            [_point("P1", 1.0, (["a", "b", 2.0], 1.0)), {"id": "P2"}],
            FormatError,
            "offset 2.0 outside edge 'a'-'b'",
        ),
        # within a location, its probability is read before its place
        ([_point("P1", 1.0, ("q", None))], FormatError, "probability in point 'P1'"),
        # a format fault in a later point wins over a bad value in an earlier one
        (
            [_point("P1", -1.0, ("a", 1.0)), _point("P2", 1.0, ("a", None))],
            FormatError,
            "probability in point 'P2' is not a number: None",
        ),
        (
            [_point("P1", 1.0, ("a", 0.5)), _point("P2", 1.0, ("a", 1.0), ("b", 1.0)), "x"],
            FormatError,
            "bad uncertain point entry 'x'",
        ),
        # value checks, in the same document order
        (
            [_point("P1", 1.0, ("a", 0.5)), _point("P2", -1.0, ("a", 2.0))],
            ValidationError,
            "point 'P1': probabilities sum to 0.5, not 1",
        ),
        (
            [_point("P1", 1.0, ("a", 1.0)), _point("P2", float("nan"), ("a", 2.0))],
            ValidationError,
            "point 'P2' has non-finite weight nan",
        ),
        (
            [_point("P1", 1.0, ("a", 1.0)), _point("P2", 1.0, ("a", 2.0), ("b", -1.0))],
            ValidationError,
            "point 'P2': probability 2.0",
        ),
        (
            [_point("P1", 1.0, ("a", 1.0)), _point("P1", -1.0, ("a", 2.0))],
            ValidationError,
            "duplicate point label 'P1'",
        ),
        (
            [_point("P1", 1.0, ("a", 1.0)), _point("P2", 1.0), _point("P3", -1.0, ("a", 1.0))],
            ValidationError,
            "point 'P2' has no locations",
        ),
        # a non-string id, named by its row, before a later bad weight
        (
            [_point("P1", 1.0, ("a", 1.0)), _point(7, 1.0, ("a", 1.0)), _point("P3", "x")],
            FormatError,
            "uncertain_points[1]: id is not a string: 7",
        ),
    ],
)
def test_parse_reports_the_first_fault_in_document_order(points, error, message):
    with pytest.raises(error) as raised:
        parse_instance(_tri_doc(uncertain_points=points))
    assert type(raised.value) is error
    assert message in str(raised.value)


def test_cli_one_center_and_median(tmp_path, capsys):
    path = _write_tri(tmp_path)
    assert main(["one-center", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 1.5
    assert main(["median", path, "--point", "P1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["id"], out["value"], out["location"]) == ("P1", 0.5, "a")


def test_cli_one_center_and_median_on_edge_interior_locations(tmp_path, capsys):
    inst = draw_case(5, max_points=4, edge_locations=True)
    assert not inst.is_vertex_constrained
    path = tmp_path / "interior.json"
    write_instance(inst, path)
    assert main(["one-center", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(one_center(inst)[1], rel=1e-9)
    assert main(["median", str(path), "--point", inst.points[0].label]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(median(inst, 0)[1], rel=1e-9)


def test_cli_median_unknown_point_is_an_input_error(tmp_path, capsys):
    rc = main(["median", _write_tri(tmp_path), "--point", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_reduce_writes_a_loadable_instance(tmp_path, capsys):
    out_path = tmp_path / "reduced.json"
    rc = main(["reduce", _write_tri(tmp_path), "-o", str(out_path)])
    assert rc == 0
    back = read_instance(out_path)
    assert back.is_vertex_constrained


def test_cli_gen_then_solve(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    rc = main(
        ["gen", "--seed", "7", "--vertices", "8", "--cycles", "1", "-n", "2",
         "-o", str(out_path)]
    )
    assert rc == 0
    assert main(["solve", str(out_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda_star"] >= 0.0


def test_cli_verify_cross_checks_the_solver(capsys, monkeypatch):
    # every odd trial places locations inside edges, so the solver's
    # reduce-and-lift path meets the oracle too
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(kwargs["edge_locations"])
        return random_instance(*args, **kwargs)

    monkeypatch.setattr(cli, "random_instance", recording)
    assert main(["verify", "--trials", "3", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mismatches"] == []
    assert drawn == [False, True, False]


def test_cli_missing_file_is_an_input_error(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_instance_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a"]}), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, vertices, message",
    [
        # an endpoint that is no string misses the name index or cannot be
        # looked up; it is a format fault all the same
        ([["a", 7, 1.0]], None, "bad edge entry ['a', 7, 1.0]"),
        ([[None, "b", 1.0]], None, "bad edge entry [None, 'b', 1.0]"),
        ([["a", ["b"], 1.0]], None, "bad edge entry ['a', ['b'], 1.0]"),
        ([[{"a": 1}, "b", 1.0]], None, "bad edge entry [{'a': 1}, 'b', 1.0]"),
        ([[1, 2, 3.0]], [], "bad edge entry [1, 2, 3.0]"),
        # it wins over a bad value in an earlier row
        ([["a", "q", 1.0], ["a", 7, 1.0]], None, "bad edge entry ['a', 7, 1.0]"),
        ([["a", "a", 1.0], ["b", ["c"], 1.0]], None, "bad edge entry ['b', ['c'], 1.0]"),
        ([["a", "b", -1.0], ["b", None, 1.0]], None, "bad edge entry ['b', None, 1.0]"),
        # and loses to a format fault in an earlier row
        ([["a", "b", "x"], ["b", ["c"], 1.0]], None, "length of edge 'a'-'b' is not a number"),
        ([["a", "b"], ["b", 7, 1.0]], None, "bad edge entry ['a', 'b']"),
    ],
)
def test_edge_rows_report_the_first_format_fault_in_document_order(rows, vertices, message):
    doc = _tri_doc(edges=rows)
    if vertices is not None:
        doc["vertices"] = vertices
    with pytest.raises(FormatError) as raised:
        parse_instance(doc)
    assert message in str(raised.value)
