"""JSON round trips, the seeded generator, and the command line front end."""

from __future__ import annotations

import json

import pytest

from conftest import draw_case, tri_instance
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
        assert len(g.cycles.cycles) == 2
        assert inst.n == 3
        for e in g.edges:
            assert e.length == int(e.length) and 1 <= e.length <= 10
        for p in inst.points:
            assert p.weight == int(p.weight) and 1 <= p.weight <= 5
            assert len(p.locations) <= 3
            for loc in p.locations:
                assert (loc.prob * 8) == pytest.approx(round(loc.prob * 8), abs=1e-12)


def test_generator_without_cycles_builds_a_tree():
    inst = random_instance(5, n_vertices=8, n_cycles=0, n_points=2)
    g = inst.graph
    assert len(g.edges) == g.vertex_count - 1
    assert all(c is None for c in g.cycles.edge_cycle)


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


def test_cli_decide_rejects_a_nan_radius(tmp_path, capsys):
    assert main(["decide", _write_tri(tmp_path), "--lambda", "nan"]) == 2
    assert "NaN" in capsys.readouterr().err


def _tri_doc(**changes):
    """The triangle instance as a document, with one field replaced; keys
    are ``edge_length``, ``weight``, ``eps``, ``edges`` or ``locations``."""
    doc = instance_to_dict(tri_instance())
    if "edge_length" in changes:
        doc["edges"][0][2] = changes["edge_length"]
    if "weight" in changes:
        doc["uncertain_points"][0]["weight"] = changes["weight"]
    if "locations" in changes:
        doc["uncertain_points"][0]["locations"] = changes["locations"]
    for key in ("eps", "edges"):
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
    ("non-list-edges", {"edges": 5}, [], "edges must be a list"),
    ("non-list-locations", {"locations": 5}, [], "locations of point 'P1' must be a list"),
]


@pytest.mark.parametrize(
    "changes, flags, message", [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS]
)
def test_cli_rejects_bad_input(tmp_path, capsys, changes, flags, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_tri_doc(**changes)), encoding="utf-8")
    assert main(["solve", str(path), *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_cli_rejects_a_bad_eps_from_the_environment(tmp_path, capsys, monkeypatch, value):
    doc = _tri_doc()
    del doc["eps"]  # an eps in the file would take precedence
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("UCACTUS_EPS", value)
    assert main(["solve", str(path)]) == 2
    assert "UCACTUS_EPS" in capsys.readouterr().err


def test_parse_rejects_non_numeric_fields():
    for changes, what in (
        ({"weight": "heavy"}, "weight of point 'P1'"),
        ({"locations": [["a", "half"], ["b", 0.5]]}, "probability in point 'P1'"),
        ({"locations": [[["a", "b", "mid"], 1.0]]}, "offset on edge 'a'-'b'"),
        ({"eps": "tiny"}, "eps"),
    ):
        with pytest.raises(FormatError, match=f"{what} is not a number"):
            parse_instance(_tri_doc(**changes))
    with pytest.raises(FormatError, match="uncertain_points must be a list"):
        parse_instance({"vertices": ["a"], "edges": [], "uncertain_points": 5})


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


def test_cli_verify_cross_checks_the_solver(capsys):
    assert main(["verify", "--trials", "3", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mismatches"] == []


def test_cli_missing_file_is_an_input_error(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_instance_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a"]}), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
