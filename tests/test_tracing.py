"""The benchmark's span tracer wraps package functions and cached properties
by name; a rename must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib.util
from functools import cached_property
from pathlib import Path

from conftest import tri_instance
from ucactus import optimizer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_wrapper():
    spans = _spans()
    for _, cls, attr, _ in spans.PROPERTIES:
        assert isinstance(cls.__dict__[attr], cached_property), attr
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not spans.originals_in_place()
        # looked up on the module, as callers do, so the wrapper runs
        optimizer.solve(tri_instance())
        traced = {rec[0] for rec in tracer.spans}
    finally:
        tracer.uninstall()
    assert spans.originals_in_place()
    assert {"optimizer.solve", "decision.decide", "graph.skeleton"} <= traced
    assert "uncertain.ed_at_vertices" in traced
