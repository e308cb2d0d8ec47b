"""The benchmark's span tracer wraps package functions and cached properties
by name; a rename must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib.util
from functools import cached_property
from pathlib import Path

from conftest import draw_many_cycles, tri_instance
from ucactus import decision, optimizer

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


def test_traced_decides_record_the_stab_on_one_and_on_two_cycles():
    # on this draw the lower radius ends in the two-cycle terminal, the
    # higher one in the one-cycle terminal; each builds its arc tables with
    # coverage_set and stabs them
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        inst = draw_many_cycles(6)
        for lam in (26.25, 52.5):
            decision.decide(inst, lam)
    finally:
        tracer.uninstall()
    recs = tracer.spans
    tables, notes = [], []
    for i, rec in enumerate(recs):
        if rec[0] == "decision.terminal":
            children = [c for c in recs if c[3] == i]
            tables.append(sum(c[0] == "plf.coverage_set" for c in children))
            notes += [c[5] for c in children if c[0] == "plf.stab"]
    assert {1, 2} <= set(tables)
    assert len(notes) >= 2 and all(isinstance(n, int) and n > 0 for n in notes)
