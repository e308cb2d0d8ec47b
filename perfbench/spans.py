"""Span tracing of the package's layers from outside the package.

A :class:`Tracer` replaces public functions of ``ucactus.graph``,
``reduction``, ``uncertain``, ``plf``, ``decision``, ``optimizer`` and
``io`` with recording wrappers.  A function is replaced on every module that
holds it, because callers look it up there (``optimizer.decide``,
``decision.coverage_set``); a cached property is replaced on its class, so
only real builds are recorded.  :meth:`Tracer.uninstall` puts every original
back.

Each call leaves a span ``[name, start, end, parent, op, note]`` in memory;
``note`` is a small fact taken from the arguments or result (the probes of a
verdict, the candidate array).  :func:`self_times` gives each span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable

import ucactus
from ucactus import decision, graph, io, optimizer, plf, reduction, uncertain

MODULES = (ucactus, graph, reduction, uncertain, plf, decision, optimizer, io)


def _verdict_note(args, result):
    return (result.probes, result.feasible)


def _events_note(args, result):
    return 2 * sum(len(s) for s in args[0])


# (layer name, home module, function name, note taken from (args, result))
FUNCTIONS: tuple[tuple[str, Any, str, Callable | None], ...] = (
    ("io.parse_instance", io, "parse_instance", None),
    ("reduction.reduce_instance", reduction, "reduce_instance",
     lambda a, r: r.reduced.graph.vertex_count / r.original.graph.vertex_count),
    ("uncertain.expected_distance", uncertain, "expected_distance", None),
    ("uncertain.component_sums", uncertain, "component_sums", None),
    ("uncertain.group_eccentricity", uncertain, "group_eccentricity", None),
    ("plf.cycle_profiles", plf, "cycle_profiles", None),
    ("plf.coverage_set", plf, "coverage_set", None),
    ("plf.intersect_families", plf, "intersect_families", None),
    ("plf.stab", plf, "stab_one", _events_note),
    ("plf.stab", plf, "stab_two", _events_note),
    ("decision.decide", decision, "decide", _verdict_note),
    ("decision.probe", decision, "probe_articulation", None),
    ("decision.probe", decision, "probe_cycle", None),
    ("decision.terminal", decision, "decide_on_edge", None),
    ("decision.terminal", decision, "decide_on_cycle", None),
    ("decision.terminal", decision, "decide_on_two_cycles", None),
    ("decision.terminal", decision, "coverage_witness", None),
    ("optimizer.find_critical_pair", optimizer, "find_critical_pair",
     lambda a, r: r.value is not None),
    ("optimizer.candidate_values", optimizer, "candidate_values", lambda a, r: r),
    ("optimizer.solve", optimizer, "solve", lambda a, r: r.value),
)

# (layer name, class, cached property name, note taken from (args, result))
PROPERTIES: tuple[tuple[str, type, str, Callable | None], ...] = (
    ("graph.vertex_distances", graph.CactusGraph, "vertex_distances",
     lambda a, r: a[0].vertex_count),
    ("graph.skeleton", graph.CactusGraph, "skeleton", None),
    ("uncertain.ed_at_vertices", uncertain.Instance, "ed_at_vertices", None),
)


class Tracer:
    """Records spans while installed; one op at a time, one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.op = 0

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for name, home, attr, note in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, note)
            for mod in MODULES:
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, cls, attr, note in PROPERTIES:
            original = cls.__dict__[attr]
            prop = functools.cached_property(self._wrap(name, original.func, note))
            prop.__set_name__(cls, attr)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's, such as a whole op."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


def _held() -> dict[tuple[str, str], Any]:
    """Every object the tracer may replace, keyed by owner and attribute."""
    held = {}
    for _, home, attr, _ in FUNCTIONS:
        for mod in MODULES:
            if attr in mod.__dict__:
                held[(mod.__name__, attr)] = mod.__dict__[attr]
    for _, cls, attr, _ in PROPERTIES:
        held[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return held


_ORIGINALS = _held()


def originals_in_place() -> bool:
    """True when every module and class holds its original object again."""
    now = _held()
    return now.keys() == _ORIGINALS.keys() and all(
        now[k] is _ORIGINALS[k] for k in now
    )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own
