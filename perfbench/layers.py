"""Per-layer metrics of a traced run.

Every metric is per traced op unless its unit says otherwise; counts repeat
exactly across runs of one seed.  ``METRICS`` lists them with their unit and
which direction is better, in the order the run prints them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import Tracer, self_times

# (name, unit, better)
METRICS: tuple[tuple[str, str, str], ...] = (
    ("graph.vertex_distances.calls", "calls/op", "lower"),
    ("graph.vertex_distances.self_s", "s/op", "lower"),
    ("graph.vertex_distances.mb_computed", "MB/op", "lower"),
    ("graph.skeleton.self_s", "s/op", "lower"),
    ("io.parse_instance.self_s", "s/op", "lower"),
    ("reduction.reduce_instance.self_s", "s/op", "lower"),
    ("reduction.vertex_ratio", "ratio", "lower"),
    ("uncertain.ed_at_vertices.self_s", "s/op", "lower"),
    ("uncertain.expected_distance.calls", "calls/op", "lower"),
    ("uncertain.expected_distance.self_s", "s/op", "lower"),
    ("uncertain.component_sums.self_s", "s/op", "lower"),
    ("uncertain.group_eccentricity.self_s", "s/op", "lower"),
    ("plf.cycle_profiles.calls", "calls/op", "lower"),
    ("plf.cycle_profiles.self_s", "s/op", "lower"),
    ("plf.coverage_set.calls", "calls/op", "lower"),
    ("plf.coverage_set.self_s", "s/op", "lower"),
    ("plf.intersect_families.self_s", "s/op", "lower"),
    ("plf.stab.calls", "calls/op", "lower"),
    ("plf.stab.self_s", "s/op", "lower"),
    ("plf.stab.events_mean", "events", "lower"),
    ("decision.decide.calls", "calls/op", "lower"),
    ("decision.decide.localise_calls", "calls/op", "lower"),
    ("decision.decide.bisect_calls", "calls/op", "lower"),
    ("decision.decide.s_per_call", "s", "lower"),
    ("decision.probes_per_decide", "probes", "lower"),
    ("decision.probe.self_s", "s/op", "lower"),
    ("decision.terminal.self_s", "s/op", "lower"),
    ("decision.feasible_ratio", "ratio", "higher"),
    ("optimizer.find_critical_pair.self_s", "s/op", "lower"),
    ("optimizer.localise_direct_ratio", "ratio", "higher"),
    ("optimizer.candidate_values.self_s", "s/op", "lower"),
    ("optimizer.candidates", "count", "lower"),
    ("optimizer.fallback_ratio", "ratio", "lower"),
    ("optimizer.solve.self_s", "s/op", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class LayerTracer(Tracer):
    """A tracer that folds each op's spans into per-layer totals."""

    def __init__(self) -> None:
        super().__init__()
        self.ops = 0
        self.op_s = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.notes: dict[str, list] = defaultdict(list)
        self.localise_decides = 0
        self.bisect_decides = 0
        self.solves = 0
        self.fallbacks = 0

    def fold(self) -> None:
        """Add the spans of the op just traced, then drop them."""
        spans = self.spans
        if not spans:
            return
        self.ops += 1
        for rec, own in zip(spans, self_times(spans)):
            name = rec[0]
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += rec[2] - rec[1]
            if name == "op":
                self.op_s += rec[2] - rec[1]
            elif name == "decision.decide":
                above = self._ancestors(rec)
                if "optimizer.find_critical_pair" in above:
                    self.localise_decides += 1
                elif "optimizer.solve" in above:
                    self.bisect_decides += 1
            if rec[5] is not None and name != "optimizer.candidate_values":
                self.notes[name].append(rec[5])

        solved = [rec[5] for rec in spans if rec[0] == "optimizer.solve"]
        cands = [rec[5] for rec in spans if rec[0] == "optimizer.candidate_values"]
        self.notes["optimizer.candidate_values"].extend(len(c) for c in cands)
        if solved and solved[0] is not None:
            self.solves += 1
            # lambda* outside the located candidates means the wide
            # fallback search produced it
            if cands and not np.any(cands[-1] == solved[0]):
                self.fallbacks += 1
        spans.clear()

    def _ancestors(self, rec: list) -> set[str]:
        out = set()
        p = rec[3]
        while p >= 0:
            out.add(self.spans[p][0])
            p = self.spans[p][3]
        return out


def per_layer(tracer: LayerTracer, run) -> tuple[dict, list[str]]:
    """The traced run's per-layer metrics and printable notes."""
    ops = max(tracer.ops, 1)
    notes = tracer.notes
    decides = tracer.calls["decision.decide"]
    verdicts = notes["decision.decide"]
    vertex_counts = notes["graph.vertex_distances"]
    overhead = statistics.median(run.traced_times) - statistics.median(run.times)

    values = {
        "graph.vertex_distances.mb_computed": 8.0 * sum(v * v for v in vertex_counts) / 1e6 / ops,
        "reduction.vertex_ratio": _mean(notes["reduction.reduce_instance"]),
        "plf.stab.events_mean": _mean(notes["plf.stab"]),
        "decision.decide.localise_calls": tracer.localise_decides / ops,
        "decision.decide.bisect_calls": tracer.bisect_decides / ops,
        "decision.decide.s_per_call": _ratio(tracer.total_s["decision.decide"], decides),
        "decision.probes_per_decide": _mean([p for p, _ in verdicts]),
        "decision.feasible_ratio": _ratio(sum(f for _, f in verdicts), len(verdicts)),
        "optimizer.localise_direct_ratio": _mean(notes["optimizer.find_critical_pair"]),
        "optimizer.candidates": _mean(notes["optimizer.candidate_values"]),
        "optimizer.fallback_ratio": _ratio(tracer.fallbacks, tracer.solves),
        "trace.overhead_s": overhead,
    }
    metrics = {}
    for name, unit, _ in METRICS:
        layer, _, stat = name.rpartition(".")
        if name in values:
            value = values[name]
        elif stat == "calls":
            value = tracer.calls[layer] / ops
        else:
            value = tracer.self_s[layer] / ops
        metrics[name] = (float(value), unit)

    lines = [
        f"traced {tracer.ops} ops beside {len(run.times)} untraced; "
        f"overhead {overhead:.4f} s on an untraced p50 of "
        f"{statistics.median(run.times):.4f} s",
    ]
    op_s = tracer.op_s or 1.0
    for layer in sorted(tracer.self_s, key=lambda k: -tracer.self_s[k]):
        lines.append(
            f"split {layer:34s} self {tracer.self_s[layer] / ops:9.4f} s/op "
            f"{100.0 * tracer.self_s[layer] / op_s:5.1f}%  "
            f"calls {tracer.calls[layer] / ops:10.1f}/op"
        )
    return metrics, lines
