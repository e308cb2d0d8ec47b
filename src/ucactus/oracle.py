"""Brute-force reference implementations for small instances.

Everything here is derived from first principles on top of the metric alone:
expected distances are piecewise affine along each edge, so enumerating piece
endpoints, level crossings, and pairwise crossing ordinates is exhaustive.
Deliberately independent of the skeleton-tree machinery so the two can check
each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ucactus.errors import TooLargeForOracle
from ucactus.graph import CactusGraph, GraphPoint, point_vertex_distances
from ucactus.uncertain import Instance, location_point

MAX_VERTICES = 20
MAX_POINTS = 8
MAX_LOCATIONS = 4


def _guard(inst: Instance) -> None:
    if inst.graph.vertex_count > MAX_VERTICES:
        raise TooLargeForOracle(f"{inst.graph.vertex_count} vertices")
    if inst.n > MAX_POINTS:
        raise TooLargeForOracle(f"{inst.n} uncertain points")
    # zero-probability padding from the reduction carries no brute-force
    # cost, so only live locations count against the bound
    live = (
        sum(1 for loc in p.locations if loc.prob > 0.0) for p in inst.points
    )
    if any(m > MAX_LOCATIONS for m in live):
        raise TooLargeForOracle("too many locations per point")


@dataclass(slots=True)
class _LocArm:
    """Distance to one location from points of one edge: the lower envelope
    of ``t + du``, ``(L - t) + dv``, and ``|t - s|`` when the location sits on
    the edge itself."""

    point: int
    prob: float
    du: float
    dv: float
    s: float | None


class _EdgeView:
    """All per-point expected-distance data along a single edge."""

    def __init__(self, inst: Instance, edge: int) -> None:
        g = inst.graph
        e = g.edges[edge]
        self.edge = edge
        self.length = e.length
        self.arms: list[_LocArm] = []
        for k, p in enumerate(inst.points):
            for loc in p.locations:
                pt = location_point(g, loc)
                dvec = point_vertex_distances(g, pt)
                s = pt.t if pt.edge == edge else None
                self.arms.append(_LocArm(k, loc.prob, dvec[e.u], dvec[e.v], s))
        self.breaks = self._breakpoints()
        self.n = inst.n
        self.weights = inst.weights

    def _breakpoints(self) -> np.ndarray:
        L = self.length
        ts = {0.0, L}
        for a in self.arms:
            # crossings among the affine routes via-u, via-v, and the two
            # branches of the on-edge direct distance
            lines = [(a.du, 1.0), (L + a.dv, -1.0)]
            if a.s is not None:
                lines += [(-a.s, 1.0), (a.s, -1.0)]
            for (b1, m1), (b2, m2) in itertools.combinations(lines, 2):
                if m1 != m2:
                    t = (b2 - b1) / (m1 - m2)
                    if 0.0 < t < L:
                        ts.add(t)
            if a.s is not None and 0.0 < a.s < L:
                ts.add(a.s)
        return np.array(sorted(ts))

    def expected(self, ts: np.ndarray) -> np.ndarray:
        """Expected distances at the given offsets, shaped (len(ts), n)."""
        out = np.zeros((len(ts), self.n))
        for a in self.arms:
            d = np.minimum(ts + a.du, (self.length - ts) + a.dv)
            if a.s is not None:
                d = np.minimum(d, np.abs(ts - a.s))
            out[:, a.point] += a.prob * d
        return out

    def weighted(self, ts: np.ndarray) -> np.ndarray:
        return self.expected(ts) * self.weights


def _views(inst: Instance) -> list[_EdgeView]:
    return inst.memo(
        "oracle_views", lambda: [_EdgeView(inst, e.id) for e in inst.graph.edges]
    )


def _level_positions(view: _EdgeView, lam: float, tol: float) -> list[float]:
    """Offsets where some weighted expected distance crosses ``lam``."""
    bs = view.breaks
    vals = view.weighted(bs)
    out: list[float] = []
    thr = lam + tol
    for k in range(view.n):
        for i in range(len(bs) - 1):
            y0, y1 = vals[i, k], vals[i + 1, k]
            if y0 == y1 or min(y0, y1) > thr or max(y0, y1) <= thr:
                continue
            t = bs[i] + (thr - y0) * (bs[i + 1] - bs[i]) / (y1 - y0)
            if bs[i] < t < bs[i + 1]:
                out.append(float(t))
    return out


def _decide_candidates(inst: Instance, lam: float) -> list[GraphPoint]:
    tol = inst.eps * max(1.0, abs(lam))
    cands: list[GraphPoint] = []
    for view in _views(inst):
        ts = sorted(set(view.breaks.tolist()) | set(_level_positions(view, lam, tol)))
        cands.extend(GraphPoint(view.edge, t) for t in ts)
    if not inst.graph.edges:
        cands.append(inst.graph.vertex_point(0))
    return cands


def _coverage_masks(
    inst: Instance, cands: list[GraphPoint], lam: float
) -> dict[int, GraphPoint]:
    tol = inst.eps * max(1.0, abs(lam))
    masks: dict[int, GraphPoint] = {}
    by_edge: dict[int, list[GraphPoint]] = {}
    for p in cands:
        by_edge.setdefault(p.edge, []).append(p)
    views = {v.edge: v for v in _views(inst)}
    for edge, pts in by_edge.items():
        if edge < 0:
            ed = np.zeros((1, inst.n))
        else:
            ed = views[edge].weighted(np.array([p.t for p in pts]))
        # double slack: level-crossing candidates sit exactly on the
        # tolerance boundary and re-evaluation can land an ulp above
        hit = ed <= lam + 2.0 * tol
        for i, p in enumerate(pts):
            mask = 0
            for k in range(inst.n):
                if hit[i, k]:
                    mask |= 1 << k
            if mask not in masks:
                masks[mask] = p
    return masks


def oracle_decide(
    inst: Instance, lam: float
) -> tuple[bool, tuple[GraphPoint, GraphPoint] | None]:
    """Exhaustive feasibility check for covering radius ``lam``."""
    _guard(inst)
    if lam < -inst.eps:
        return False, None
    masks = _coverage_masks(inst, _decide_candidates(inst, lam), lam)
    full = (1 << inst.n) - 1
    for m1, m2 in itertools.product(masks, repeat=2):
        if m1 | m2 == full:
            return True, (masks[m1], masks[m2])
    return False, None


def _value_candidates(inst: Instance) -> np.ndarray:
    """Every ordinate the optimum can take: weighted values at piece ends
    plus pairwise crossing ordinates inside each piece."""
    vals: list[float] = [0.0]
    for view in _views(inst):
        bs = view.breaks
        ys = view.weighted(bs)
        vals.extend(ys.ravel().tolist())
        for i in range(len(bs) - 1):
            t0, t1 = bs[i], bs[i + 1]
            y0, y1 = ys[i], ys[i + 1]
            for k, l in itertools.combinations(range(view.n), 2):
                d0 = y0[k] - y0[l]
                d1 = y1[k] - y1[l]
                if d0 * d1 < 0:
                    frac = d0 / (d0 - d1)
                    vals.append(float(y0[k] + (y1[k] - y0[k]) * frac))
    out = np.unique(np.array(vals))
    return out[out >= 0.0]


def oracle_solve(inst: Instance) -> tuple[float, tuple[GraphPoint, GraphPoint]]:
    """Exact optimum by bisecting the candidate ordinates with the decider."""
    _guard(inst)
    vals = _value_candidates(inst)
    lo, hi = 0, len(vals) - 1
    feasible_hi, _ = oracle_decide(inst, float(vals[hi]))
    if not feasible_hi:
        raise AssertionError("largest candidate ordinate must be feasible")
    while lo < hi:
        mid = (lo + hi) // 2
        ok, _ = oracle_decide(inst, float(vals[mid]))
        if ok:
            hi = mid
        else:
            lo = mid + 1
    ok, pair = oracle_decide(inst, float(vals[lo]))
    assert ok and pair is not None
    return float(vals[lo]), pair


def oracle_one_center(inst: Instance) -> tuple[GraphPoint, float]:
    """Exact 1-center: minimise the weighted expected-distance envelope."""
    _guard(inst)
    best: tuple[float, GraphPoint] | None = None
    for view in _views(inst):
        bs = view.breaks
        ys = view.weighted(bs)
        ts = set(bs.tolist())
        for i in range(len(bs) - 1):
            y0, y1 = ys[i], ys[i + 1]
            for k, l in itertools.combinations(range(view.n), 2):
                d0 = y0[k] - y0[l]
                d1 = y1[k] - y1[l]
                if d0 * d1 < 0:
                    frac = d0 / (d0 - d1)
                    ts.add(float(bs[i] + (bs[i + 1] - bs[i]) * frac))
        ts = np.array(sorted(ts))
        env = view.weighted(ts).max(axis=1)
        i = int(np.argmin(env))
        if best is None or env[i] < best[0]:
            best = (float(env[i]), GraphPoint(view.edge, float(ts[i])))
    if best is None:  # single-vertex graph: everything sits on the vertex
        return inst.graph.vertex_point(0), 0.0
    return best[1], best[0]


def oracle_median(inst: Instance, k: int) -> tuple[GraphPoint, float]:
    """Exact 1-median of a single uncertain point."""
    _guard(inst)
    best: tuple[float, GraphPoint] | None = None
    for view in _views(inst):
        ys = view.expected(view.breaks)[:, k]
        i = int(np.argmin(ys))
        if best is None or ys[i] < best[0]:
            best = (float(ys[i]), GraphPoint(view.edge, float(view.breaks[i])))
    assert best is not None
    return best[1], best[0]
