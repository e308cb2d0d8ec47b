"""Expected-distance profiles along edges and cycles, and interval stabbing.

The stabbing kernels sweep sorted endpoint events: ``side`` 0 opens an
interval, 1 closes it, ``owner`` is the family.  Events are sorted by
position with opens before closes at equal positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ucactus.errors import ValidationError
from ucactus.uncertain import Instance

# There is one kernel, in pure Python; the benchmark's env line still reads
# this flag (perfbench/run.py).
HAVE_COMPILED_KERNEL = False

Interval = tuple[float, float]


@dataclass(slots=True)
class Profile:
    """Piecewise-linear samples of one point's expected distance along an
    edge (``cyclic`` False, domain [0, length]) or around a cycle's arc
    coordinate (``cyclic`` True, wrapping at the perimeter)."""

    xs: np.ndarray
    ys: np.ndarray
    cyclic: bool

    @property
    def length(self) -> float:
        return float(self.xs[-1])

    def value(self, x: float) -> float:
        if self.cyclic:
            x %= self.length
        return float(np.interp(x, self.xs, self.ys))

    def pieces(self) -> zip:
        return zip(self.xs[:-1], self.ys[:-1], self.xs[1:], self.ys[1:])


def cycle_profiles(inst: Instance, cycle_id: int) -> list[Profile]:
    """Profiles of every point around one cycle, breakpoint-exact; built once
    per cycle and instance."""
    return inst.memo(
        ("cycle_profiles", cycle_id), lambda: _cycle_profiles(inst, cycle_id)
    )


def _cycle_profiles(inst: Instance, cycle_id: int) -> list[Profile]:
    # every location enters the cycle through a unique ring vertex, its gate,
    # so each point's profile is a constant plus a ring-distance mixture
    cyc = inst.graph.cycles.cycles[cycle_id]
    ring = np.array(cyc.vertices)
    coords = np.array(cyc.pos)
    per = cyc.perimeter
    rows = inst.support_rows[:, ring]
    mass = inst.vertex_mass[inst.support]
    gate_idx = np.argmin(rows, axis=1)  # (S,) index into ring
    const = rows[np.arange(len(gate_idx)), gate_idx] @ mass
    source = np.zeros((len(ring), inst.n))
    np.add.at(source, gate_idx, mass)

    xs = np.unique(np.concatenate([coords, (coords + per / 2) % per, [0.0, per]]))
    gaps = np.abs(xs[:, None] - coords[None, :])
    ys = np.minimum(gaps, per - gaps) @ source + const
    return [Profile(xs, ys[:, k], cyclic=True) for k in range(inst.n)]


def edge_profile(inst: Instance, k: int, edge: int) -> Profile:
    """Profile along an out-of-cycle edge; affine, so two samples suffice."""
    e = inst.graph.edges[edge]
    if inst.graph.cycles.edge_cycle[edge] is not None:
        raise ValidationError(f"edge {edge} lies on a cycle")
    ys = np.array([inst.ed_at_vertices[e.u, k], inst.ed_at_vertices[e.v, k]])
    return Profile(np.array([0.0, e.length]), ys, cyclic=False)


def coverage_set(
    profile: Profile, weight: float, lam: float, eps: float
) -> list[Interval]:
    """Closed intervals where the weighted profile stays within ``lam``.

    On cyclic profiles the result is reported in [0, perimeter] without
    joining across the wrap point; a region through the wrap appears as a
    leading and a trailing interval.
    """
    slack = lam + eps * max(1.0, abs(lam))
    if weight == 0.0:
        # weightless points cost nothing anywhere
        return [(0.0, float(profile.xs[-1]))] if slack >= 0.0 else []
    thr = slack / weight
    out: list[Interval] = []
    for x0, y0, x1, y1 in profile.pieces():
        if x1 <= x0:
            continue
        if y0 <= thr and y1 <= thr:
            seg = (x0, x1)
        elif y0 <= thr < y1:
            seg = (x0, x0 + (thr - y0) * (x1 - x0) / (y1 - y0))
        elif y1 <= thr < y0:
            seg = (x0 + (thr - y0) * (x1 - x0) / (y1 - y0), x1)
        else:
            continue
        if out and out[-1][1] >= seg[0]:
            out[-1] = (out[-1][0], max(out[-1][1], seg[1]))
        else:
            out.append(seg)
    return out


def _event_arrays(
    sets: Sequence[Sequence[Interval]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos: list[float] = []
    side: list[int] = []
    owner: list[int] = []
    for k, ivals in enumerate(sets):
        for a, b in ivals:
            pos.append(a)
            side.append(0)
            owner.append(k)
            pos.append(b)
            side.append(1)
            owner.append(k)
    pos_a = np.array(pos, dtype=np.float64)
    side_a = np.array(side, dtype=np.int8)
    owner_a = np.array(owner, dtype=np.intc)
    order = np.lexsort((side_a, pos_a))
    return pos_a[order], side_a[order], owner_a[order]


def stab_one(sets: Sequence[Sequence[Interval]]) -> float | None:
    """A single position inside every family of closed intervals, or None."""
    pos, side, owner = _event_arrays(sets)
    return stab_one_events(pos, side, owner, len(sets))


def stab_two(sets: Sequence[Sequence[Interval]]) -> tuple[float, float] | None:
    """Two positions jointly hitting every family, or None."""
    pos, side, owner = _event_arrays(sets)
    return stab_two_events(pos, side, owner, len(sets))


def intersect_families(sets: Sequence[Sequence[Interval]]) -> list[Interval]:
    """Common part of several interval families (each a disjoint union)."""
    n = len(sets)
    if n == 0:
        return []
    pos, side, owner = _event_arrays(sets)
    out: list[Interval] = []
    depth = 0
    start = 0.0
    for p, s in zip(pos.tolist(), side.tolist()):
        if s == 0:
            depth += 1
            if depth == n:
                start = p
        else:
            if depth == n:
                out.append((start, p))
            depth -= 1
    return out


def stab_one_events(
    pos: np.ndarray, side: np.ndarray, owner: np.ndarray, n_sets: int
) -> float | None:
    """A position contained in every family's union, or None."""
    if n_sets == 0:
        return 0.0
    posl = pos.tolist()
    sidel = side.tolist()
    ownerl = owner.tolist()
    open_cnt = [0] * n_sets
    covered = 0
    for j in range(len(posl)):
        k = ownerl[j]
        if sidel[j] == 0:
            if open_cnt[k] == 0:
                covered += 1
                if covered == n_sets:
                    return posl[j]
            open_cnt[k] += 1
        else:
            open_cnt[k] -= 1
            if open_cnt[k] == 0:
                covered -= 1
    return None


def stab_two_events(
    pos: np.ndarray, side: np.ndarray, owner: np.ndarray, n_sets: int
) -> tuple[float, float] | None:
    """Two positions jointly hitting every family, or None.

    The first stabber can always slide right onto some interval's close
    endpoint, so candidates range over distinct close positions; for each,
    the families it misses must share a single position, found by one sweep.
    That is O(M·(M+n)) for M events and n families.
    """
    if n_sets == 0:
        return (0.0, 0.0)
    posl = pos.tolist()
    sidel = side.tolist()
    ownerl = owner.tolist()
    M = len(posl)
    open_cnt = [0] * n_sets
    hit = [False] * n_sets
    for ci in range(M):
        if sidel[ci] != 1:
            continue
        if ci > 0 and sidel[ci - 1] == 1 and posl[ci - 1] == posl[ci]:
            continue
        x = posl[ci]
        for k in range(n_sets):
            open_cnt[k] = 0
        for j in range(ci):
            if sidel[j] == 0:
                open_cnt[ownerl[j]] += 1
            else:
                open_cnt[ownerl[j]] -= 1
        beta = 0
        for k in range(n_sets):
            h = open_cnt[k] > 0
            hit[k] = h
            if not h:
                beta += 1
        if beta == 0:
            return (x, x)
        alpha = 0
        for j in range(M):
            if hit[ownerl[j]]:
                continue
            if sidel[j] == 0:
                alpha += 1
                if alpha == beta:
                    return (x, posl[j])
            else:
                alpha -= 1
    return None
