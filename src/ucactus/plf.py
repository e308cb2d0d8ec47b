"""Expected-distance profiles around cycles, their coverage intervals, and
interval stabbing.

A cycle's profiles are one matrix: every point's expected distance sampled
at the cycle's shared breakpoints.  A probe turns that matrix into every
point's coverage intervals at a radius in one array pass, with no loop over
points or pieces.

The stabbing kernels sweep sorted endpoint events: ``side`` 0 opens an
interval, 1 closes it, ``owner`` is the family.  Events are sorted by
position with opens before closes at equal positions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ucactus.uncertain import Instance, ring_mixture

# There is one kernel, in pure Python; the benchmark's env line still reads
# this flag (perfbench/run.py).
HAVE_COMPILED_KERNEL = False

Interval = tuple[float, float]


def cycle_profiles(inst: Instance, cycle_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Every point's profile around one cycle, breakpoint-exact, as ``(xs,
    ys)``: column ``k`` of the (breakpoints × n) matrix ``ys`` samples point
    ``k`` at the arc coordinates ``xs``, which run from 0 to the perimeter.
    Built once per cycle and instance; both arrays are read-only."""
    return inst.memo(
        ("cycle_profiles", cycle_id), lambda: _cycle_profiles(inst, cycle_id)
    )


def _cycle_profiles(inst: Instance, cycle_id: int) -> tuple[np.ndarray, np.ndarray]:
    # each profile is the ring mixture of ed_at_vertices, which is linear
    # between ring vertices and their antipodes, so those are the breakpoints
    cyc = inst.graph.cycles.cycles[cycle_id]
    coords = np.array(cyc.pos)
    per = cyc.perimeter
    xs = np.unique(np.concatenate([coords, (coords + per / 2) % per, [0.0, per]]))
    ys = ring_mixture(inst, cycle_id, xs, inst.ed_at_vertices)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


def crossings(y0: np.ndarray, y1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict crossings of the segments running from ``y0[..., i]`` to
    ``y1[..., i]``, over every pair ``i < j`` of the last axis.

    Returns each crossing's fraction of the way along and the common value
    there, as flat arrays in row-major order of (leading index, i, j).
    """
    i, j = np.triu_indices(y0.shape[-1], 1)
    d0 = y0[..., i] - y0[..., j]
    d1 = y1[..., i] - y1[..., j]
    hit = d0 * d1 < 0
    d0, d1 = d0[hit], d1[hit]
    fr = d0 / (d0 - d1)
    a = y0[..., i][hit]
    return fr, a + (y1[..., i][hit] - a) * fr


def coverage_set(
    xs: np.ndarray, ys: np.ndarray, weights: np.ndarray, lam: float, eps: float
) -> list[list[Interval]]:
    """Per column of ``ys``, the closed intervals of ``xs`` where the
    weighted profile stays within ``lam``.

    ``ys`` holds one profile per column sampled at ``xs``, ``weights`` one
    weight per column.  Each column's intervals are its pieces' sublevel
    parts merged in order.  On a cycle the result is reported in
    [0, perimeter] without joining across the wrap point; a region through
    the wrap appears as a leading and a trailing interval.
    """
    slack = lam + eps * max(1.0, abs(lam))
    free = weights == 0.0  # weightless points cost nothing anywhere
    thr = slack / np.where(free, 1.0, weights)
    x0, x1 = xs[:-1, None], xs[1:, None]
    y0, y1 = ys[:-1], ys[1:]
    lo_in, hi_in = y0 <= thr, y1 <= thr
    up = lo_in & (thr < y1)  # leaves the sublevel set inside the piece
    down = hi_in & (thr < y0)  # enters it inside the piece
    both = lo_in & hi_in
    with np.errstate(all="ignore"):  # cells off a crossing are discarded
        cut = x0 + (thr - y0) * (x1 - x0) / (y1 - y0)
    a = np.where(both | up, x0, cut)
    b = np.where(both | down, x1, cut)
    keep = (both | up | down) & (x1 > x0) & ~free

    # A piece joins the running interval when it starts at or before the
    # running interval's end.  Cuts land at most an ulp past their piece, and
    # a piece that short has no cut past its own end, so the column's running
    # maximum of the ends is always the running interval's end.
    ends = np.maximum.accumulate(np.where(keep, b, -np.inf), axis=0)
    before = np.vstack([np.full((1, ys.shape[1]), -np.inf), ends[:-1]])
    opens = keep & (a > before)
    col, piece = np.nonzero(keep.T)  # column by column, pieces in order
    first = np.flatnonzero(opens.T[col, piece])
    last = np.append(first[1:], col.size) - 1 if first.size else first
    lo = a.T[col[first], piece[first]]
    hi = ends.T[col[last], piece[last]]
    pairs = list(zip(lo.tolist(), hi.tolist()))
    stops = np.cumsum(np.bincount(col[first], minlength=ys.shape[1])).tolist()
    out = [pairs[i:j] for i, j in zip([0] + stops[:-1], stops)]
    whole = [(0.0, float(xs[-1]))] if slack >= 0.0 else []
    for k in np.flatnonzero(free).tolist():
        out[k] = list(whole)
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
