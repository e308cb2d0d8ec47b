"""Linear pieces of the expected-distance profiles, their sublevel parts,
and interval stabbing.

Every point's profile is linear along each bridge and each cycle piece,
the stretch between two breakpoints (a ring vertex or a ring vertex's
antipode).  :func:`pieces` lists those stretches as one table, and every
single-center question reads one :func:`sublevel` pass over piece rows.
A cycle's profiles are one matrix: every point's expected distance sampled
at the cycle's shared breakpoints.  A position on a ring is priced by one
interpolation of that matrix (:func:`profile_at`), both in the cycle
terminal and in :func:`ed_at_point`, which prices a solved center.  A
cycle's coverage intervals are one table ``(ptr, lo, hi)`` of three arrays
(:func:`coverage_set`): column ``k``'s intervals run from
``lo[ptr[k]:ptr[k + 1]]`` to ``hi[ptr[k]:ptr[k + 1]]``.  Every stabbing
question reads such a table as one cell matrix over the sorted distinct
interval endpoints: which family covers each endpoint and each open gap
between two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ucactus.graph import GraphPoint
from ucactus.uncertain import Instance, ring_shifts

# There is one kernel, in pure Python; the benchmark's env line still reads
# this flag (perfbench/run.py).
HAVE_COMPILED_KERNEL = False

# first positions tried per product in stab_two, which bounds its memory
_BLOCK = 128


def cycle_profiles(inst: Instance, cycle_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Every point's profile around one cycle, breakpoint-exact, as ``(xs,
    ys)``: column ``k`` of the (breakpoints × n) matrix ``ys`` samples point
    ``k`` at the arc coordinates ``xs``, which run from 0 to the perimeter.
    Built once per cycle and instance; both arrays are read-only."""
    return inst.memo(
        ("cycle_profiles", cycle_id), lambda: _cycle_profiles(inst, cycle_id)
    )


def _cycle_profiles(inst: Instance, cycle_id: int) -> tuple[np.ndarray, np.ndarray]:
    # each profile is the entry vertex's row plus its ring shift, which is
    # linear between ring vertices and their antipodes, so those are the
    # breakpoints
    dec, ed = inst.graph.cycles, inst.ed_at_vertices
    ring = dec.ring(cycle_id)
    coords, per = dec.ring_pos[ring], dec.perimeter[cycle_id]
    xs = np.unique(np.concatenate([coords, (coords + per / 2) % per, [0.0, per]]))
    shift = ring_shifts(inst, np.array([cycle_id]), xs[None])[0][0]
    ys = ed[dec.ring_vertex[inst.ring_gates[0][cycle_id]]] + shift
    # at its ring vertices a profile takes their own rows, so the two agree
    # bit for bit whatever order the rerooting summed them in
    ys[np.searchsorted(xs, coords)] = ed[dec.ring_vertex[ring]]
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


def profile_at(xs: np.ndarray, ys: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Rows of the profile matrix ``ys``, sampled at the sorted ``xs``, at
    the coordinates ``at``, one row each: a sample's own row at a
    breakpoint, the first row at or below ``xs[0]``, the last at or past
    ``xs[-1]``, and the line between the two rows around it elsewhere."""
    at = np.asarray(at, dtype=float)
    i = np.searchsorted(xs, at)
    j = np.minimum(i, len(xs) - 1)
    own = (i == 0) | (i == len(xs)) | (xs[j] == at)
    out = ys[j]
    mid = np.flatnonzero(~own)
    k = i[mid]
    frac = (at[mid] - xs[k - 1]) / (xs[k] - xs[k - 1])
    out[mid] = ys[k - 1] + frac[:, None] * (ys[k] - ys[k - 1])
    return out


def ed_at_point(inst: Instance, q: GraphPoint) -> np.ndarray:
    """Every point's expected distance to ``q`` on a vertex-constrained
    instance, read off :attr:`Instance.ed_at_vertices`: a vertex's row;
    inside a bridge, the line between its two end rows, since every
    location lies off the edge on one side; inside a ring edge, the
    cycle's profiles at ``q``'s arc coordinate, which are linear between
    breakpoints."""
    g, ed = inst.graph, inst.ed_at_vertices
    if q.edge < 0:
        return ed[0]
    u, v, length = g.edge(q.edge)
    if q.t <= 0.0:
        return ed[u]
    if q.t >= length:
        return ed[v]
    dec = g.cycles
    c = int(dec.edge_cycle[q.edge])
    if c < 0:
        return ed[u] + (q.t / length) * (ed[v] - ed[u])
    i = int(np.flatnonzero(dec.ring_edge == q.edge)[0])
    x = dec.ring_pos[i] + (q.t if dec.ring_forward[i] else length - q.t)
    return profile_at(*cycle_profiles(inst, c), [x])[0]


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


def sublevel(
    x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray, thr
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where linear profiles stay at or below ``thr``: for every cell, rows
    being pieces and columns points, from ``(x0, y0)`` to ``(x1, y1)``, the
    ends ``(a, b)`` of its sublevel part and whether it has one.  An end
    within ``thr`` is ``x0`` or ``x1`` itself, the other is cut where the
    profile meets ``thr``."""
    lo_in, hi_in = y0 <= thr, y1 <= thr
    with np.errstate(all="ignore"):  # cells off a crossing are discarded
        cut = x0 + (thr - y0) * (x1 - x0) / (y1 - y0)
    return np.where(lo_in, x0, cut), np.where(hi_in, x1, cut), lo_in | hi_in


@dataclass(frozen=True, slots=True)
class Pieces:
    """Every bridge, then every cycle's pieces in ring order, one row each:
    each point's unweighted values at the row's two ends (``y0``, ``y1``),
    its length, and where it lies: a bridge ``edge`` id, or a ``cycle`` id
    and the arc coordinate ``start`` where it begins (-1 and 0 elsewhere)."""

    y0: np.ndarray
    y1: np.ndarray
    length: np.ndarray
    edge: np.ndarray
    cycle: np.ndarray
    start: np.ndarray

    def point(self, inst: Instance, row: int, t: float) -> GraphPoint:
        """The position ``t`` along piece ``row``."""
        g = inst.graph
        if self.edge[row] >= 0:
            return GraphPoint(int(self.edge[row]), t)
        return g.cycles.point(g, int(self.cycle[row]), float(self.start[row] + t))


def pieces(inst: Instance) -> Pieces:
    """The piece table of a vertex-constrained instance."""
    g, edv, bid = inst.graph, inst.ed_at_vertices, inst.graph.bridges
    prof = [cycle_profiles(inst, c) for c in range(len(g.cycles))]
    sizes = [xs.size - 1 for xs, _ in prof]
    return Pieces(
        np.concatenate([edv[g.u[bid]], *(ys[:-1] for _, ys in prof)]),
        np.concatenate([edv[g.v[bid]], *(ys[1:] for _, ys in prof)]),
        np.concatenate([g.length[bid], *(np.diff(xs) for xs, _ in prof)]),
        np.concatenate([bid, np.full(sum(sizes), -1)]),
        np.repeat(np.arange(-1, len(prof)), [bid.size, *sizes]),
        np.concatenate([np.zeros(bid.size), *(xs[:-1] for xs, _ in prof)]),
    )


def coverage_set(
    xs: np.ndarray, ys: np.ndarray, weights: np.ndarray, lam: float, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column of ``ys``, the closed intervals of ``xs`` where the
    weighted profile stays within ``lam``, as the table ``(ptr, lo, hi)``:
    column ``k``'s intervals run from ``lo[ptr[k]:ptr[k + 1]]`` to
    ``hi[ptr[k]:ptr[k + 1]]``, in order.

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
    a, b, keep = sublevel(x0, x1, ys[:-1], ys[1:], thr)
    keep &= (x1 > x0) & ~free
    # a weightless column's first piece stands for the whole range
    a[0, free], b[0, free], keep[0, free] = 0.0, xs[-1], slack >= 0.0

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
    count = np.bincount(col[first], minlength=ys.shape[1])
    ptr = np.concatenate([[0], np.cumsum(count)])
    return ptr, a.T[col[first], piece[first]], ends.T[col[last], piece[last]]


def _cells(table: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell matrix of an interval table.

    Returns the sorted distinct endpoints, a mask of those that close some
    interval, and ``hit[cell, family]``: whether the family covers the cell.
    Cell ``2i`` is endpoint ``i`` and cell ``2i + 1`` the open gap after it.
    """
    ptr, lo, hi = table
    n = len(ptr) - 1
    fam = np.repeat(np.arange(n), np.diff(ptr))
    xs = np.unique(np.concatenate([lo, hi]))
    first, last = np.searchsorted(xs, lo), np.searchsorted(xs, hi)
    closes = np.zeros(xs.size, dtype=bool)
    closes[last] = True
    # +1 at an interval's first cell, -1 past its last, summed down the cells
    size = 2 * xs.size * n
    diff = np.bincount(2 * first * n + fam, minlength=size) - np.bincount(
        (2 * last + 1) * n + fam, minlength=size
    )
    hit = diff.reshape(2 * xs.size, n).cumsum(axis=0)[:-1] > 0
    return xs, closes, hit


def stab_one(table: tuple[np.ndarray, ...]) -> float | None:
    """The leftmost position inside every family of an interval table, or
    None."""
    if len(table[0]) == 1:
        return 0.0
    xs, _, hit = _cells(table)
    at = np.flatnonzero(hit[::2].all(axis=1))
    return float(xs[at[0]]) if at.size else None


def stab_two(
    table: tuple[np.ndarray, ...], other: tuple[np.ndarray, ...] | None = None
) -> tuple[float, float | None] | None:
    """Two positions jointly hitting every family, or None.

    ``table`` and ``other`` are interval tables ``(ptr, lo, hi)`` over the
    same families, as :func:`coverage_set` builds them.  Family ``k`` is
    hit when the first position lies in ``table``'s column ``k`` or the
    second in ``other``'s; ``other`` defaults to ``table``.  A first
    position can slide right onto the close endpoint of an interval holding
    it and a second left onto an endpoint, so the first ranges over the
    close endpoints of ``table`` in order, the second over the endpoints of
    ``other``.  The first close endpoint that works wins, with the leftmost
    second position, or with None in its place when the first position
    hits every family alone.
    """
    other = table if other is None else other
    n = len(table[0]) - 1
    assert len(other[0]) == n + 1
    xs, closes, hit = _cells(table)
    if not closes.any():  # the first position hits nothing
        y = stab_one(other)
        return None if y is None else (0.0, y)
    firsts = xs[closes]
    miss = ~hit[::2][closes]
    ys, _, hit2 = _cells(other)
    # column 0 is an idle second position, which hits nothing
    miss2 = np.vstack([np.ones((1, n), dtype=bool), ~hit2[::2]])
    for lo in range(0, len(firsts), _BLOCK):
        # a pair fails when some family is missed by both positions
        fail = miss[lo : lo + _BLOCK] @ miss2.T
        row, col = np.nonzero(~fail)
        if row.size:
            x = float(firsts[lo + row[0]])
            return (x, None) if col[0] == 0 else (x, float(ys[col[0] - 1]))
    return None


def intersect_families(table: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Common part of an interval table's families (each a disjoint union),
    as a one-column table of its maximal closed intervals in order."""
    xs, _, hit = _cells(table)
    # a run of common cells starts and ends on an endpoint: a family covering
    # a gap covers both endpoints beside it
    common = np.concatenate([[False], hit.all(axis=1), [False]]).astype(np.int8)
    edge = np.diff(common)
    starts = np.flatnonzero(edge == 1) // 2
    stops = (np.flatnonzero(edge == -1) - 1) // 2
    return np.array([0, starts.size]), xs[starts], xs[stops]
