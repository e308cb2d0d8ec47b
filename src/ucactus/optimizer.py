"""Exact optimisation: search the closed-form values the optimum can take
with the decision procedure, starting from the lower bound.

The optimum is a weighted expected distance realised somewhere specific: at
a point's median value, at an end of a piece of :func:`ucactus.plf.pieces`
(a vertex or a cycle breakpoint), or at a crossing of two point profiles
on one piece.  Every point costs at least its weighted median value, so
the largest of these, L, bounds the optimum from below and often attains
it.  Otherwise the search bisects the sorted base values (medians and
piece ends) above L for a bracket (down, up] with ``down`` infeasible and
``up`` feasible, and then bisects the crossings inside the bracket.
Feasibility is monotone in the radius, so no region has to be located
first, and the decision at the optimum supplies the witness centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ucactus.decision import Verdict, decide
from ucactus.errors import InternalInvariantError
from ucactus.graph import GraphPoint
from ucactus.plf import crossings, ed_at_point, pieces
from ucactus.reduction import reduce_instance
from ucactus.uncertain import Instance, median_values


@dataclass(frozen=True, slots=True)
class FindResult:
    """The optimum ``value``, or the ``bracket`` (down, up] that holds it;
    ``verdict`` is the decision at ``value`` or at ``up``."""

    verdict: Verdict
    value: float | None = None
    bracket: tuple[float, float] | None = None


def find_critical_pair(inst: Instance) -> FindResult:
    """The optimum when the lower bound attains it, else the two
    consecutive base values around it."""
    low = float(np.max(inst.weights * median_values(inst)))
    verdict = decide(inst, low)
    if verdict.feasible:
        return FindResult(verdict, value=low)
    vals = _base_values(inst)
    vals = np.unique(vals[vals > low])
    i, verdict = _smallest_feasible(inst, vals)
    down = float(vals[i - 1]) if i else low
    return FindResult(verdict, bracket=(down, float(vals[i])))


# ---------------------------------------------------------------------------
# candidate values


def _base_values(inst: Instance) -> np.ndarray:
    """Values the optimum can take regardless of where the centers sit:
    median values and the weighted values at every piece end, which are
    the vertex and cycle breakpoint values."""
    y0, y1 = _segments(inst)
    medians = inst.weights * median_values(inst)
    return np.concatenate([[0.0], medians, y0.ravel(), y1.ravel()])


def _segments(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every point's weighted profile along every piece of the
    piece table, one row per piece; each profile is linear in between."""
    p = pieces(inst)
    return p.y0 * inst.weights, p.y1 * inst.weights


def candidate_values(inst: Instance, down: float, up: float) -> np.ndarray:
    """Every crossing of two point profiles on one bridge edge or cycle
    piece strictly inside (down, up), sorted and distinct, followed by
    ``up``."""
    y0, y1 = _segments(inst)
    # a crossing lies in both segments' value ranges, so a segment whose
    # range misses (down, up] crosses nothing there
    keep = (np.maximum(y0, y1) > down) & (np.minimum(y0, y1) <= up)
    rows = np.flatnonzero(keep.sum(axis=1) >= 2)
    keep = keep[rows]
    # kept segments first, in their own order so each pair is computed as
    # in the unpruned rows; the padding is NaN, which crosses nothing
    width = keep.sum(axis=1).max(initial=0)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    pad = ~np.take_along_axis(keep, order, axis=1)
    a0 = np.take_along_axis(y0[rows], order, axis=1)
    a1 = np.take_along_axis(y1[rows], order, axis=1)
    a0[pad] = a1[pad] = np.nan
    vals = crossings(a0, a1)[1]
    return np.append(np.unique(vals[(vals > down) & (vals < up)]), up)


# ---------------------------------------------------------------------------
# full solve


@dataclass(slots=True)
class Assignment:
    label: str
    center: int  # 0 or 1
    cost: float  # weighted expected distance to the assigned center


@dataclass(slots=True)
class Solution:
    value: float
    centers: tuple[GraphPoint, GraphPoint]
    assignments: list[Assignment]


def solve(inst: Instance) -> Solution:
    """Exact minimum covering radius with witnesses and assignments."""
    red = reduce_instance(inst)
    work = red.reduced

    res = find_critical_pair(work)
    lam_star, v = res.value, res.verdict
    if res.bracket is not None:
        vals = candidate_values(work, *res.bracket)
        i, v = _smallest_feasible(work, vals, v)
        lam_star = float(vals[i])
    if v.centers is None:
        raise InternalInvariantError("optimum value has no witness centers")

    centers = (red.lift_point(v.centers[0]), red.lift_point(v.centers[1]))
    # the reduction preserves expected distances and the order of the
    # points, so price on the reduced network's vertex rows at the points
    # the centers were lifted from
    costs = np.column_stack(
        [work.weights * ed_at_point(work, red.lift_source(c)) for c in v.centers]
    )
    assignments = []
    for label, pair in zip(inst.labels, costs.tolist()):
        side = int(pair[1] < pair[0])
        assignments.append(Assignment(label, side, pair[side]))
    return Solution(lam_star, centers, assignments)


def _smallest_feasible(
    inst: Instance, vals: np.ndarray, top: Verdict | None = None
) -> tuple[int, Verdict]:
    """Index of the smallest value of the sorted ``vals`` that decides
    feasible, and its verdict.  ``top`` is the verdict of the last value
    when it was already decided; otherwise the last value, the largest
    candidate, is decided only if the search ends there."""
    lo, hi = 0, len(vals) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        v = decide(inst, float(vals[mid]))
        if v.feasible:
            hi, top = mid, v
        else:
            lo = mid + 1
    if top is None and hi >= 0:
        top = decide(inst, float(vals[hi]))
    if top is None or not top.feasible:
        raise InternalInvariantError("largest candidate value infeasible")
    return hi, top
