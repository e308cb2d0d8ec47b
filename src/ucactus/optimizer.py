"""Exact optimisation: locate the critical regions, then search candidate
values with the decision procedure.

The optimum is a weighted expected distance realised somewhere specific: at a
vertex, at a crossing of two point profiles on one edge or cycle, at a
profile breakpoint, or at a point's median value.  Locating which vertex,
edge, or cycle hosts each optimal center keeps the crossing enumeration
local; the cheap global families are always included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ucactus.decision import decide
from ucactus.errors import InternalInvariantError
from ucactus.graph import GraphPoint, descend
from ucactus.plf import crossings, cycle_profiles
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Instance,
    component_sums,
    expected_distances,
    group_eccentricity,
    median_values,
)

SOLVED = "solved"
DESCEND = "descend"
DESCEND_TWO = "descend_two"
CRITICAL_HERE = "critical_here"

Region = tuple[str, int]  # ("vertex", v) | ("edge", e) | ("cycle", cycle id)


@dataclass(frozen=True, slots=True)
class LocateOutcome:
    kind: str
    value: float = 0.0
    primary: int | None = None
    secondary: int | None = None
    via_primary: int | None = None
    via_secondary: int | None = None


def _solved(value: float) -> LocateOutcome:
    return LocateOutcome(SOLVED, value=value)


def locate_critical_articulation(inst: Instance, node: int) -> LocateOutcome:
    """Narrow down where the optimal centers interact with this vertex."""
    tree = inst.graph.skeleton
    v = tree.nodes[node].ref
    tol = inst.eps
    cs = component_sums(inst, node)
    ys = inst.weights * inst.ed_at_vertices[v]
    mu = inst.weights * median_values(inst)
    k1 = int(np.argmax(ys))
    y1 = float(ys[k1])

    if cs.sums.size:
        med_here = cs.sums.max(axis=0) <= 0.5 + tol
    else:
        med_here = np.ones(inst.n, dtype=bool)
    if inst.n == 1:
        return _solved(y1 if med_here[0] else float(mu[0]))

    order = np.argsort(-ys)
    y2 = float(ys[order[1]])
    if np.any(med_here & (ys >= y1 - tol * max(1.0, abs(y1)))):
        # the worst point cannot be served better anywhere
        return _solved(y1)
    if np.any(med_here & (ys >= y2 - tol * max(1.0, abs(y2)))):
        # second-worst is stuck at this vertex; the worst retreats to its
        # own median under a dedicated center
        return _solved(max(float(mu[k1]), y2))

    peps = inst.eps
    lams = []
    for i, comp in enumerate(cs.comps):
        grp = [k for k in range(inst.n) if cs.sums[i, k] > 0.5 + peps]
        val, worst = group_eccentricity(inst, grp, v)
        lams.append((val if worst is not None else 0.0, comp))
    lams.sort(key=lambda t: -t[0])
    s = len(lams)
    if s == 0:
        raise InternalInvariantError("no directions at an articulation probe")
    big1, comp1 = lams[0]
    big2 = lams[1][0] if s >= 2 else 0.0

    if s >= 3 and lams[2][0] >= big2 - tol * max(1.0, big2):
        # three directions tied from below pin the optimum between them
        if big1 <= big2 + tol * max(1.0, big2):
            return _solved(big1)
        if decide(inst, big2).feasible:
            return _solved(big2)
        return LocateOutcome(DESCEND, primary=comp1.first, via_primary=node)

    if decide(inst, big2).feasible:
        return LocateOutcome(
            DESCEND_TWO,
            primary=comp1.first,
            secondary=lams[1][1].first if s >= 2 else node,
            via_primary=node,
            via_secondary=node,
        )
    return LocateOutcome(DESCEND, primary=comp1.first, via_primary=node)


def locate_critical_cycle(inst: Instance, node: int) -> LocateOutcome:
    """Cycle version: directions hang off hinges, measured at their own
    hinge; a single dominant direction is resolved by probing its hinge."""
    tree = inst.graph.skeleton
    tol = inst.eps
    cs = component_sums(inst, node)
    peps = inst.eps
    lams = []
    for i, comp in enumerate(cs.comps):
        grp = [k for k in range(inst.n) if cs.sums[i, k] > 0.5 + peps]
        val, worst = group_eccentricity(inst, grp, tree.nodes[comp.gate].ref)
        lams.append((val if worst is not None else 0.0, comp))
    lams.sort(key=lambda t: -t[0])
    s = len(lams)

    if s == 0:
        return LocateOutcome(CRITICAL_HERE, primary=node)
    if (
        s >= 2
        and lams[0][0] <= lams[1][0] + tol * max(1.0, lams[0][0])
        and lams[0][1].gate != lams[1][1].gate
    ):
        # two equal pulls through different hinges keep both centers in play
        # around this cycle
        return LocateOutcome(CRITICAL_HERE, primary=node)

    gate = lams[0][1].gate
    inner = locate_critical_articulation(inst, gate)
    if inner.kind == SOLVED:
        return inner
    if inner.kind == DESCEND:
        if inner.primary == node:
            return LocateOutcome(CRITICAL_HERE, primary=node)
        return LocateOutcome(DESCEND, primary=inner.primary, via_primary=gate)
    assert inner.kind == DESCEND_TWO
    if inner.primary == node or inner.secondary == node:
        # one critical interacts with this cycle, the other lies past the
        # hinge; the regions are unordered, so both shapes collapse to one
        other = inner.secondary if inner.primary == node else inner.primary
        return LocateOutcome(
            CRITICAL_HERE, primary=node, secondary=other, via_secondary=gate
        )
    return LocateOutcome(
        DESCEND_TWO,
        primary=inner.primary,
        secondary=inner.secondary,
        via_primary=gate,
        via_secondary=gate,
    )


@dataclass(frozen=True, slots=True)
class FindResult:
    value: float | None = None
    regions: tuple[Region, Region] | None = None


def _node_region(tree, node: int) -> Region:
    n = tree.nodes[node]
    return ("cycle", n.ref) if n.kind == "cycle" else ("vertex", n.ref)


@dataclass(frozen=True, slots=True)
class _SearchEnd:
    region: Region | None = None
    value: float | None = None
    flag: tuple[int, int] | None = None  # (flag node, first node beyond it)
    branch: tuple[int, int] | None = None  # explicit branch for the second search


def find_critical_pair(inst: Instance) -> FindResult:
    """Regions hosting the optimal centers, or the optimum itself when a
    probe already determines it."""
    tree = inst.graph.skeleton
    all_nodes = frozenset(range(len(tree)))

    def search(active: frozenset[int], avoid: int | None) -> _SearchEnd:
        """Descend within ``active``; directions whose subtree contains
        ``avoid`` belong to the already-located partner center."""
        flag: tuple[int, int] | None = None

        def follow(
            via: int, target: int, active: frozenset[int]
        ) -> frozenset[int] | None:
            comp = tree.component_toward(via, target)
            if avoid is not None and avoid in comp:
                return None
            part = comp & active
            return part if part else None

        def probe(u: int, active: frozenset[int]) -> frozenset[int] | _SearchEnd:
            nonlocal flag
            if tree.nodes[u].kind == "cycle":
                out = locate_critical_cycle(inst, u)
            else:
                out = locate_critical_articulation(inst, u)
            if out.kind == SOLVED:
                return _SearchEnd(value=out.value)
            if out.kind == CRITICAL_HERE:
                branch = None
                if out.secondary is not None:
                    branch = (out.via_secondary, out.secondary)
                return _SearchEnd(
                    region=_node_region(tree, out.primary), flag=flag, branch=branch
                )
            if out.kind == DESCEND:
                part = follow(out.via_primary, out.primary, active)
                if part is None:
                    return _SearchEnd(region=_node_region(tree, u), flag=flag)
                flag = None
                return part | {out.via_primary}
            assert out.kind == DESCEND_TWO
            part = follow(out.via_primary, out.primary, active)
            flag = (out.via_primary, out.primary)
            if part is None and out.secondary is not None:
                part = follow(out.via_secondary, out.secondary, active)
                flag = (out.via_secondary, out.secondary)
            if part is None:
                return _SearchEnd(region=_node_region(tree, u), flag=flag)
            return part | {flag[0]}

        end, _ = descend(
            tree,
            active,
            probe,
            lambda node: _SearchEnd(region=_node_region(tree, node), flag=flag),
            lambda edge: _SearchEnd(region=("edge", edge), flag=flag),
        )
        return end

    first = search(all_nodes, None)
    if first.value is not None:
        return FindResult(value=first.value)
    assert first.region is not None
    if first.branch is not None:
        gate, beyond = first.branch
        active2 = tree.component_toward(gate, beyond) | {gate}
        kind, ref = first.region
        avoid = tree.node_of_cycle[ref] if kind == "cycle" else tree.node_of_vertex[ref]
        if avoid in active2:
            avoid = None
    elif first.flag is not None:
        node, beyond = first.flag
        active2 = (all_nodes - tree.component_toward(node, beyond)) | {node}
        avoid = beyond
    else:
        return FindResult(regions=(first.region, first.region))
    second = search(frozenset(active2), avoid)
    if second.value is not None:
        return FindResult(value=second.value)
    assert second.region is not None
    return FindResult(regions=(first.region, second.region))


# ---------------------------------------------------------------------------
# candidate values


def _merge_close(vals: np.ndarray) -> np.ndarray:
    vals = np.unique(vals[vals >= 0.0])
    if vals.size <= 1:
        return vals
    keep = [0]
    for i in range(1, vals.size):
        if vals[i] - vals[keep[-1]] > 1e-12 * max(1.0, vals[i]):
            keep.append(i)
    return vals[keep]


def _base_values(inst: Instance) -> list[float]:
    """Values the optimum can take regardless of where the centers sit:
    median values, vertex values, and cycle breakpoint values."""
    vals: list[float] = [0.0]
    vals.extend((inst.weights * median_values(inst)).tolist())
    vals.extend((inst.ed_at_vertices * inst.weights).ravel().tolist())
    for cyc in inst.graph.cycles.cycles:
        ys = cycle_profiles(inst, cyc.id)[1] * inst.weights
        vals.extend(ys.ravel().tolist())
    return vals


def _region_values(inst: Instance, region: Region) -> list[float]:
    """Crossing values attainable inside one region."""
    kind, ref = region
    if kind == "edge":
        e = inst.graph.edges[ref]
        y0 = inst.weights * inst.ed_at_vertices[e.u]
        y1 = inst.weights * inst.ed_at_vertices[e.v]
    elif kind == "cycle":
        ys = cycle_profiles(inst, ref)[1] * inst.weights
        y0, y1 = ys[:-1], ys[1:]  # one segment per piece between breakpoints
    else:
        return []
    return crossings(y0, y1)[1].tolist()


def candidate_values(inst: Instance, c1: Region, c2: Region) -> np.ndarray:
    """Every value the optimum can take given the critical regions."""
    vals = _base_values(inst)
    for region in {c1, c2}:
        vals.extend(_region_values(inst, region))
    return _merge_close(np.array(vals))


def _candidate_values_wide(inst: Instance) -> np.ndarray:
    """Crossing values from every edge and cycle; the safety net when the
    localisation was fooled."""
    vals = _base_values(inst)
    g = inst.graph
    for e in g.edges:
        if g.cycles.edge_cycle[e.id] is None:
            vals.extend(_region_values(inst, ("edge", e.id)))
    for cyc in g.cycles.cycles:
        vals.extend(_region_values(inst, ("cycle", cyc.id)))
    return _merge_close(np.array(vals))


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
    if res.value is not None:
        lam_star = res.value
    else:
        vals = candidate_values(work, *res.regions)
        lam_star = _smallest_feasible(work, vals)
        # a feasible value just below the result means the located regions
        # missed the optimum; redo the search over every edge and cycle
        delta = 10.0 * work.eps * max(1.0, lam_star)
        if lam_star > 0.0 and decide(work, lam_star - delta).feasible:
            lam_star = _smallest_feasible(work, _candidate_values_wide(work))

    v = decide(work, lam_star)
    if not v.feasible or v.centers is None:
        raise InternalInvariantError("optimum value is not feasible")
    centers = (red.lift_point(v.centers[0]), red.lift_point(v.centers[1]))
    # the reduction preserves expected distances and the order of the
    # points, so price on the reduced network at the points the centers
    # were lifted from
    costs = np.column_stack(
        [work.weights * expected_distances(work, red.lift_source(c)) for c in v.centers]
    )
    assignments = []
    for p, pair in zip(inst.points, costs.tolist()):
        side = int(pair[1] < pair[0])
        assignments.append(Assignment(p.label, side, pair[side]))
    return Solution(float(lam_star), centers, assignments)


def _smallest_feasible(inst: Instance, vals: np.ndarray) -> float:
    lo, hi = 0, len(vals) - 1
    if not decide(inst, float(vals[hi])).feasible:
        raise InternalInvariantError("largest candidate value infeasible")
    while lo < hi:
        mid = (lo + hi) // 2
        if decide(inst, float(vals[mid])).feasible:
            hi = mid
        else:
            lo = mid + 1
    return float(vals[lo])
