"""Feasibility decision: can two centers serve every point within ``lam``?

The search probes skeleton-tree nodes.  A probe classifies each point by
where the majority of its mass sits and measures group eccentricities; the
outcome either settles feasibility, pins a center, or names the directions a
center must move.  A boundary flag marks the node separating the region still
being searched from territory delegated to the other center; terminals then
verify candidate configurations globally, so a "feasible" verdict is always
backed by an explicit pair of centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ucactus.errors import InternalInvariantError, ValidationError
from ucactus.graph import GraphPoint, SkeletonTree, descend
from ucactus.plf import (
    coverage_set,
    crossings,
    cycle_profiles,
    intersect_families,
    stab_one,
    stab_two,
)
from ucactus.uncertain import (
    ComponentSums,
    Instance,
    component_mass,
    component_sums,
    group_eccentricity,
)

INFEASIBLE = "infeasible"
FEASIBLE_SINGLE = "feasible_single"
CENTER_AT = "center_at"
DESCEND = "descend"
DESCEND_TWO = "descend_two"
CYCLE_AND_BEYOND = "cycle_and_beyond"


@dataclass(frozen=True, slots=True)
class ProbeOutcome:
    kind: str
    primary: int | None = None
    secondary: int | None = None
    via_primary: int | None = None
    via_secondary: int | None = None


@dataclass(frozen=True, slots=True)
class Verdict:
    feasible: bool
    centers: tuple[GraphPoint, GraphPoint] | None = None
    probes: int = 0

    def with_probes(self, probes: int) -> Verdict:
        return Verdict(self.feasible, self.centers, probes)


def _tol(inst: Instance, lam: float) -> float:
    return inst.eps * max(1.0, abs(lam))


@dataclass(slots=True)
class _Buckets:
    """Majority-mass classification of points around a removed structure."""

    exclusive: list[list[int]]  # per component: majority inside it
    local: list[int]  # majority nowhere: all medians on the structure
    split: list[int]  # exactly half the mass in each of two components


def _classify(inst: Instance, cs: ComponentSums) -> _Buckets:
    peps = inst.eps
    s = len(cs.comps)
    exclusive: list[list[int]] = [[] for _ in range(s)]
    local: list[int] = []
    split: list[int] = []
    for k in range(inst.n):
        if inst.weights[k] <= 0.0:
            continue  # served everywhere for free; pins and loads nothing
        heavy = [i for i in range(s) if cs.sums[i, k] >= 0.5 - peps]
        if not heavy:
            local.append(k)
        elif len(heavy) == 1:
            exclusive[heavy[0]].append(k)
        else:
            # two half-mass components; more would need mass above 1
            split.append(k)
    return _Buckets(exclusive, local, split)


def probe_articulation(inst: Instance, node: int, lam: float) -> ProbeOutcome:
    """Classify feasibility directions at a vertex-holding node."""
    tree = inst.graph.skeleton
    assert tree.nodes[node].kind != "cycle"
    v = tree.nodes[node].ref
    tol = _tol(inst, lam)
    cs = component_sums(inst, node)
    b = _classify(inst, cs)

    lam_local, local_worst = group_eccentricity(inst, b.local, v)
    lam_split, split_worst = group_eccentricity(inst, b.split, v)
    if local_worst is not None and lam_local > lam + tol:
        return ProbeOutcome(INFEASIBLE)
    if split_worst is not None and lam_split > lam + tol:
        return ProbeOutcome(INFEASIBLE)

    vals = [group_eccentricity(inst, grp, v) for grp in b.exclusive]
    exceed = [i for i, (val, worst) in enumerate(vals) if worst is not None and val > lam + tol]
    if len(exceed) >= 3:
        return ProbeOutcome(INFEASIBLE)
    pinned = local_worst is not None and lam_local >= lam - tol
    pinned = pinned or any(
        worst is not None and lam - tol <= val <= lam + tol for val, worst in vals
    )
    if pinned:
        return ProbeOutcome(CENTER_AT, node)
    if len(exceed) == 2:
        i, j = exceed
        return ProbeOutcome(
            DESCEND_TWO,
            cs.comps[i].first,
            cs.comps[j].first,
            node,
            node,
        )
    if len(exceed) == 1:
        return ProbeOutcome(DESCEND, cs.comps[exceed[0]].first, via_primary=node)
    return ProbeOutcome(FEASIBLE_SINGLE, node)


def probe_cycle(inst: Instance, node: int, lam: float) -> ProbeOutcome:
    """Classify feasibility directions at a cycle node.

    Components hang off the cycle's hinges; each exclusive group is measured
    at its own hinge.  With one overloaded direction the hinge itself is
    probed and the outcome translated back to the cycle's frame.
    """
    tree = inst.graph.skeleton
    assert tree.nodes[node].kind == "cycle"
    tol = _tol(inst, lam)
    cs = component_sums(inst, node)
    b = _classify(inst, cs)

    vals = []
    for comp, grp in zip(cs.comps, b.exclusive):
        hinge_vertex = tree.nodes[comp.gate].ref
        vals.append(group_eccentricity(inst, grp, hinge_vertex))
    # a tight point pins its hinge only when more than half its mass lies
    # beyond it: its expected distance then rises moving into the ring, while
    # with half it can stay flat along an arc that holds the center instead
    for i, ((val, worst), comp) in enumerate(zip(vals, cs.comps)):
        if (
            worst is not None
            and lam - tol <= val <= lam + tol
            and cs.sums[i, worst] > 0.5 + inst.eps
        ):
            return ProbeOutcome(CENTER_AT, comp.gate)
    exceed = [i for i, (val, worst) in enumerate(vals) if worst is not None and val > lam + tol]
    if len(exceed) > 2:
        return ProbeOutcome(INFEASIBLE)
    if len(exceed) == 2:
        i, j = exceed
        return ProbeOutcome(
            DESCEND_TWO,
            cs.comps[i].first,
            cs.comps[j].first,
            cs.comps[i].gate,
            cs.comps[j].gate,
        )
    if len(exceed) == 0:
        return ProbeOutcome(DESCEND, node, via_primary=node)

    gate = cs.comps[exceed[0]].gate
    inner = probe_articulation(inst, gate, lam)
    if inner.kind in (INFEASIBLE, CENTER_AT, FEASIBLE_SINGLE):
        return inner
    if inner.kind == DESCEND:
        if inner.primary == node:
            return ProbeOutcome(DESCEND, node, via_primary=node)
        return ProbeOutcome(DESCEND, inner.primary, via_primary=gate)
    assert inner.kind == DESCEND_TWO
    if inner.primary == node:
        return ProbeOutcome(CYCLE_AND_BEYOND, node, inner.secondary, gate, gate)
    if inner.secondary == node:
        return ProbeOutcome(CYCLE_AND_BEYOND, node, inner.primary, gate, gate)
    return inner  # two overloaded stretches both beyond the same hinge


# ---------------------------------------------------------------------------
# global single-center feasibility for a subset of points


def coverage_witness(
    inst: Instance, subset: np.ndarray | list[int], lam: float
) -> GraphPoint | None:
    """A position serving every point of ``subset`` within ``lam``, or None.

    Checked edge by edge; expected distance is affine along out-of-cycle
    edges and piecewise linear around cycles, so interval intersection is
    exact.
    """
    idx = np.asarray(list(subset), dtype=int)
    g = inst.graph
    if idx.size == 0:
        return g.vertex_point(0)
    tol = _tol(inst, lam)
    w = inst.weights[idx]
    thr = np.where(
        w > 0.0,
        (lam + tol) / np.where(w > 0.0, w, 1.0),
        np.inf if lam + tol >= 0.0 else -np.inf,
    )
    edv = inst.ed_at_vertices

    if not g.edges:
        return g.vertex_point(0) if np.all(edv[0, idx] <= thr) else None

    bu, bv, bl, bid = g.bridge_table
    if bid.size:
        y0 = edv[np.ix_(bu, idx)]
        slope = (edv[np.ix_(bv, idx)] - y0) / bl[:, None]
        span = thr[None, :] - y0
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = span / slope
        lo = np.maximum(np.where(slope < 0.0, cross, 0.0).max(axis=1), 0.0)
        hi = np.minimum(np.where(slope > 0.0, cross, np.inf), bl[:, None]).min(
            axis=1
        )
        ok = (lo <= hi) & ~((slope == 0.0) & (span < 0.0)).any(axis=1)
        hit = np.flatnonzero(ok)
        if hit.size:
            e = int(hit[0])
            return GraphPoint(int(bid[e]), float(lo[e]))

    for cyc in g.cycles.cycles:
        # a point whose minimum over the whole ring misses the threshold
        # has an empty coverage set there, so the intersection is empty too
        floor = _cycle_floor(inst, cyc.id)
        if np.any(inst.weights[idx] * floor[idx] > lam + tol):
            continue
        xs, ys = cycle_profiles(inst, cyc.id)
        fams = coverage_set(xs, ys[:, idx], w, lam, inst.eps)
        common = intersect_families(fams)
        if common:
            return cyc.coord_point(g, common[0][0])
    return None


def _cycle_floor(inst: Instance, cycle_id: int) -> np.ndarray:
    """Per-point minimum of the unweighted profile around one cycle."""
    return inst.memo(
        ("cycle_floor", cycle_id),
        lambda: cycle_profiles(inst, cycle_id)[1].min(axis=0),
    )


# ---------------------------------------------------------------------------
# terminals


def _finish_at_vertex(inst: Instance, v: int, lam: float) -> Verdict:
    tol = _tol(inst, lam)
    served = inst.weights * inst.ed_at_vertices[v] <= lam + tol
    rest = np.flatnonzero(~served)
    here = inst.graph.vertex_point(v)
    if rest.size == 0:
        return Verdict(True, (here, here))
    other = coverage_witness(inst, rest, lam)
    if other is None:
        return Verdict(False)
    return Verdict(True, (here, other))


def decide_on_edge(inst: Instance, edge: int, lam: float) -> Verdict:
    """Terminal for a center pinned to one out-of-cycle edge.

    The side holding a point's majority mass pulls its center; pushing the
    on-edge center as far as the majority group allows maximises what it
    covers, and the rest must fit a single center anywhere.
    """
    g = inst.graph
    e = g.edges[edge]
    if g.cycles.edge_cycle[edge] is not None:
        raise InternalInvariantError("edge terminal on a cycle edge")
    tol = _tol(inst, lam)
    peps = inst.eps
    tree = g.skeleton
    # mass on the u side once the edge is cut
    side_u = component_mass(inst, tree.node_of_vertex[e.v], tree.node_of_vertex[e.u])

    y0 = inst.weights * inst.ed_at_vertices[e.u]
    y1 = inst.weights * inst.ed_at_vertices[e.v]
    slope = (y1 - y0) / e.length

    for from_u in (True, False):
        heavy = side_u >= 0.5 - peps if from_u else 1.0 - side_u >= 0.5 - peps
        t = e.length if from_u else 0.0
        for k in np.flatnonzero(heavy):
            # the on-edge center stays within this majority point's reach;
            # points unreachable anywhere on the edge fall to the residual
            if from_u:
                if slope[k] > 0 and y0[k] <= lam + tol:
                    t = min(t, (lam + tol - y0[k]) / slope[k])
            else:
                if slope[k] < 0 and y1[k] <= lam + tol:
                    t = max(t, e.length + (lam + tol - y1[k]) / slope[k])
        t = float(np.clip(t, 0.0, e.length))
        at_t = y0 + slope * t
        # double slack: t sits on a tolerance boundary, so re-evaluation
        # may land an ulp above it
        rest = np.flatnonzero(at_t > lam + 2.0 * tol)
        if rest.size == 0:
            here = GraphPoint(edge, t)
            return Verdict(True, (here, here))
        other = coverage_witness(inst, rest, lam)
        if other is not None:
            return Verdict(True, (GraphPoint(edge, t), other))
    return Verdict(False)


def _cycle_arcs(
    inst: Instance, cycle_id: int, lam: float
) -> list[list[tuple[float, float]]]:
    xs, ys = cycle_profiles(inst, cycle_id)
    return coverage_set(xs, ys, inst.weights, lam, inst.eps)


def decide_on_cycle(inst: Instance, node: int, lam: float) -> Verdict:
    """Terminal for a cycle holding a center; tries both centers on the
    cycle first, then one on-cycle center with the other anywhere."""
    tree = inst.graph.skeleton
    cyc = inst.graph.cycles.cycles[tree.nodes[node].ref]
    arcs = _cycle_arcs(inst, cyc.id, lam)
    if all(arcs):
        hit = stab_two(arcs)
        if hit is not None:
            return Verdict(
                True,
                (
                    cyc.coord_point(inst.graph, hit[0]),
                    cyc.coord_point(inst.graph, hit[1]),
                ),
            )
    xs, ys = cycle_profiles(inst, cyc.id)
    tol = _tol(inst, lam)
    cands = sorted({0.0} | {end for fam in arcs for ab in fam for end in ab})
    seen_masks: set[frozenset[int]] = set()
    for x in cands:
        yx = _interp_rows(xs, ys, x)
        # double slack: x is an arc endpoint, so its own cost sits on the
        # tolerance boundary
        rest = np.flatnonzero(inst.weights * yx > lam + 2.0 * tol)
        if rest.size == 0:
            here = cyc.coord_point(inst.graph, x)
            return Verdict(True, (here, here))
        mask = frozenset(rest.tolist())
        if mask in seen_masks:
            continue
        seen_masks.add(mask)
        other = coverage_witness(inst, rest, lam)
        if other is not None:
            return Verdict(True, (cyc.coord_point(inst.graph, x), other))
    return Verdict(False)


def _interp_rows(xs: np.ndarray, ys: np.ndarray, x: float) -> np.ndarray:
    i = int(np.searchsorted(xs, x))
    if i >= len(xs):
        return ys[-1]
    if xs[i] == x or i == 0:
        return ys[i]
    frac = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] + frac * (ys[i] - ys[i - 1])


def decide_on_two_cycles(
    inst: Instance, node1: int, node2: int, lam: float
) -> Verdict:
    """Terminal with one center on each of two cycles.

    Points with their majority mass away from the second cycle can only be
    reached there through its gateway hinge, so their admissible arcs all
    contain it; slicing the second cycle into atomic arcs and sliding the
    first center as close to its own gateway as each slice allows is
    exhaustive.
    """
    tree = inst.graph.skeleton
    g = inst.graph
    cyc1 = g.cycles.cycles[tree.nodes[node1].ref]
    cyc2 = g.cycles.cycles[tree.nodes[node2].ref]
    tol = _tol(inst, lam)

    # a cycle node's neighbours are its hinges
    h1 = tree.step_toward(node1, node2)
    h2 = tree.step_toward(node2, node1)
    toward1 = component_mass(inst, h2, node1) + inst.node_mass[h2]
    far = toward1 >= 0.5 - inst.eps  # majority mass beyond the second cycle

    arcs2 = _cycle_arcs(inst, cyc2.id, lam)
    h2_coord = cyc2.vertex_coord(tree.nodes[h2].ref)
    reach2 = far & (
        inst.weights * inst.ed_at_vertices[tree.nodes[h2].ref] <= lam + tol
    )

    ends = {0.0, cyc2.perimeter, h2_coord}
    for k in np.flatnonzero(far):
        for a, b in arcs2[k]:
            ends.update((a, b))
    ends_sorted = sorted(ends)
    atoms: list[tuple[float, float]] = [(x, x) for x in ends_sorted]
    atoms += list(zip(ends_sorted, ends_sorted[1:]))

    arcs1 = _cycle_arcs(inst, cyc1.id, lam)
    h1_coord = cyc1.vertex_coord(tree.nodes[h1].ref)
    far_idx = np.flatnonzero(far)
    need_cache: set[frozenset[int]] = set()
    xs_cand: list[float] = []
    for a, b in atoms:
        need = []
        for k in far_idx:
            if reach2[k] and _arc_contains(arcs2[k], a, b):
                continue
            need.append(int(k))
        key = frozenset(need)
        if key in need_cache:
            continue
        need_cache.add(key)
        if any(not arcs1[k] for k in need):
            continue
        region = intersect_families([arcs1[k] for k in need]) if need else [
            (0.0, cyc1.perimeter)
        ]
        if not region:
            continue
        xs_cand.extend(_closest_in_region(region, h1_coord, cyc1.perimeter))

    xs1, ys1 = cycle_profiles(inst, cyc1.id)
    seen: set[float] = set()
    for x in xs_cand:
        if x in seen:
            continue
        seen.add(x)
        p1 = cyc1.coord_point(g, x)
        vals = inst.weights * _interp_rows(xs1, ys1, x)
        # double slack, as in the cycle terminal: x lies on an arc boundary
        rest = np.flatnonzero(vals > lam + 2.0 * tol)
        if rest.size == 0:
            return Verdict(True, (p1, p1))
        if any(not arcs2[k] for k in rest):
            continue
        q = stab_one([arcs2[k] for k in rest])
        if q is not None:
            return Verdict(True, (p1, cyc2.coord_point(g, q)))
    return Verdict(False)


def _arc_contains(
    arcs: list[tuple[float, float]], a: float, b: float, slack: float = 1e-12
) -> bool:
    return any(lo - slack <= a and b <= hi + slack for lo, hi in arcs)


def _closest_in_region(
    region: list[tuple[float, float]], origin: float, perim: float
) -> list[float]:
    """Positions of the region nearest to ``origin`` going each way around."""
    best_cw: tuple[float, float] | None = None
    best_ccw: tuple[float, float] | None = None
    for lo, hi in region:
        if lo - 1e-12 <= origin <= hi + 1e-12:
            return [origin]
        for x in (lo, hi):
            cw = (x - origin) % perim
            ccw = (origin - x) % perim
            if best_cw is None or cw < best_cw[0]:
                best_cw = (cw, x)
            if best_ccw is None or ccw < best_ccw[0]:
                best_ccw = (ccw, x)
    out = []
    if best_cw:
        out.append(best_cw[1])
    if best_ccw and (not best_cw or best_ccw[1] != best_cw[1]):
        out.append(best_ccw[1])
    return out


# ---------------------------------------------------------------------------
# exact single-center optimisation (used by the CLI and the optimiser)


def one_center(inst: Instance) -> tuple[GraphPoint, float]:
    """Exact weighted 1-center; a zero-weight point is dropped, and all-zero
    weights pin the canonical vertex.  An instance with edge-interior
    locations is solved on its reduction and the center lifted back."""
    if not inst.is_vertex_constrained:
        from ucactus.reduction import reduce_instance

        red = reduce_instance(inst)
        center, value = one_center(red.reduced)
        return red.lift_point(center), value
    weights = inst.weights
    g = inst.graph
    if not np.any(weights > 0) or not g.edges:
        return g.vertex_point(0), 0.0
    best: tuple[float, GraphPoint] | None = None

    for e in g.edges:
        if g.cycles.edge_cycle[e.id] is not None:
            continue
        y0 = weights * inst.ed_at_vertices[e.u]
        y1 = weights * inst.ed_at_vertices[e.v]
        ts = _envelope_candidates(y0, y1, e.length)
        env = np.max(
            y0[None, :] + (ts[:, None] / e.length) * (y1 - y0)[None, :], axis=1
        )
        i = int(np.argmin(env))
        if best is None or env[i] < best[0]:
            best = (float(env[i]), GraphPoint(e.id, float(ts[i])))

    for cyc in g.cycles.cycles:
        xs, ys = cycle_profiles(inst, cyc.id)
        ys = ys * weights
        for i in range(len(xs) - 1):
            if xs[i + 1] <= xs[i]:
                continue
            ts = _envelope_candidates(ys[i], ys[i + 1], xs[i + 1] - xs[i])
            frac = ts[:, None] / (xs[i + 1] - xs[i])
            env = np.max(ys[i][None, :] + frac * (ys[i + 1] - ys[i])[None, :], axis=1)
            j = int(np.argmin(env))
            if best is None or env[j] < best[0]:
                best = (
                    float(env[j]),
                    cyc.coord_point(g, float(xs[i] + ts[j])),
                )

    assert best is not None
    return best[1], best[0]


def _envelope_candidates(y0: np.ndarray, y1: np.ndarray, length: float) -> np.ndarray:
    """Offsets where the upper envelope of the affine bundle can attain its
    minimum: segment ends plus every pairwise crossing."""
    return np.concatenate([[0.0, length], crossings(y0, y1)[0] * length])


# ---------------------------------------------------------------------------
# the driver


def decide(inst: Instance, lam: float) -> Verdict:
    """Whether two centers can serve every point within ``lam``."""
    if math.isnan(lam):
        raise ValidationError("radius is NaN")
    if not inst.is_vertex_constrained:
        from ucactus.reduction import reduce_instance

        red = reduce_instance(inst)
        v = decide(red.reduced, lam)
        if v.centers is None:
            return v
        return Verdict(
            v.feasible,
            (red.lift_point(v.centers[0]), red.lift_point(v.centers[1])),
            v.probes,
        )

    tree = inst.graph.skeleton
    flag: int | None = None
    committed: int | None = None

    def at_node(node: int) -> Verdict:
        if tree.nodes[node].kind == "cycle":
            if committed is not None:
                return decide_on_two_cycles(inst, committed, node, lam)
            return decide_on_cycle(inst, node, lam)
        return _finish_at_vertex(inst, tree.nodes[node].ref, lam)

    def probe(u: int, active: frozenset[int]) -> frozenset[int] | Verdict:
        nonlocal flag, committed
        if tree.nodes[u].kind == "cycle":
            out = probe_cycle(inst, u, lam)
        else:
            out = probe_articulation(inst, u, lam)
        if out.kind == INFEASIBLE:
            return Verdict(False)
        if out.kind == FEASIBLE_SINGLE:
            p = inst.graph.vertex_point(tree.nodes[out.primary].ref)
            return Verdict(True, (p, p))
        if out.kind == CENTER_AT:
            return _finish_at_vertex(inst, tree.nodes[out.primary].ref, lam)
        if out.kind == DESCEND:
            if out.primary == u and tree.nodes[u].kind == "cycle":
                return at_node(u)
            target, via = out.primary, out.via_primary
        elif out.kind == DESCEND_TWO:
            choice = _pick_direction(tree, active, flag, out)
            if choice is None:
                return Verdict(False)
            target, via = choice
            flag = via
        else:
            assert out.kind == CYCLE_AND_BEYOND
            cyc_node, pendant, gate = out.primary, out.secondary, out.via_primary
            pend = tree.component_toward(gate, pendant)
            # the reserved second-center region sits past the flag node, so a
            # pendant claim is consistent when it lies in that region
            if not (flag is None or flag == gate or flag in pend):
                return Verdict(False)
            if committed is not None:
                return decide_on_two_cycles(inst, committed, cyc_node, lam)
            # one center is now pinned to this cycle; hunt the other one over
            # the whole branch past the hinge, regardless of how far the
            # first search had narrowed
            committed = cyc_node
            flag = gate
            return pend | {gate}
        part = tree.component_toward(via, target) & active
        return part | {via} if part else at_node(via)

    verdict, probes = descend(
        tree,
        frozenset(range(len(tree))),
        probe,
        at_node,
        lambda edge: decide_on_edge(inst, edge, lam),
    )
    return verdict.with_probes(probes)


def _pick_direction(
    tree: SkeletonTree,
    active: frozenset[int],
    flag: int | None,
    out: ProbeOutcome,
) -> tuple[int, int] | None:
    """Choose which of two overloaded directions to pursue; the one holding
    the boundary flag is the other center's territory."""
    options = []
    for target, via in (
        (out.primary, out.via_primary),
        (out.secondary, out.via_secondary),
    ):
        assert target is not None and via is not None
        comp = tree.component_toward(via, target)
        eligible = bool(comp & active) and (flag is None or flag not in comp)
        options.append((target, via, eligible))
    good = [(t, v) for t, v, ok in options if ok]
    if not good:
        return None
    if len(good) == 1:
        return good[0]
    return min(good)
