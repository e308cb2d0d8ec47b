"""Feasibility decision: can two centers serve every point within ``lam``?

The search probes skeleton-tree nodes.  A probe reads one split table: the
components around the node as ``(gate, first)`` arrays with one row of
point masses each (:func:`ucactus.uncertain.component_sums`), one group per
point by where the majority of its mass sits (:func:`_classify`), and every
group's eccentricity and worst point from one
:func:`ucactus.uncertain.group_eccentricity` pass.  Its checks are masks
over those arrays; the outcome either settles feasibility, pins a center,
or names the directions a center must move.  A boundary flag marks the
node separating the region still being searched from territory delegated
to the other center; terminals then verify candidate configurations
globally, so a "feasible" verdict is always backed by an explicit pair of
centers.
Every terminal ends in one question, answered by one search
(:func:`_second_center`): with one center fixed at each place tried in
turn, do the points it leaves unserved fit one more?  Every single-center
question (``coverage_witness``, ``decide_on_edge``, ``one_center``) reads
the linear pieces of :mod:`ucactus.plf`; ``coverage_witness`` skips a ring
by its floor (:attr:`ucactus.uncertain.Instance.ring_floor`) before
building the ring's profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ucactus.errors import InternalInvariantError, ValidationError
from ucactus.graph import CYCLE, GraphPoint, SkeletonTree, descend
from ucactus.plf import (
    coverage_set,
    crossings,
    cycle_profiles,
    pieces,
    profile_at,
    stab_two,
    sublevel,
)
from ucactus.uncertain import (
    ComponentSums,
    Instance,
    component_mass,
    component_sums,
    group_eccentricity,
)

INFEASIBLE = "infeasible"
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


def _classify(inst: Instance, cs: ComponentSums) -> np.ndarray:
    """Each point's group around a removed structure with ``c`` components:
    the one component holding at least half its mass; ``c`` when none
    does, so that its medians all lie on the structure; ``c + 1`` when two
    components hold half each (more would need mass above 1); and -1 for a
    weightless point, which is served everywhere for free and so pins and
    loads nothing."""
    heavy = cs.sums >= 0.5 - inst.eps
    count = heavy.sum(axis=0)
    c = len(heavy)
    group = np.where(count == 1, np.arange(c) @ heavy, c + (count >= 2))
    group[inst.weights <= 0.0] = -1
    return group


def probe_articulation(inst: Instance, node: int, lam: float) -> ProbeOutcome:
    """Classify feasibility directions at a vertex-holding node."""
    tree = inst.graph.skeleton
    assert tree.kind[node] != CYCLE
    tol = _tol(inst, lam)
    cs = component_sums(inst, node)
    c = len(cs.gate)
    # each component's group, then the local and split groups, all at the node
    value, _ = group_eccentricity(inst, _classify(inst, cs), np.full(c + 2, tree.ref[node]))
    over = value > lam + tol
    exceed = over[:c].nonzero()[0]
    if over[c:].any() or len(exceed) >= 3:
        return ProbeOutcome(INFEASIBLE)
    # a component's or the local group's worst point at the radius pins the
    # center here; the local group is within it once past the check above.
    # With no group over the radius, a center here serves every point.
    if not exceed.size or ((value >= lam - tol) & ~over)[: c + 1].any():
        return ProbeOutcome(CENTER_AT, node)
    first = cs.first[exceed].tolist()
    if len(exceed) == 2:
        return ProbeOutcome(DESCEND_TWO, *first, node, node)
    return ProbeOutcome(DESCEND, first[0], via_primary=node)


def probe_cycle(inst: Instance, node: int, lam: float) -> ProbeOutcome:
    """Classify feasibility directions at a cycle node.

    Components hang off the cycle's hinges; each component's group is
    measured at its own hinge.  With one overloaded direction the hinge
    itself is probed and the outcome translated back to the cycle's frame.
    """
    tree = inst.graph.skeleton
    assert tree.kind[node] == CYCLE
    tol = _tol(inst, lam)
    cs = component_sums(inst, node)
    value, worst = group_eccentricity(inst, _classify(inst, cs), tree.ref[cs.gate])
    # a tight point pins its hinge only when more than half its mass lies
    # beyond it: its expected distance then rises moving into the ring, while
    # with half it can stay flat along an arc that holds the center instead
    over = value > lam + tol
    tight = (value >= lam - tol) & ~over
    pin = (tight & (cs.sums[np.arange(len(worst)), worst] > 0.5 + inst.eps)).nonzero()[0]
    if pin.size:
        return ProbeOutcome(CENTER_AT, int(cs.gate[pin[0]]))
    exceed = over.nonzero()[0]
    if len(exceed) > 2:
        return ProbeOutcome(INFEASIBLE)
    if len(exceed) == 2:
        return ProbeOutcome(DESCEND_TWO, *cs.first[exceed].tolist(), *cs.gate[exceed].tolist())
    if len(exceed) == 0:
        return ProbeOutcome(DESCEND, node, via_primary=node)

    gate = int(cs.gate[exceed[0]])
    inner = probe_articulation(inst, gate, lam)
    if inner.kind in (INFEASIBLE, CENTER_AT):
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

    Expected distance is linear along bridges and cycle pieces, so this is
    exact: the leftmost position of the first piece, bridges before
    cycles, where every point's sublevel part meets the others.
    """
    idx = np.asarray(subset, dtype=np.intp)
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

    if not g.edge_count:
        return g.vertex_point(0) if np.all(edv[0, idx] <= thr) else None

    bid = g.bridges
    y0, y1 = edv[np.ix_(g.u[bid], idx)], edv[np.ix_(g.v[bid], idx)]
    hit = _first_common(0.0, g.length[bid, None], y0, y1, thr)
    if hit is not None:
        return GraphPoint(int(bid[hit[0]]), hit[1])

    # a point whose minimum over the whole ring misses the threshold has no
    # sublevel part there, so no piece of that ring can serve the subset
    reach = ~np.any(w * inst.ring_floor[:, idx] > lam + tol, axis=1)
    for c in np.flatnonzero(reach).tolist():
        xs, ys = cycle_profiles(inst, c)
        hit = _first_common(xs[:-1, None], xs[1:, None], ys[:-1, idx], ys[1:, idx], thr)
        if hit is not None:
            return g.cycles.point(g, c, hit[1])
    return None


def _first_common(x0, x1, y0, y1, thr) -> tuple[int, float] | None:
    """The first piece row where every column's sublevel part meets the
    others, with the leftmost position they share, or None."""
    a, b, keep = sublevel(x0, x1, y0, y1, thr)
    lo = a.max(axis=1)
    at = np.flatnonzero(keep.all(axis=1) & (lo <= b.min(axis=1)))
    return (int(at[0]), float(lo[at[0]])) if at.size else None


# ---------------------------------------------------------------------------
# terminals


def _second_center(
    inst: Instance, lam: float, costs: np.ndarray, slack: float, place: Callable[[int], GraphPoint]
) -> Verdict:
    """The terminals' last step: fix one center and ask whether the points
    it leaves unserved fit one more.  Row ``i`` of ``costs`` holds every
    point's weighted cost with the first center at ``place(i)``; a point
    costing more than ``lam + slack`` is left to the second.  The first
    row whose residual is empty or has a :func:`coverage_witness` wins; a
    residual already tried is skipped."""
    tried: set[bytes] = set()
    for i, over in enumerate(costs > lam + slack):
        rest = np.flatnonzero(over)
        if rest.size == 0:
            here = place(i)
            return Verdict(True, (here, here))
        key = over.tobytes()
        if key in tried:
            continue
        tried.add(key)
        other = coverage_witness(inst, rest, lam)
        if other is not None:
            return Verdict(True, (place(i), other))
    return Verdict(False)


def _finish_at_vertex(inst: Instance, v: int, lam: float) -> Verdict:
    costs = inst.weights * inst.ed_at_vertices[[v]]
    here = inst.graph.vertex_point(v)
    return _second_center(inst, lam, costs, _tol(inst, lam), lambda i: here)


def decide_on_edge(inst: Instance, edge: int, lam: float) -> Verdict:
    """Terminal for a center pinned to one out-of-cycle edge.

    The side holding a point's majority mass pulls its center; pushing the
    on-edge center as far as the majority group allows maximises what it
    covers, and the rest must fit a single center anywhere.
    """
    g = inst.graph
    u, v, length = g.edge(edge)
    if g.cycles.edge_cycle[edge] >= 0:
        raise InternalInvariantError("edge terminal on a cycle edge")
    tol = _tol(inst, lam)
    tree = g.skeleton
    # mass on the u side once the edge is cut
    side_u = component_mass(inst, tree.node_of_vertex[v], tree.node_of_vertex[u])

    y0 = inst.weights * inst.ed_at_vertices[u]
    y1 = inst.weights * inst.ed_at_vertices[v]
    slope = (y1 - y0) / length
    # a center for the majority on the u side sits as near v as their reach
    # allows, one for the v side as near u; points that no position on the
    # edge reaches fall to the residual
    a, b, _ = sublevel(0.0, length, y0, y1, lam + tol)
    heavy = side_u >= 0.5 - inst.eps
    for_u = np.min(b[heavy & (y0 <= lam + tol)], initial=length)
    heavy = 1.0 - side_u >= 0.5 - inst.eps
    for_v = np.max(a[heavy & (y1 <= lam + tol)], initial=0.0)

    ts = np.clip([for_u, for_v], 0.0, length)
    # double slack: each t sits on a tolerance boundary, so re-evaluation
    # may land an ulp above it
    costs = y0 + slope * ts[:, None]
    return _second_center(inst, lam, costs, 2.0 * tol, lambda i: GraphPoint(edge, float(ts[i])))


def _cycle_arcs(inst: Instance, cycle_id: int, lam: float) -> tuple[np.ndarray, ...]:
    xs, ys = cycle_profiles(inst, cycle_id)
    return coverage_set(xs, ys, inst.weights, lam, inst.eps)


def decide_on_cycle(inst: Instance, node: int, lam: float) -> Verdict:
    """Terminal for a cycle holding a center; tries both centers on the
    cycle first, then one on-cycle center with the other anywhere."""
    g = inst.graph
    c = int(g.skeleton.ref[node])
    arcs = ptr, lo, hi = _cycle_arcs(inst, c, lam)
    if np.all(np.diff(ptr)):
        hit = stab_two(arcs)
        if hit is not None:
            x, y = hit[0], hit[0] if hit[1] is None else hit[1]
            return Verdict(True, (g.cycles.point(g, c, x), g.cycles.point(g, c, y)))
    cands = np.unique(np.concatenate([[0.0], lo, hi]))
    costs = inst.weights * profile_at(*cycle_profiles(inst, c), cands)
    # double slack: each candidate is an arc endpoint, so its own cost sits
    # on the tolerance boundary
    return _second_center(
        inst, lam, costs, 2.0 * _tol(inst, lam), lambda i: g.cycles.point(g, c, float(cands[i]))
    )


def decide_on_two_cycles(
    inst: Instance, node1: int, node2: int, lam: float
) -> Verdict:
    """Terminal with one center on each of two cycles.

    A point is served when a center lies in its coverage arcs on that
    center's cycle, so this is one stab of the two cycles' arc tables.
    """
    g = inst.graph
    c1, c2 = int(g.skeleton.ref[node1]), int(g.skeleton.ref[node2])
    hit = stab_two(_cycle_arcs(inst, c1, lam), _cycle_arcs(inst, c2, lam))
    if hit is None:
        return Verdict(False)
    p1 = g.cycles.point(g, c1, hit[0])
    # no second position: the first serves every point alone
    p2 = p1 if hit[1] is None else g.cycles.point(g, c2, hit[1])
    return Verdict(True, (p1, p2))


# ---------------------------------------------------------------------------
# exact single-center optimisation (used by the CLI)


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
    if not np.any(weights > 0) or not g.edge_count:
        return g.vertex_point(0), 0.0
    # the upper envelope of a piece's linear bundle attains its minimum at
    # a piece end or at a crossing of two profiles
    p = pieces(inst)
    best: tuple[float, int, float] | None = None
    for row, length in enumerate(p.length.tolist()):
        y0, y1 = weights * p.y0[row], weights * p.y1[row]
        ts = np.concatenate([[0.0, length], crossings(y0, y1)[0] * length])
        env = np.max(y0[None, :] + (ts[:, None] / length) * (y1 - y0)[None, :], axis=1)
        i = int(np.argmin(env))
        if best is None or env[i] < best[0]:
            best = (float(env[i]), row, float(ts[i]))
    assert best is not None
    return p.point(inst, best[1], best[2]), best[0]


# ---------------------------------------------------------------------------
# the driver


def decide(inst: Instance, lam: float) -> Verdict:
    """Whether two centers can serve every point within ``lam``."""
    if math.isnan(lam):
        raise ValidationError("radius is NaN")
    if lam < -inst.eps:
        # no distance is negative; at -inf the slack below would be inf and
        # every comparison against lam + tol NaN
        return Verdict(False)
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
        if tree.kind[node] == CYCLE:
            if committed is not None:
                return decide_on_two_cycles(inst, committed, node, lam)
            return decide_on_cycle(inst, node, lam)
        return _finish_at_vertex(inst, int(tree.ref[node]), lam)

    def probe(u: int, active: np.ndarray) -> np.ndarray | Verdict:
        nonlocal flag, committed
        if tree.kind[u] == CYCLE:
            out = probe_cycle(inst, u, lam)
        else:
            out = probe_articulation(inst, u, lam)
        if out.kind == INFEASIBLE:
            return Verdict(False)
        if out.kind == CENTER_AT:
            return _finish_at_vertex(inst, int(tree.ref[out.primary]), lam)
        if out.kind == DESCEND:
            if out.primary == u and tree.kind[u] == CYCLE:
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
            if not (flag is None or flag == gate or pend[tree.start[flag]]):
                return Verdict(False)
            if committed is not None:
                return decide_on_two_cycles(inst, committed, cyc_node, lam)
            # one center is now pinned to this cycle; hunt the other one over
            # the whole branch past the hinge, regardless of how far the
            # first search had narrowed
            committed = cyc_node
            flag = gate
            pend[tree.start[gate]] = True
            return pend
        part = tree.component_toward(via, target) & active
        if not part.any():
            return at_node(via)
        part[tree.start[via]] = True
        return part

    verdict, probes = descend(
        tree,
        np.ones(len(tree), dtype=bool),
        probe,
        at_node,
        lambda edge: decide_on_edge(inst, edge, lam),
    )
    return verdict.with_probes(probes)


def _pick_direction(
    tree: SkeletonTree,
    active: np.ndarray,
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
        eligible = (comp & active).any() and (flag is None or not comp[tree.start[flag]])
        options.append((target, via, eligible))
    good = [(t, v) for t, v, ok in options if ok]
    if not good:
        return None
    if len(good) == 1:
        return good[0]
    return min(good)
