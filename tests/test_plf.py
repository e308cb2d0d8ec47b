"""Distance profiles, sublevel intervals, and the stabbing kernels."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as refs
from conftest import draw_case, edge_row, square_instance, tri_instance
from ucactus.graph import validate_cactus
from ucactus.plf import (
    coverage_set,
    crossings,
    cycle_profiles,
    intersect_families,
    pieces,
    profile_at,
    stab_one,
    stab_two,
)
from ucactus.reduction import reduce_instance
from ucactus.uncertain import (
    Location,
    UncertainPoint,
    build_instance,
    expected_distance,
    expected_distances,
)


# ---------------------------------------------------------------------------
# cycle profiles


def test_cycle_profile_of_a_corner_point_is_a_tent():
    sq = square_instance()
    xs, ys = cycle_profiles(sq, 0)
    assert list(xs) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(ys[:, 0]) == [0.0, 1.0, 2.0, 1.0, 0.0]
    assert ys.shape == (5, sq.n)


def test_cycle_profile_of_antipodal_mass_is_flat():
    g = square_instance().graph
    inst = build_instance(
        g, [UncertainPoint("P", 1.0, (Location(0, 0.5), Location(2, 0.5)))]
    )
    _, ys = cycle_profiles(inst, 0)
    assert np.allclose(ys[:, 0], 1.0)


def test_cycle_profile_shifts_by_pendant_offset():
    # the point sits two units down a pendant off corner a, so its ring
    # profile is the corner tent raised by that detour
    g = validate_cactus(
        ["a", "b", "c", "d", "e"],
        [
            ("a", "b", 1.0),
            ("b", "c", 1.0),
            ("c", "d", 1.0),
            ("d", "a", 1.0),
            ("a", "e", 2.0),
        ],
    )
    inst = build_instance(g, [UncertainPoint("P", 1.0, (Location(4, 1.0),))])
    _, ys = cycle_profiles(inst, 0)
    assert list(ys[:, 0]) == [2.0, 3.0, 4.0, 3.0, 2.0]


def test_cycle_profiles_sample_to_expected_distances():
    for seed in range(12):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        for cyc in refs.rings(g.cycles):
            xs, ys = cycle_profiles(inst, cyc.id)
            k = rng.randrange(inst.n)
            assert xs[0] == 0.0
            assert xs[-1] == pytest.approx(cyc.perimeter)
            assert ys[0, k] == pytest.approx(ys[-1, k], abs=1e-9)
            assert np.all(np.diff(xs) >= 0.0)
            for _ in range(5):
                x = rng.uniform(0.0, cyc.perimeter)
                want = expected_distance(inst, k, cyc.coord_point(g, x))
                assert np.interp(x, xs, ys[:, k]) == pytest.approx(want, abs=1e-9)


def test_profile_at_equals_the_row_loop():
    # every breakpoint and the floats beside it, random interior points, 0,
    # the perimeter and past both ends, asked in one shuffled call
    rings = 0
    for seed in range(60):
        inst = reduce_instance(draw_case(seed, edge_locations=seed % 2 == 1)).reduced
        rng = random.Random(seed)
        for c in range(len(inst.graph.cycles)):
            xs, ys = cycle_profiles(inst, c)
            per = float(xs[-1])
            at = [
                *xs.tolist(),
                *np.nextafter(xs, np.inf).tolist(),
                *np.nextafter(xs, -np.inf).tolist(),
                *(rng.uniform(0.0, per) for _ in range(20)),
                0.0,
                -0.0,
                per,
                -0.5,
                per + 0.5,
            ]
            rng.shuffle(at)
            want = np.array([refs.interp_rows(xs, ys, x) for x in at])
            assert np.array_equal(profile_at(xs, ys, at), want), seed
            assert np.array_equal(profile_at(xs, ys, at[:1]), want[:1]), seed
            rings += 1
    assert rings >= 30, rings


# ---------------------------------------------------------------------------
# the piece table


def test_piece_rows_are_linear_between_their_ends():
    rows = 0
    for seed in range(40):
        inst = reduce_instance(draw_case(seed, edge_locations=seed % 2 == 1)).reduced
        g = inst.graph
        p = pieces(inst)
        # every bridge in id order, then each cycle's pieces around it
        assert p.edge[: g.bridges.size].tolist() == g.bridges.tolist()
        assert p.cycle.tolist() == sorted(p.cycle.tolist())
        for row in range(p.length.size):
            rows += 1
            for f in (0.0, 0.3, 1.0):
                want = expected_distances(inst, p.point(inst, row, f * p.length[row]))
                line = p.y0[row] + f * (p.y1[row] - p.y0[row])
                assert np.all(np.abs(line - want) <= 1e-9 * np.maximum(1.0, want))
    assert rows >= 300


# ---------------------------------------------------------------------------
# sublevel sets


def _reference_coverage_set(xs, ys, weight, lam, eps):
    """One column's coverage intervals by a loop over its pieces; the array
    kernel must reproduce it exactly."""
    slack = lam + eps * max(1.0, abs(lam))
    if weight == 0.0:
        return [(0.0, float(xs[-1]))] if slack >= 0.0 else []
    thr = slack / weight
    out = []
    for x0, y0, x1, y1 in zip(xs[:-1], ys[:-1], xs[1:], ys[1:]):
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


def _reference_columns(xs, ys, weights, lam, eps):
    return [
        _reference_coverage_set(xs, ys[:, k], weights[k], lam, eps)
        for k in range(ys.shape[1])
    ]


_GRID = st.integers(0, 16).map(lambda i: i / 4.0)


@st.composite
def _profile_matrices(draw):
    b = draw(st.integers(2, 9))
    m = draw(st.integers(1, 5))
    xs = draw(st.lists(_GRID, min_size=b, max_size=b))
    # some breakpoints move one ulp up, leaving ulp-wide pieces behind them
    nudge = draw(st.lists(st.booleans(), min_size=b, max_size=b))
    xs = np.sort([np.nextafter(x, np.inf) if up else x for x, up in zip(xs, nudge)])
    value = st.one_of(_GRID, st.floats(0.0, 4.0))
    ys = np.array(
        draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=b, max_size=b))
    )
    weight = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 4.0))
    weights = np.array(draw(st.lists(weight, min_size=m, max_size=m)))
    # radii at a breakpoint value, weighted or not, put cuts on the threshold
    at_breakpoint = st.sampled_from(np.concatenate([ys, ys * weights]).ravel().tolist())
    lam = draw(st.one_of(at_breakpoint, st.sampled_from([-1.0, 0.0]), st.floats(-2, 16)))
    eps = draw(st.sampled_from([0.0, 1e-9]))
    return xs, ys, weights, lam, eps


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_profile_matrices())
def test_coverage_set_equals_the_piece_loop(case):
    xs, ys, weights, lam, eps = case
    got = coverage_set(xs, ys, weights, lam, eps)
    # every field is an array: the benchmark's tracer takes each one's length
    assert [type(f) for f in got] == [np.ndarray] * 3
    assert refs.families(got) == _reference_columns(xs, ys, weights, lam, eps)


def test_coverage_set_equals_the_piece_loop_on_cycles():
    cycles = 0
    for seed in range(40):
        inst = draw_case(seed)
        rng = random.Random(seed)
        for cyc in refs.rings(inst.graph.cycles):
            cycles += 1
            xs, ys = cycle_profiles(inst, cyc.id)
            w = inst.weights
            cols = np.array(sorted(rng.sample(range(inst.n), rng.randint(1, inst.n))))
            top = float((ys * w).max())
            lams = [-1.0, 0.0, rng.uniform(0.0, top), rng.uniform(0.0, top), top]
            lams.append(float(ys[rng.randrange(len(xs)), cols[0]] * w[cols[0]]))
            for lam in lams:
                want = _reference_columns(xs, ys, w, lam, inst.eps)
                assert refs.families(coverage_set(xs, ys, w, lam, inst.eps)) == want
                got = coverage_set(xs, ys[:, cols], w[cols], lam, inst.eps)
                assert refs.families(got) == [want[k] for k in cols]
    assert cycles >= 30


def _pendant_profile(inst):
    """Point 1's profile along the pendant edge c-d of the triangle instance."""
    e = edge_row(inst.graph, 3)
    return np.array([0.0, e.length]), inst.ed_at_vertices[[e.u, e.v]][:, [1]]


def test_coverage_set_clips_the_profile_at_the_radius():
    inst = tri_instance()
    xs, ys = _pendant_profile(inst)
    w = np.array([1.0])
    ((lo, hi),), = refs.families(coverage_set(xs, ys, w, 1.0, inst.eps))
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == 2.0
    assert refs.families(coverage_set(xs, ys, w, 2.5, inst.eps)) == [[(0.0, 2.0)]]
    assert refs.families(coverage_set(xs, ys, w, -0.5, inst.eps)) == [[]]


def test_coverage_set_of_weightless_point_is_everything_or_nothing():
    inst = tri_instance()
    xs, ys = _pendant_profile(inst)
    w = np.array([0.0])
    assert refs.families(coverage_set(xs, ys, w, 0.0, inst.eps)) == [[(0.0, 2.0)]]
    assert refs.families(coverage_set(xs, ys, w, -1.0, inst.eps)) == [[]]


def test_coverage_set_membership_matches_the_profile():
    for seed in range(12):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        cycles = refs.rings(g.cycles)
        if not cycles:
            continue
        cyc = rng.choice(cycles)
        k = rng.randrange(inst.n)
        xs, ys = cycle_profiles(inst, cyc.id)
        prof = ys[:, k]
        w = float(inst.weights[k])
        lam = rng.uniform(0.0, w * float(prof.max()) + 0.5)
        ivals = refs.families(coverage_set(xs, ys, inst.weights, lam, inst.eps))[k]
        for a, b in ivals:
            assert a <= b
            for x in (a, (a + b) / 2.0, b):
                assert w * np.interp(x, xs, prof) <= lam + 1e-6
        # positions well outside every interval must sit above the radius
        for _ in range(10):
            x = rng.uniform(0.0, cyc.perimeter)
            if any(a - 1e-6 <= x <= b + 1e-6 for a, b in ivals):
                continue
            assert w * np.interp(x, xs, prof) > lam


# ---------------------------------------------------------------------------
# pairwise crossings


def _reference_crossings(y0, y1):
    """Pair loop, one row ``i`` against every later ``j`` at a time."""
    fracs, values = [], []
    for i in range(len(y0)):
        d0 = y0[i] - y0[i + 1 :]
        d1 = y1[i] - y1[i + 1 :]
        hit = d0 * d1 < 0
        fr = d0[hit] / (d0[hit] - d1[hit])
        fracs += fr.tolist()
        values += (y0[i] + (y1[i] - y0[i]) * fr).tolist()
    return fracs, values


@st.composite
def _segment_bundles(draw):
    rows = draw(st.integers(1, 3))
    m = draw(st.integers(0, 8))
    value = st.one_of(_GRID, st.floats(-4.0, 4.0))
    # a shift from a small set makes parallel segments; grid values make
    # shared endpoints and ties
    shift = st.sampled_from([-1.0, 0.0, 0.25, 2.0])
    y0 = np.array(draw(st.lists(st.lists(value, min_size=m, max_size=m),
                                min_size=rows, max_size=rows)))
    y1 = y0.copy()
    for r in range(rows):
        for k in range(m):
            y1[r, k] = draw(st.one_of(value, shift.map(lambda d: y0[r, k] + d)))
    return y0, y1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_segment_bundles())
def test_crossings_equal_the_pair_loop(case):
    y0, y1 = case
    rows = [_reference_crossings(a, b) for a, b in zip(y0, y1)]
    fr, val = crossings(y0[0], y1[0])
    assert (fr.tolist(), val.tolist()) == rows[0]
    fr, val = crossings(y0, y1)
    assert fr.tolist() == [x for f, _ in rows for x in f]
    assert val.tolist() == [x for _, v in rows for x in v]


# ---------------------------------------------------------------------------
# stabbing


def _stab_one(sets):
    return stab_one(refs.table(sets))


def _stab_two(sets, other=None):
    return stab_two(refs.table(sets), None if other is None else refs.table(other))


def _intersect(sets):
    (common,) = refs.families(intersect_families(refs.table(sets)))
    return common


def test_stab_one_finds_a_common_position():
    assert _stab_one([[(0.0, 2.0)], [(1.0, 3.0)]]) == 1.0
    assert _stab_one([[(0.0, 1.0)], [(2.0, 3.0)]]) is None
    assert _stab_one([]) == 0.0
    assert _stab_one([[]]) is None


def test_stab_two_splits_families_between_two_positions():
    assert _stab_two([[(0.0, 1.0)], [(2.0, 3.0)]]) == (1.0, 2.0)
    assert _stab_two([[(0.0, 1.0)], [(2.0, 3.0)], [(0.5, 1.5)]]) == (1.0, 2.0)
    assert _stab_two([]) == (0.0, 0.0)
    assert _stab_two([[], [(0.0, 1.0)]]) is None


def test_intersect_families_on_fixed_intervals():
    got = _intersect([[(0.0, 3.0)], [(1.0, 2.0), (2.5, 4.0)]])
    assert got == [(1.0, 2.0), (2.5, 3.0)]
    assert _intersect([]) == []
    assert _intersect([[(0.0, 1.0)], [(2.0, 3.0)]]) == []


def _disjoint(raw):
    """Intervals merged into a disjoint union, as coverage_set merges them:
    the shape every family must have."""
    merged: list[tuple[float, float]] = []
    for a, b in sorted(raw):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _random_families(rng, n_sets, max_ivals=4):
    sets = []
    for _ in range(n_sets):
        raw = []
        for _ in range(rng.randint(0, max_ivals)):
            a = rng.uniform(0.0, 10.0)
            raw.append((a, a + rng.uniform(0.0, 3.0)))
        sets.append(_disjoint(raw))
    return sets


def _hits(ivals, x):
    return any(a <= x <= b for a, b in ivals)


def _brute_stab_two(sets):
    """Try every pair of interval endpoints as the two stabbers."""
    cands = sorted({v for ivals in sets for ab in ivals for v in ab}) or [0.0]
    for x in cands:
        for y in cands:
            if all(_hits(ivals, x) or _hits(ivals, y) for ivals in sets):
                return x, y
    return None


def test_stab_two_agrees_with_endpoint_search():
    rng = random.Random(20240817)
    for _ in range(300):
        sets = _random_families(rng, rng.randint(1, 6))
        got = _stab_two(sets)
        want = _brute_stab_two(sets)
        assert (got is None) == (want is None)
        if got is not None:
            x, y = got
            assert all(_hits(ivals, x) or _hits(ivals, y) for ivals in sets)


def test_stab_one_agrees_with_intersection():
    rng = random.Random(99)
    for _ in range(200):
        sets = _random_families(rng, rng.randint(1, 5))
        got = _stab_one(sets)
        common = _intersect(sets)
        assert (got is None) == (not common)
        if got is not None:
            assert all(_hits(ivals, got) for ivals in sets)


def _event_arrays(sets):
    """Endpoint events sorted by position, opens (``side`` 0) before closes
    (1) at equal positions; ``owner`` is the family."""
    pos, side, owner = [], [], []
    for k, ivals in enumerate(sets):
        for a, b in ivals:
            pos += [a, b]
            side += [0, 1]
            owner += [k, k]
    pos_a = np.array(pos, dtype=np.float64)
    side_a = np.array(side, dtype=np.int8)
    owner_a = np.array(owner, dtype=np.intc)
    order = np.lexsort((side_a, pos_a))
    return pos_a[order].tolist(), side_a[order].tolist(), owner_a[order].tolist()


def _sweep_stab_one(sets):
    """The first open event at which every family is open."""
    if not sets:
        return 0.0
    open_cnt = [0] * len(sets)
    covered = 0
    for p, s, k in zip(*_event_arrays(sets)):
        if s == 0:
            if open_cnt[k] == 0:
                covered += 1
                if covered == len(sets):
                    return p
            open_cnt[k] += 1
        else:
            open_cnt[k] -= 1
            if open_cnt[k] == 0:
                covered -= 1
    return None


def _sweep_stab_two(sets):
    """For each distinct close position in order, the families it misses
    must share a position, found by one sweep: O(M·(M+n)) for M events."""
    n_sets = len(sets)
    if n_sets == 0:
        return (0.0, 0.0)
    posl, sidel, ownerl = _event_arrays(sets)
    M = len(posl)
    for ci in range(M):
        if sidel[ci] != 1:
            continue
        if ci > 0 and sidel[ci - 1] == 1 and posl[ci - 1] == posl[ci]:
            continue
        x = posl[ci]
        open_cnt = [0] * n_sets
        for j in range(ci):
            open_cnt[ownerl[j]] += 1 if sidel[j] == 0 else -1
        hit = [c > 0 for c in open_cnt]
        beta = hit.count(False)
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


def _sweep_stab_two_lists(sets, other):
    """The two-list stab from the sweeps: each distinct close endpoint of
    ``sets`` in order (or 0.0, hitting nothing, when there is none), then a
    one-position sweep of ``other`` over the families it misses."""
    closes = sorted({b for ivals in sets for _, b in ivals})
    for x in closes or [0.0]:
        missed = [k for k, ivals in enumerate(sets) if not _hits(ivals, x)]
        if not missed:
            return (x, x)
        y = _sweep_stab_one([other[k] for k in missed])
        if y is not None:
            return (x, y)
    return None


def _sweep_intersect(sets):
    """Runs of the sweep where all ``n`` families are open at once."""
    n = len(sets)
    if n == 0:
        return []
    out = []
    depth = 0
    start = 0.0
    for p, s, _ in zip(*_event_arrays(sets)):
        if s == 0:
            depth += 1
            if depth == n:
                start = p
        else:
            if depth == n:
                out.append((start, p))
            depth -= 1
    return out


def _grid_family(rng):
    """A family whose endpoints mostly sit on a 0.25 grid over [0, 4], so
    intervals touch, repeat endpoints, shrink to points and reach both 0
    and 4."""

    def end():
        return rng.randint(0, 16) / 4.0 if rng.random() < 0.8 else rng.uniform(0.0, 4.0)

    return _disjoint([sorted((end(), end())) for _ in range(rng.randint(0, 4))])


def _twin(hit):
    """A stab as the terminals place it: with no second position, both
    centers sit at the first."""
    return hit if hit is None or hit[1] is not None else (hit[0], hit[0])


def test_stabbing_kernel_equals_the_endpoint_sweeps():
    rng = random.Random(20261019)
    for draw in range(4000):
        n = rng.randint(0, 8)
        if draw % 2:
            sets = [_grid_family(rng) for _ in range(n)]
            other = [_grid_family(rng) for _ in range(n)]
        else:
            sets = _random_families(rng, n)
            other = _random_families(rng, n)
        tab, tab2 = refs.table(sets), refs.table(other)
        # the sweeps read the same tables, as lists
        sets, other = refs.families(tab), refs.families(tab2)
        assert stab_one(tab) == _sweep_stab_one(sets)
        assert refs.families(intersect_families(tab)) == [_sweep_intersect(sets)]
        assert _twin(stab_two(tab)) == _sweep_stab_two(sets)
        assert _twin(stab_two(tab)) == _sweep_stab_two_lists(sets, sets)
        assert _twin(stab_two(tab, tab2)) == _sweep_stab_two_lists(sets, other)


def test_stab_two_second_list_serves_what_the_first_misses():
    assert _stab_two([[(0.0, 1.0)], []], [[], [(5.0, 6.0)]]) == (1.0, 5.0)
    # the first position serves both alone: no second position
    assert _stab_two([[(0.0, 1.0)], [(0.5, 2.0)]], [[], []]) == (1.0, None)
    # no close endpoint: the first position hits nothing anywhere
    assert _stab_two([[], []], [[(0.0, 2.0)], [(1.0, 3.0)]]) == (0.0, 1.0)
    assert _stab_two([[], []], [[(0.0, 1.0)], [(2.0, 3.0)]]) is None
    assert _stab_two([[(0.0, 1.0)], []], [[(2.0, 3.0)], []]) is None
