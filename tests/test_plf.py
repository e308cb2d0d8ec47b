"""Distance profiles, sublevel intervals, and the stabbing kernels."""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import draw_case, square_instance, tri_instance
from ucactus.errors import ValidationError
from ucactus.graph import GraphPoint, validate_cactus
from ucactus.plf import (
    coverage_set,
    cycle_profiles,
    edge_profile,
    intersect_families,
    stab_one,
    stab_two,
)
from ucactus.uncertain import Location, UncertainPoint, build_instance, expected_distance


# ---------------------------------------------------------------------------
# edge profiles


def test_edge_profile_on_pendant_edge():
    inst = tri_instance()
    prof = edge_profile(inst, 1, 3)
    assert list(prof.xs) == [0.0, 2.0]
    assert list(prof.ys) == [2.0, 0.0]
    assert not prof.cyclic


def test_edge_profile_rejects_cycle_edges():
    inst = tri_instance()
    with pytest.raises(ValidationError, match="lies on a cycle"):
        edge_profile(inst, 0, 0)


def test_edge_profile_interpolates_expected_distance():
    for seed in range(10):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        bridges = [e for e in g.edges if g.cycles.edge_cycle[e.id] is None]
        for e in rng.choices(bridges, k=2) if bridges else []:
            k = rng.randrange(inst.n)
            prof = edge_profile(inst, k, e.id)
            for _ in range(5):
                t = rng.uniform(0.0, e.length)
                want = expected_distance(inst, k, GraphPoint(e.id, t))
                assert np.interp(t, prof.xs, prof.ys) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# cycle profiles


def test_cycle_profile_of_a_corner_point_is_a_tent():
    sq = square_instance()
    prof = cycle_profiles(sq, 0)[0]
    assert list(prof.xs) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(prof.ys) == [0.0, 1.0, 2.0, 1.0, 0.0]
    assert prof.cyclic


def test_cycle_profile_of_antipodal_mass_is_flat():
    g = square_instance().graph
    inst = build_instance(
        g, [UncertainPoint("P", 1.0, (Location(0, 0.5), Location(2, 0.5)))]
    )
    prof = cycle_profiles(inst, 0)[0]
    assert np.allclose(prof.ys, 1.0)


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
    prof = cycle_profiles(inst, 0)[0]
    assert list(prof.ys) == [2.0, 3.0, 4.0, 3.0, 2.0]


def test_cycle_profiles_sample_to_expected_distances():
    for seed in range(12):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        for cyc in g.cycles.cycles:
            profs = cycle_profiles(inst, cyc.id)
            k = rng.randrange(inst.n)
            prof = profs[k]
            assert prof.xs[0] == 0.0
            assert prof.xs[-1] == pytest.approx(cyc.perimeter)
            assert prof.ys[0] == pytest.approx(prof.ys[-1], abs=1e-9)
            assert np.all(np.diff(prof.xs) >= 0.0)
            for _ in range(5):
                x = rng.uniform(0.0, cyc.perimeter)
                want = expected_distance(inst, k, cyc.coord_point(g, x))
                assert np.interp(x, prof.xs, prof.ys) == pytest.approx(
                    want, abs=1e-9
                )


# ---------------------------------------------------------------------------
# sublevel sets


def test_coverage_set_clips_the_profile_at_the_radius():
    inst = tri_instance()
    prof = edge_profile(inst, 1, 3)
    (lo, hi), = coverage_set(prof, 1.0, 1.0, inst.eps)
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == 2.0
    assert coverage_set(prof, 1.0, 2.5, inst.eps) == [(0.0, 2.0)]
    assert coverage_set(prof, 1.0, -0.5, inst.eps) == []


def test_coverage_set_of_weightless_point_is_everything_or_nothing():
    inst = tri_instance()
    prof = edge_profile(inst, 1, 3)
    assert coverage_set(prof, 0.0, 0.0, inst.eps) == [(0.0, 2.0)]
    assert coverage_set(prof, 0.0, -1.0, inst.eps) == []


def test_coverage_set_membership_matches_the_profile():
    for seed in range(12):
        inst = draw_case(seed)
        g = inst.graph
        rng = random.Random(seed)
        if not g.cycles.cycles:
            continue
        cyc = rng.choice(g.cycles.cycles)
        k = rng.randrange(inst.n)
        prof = cycle_profiles(inst, cyc.id)[k]
        w = float(inst.weights[k])
        lam = rng.uniform(0.0, w * float(prof.ys.max()) + 0.5)
        ivals = coverage_set(prof, w, lam, inst.eps)
        for a, b in ivals:
            assert a <= b
            for x in (a, (a + b) / 2.0, b):
                assert w * np.interp(x, prof.xs, prof.ys) <= lam + 1e-6
        # positions well outside every interval must sit above the radius
        for _ in range(10):
            x = rng.uniform(0.0, cyc.perimeter)
            if any(a - 1e-6 <= x <= b + 1e-6 for a, b in ivals):
                continue
            assert w * np.interp(x, prof.xs, prof.ys) > lam


# ---------------------------------------------------------------------------
# stabbing


def test_stab_one_finds_a_common_position():
    assert stab_one([[(0.0, 2.0)], [(1.0, 3.0)]]) == 1.0
    assert stab_one([[(0.0, 1.0)], [(2.0, 3.0)]]) is None
    assert stab_one([]) == 0.0
    assert stab_one([[]]) is None


def test_stab_two_splits_families_between_two_positions():
    assert stab_two([[(0.0, 1.0)], [(2.0, 3.0)]]) == (1.0, 2.0)
    assert stab_two([[(0.0, 1.0)], [(2.0, 3.0)], [(0.5, 1.5)]]) == (1.0, 2.0)
    assert stab_two([]) == (0.0, 0.0)
    assert stab_two([[], [(0.0, 1.0)]]) is None


def test_intersect_families_on_fixed_intervals():
    got = intersect_families([[(0.0, 3.0)], [(1.0, 2.0), (2.5, 4.0)]])
    assert got == [(1.0, 2.0), (2.5, 3.0)]
    assert intersect_families([]) == []
    assert intersect_families([[(0.0, 1.0)], [(2.0, 3.0)]]) == []


def _random_families(rng, n_sets, max_ivals=4):
    # families must be disjoint unions, the same shape coverage_set emits
    sets = []
    for _ in range(n_sets):
        raw = []
        for _ in range(rng.randint(0, max_ivals)):
            a = rng.uniform(0.0, 10.0)
            raw.append((a, a + rng.uniform(0.0, 3.0)))
        merged: list[tuple[float, float]] = []
        for a, b in sorted(raw):
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        sets.append(merged)
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
        got = stab_two(sets)
        want = _brute_stab_two(sets)
        assert (got is None) == (want is None)
        if got is not None:
            x, y = got
            assert all(_hits(ivals, x) or _hits(ivals, y) for ivals in sets)


def test_stab_one_agrees_with_intersection():
    rng = random.Random(99)
    for _ in range(200):
        sets = _random_families(rng, rng.randint(1, 5))
        got = stab_one(sets)
        common = intersect_families(sets)
        assert (got is None) == (not common)
        if got is not None:
            assert all(_hits(ivals, got) for ivals in sets)
