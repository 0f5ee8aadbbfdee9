import math
import random

import pytest

from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 check_legal_nonempty, legal_set)
from jointtri.geom import DegenerateInput, LabeledSet
from jointtri.greedy import verify_joint
from jointtri.oracle import (MAX_ORACLE_POINTS, MAX_ORACLE_POLYGON, POINTS,
                             POLYGONS, SizeGuard, enumerate_triangulations,
                             gen_perturbed_pair, gen_point_pair,
                             gen_polygon_pair, hunt, iter_triangulations,
                             oracle_joint_exists, polygon_oracle_exists)
from jointtri.polygon import dp_joint_polygon
from jointtri.triangles import paired_empty

from helpers import convex_position_points

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def test_single_triangle():
    s = LabeledSet.from_coords([(0, 0), (4, 0), (0, 4)])
    assert enumerate_triangulations(s) == [frozenset({(0, 1, 2)})]


def test_convex_counts_are_catalan():
    for n in range(4, 9):
        s = LabeledSet.from_coords(convex_position_points(n))
        assert len(enumerate_triangulations(s)) == catalan(n - 2)


def test_enumeration_is_duplicate_free_and_self_valid():
    rng = random.Random(13)
    for trial in range(15):
        pts = []
        n = rng.randint(4, 7)
        while len(pts) < n:
            p = (rng.randint(0, 15), rng.randint(0, 15))
            if p not in pts:
                pts.append(p)
        s = LabeledSet.from_coords(pts)
        try:
            all_t = enumerate_triangulations(s)
        except DegenerateInput:
            continue
        assert len(set(all_t)) == len(all_t)
        pair = PointSetPair(s, s)
        for t_set in all_t:
            assert verify_joint(pair, t_set) is None


def _tilings_by_subset_search(s):
    """Exponential reference: every subset of empty triangles with pairwise
    disjoint interiors whose doubled areas sum to the hull's."""
    from jointtri.geom import area2, convex_hull, interiors_overlap, signed_area2
    from jointtri.triangles import enumerate_empty

    hull = convex_hull(s)
    total = abs(signed_area2([s[i] for i in hull]))
    empties = enumerate_empty(s).sorted_triangles()

    def pts(t):
        return (s[t[0]], s[t[1]], s[t[2]])

    areas = {t: area2(*pts(t)) for t in empties}
    found = set()

    def rec(idx, chosen, covered):
        if covered == total:
            found.add(frozenset(chosen))
            return
        if idx == len(empties) or covered > total:
            return
        t = empties[idx]
        if all(not interiors_overlap(pts(t), pts(u)) for u in chosen):
            chosen.append(t)
            rec(idx + 1, chosen, covered + areas[t])
            chosen.pop()
        rec(idx + 1, chosen, covered)

    rec(0, [], 0)
    return found


def test_enumeration_matches_subset_search_reference():
    rng = random.Random(12345)
    checked = 0
    while checked < 15:
        n = rng.randint(4, 6)
        pts = []
        while len(pts) < n:
            p = (rng.randint(0, 10), rng.randint(0, 10))
            if p not in pts:
                pts.append(p)
        s = LabeledSet.from_coords(pts)
        try:
            ref = _tilings_by_subset_search(s)
        except DegenerateInput:
            continue
        assert set(enumerate_triangulations(s)) == ref, pts
        checked += 1


def test_square_plus_center_has_unique_triangulation():
    s = LabeledSet.from_coords(SQUARE + [(1, 1)])
    all_t = enumerate_triangulations(s)
    assert len(all_t) == 1
    assert sorted(all_t[0]) == [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)]


def test_enumeration_cap_and_guard():
    s = LabeledSet.from_coords(convex_position_points(8))
    assert len(enumerate_triangulations(s, cap=10)) == 10
    big = LabeledSet.from_coords(convex_position_points(10))
    with pytest.raises(ValueError):
        enumerate_triangulations(big)


def test_oracle_self_pair_and_label_swap():
    sq = LabeledSet.from_coords(SQUARE)
    assert oracle_joint_exists(PointSetPair(sq, sq)) is not None
    swapped = LabeledSet.from_coords([(0, 0), (2, 2), (2, 0), (0, 2)])
    assert oracle_joint_exists(PointSetPair(sq, swapped)) is None


def test_oracle_size_guard():
    big = LabeledSet.from_coords(convex_position_points(10))
    with pytest.raises(ValueError):
        oracle_joint_exists(PointSetPair(big, big))


STUBBORN_A = [(8, 10), (12, 7), (16, 4), (8, 6), (2, 0), (14, 3), (4, 15), (16, 14)]
STUBBORN_B = [(9, 15), (14, 11), (17, 10), (8, 5), (2, 15), (16, 17), (6, 0), (16, 6)]


def test_oracle_confirms_collapsed_legal_set_instance():
    pair = PointSetPair(LabeledSet.from_coords(STUBBORN_A),
                        LabeledSet.from_coords(STUBBORN_B))
    assert oracle_joint_exists(pair) is None


def test_necessity_on_oracle_hits():
    # Every instance with a joint triangulation must pass both conditions,
    # and each witness triangle must be a legal triangle.
    rng = random.Random(41)
    hits = 0
    trial = 0
    while hits < 10 and trial < 400:
        trial += 1
        pair = gen_perturbed_pair(rng.randint(4, 7), 25, 4, 4100 + trial)
        witness = oracle_joint_exists(pair)
        if witness is None:
            continue
        hits += 1
        hc = check_hull_correspondence(pair)
        assert hc.ok
        res = legal_set(pair, paired_empty(pair), hc.hull_edges)
        assert check_legal_nonempty(res)
        for t in witness:
            assert t in res.legal
    assert hits == 10


def test_gen_point_pair_determinism_and_distinctness():
    a = gen_point_pair(5, 100, 1)
    b = gen_point_pair(5, 100, 1)
    assert a.a.points == b.a.points and a.b.points == b.b.points
    assert gen_point_pair(5, 100, 2).a.points != a.a.points
    for seed in range(50):
        pair = gen_point_pair(8, 12, seed)
        assert len(set(pair.a.points)) == 8
        assert len(set(pair.b.points)) == 8


def test_gen_point_pair_range_guards():
    assert len(gen_point_pair(4, 1, 3).a) == 4  # exactly fits the 2x2 grid
    with pytest.raises(ValueError):
        gen_point_pair(5, 1, 3)
    with pytest.raises(ValueError):
        gen_point_pair(2, 10, 3)


def test_gen_polygon_pair_simple_and_ccw():
    for seed in (0, 1, 2, 3):
        pair = gen_polygon_pair(8, 40, seed)
        again = gen_polygon_pair(8, 40, seed)
        assert pair.a.vertices == again.a.vertices
        assert pair.a.ccw_sign == 1 and pair.b.ccw_sign == 1
        # Polygon construction re-validates simplicity; just confirm size
        assert len(pair.a) == 8 and len(pair.b) == 8


def test_gen_polygon_pair_triangles_always_work():
    for seed in range(6):
        pair = gen_polygon_pair(3, 20, seed)
        assert len(pair.a) == 3 and len(pair.b) == 3


def test_enumeration_of_degenerate_set_is_empty():
    s = LabeledSet.from_coords([(0, 0), (1, 1), (3, 3), (7, 7)])
    assert enumerate_triangulations(s) == []


def test_polygon_oracle_matches_dp_spot_check():
    rng = random.Random(53)
    agree = 0
    for trial in range(25):
        pair = gen_polygon_pair(rng.randint(4, 8), 30, 5300 + trial)
        dp = dp_joint_polygon(pair)
        fast = dp is not None and dp.verified
        assert fast == (polygon_oracle_exists(pair) is not None)
        agree += 1
    assert agree == 25


def test_polygon_oracle_size_guard():
    pair = gen_polygon_pair(11, 60, 7)
    with pytest.raises(ValueError):
        polygon_oracle_exists(pair)


def test_size_guards_raise_size_guard_one_past_the_limit():
    at_limit = LabeledSet.from_coords(convex_position_points(MAX_ORACLE_POINTS))
    assert next(iter_triangulations(at_limit))
    big = LabeledSet.from_coords(convex_position_points(MAX_ORACLE_POINTS + 1))
    with pytest.raises(SizeGuard):
        next(iter_triangulations(big))
    with pytest.raises(SizeGuard):
        polygon_oracle_exists(gen_polygon_pair(MAX_ORACLE_POLYGON + 1, 60, 7))


def test_hunt_zero_trials():
    report = hunt(POINTS, (4, 6), 0, 9)
    assert report.instances_tried == 0
    assert report.nc_pass_count == 0
    assert report.counterexamples == []


def test_hunt_points_reproducible_and_consistent():
    r1 = hunt(POINTS, (4, 7), 60, 123)
    r2 = hunt(POINTS, (4, 7), 60, 123)
    assert r1.summary_lines() == r2.summary_lines()
    assert r1.instances_tried == 60
    assert r1.greedy_success + sum(
        1 for c in r1.counterexamples if "verification" in c.reason
    ) == r1.nc_pass_count
    assert r1.oracle_checked == r1.oracle_agreements  # no disagreements
    assert r1.counterexamples == []


def test_hunt_points_without_oracle():
    report = hunt(POINTS, (4, 6), 30, 77, cross_check=False)
    assert report.oracle_checked == 0
    assert report.greedy_success + len(report.counterexamples) == report.nc_pass_count


def test_hunt_polygons():
    report = hunt(POLYGONS, (4, 7), 25, 321)
    assert report.instances_tried == 25
    assert report.oracle_checked > 0
    assert report.oracle_checked == report.oracle_agreements
    assert report.counterexamples == []
    assert report.greedy_success == report.nc_pass_count
