import math
import random
from itertools import islice
from pathlib import Path

import pytest

from jointtri import conditions, oracle, triangles
from jointtri.conditions import PointSetPair, necessary_conditions
from jointtri.geom import COORD_LIMIT, DegenerateInput, InputError, LabeledSet
from jointtri.greedy import verify_joint
from jointtri.oracle import (MAX_ORACLE_POINTS, MAX_ORACLE_POLYGON, POINTS,
                             POLYGONS, SizeGuard, gen_point_pair,
                             gen_polygon_pair, hunt, iter_triangulations,
                             oracle_joint_exists, polygon_oracle_exists)
from jointtri.polygon import dp_joint_polygon

from helpers import (brute_hull_edges, brute_joint_exists,
                     brute_joint_triangulations, convex_position_points,
                     enumerate_triangulations, gen_perturbed_pair,
                     grid_locked_coords, hull_locked_pair,
                     overlap_by_decomposition, pairwise_verify_points, xorient)

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
    from jointtri.geom import convex_hull, signed_area2
    from jointtri.triangles import enumerate_empty

    hull = convex_hull(s)
    total = abs(signed_area2([s[i] for i in hull]))
    empties = enumerate_empty(s).sorted_triangles()

    def pts(t):
        return (s[t[0]], s[t[1]], s[t[2]])

    def area2(t):
        (ax, ay), (bx, by), (cx, cy) = pts(t)
        return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))

    areas = {t: area2(t) for t in empties}
    found = set()

    def rec(idx, chosen, covered):
        if covered == total:
            found.add(frozenset(chosen))
            return
        if idx == len(empties) or covered > total:
            return
        t = empties[idx]
        if all(not overlap_by_decomposition(pts(t), pts(u)) for u in chosen):
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
    assert len(list(islice(iter_triangulations(PointSetPair(s, s)), 10))) == 10
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
        nc = necessary_conditions(pair)
        assert nc.ok
        for t in witness:
            assert t in nc.legal.legal
    assert hits == 10


def _small_pairs(seed, count):
    """Seeded pairs, n 4-7, in turn grid-locked and hull-locked (both sides
    have the same hull edges), perturbed and independent."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 7)
        kind = len(out) % 4
        if kind == 0:
            coords = grid_locked_coords(rng, n, rng.choice((3, 4, 5)))
            if coords is None:
                continue
            pair = PointSetPair(*map(LabeledSet.from_coords, coords))
        elif kind == 1:
            pair = hull_locked_pair(n, 30, 4, rng.randrange(10 ** 6))
        elif kind == 2:
            pair = gen_perturbed_pair(n, 20, 3, rng.randrange(10 ** 6))
        else:
            pair = gen_point_pair(n, 6, rng.randrange(10 ** 6))
        out.append((pair, [tuple(p) for p in pair.a.points],
                    [tuple(p) for p in pair.b.points]))
    return out


def test_oracle_agrees_with_brute_subset_search(monkeypatch):
    # Every set the search yields is a joint triangulation, so the oracle
    # verifies exactly once per YES (its witness) and never on a NO.
    verified = []

    def counting_verify(pair, triangles):
        verified.append(triangles)
        return verify_joint(pair, triangles)

    monkeypatch.setattr(oracle, "verify_joint", counting_verify)
    verdicts = []
    for pair, a, b in _small_pairs(61, 240):
        verified.clear()
        witness = oracle_joint_exists(pair)
        assert (witness is not None) == brute_joint_exists(a, b), (a, b)
        if witness is not None:
            assert pairwise_verify_points(a, b, witness), (a, b)
        assert verified == ([witness] if witness is not None else []), (a, b)
        verdicts.append(witness is not None)
    assert 60 <= sum(verdicts) <= 180


def test_frontier_search_yields_exactly_the_joint_triangulations():
    # The yielded sets are exactly the joint triangulations on all four
    # families, and every one has the two triangles of each interior edge
    # on opposite sides of it in both realizations.  Where the hull edge
    # sets differ nothing is yielded.
    total = differ = 0
    for pair, a, b in _small_pairs(67, 240):
        got = [sorted(t) for t in iter_triangulations(pair)]
        assert len(got) == len({tuple(map(tuple, t)) for t in got}), (a, b)
        if ({tuple(sorted(e)) for e in brute_hull_edges(a)}
                != {tuple(sorted(e)) for e in brute_hull_edges(b)}):
            differ += 1
            assert got == [], (a, b)
        for tris in got:
            apexes = {}
            for i, j, m in tris:
                for e, c in (((i, j), m), ((j, m), i), ((i, m), j)):
                    apexes.setdefault(e, []).append(c)
            for (i, j), cs in apexes.items():
                if len(cs) == 2:
                    assert all(xorient(p[i], p[j], p[cs[0]]) * xorient(p[i], p[j], p[cs[1]]) < 0
                               for p in (a, b)), (a, b, tris)
        assert sorted(got) == sorted(brute_joint_triangulations(a, b)), (a, b)
        total += len(got)
    assert total >= 600 and differ >= 80


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
    assert next(iter_triangulations(PointSetPair(at_limit, at_limit)))
    big = LabeledSet.from_coords(convex_position_points(MAX_ORACLE_POINTS + 1))
    with pytest.raises(SizeGuard):
        next(iter_triangulations(PointSetPair(big, big)))
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
    assert r1.construct_success + sum(
        1 for c in r1.counterexamples if "verification" in c.reason
    ) == r1.nc_pass_count
    assert r1.oracle_checked == r1.oracle_agreements  # no disagreements
    assert r1.counterexamples == []


def test_hunt_points_builds_candidates_once_per_nc1_pass(monkeypatch):
    # The NC chain and the oracle's search both read pair.candidates, so a
    # pair that passes NC1 enumerates its empty triangles once, wherever
    # they are read from, and one that fails NC1 never does.
    enumerated, nc1_pass = [], []
    enumerate_empty, check = triangles.enumerate_empty, conditions.check_hull_correspondence

    def counting_enumerate(s):
        enumerated.append(s)
        return enumerate_empty(s)

    def counting_check(pair):
        hull = check(pair)
        nc1_pass.extend([pair.a] if hull.ok else [])
        return hull

    monkeypatch.setattr(triangles, "enumerate_empty", counting_enumerate)
    monkeypatch.setattr(conditions, "check_hull_correspondence", counting_check)
    report = hunt(POINTS, (4, 7), 80, 5, coord_range=10)
    assert report.oracle_checked == 80 and report.nc_pass_count > 0
    assert len(enumerated) == len(nc1_pass)
    assert all(s is a for s, a in zip(enumerated, nc1_pass))


def test_hunt_points_without_oracle():
    report = hunt(POINTS, (4, 6), 30, 77, cross_check=False)
    assert report.oracle_checked == 0
    assert report.construct_success + len(report.counterexamples) == report.nc_pass_count


def test_hunt_polygons():
    report = hunt(POLYGONS, (4, 7), 25, 321)
    assert report.instances_tried == 25
    assert report.oracle_checked > 0
    assert report.oracle_checked == report.oracle_agreements
    assert report.counterexamples == []
    assert report.construct_success == report.nc_pass_count


def test_generators_refuse_sizes_with_input_error():
    """Both generators refuse n < 3, a range too small for n distinct
    points and a range beyond COORD_LIMIT before drawing anything, with
    the message naming the range."""
    for gen in (gen_point_pair, gen_polygon_pair):
        for n, coord_range, message in (
                (2, 10, "n must be at least 3"),
                (5, 1, "coordinate range 1 too small for 5 distinct points"),
                (3, -5, "coordinate range -5 too small for 3 distinct points"),
                (5, COORD_LIMIT + 1,
                 f"coordinate range {COORD_LIMIT + 1} exceeds the limit {COORD_LIMIT}")):
            with pytest.raises(InputError) as err:
                gen(n, coord_range, 3)
            assert str(err.value) == message, (gen, n, coord_range)
    assert len(gen_point_pair(3, COORD_LIMIT, 3)) == 3


def test_hunt_skips_only_the_polygon_generators_give_up(monkeypatch):
    """A polygon the generator cannot build is a skipped instance; any
    other ValueError from it is a bug and leaves the hunt."""
    def bug(n, coord_range, seed):
        raise ValueError("bug")

    monkeypatch.setattr(oracle, "gen_polygon_pair", bug)
    with pytest.raises(ValueError, match="bug") as err:
        hunt(POLYGONS, (5, 5), 2, 1)
    assert type(err.value) is ValueError


def test_hunt_bundles_each_finding_of_an_instance_in_its_own_file(monkeypatch, tmp_path):
    """A fast-path result that fails verification and the oracle's
    disagreement with it are two findings on one instance: each gets its
    own bundle, and the failed-verification one keeps its choice trace."""
    from jointtri.greedy import JointTriangulation

    def unverified(*args, **kwargs):
        return JointTriangulation(frozenset(), False, "synthetic violation", [(0, 1, 2)])

    def perturbed(n, coord_range, seed):
        # pairs that pass the conditions, so the greedy runs
        with monkeypatch.context() as m:
            m.setattr(oracle, "gen_point_pair", gen_point_pair)
            return gen_perturbed_pair(n, 40, 1, seed)

    monkeypatch.setattr(oracle, "greedy_construct", unverified)
    monkeypatch.setattr(oracle, "dp_joint_polygon", unverified)
    monkeypatch.setattr(oracle, "gen_point_pair", perturbed)
    for mode, n_range, source in ((POINTS, (6, 6), "greedy"),
                                  (POLYGONS, (6, 7), "dp")):
        bundles = tmp_path / mode
        report = hunt(mode, n_range, 5, 1, bundle_dir=str(bundles))
        failed = {(c.seed, c.n): c for c in report.counterexamples
                  if c.oracle_verdict is None}
        disagree = [c for c in report.counterexamples if c.oracle_verdict is not None]
        assert len(disagree) >= 2, mode
        paths = [c.bundle_path for c in report.counterexamples]
        assert len(set(paths)) == len(paths)
        assert sorted(p.name for p in bundles.iterdir()) == sorted(
            Path(p).name for p in paths)
        for d in disagree:
            c = failed[d.seed, d.n]
            assert d.bundle_path == c.bundle_path[:-len(".txt")] + "-oracle.txt"
            lines = Path(c.bundle_path).read_text(encoding="utf-8").splitlines()
            assert lines[0] == (f"# counterexample: {source} result failed "
                                "verification: synthetic violation")
            assert lines[-2:] == ["# trace:", "# choice (0, 1, 2)"], mode
