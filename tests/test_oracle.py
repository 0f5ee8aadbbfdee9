import inspect
import math
import random
import tracemalloc
from itertools import combinations, islice
from pathlib import Path

import pytest

from jointtri import campaign, conditions, oracle, triangles
from jointtri.campaign import (POINTS, POLYGONS, gen_point_pair, gen_polygon_pair,
                               hunt)
from jointtri.conditions import PointSetPair, necessary_conditions
from jointtri.geom import (COORD_LIMIT, DegenerateInput, InputError, LabeledSet, Point,
                           SizeGuard)
from jointtri.greedy import verify_joint
from jointtri.oracle import (MAX_ORACLE_POINTS, MAX_ORACLE_POLYGON,
                             iter_triangulations, oracle_joint_exists,
                             polygon_oracle_exists)
from jointtri.polygon import Polygon, PolygonPair, dp_joint_polygon, verify_polygon_joint

from helpers import (brute_hull_edges, brute_joint_exists,
                     brute_joint_triangulations, convex_polygon_coords,
                     convex_position_points, enumerate_triangulations, gen_perturbed_pair,
                     grid_locked_coords, hull_locked_pair, mirror,
                     overlap_by_decomposition, pairwise_verify_points,
                     reference_draw_points, reference_untangle, xorient)

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


def test_frontier_search_is_blind_to_mirroring_b():
    # Mirroring B reverses every triangle and B's hull, so a triangle turns
    # as the hulls do exactly when it did before: the search yields the
    # same sets in the same order.  A filter that kept the triangles turning
    # alike in A and B without comparing the hulls would yield nothing on
    # the mirrored pairs.
    yes = 0
    for seed in range(200):
        n = 4 + seed % 5
        for pair in (hull_locked_pair(n, 40, 6, seed), gen_perturbed_pair(n, 20, 3, seed)):
            got = list(iter_triangulations(pair))
            assert list(iter_triangulations(PointSetPair(pair.a, mirror(pair.b)))) == got, seed
            yes += bool(got)
    assert yes >= 240  # 252 of the 400 pairs


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


def test_untangle_matches_scalar_reference(monkeypatch):
    """``_untangle`` reverses between the first pair of edges construction's
    segment test names.  With no three points collinear, two edges meet
    only where non-adjacent ones cross properly, so that pair is the first
    the scalar sweep (``reference_untangle``) finds.  On 1,200 seeded
    shuffles of such draws, n 4-40 in a range of 100, both give the same
    cycle; with the budget cut to 2 sweeps both give None on the same
    inputs, and some inputs run out of it."""
    rng = random.Random(40)
    inputs = []
    for k in range(300):
        n = rng.randint(11, 40) if k % 10 == 0 else rng.randint(4, 10)
        pts: list[Point] = []
        while len(pts) < n:
            p = Point(rng.randint(0, 100), rng.randint(0, 100))
            if p not in pts and all(xorient(q, r, p) for q, r in combinations(pts, 2)):
                pts.append(p)
        for _ in range(4):
            rng.shuffle(pts)
            inputs.append(pts[:])
    got = [campaign._untangle(pts) for pts in inputs]
    assert got == [reference_untangle(pts) for pts in inputs]
    assert None not in got and sum(g != pts for g, pts in zip(got, inputs)) >= 900
    monkeypatch.setattr(campaign, "_UNTANGLE_SWEEPS", 2)
    cut = [campaign._untangle(pts) for pts in inputs]
    assert cut == [reference_untangle(pts) for pts in inputs]
    # measured: 1,038 shuffles changed, 790 out of budget at 2 sweeps
    assert 600 <= cut.count(None) <= 1000


def test_draw_points_matches_scalar_collinearity_test():
    """The generator's per-point direction sets refuse exactly the draws
    the scalar ``xorient`` test over every kept pair refuses, so the kept
    points, and the stream the draw leaves behind, are the same.  Small
    ranges make collinear draws common, and some runs stop at the draw
    budget short of n."""
    refused = short = 0
    for seed in range(200):
        n, coord_range = (4 + seed % 20, (3, 6, 12, 40)[seed % 4])
        rng, ref = random.Random(seed), random.Random(seed)
        got = campaign._draw_points(rng, n, coord_range)
        want, collinear = reference_draw_points(ref, n, coord_range)
        assert got == want, (seed, n, coord_range)
        assert rng.random() == ref.random()
        refused += collinear
        short += len(got) < n
    # measured: 100,763 draws refused as collinear, 79 runs short
    assert refused >= 50_000 and short >= 40, (refused, short)


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
        witness = polygon_oracle_exists(pair)
        assert fast == (witness is not None)
        if witness is not None:
            assert witness == frozenset(dp.triangles)
        agree += 1
    assert agree == 25


def test_polygon_oracle_returns_the_dp_set_lazily(monkeypatch):
    """On the convex 10-gon self pair (1,430 interval triangulations) the
    judge returns the DP's least-k set after one verification, and its
    tracemalloc peak stays under 128 KB: it enumerates lazily and keeps
    no table of every sub-interval's triangulations, which peaked at
    about 1.4 MB."""
    side = Polygon.from_coords(convex_polygon_coords(MAX_ORACLE_POLYGON))
    pair = PolygonPair(side, side)
    want = frozenset(dp_joint_polygon(pair).triangles)
    calls = []

    def counting_verify(*args):
        calls.append(args)
        return verify_polygon_joint(*args)

    monkeypatch.setattr(oracle, "verify_polygon_joint", counting_verify)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = polygon_oracle_exists(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want and len(calls) == 1
    assert peak < 128 * 1024, peak


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


def test_oracle_module_holds_only_the_judges():
    """``jointtri.oracle`` defines the three exact judges and no other
    function, and binds no numpy, ``random``, file-format or campaign
    module: the generators and the hunt that drive the judges live in
    ``jointtri.campaign``, which imports the oracle, never the reverse."""
    defined = {name for name, value in vars(oracle).items()
               if inspect.isfunction(value) and value.__module__ == oracle.__name__}
    assert defined == {"iter_triangulations", "oracle_joint_exists",
                       "polygon_oracle_exists"}
    modules = {value.__name__ for value in vars(oracle).values()
               if inspect.ismodule(value)}
    assert not modules & {"numpy", "random", "jointtri.files", "jointtri.campaign"}


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

    monkeypatch.setattr(campaign, "gen_polygon_pair", bug)
    with pytest.raises(ValueError, match="bug") as err:
        hunt(POLYGONS, (5, 5), 2, 1)
    assert type(err.value) is ValueError


def test_hunt_bundles_each_finding_of_an_instance_in_its_own_file(monkeypatch, tmp_path):
    """A fast-path result that fails verification and the oracle's
    disagreement with it are two findings on one instance: each gets its
    own bundle, and the failed-verification one keeps its choice trace."""
    from jointtri.greedy import JointTriangulation

    def unverified(*args, **kwargs):
        return JointTriangulation(frozenset(), "synthetic violation", [(0, 1, 2)])

    def perturbed(n, coord_range, seed):
        # pairs that pass the conditions, so the greedy runs
        with monkeypatch.context() as m:
            m.setattr(campaign, "gen_point_pair", gen_point_pair)
            return gen_perturbed_pair(n, 40, 1, seed)

    monkeypatch.setattr(campaign, "greedy_construct", unverified)
    monkeypatch.setattr(campaign, "dp_joint_polygon", unverified)
    monkeypatch.setattr(campaign, "gen_point_pair", perturbed)
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
