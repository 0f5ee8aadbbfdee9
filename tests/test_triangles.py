import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from jointtri import geom, triangles
from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 legal_set)
from jointtri.files import parse_instance
from jointtri.geom import LabeledSet
from jointtri.greedy import LEX, SEEDED_RANDOM, greedy_construct
from jointtri.polygon import Polygon, PolygonPair, dp_joint_polygon
from jointtri.triangles import (TriangleSet, edge, enumerate_empty,
                                paired_empty, tri)

from helpers import (COLLAPSING_TEXT, brute_empty_triangles,
                     convex_polygon_coords, convex_position_points,
                     grid_locked_coords, hull_locked_pair,
                     reference_sign_tensor, scan_empty_triangles, tri_edges)

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


def test_tri_canonicalization():
    assert tri(3, 1, 2) == (1, 2, 3)
    assert tri_edges((1, 2, 3)) == ((1, 2), (2, 3), (1, 3))
    assert edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        tri(1, 1, 2)


def test_triangle_set_edge_index_invariant():
    rng = random.Random(3)
    tris = {tri(*rng.sample(range(10), 3)) for _ in range(40)}
    ts = TriangleSet(tris)
    assert set(ts) == tris
    # members are stored canonically, whatever order they are given in
    extra = TriangleSet([(9, 2, 5), (5, 9, 2)])
    assert extra.sorted_triangles() == [(2, 5, 9)]
    assert (2, 5, 9) in extra and len(extra) == 1
    # a set of canonical triples is kept as given, so it iterates as given
    kept = TriangleSet._of_canonical(tris)
    assert kept == ts and list(kept) == list(tris)


def test_enumerate_empty_square():
    s = LabeledSet.from_coords(SQUARE)
    assert enumerate_empty(s).sorted_triangles() == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_enumerate_empty_square_plus_center():
    # The center sits on every corner-triple's diagonal edge, so only the
    # four center fans survive; the two opposite-corner triples through
    # the center are collinear and excluded.
    s = LabeledSet.from_coords(SQUARE + [(1, 1)])
    got = enumerate_empty(s).sorted_triangles()
    assert got == [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)]
    assert got == sorted(brute_empty_triangles(s.points))


def test_enumerate_empty_collinear_set_is_empty():
    s = LabeledSet.from_coords([(0, 0), (1, 1), (2, 2)])
    assert len(enumerate_empty(s)) == 0


def test_enumerate_empty_convex_position_count():
    for n in (4, 6, 9):
        s = LabeledSet.from_coords(convex_position_points(n))
        assert len(enumerate_empty(s)) == math.comb(n, 3)


def _both_paths(monkeypatch):
    """Runs the loop body once as the code stands, then once with the
    direct test of every triple turned off: no set of 3 or more points
    fits in a chunk of 2 cells, so every set takes the angular sweep."""
    yield "direct up to 36 points"
    monkeypatch.setattr(triangles, "_ROW_CHUNK_CELLS", 2)
    yield "sweep"
    monkeypatch.undo()


def _count_sweeps(monkeypatch):
    """The sizes of the sets that ``enumerate_empty`` sends through the
    angular sweep from here on, one entry per ``angle_order`` call."""
    sweeps = []

    def counted_angle_order(*args):
        sweeps.append(len(args[0]))
        return geom.angle_order(*args)

    monkeypatch.setattr(triangles, "angle_order", counted_angle_order)
    return sweeps


def test_enumerate_empty_matches_brute_scan(monkeypatch):
    rng = random.Random(99)
    sets = []
    for trial in range(60):
        n = rng.randint(4, 12)
        pts = []
        while len(pts) < n:
            p = (rng.randint(0, 15), rng.randint(0, 15))
            if p not in pts:
                pts.append(p)
        sets.append(pts)
    want = [brute_empty_triangles(pts) for pts in sets]
    for path in _both_paths(monkeypatch):
        for pts, expected in zip(sets, want):
            s = LabeledSet.from_coords(pts)
            assert set(enumerate_empty(s)) == expected, (path, pts)


def test_point_removal_only_grows_restricted_empty_set():
    rng = random.Random(5)
    for _ in range(20):
        pts = []
        while len(pts) < 9:
            p = (rng.randint(0, 20), rng.randint(0, 20))
            if p not in pts:
                pts.append(p)
        full = set(enumerate_empty(LabeledSet.from_coords(pts)))
        # drop the last point; surviving labels keep their indices
        reduced = set(enumerate_empty(LabeledSet.from_coords(pts[:-1])))
        restricted = {t for t in full if 8 not in t}
        assert restricted <= reduced


def test_paired_empty_identity_and_convexity():
    sq = LabeledSet.from_coords(SQUARE)
    both = paired_empty(PointSetPair(sq, sq))
    assert len(both) == 4
    swapped = LabeledSet.from_coords([(0, 0), (2, 2), (2, 0), (0, 2)])
    assert len(paired_empty(PointSetPair(sq, swapped))) == 4


def test_paired_empty_is_intersection():
    a = LabeledSet.from_coords(SQUARE + [(1, 1)])
    b = LabeledSet.from_coords(convex_position_points(5))
    pair = PointSetPair(a, b)
    got = paired_empty(pair)
    in_a = enumerate_empty(a)
    in_b = enumerate_empty(b)
    assert set(got) == set(in_a) & set(in_b)
    # all of b's triples are empty (convex position), so the pairing is
    # exactly a's empty set
    assert set(got) == set(in_a)


def _grid_set(rng, n, side):
    cells = [(x, y) for x in range(side) for y in range(side)]
    return LabeledSet.from_coords(rng.sample(cells, n))


def test_enumerate_empty_matches_brute_scan_on_grids_past_n12(monkeypatch):
    rng = random.Random(4)
    sets = [_grid_set(rng, n, 7 if n < 25 else 9) for n in (13, 16, 20, 25, 31, 40)]
    want = [brute_empty_triangles(s.points) for s in sets]
    for path in _both_paths(monkeypatch):
        for s, expected in zip(sets, want):
            got = enumerate_empty(s)
            assert set(got) == expected, (path, s.points)
            # added in lexicographic order
            assert list(got) == list(TriangleSet(sorted(got)))


def test_enumerate_empty_on_both_sides_of_the_direct_test(monkeypatch):
    # 36 points are the most whose triples all fit in one chunk of
    # _empty_rows, tested directly; 37 take the angular sweep.  Grid
    # samples and collinear grids on each side, against the row scan.
    assert (math.comb(36, 3) * 36 <= triangles._ROW_CHUNK_CELLS
            < math.comb(37, 3) * 37)
    sweeps = _count_sweeps(monkeypatch)
    rng = random.Random(36)
    for n in (36, 37):
        for s in (_grid_set(rng, n, 9),
                  LabeledSet.from_coords(_collinear_grid_set(rng, n))):
            assert list(enumerate_empty(s)) == list(scan_empty_triangles(s)), s.points
    assert sweeps == [37, 37]


def test_enumerate_empty_across_row_chunk_boundaries(monkeypatch):
    rng = random.Random(5)
    sets = [_grid_set(rng, n, 6) for n in (13, 18, 24)]
    whole = [list(enumerate_empty(s)) for s in sets]
    # Sets this small are tested directly; a 2-cell chunk holds no triple,
    # so they take the angular sweep.  A few rows per block: rows are at
    # most n - 1 cells long, so 40 cells is one row or more at these sizes;
    # the angle tables that give the ranks are built one vertex per block.
    monkeypatch.setattr(triangles, "_ROW_CHUNK_CELLS", 2)
    monkeypatch.setattr(triangles, "_SWEEP_BLOCK_CELLS", 40)
    monkeypatch.setattr(geom, "_ANGLE_BLOCK_CELLS", 1)
    sweeps = _count_sweeps(monkeypatch)
    for s, expected in zip(sets, whole):
        got = enumerate_empty(s)
        assert list(got) == expected
        assert set(got) == brute_empty_triangles(s.points)
    assert sweeps == [len(s) for s in sets]


def _ray_and_half_plane_rows(s):
    """Rows (i, j), i < j, with another point on the ray from i through j
    (j's direction group has more than one point), and rows with no point
    strictly left of i -> j."""
    d = reference_sign_tensor(s.points)
    xy = np.array(s.points)
    on_ray = empty_left = 0
    for i, j in zip(*np.triu_indices(len(s), 1)):
        line = np.flatnonzero(d[i, j] == 0)
        ahead = (xy[line] - xy[i]) @ (xy[j] - xy[i]) > 0
        on_ray += np.count_nonzero(ahead) > 1
        empty_left += not (d[i, j] == 1).any()
    return on_ray, empty_left


def test_enumerate_empty_on_rays_and_empty_half_planes_across_blocks(monkeypatch):
    # Sets with several points on one ray from a vertex, and with rows that
    # have nothing strictly left of i -> j: a fan of rays from the origin,
    # collinear grid runs and grid samples.
    rng = random.Random(19)
    fan = [(0, 0)] + [(t * dx, t * dy) for dx, dy in ((1, 0), (2, 1), (1, 1),
                                                     (1, 3), (-1, 2))
                      for t in range(1, 4)]
    sets = [LabeledSet.from_coords(fan)]
    sets += [LabeledSet.from_coords(_collinear_grid_set(rng, n)) for n in (14, 21)]
    sets += [_grid_set(rng, n, 5) for n in (9, 17)]
    for s in sets:
        on_ray, empty_left = _ray_and_half_plane_rows(s)
        assert on_ray and empty_left, s.points
    whole = [list(enumerate_empty(s)) for s in sets]
    # Sets this small are tested directly; a 2-cell chunk holds no triple,
    # so they take the angular sweep.  Its rows run widest first, 2 to 20
    # cells wide here: blocks of 24 cells hold one to three rows, mostly of
    # unequal width, wherever rows are 8 or more cells wide (more of the
    # narrower ones); 1 cell is one row per block.
    monkeypatch.setattr(triangles, "_ROW_CHUNK_CELLS", 2)
    sweeps = _count_sweeps(monkeypatch)
    for cells in (24, 1):
        monkeypatch.setattr(triangles, "_SWEEP_BLOCK_CELLS", cells)
        for s, expected in zip(sets, whole):
            got = enumerate_empty(s)
            assert list(got) == expected
            assert list(got) == list(scan_empty_triangles(s))
            assert set(got) == brute_empty_triangles(s.points)
    assert sweeps == [len(s) for s in sets] * 2


def test_paired_empty_across_row_chunk_boundaries(monkeypatch):
    rng = random.Random(8)
    pairs = []
    while len(pairs) < 3:
        coords = grid_locked_coords(rng, 12 + 5 * len(pairs), 6)
        if coords is not None:
            pairs.append(PointSetPair(*(LabeledSet.from_coords(c) for c in coords)))
    whole = [list(paired_empty(p)) for p in pairs]
    # B's test runs in chunks of n-cell rows: 40 cells is one to three rows
    monkeypatch.setattr(triangles, "_ROW_CHUNK_CELLS", 40)
    for pair, expected in zip(pairs, whole):
        assert list(paired_empty(pair)) == expected


def test_empty_rows_on_every_triple_across_words_and_blocks(monkeypatch):
    # Every triple of grid samples, degenerate ones included (a collinear
    # triple with no other point on its line must not pass), on both sides
    # of a word boundary of the packed rows, in one block and in blocks of
    # 101 triangles.
    rng = random.Random(24)
    cells = [(x, y) for x in range(9) for y in range(9)]
    for n in (12, 63, 65):
        s = LabeledSet.from_coords(rng.sample(cells, n))
        arr = np.array(list(combinations(range(n), 3)))
        want = brute_empty_triangles(s.points) if n == 12 else set(scan_empty_triangles(s))
        for chunk in (triangles._ROW_CHUNK_CELLS, 101 * n):
            monkeypatch.setattr(triangles, "_ROW_CHUNK_CELLS", chunk)
            got = triangles._empty_rows(s.signs, arr)
            assert set(map(tuple, arr[got].tolist())) == want, (n, chunk)
        monkeypatch.undo()


def _collinear_grid_set(rng, n):
    """n distinct points of a small grid, most of them on a few lines that
    cross at shared points, so that points on edges, collinear runs
    through a vertex and ties in direction are everywhere."""
    side = rng.choice((7, 9))
    pts = []
    while len(pts) < n:
        if rng.randrange(4) and pts:
            x, y = rng.choice(pts)
        else:
            x, y = rng.randrange(side), rng.randrange(side)
        dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)))
        for t in range(-side, side):
            q = (x + t * dx, y + t * dy)
            if (0 <= q[0] < side and 0 <= q[1] < side and q not in pts
                    and len(pts) < n and rng.randrange(3)):
                pts.append(q)
    return pts


def test_enumerate_empty_matches_brute_scan_on_collinear_runs(monkeypatch):
    rng = random.Random(12)
    sets = [_collinear_grid_set(rng, 3 + trial % 38) for trial in range(76)]
    want = [brute_empty_triangles(pts) for pts in sets]
    for path in _both_paths(monkeypatch):
        for pts, expected in zip(sets, want):
            got = enumerate_empty(LabeledSet.from_coords(pts))
            assert set(got) == expected, (path, pts)
            assert list(got) == list(TriangleSet(sorted(got)))


def test_enumerate_empty_matches_per_label_scan_at_large_n():
    # identical triples in identical insertion order, against the scan of
    # every row (i, j, k) that the angular sweep replaced
    for n, seed in ((100, 1), (200, 2), (300, 3)):
        s = hull_locked_pair(n, 1000, 3, seed).a
        assert list(enumerate_empty(s)) == list(scan_empty_triangles(s))


def test_enumerate_empty_memory_at_n300():
    # 173,934 empty triangles, 24 bytes of rows each.  With the sweep's
    # per-row tables, its int64 codes and their sorted and int32 copies
    # alive while the rows were filled, the tracemalloc peak was about 72
    # bytes per triangle; with the tables freed first and the int32 codes
    # sorted and divided in place, about 28.
    s = hull_locked_pair(300, 1000, 3, 0).a
    s.signs  # the orientation table is not measured
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        found = enumerate_empty(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(found) > 150000
    assert peak < 45 * len(found), peak / len(found)


def test_paired_empty_equals_filtered_a_in_iteration_order():
    rng = random.Random(6)
    for trial in range(12):
        n = 8 + 2 * trial
        coords = None
        while coords is None:
            coords = grid_locked_coords(rng, n, 7)
        a, b = (LabeledSet.from_coords(c) for c in coords)
        in_a, in_b = enumerate_empty(a), enumerate_empty(b)
        expected = TriangleSet(t for t in in_a if t in in_b)
        got = paired_empty(PointSetPair(a, b))
        assert got == expected
        assert list(got) == list(expected)


def _check_array(ts):
    arr = ts.array()
    assert arr.dtype == np.intp and arr.shape == (len(ts), 3)
    assert np.array_equal(arr, np.array(ts.sorted_triangles(),
                                        dtype=np.intp).reshape(-1, 3))
    if len(ts):
        with pytest.raises(ValueError):
            arr[0, 0] = -1


def test_triangle_set_array_is_the_sorted_rows_from_every_producer():
    # enumerate_empty, paired_empty and legal_set each hand over the sorted
    # rows they already hold; legal_set's must drop exactly the removed rows,
    # and are the candidates' own when it removed none.  The greedy's and
    # the DP's results sort on first use.
    removals = whole = 0
    pairs = [hull_locked_pair(n, 1000, 3, seed)
             for n, seed in ((20, 0), (24, 3), (30, 2))]
    # a set paired with itself: every edge a triangle has inside the hull
    # has an empty triangle across it, so nothing is removed
    pairs.append(PointSetPair(pairs[0].a, pairs[0].a))
    pairs.append(parse_instance(COLLAPSING_TEXT)[1])
    for pair in pairs:
        _check_array(enumerate_empty(pair.a))
        cands = paired_empty(pair)
        _check_array(cands)
        hull = check_hull_correspondence(pair).hull_edges
        res = legal_set(pair, cands, hull)
        _check_array(res.legal)
        removals += len(res.removed)
        if not res.removed:
            whole += 1
            assert res.legal.array() is cands.array()
        _check_array(cands)
        if len(res.legal):
            for policy, seed in ((LEX, None), (SEEDED_RANDOM, 0)):
                jt = greedy_construct(pair, res.legal, policy, seed)
                assert jt.verified
                _check_array(jt.triangles)
    assert removals > 0 and whole > 0
    assert len(legal_set(pairs[-1], paired_empty(pairs[-1]), hull).legal) == 0
    for n in (5, 12):
        poly = Polygon.from_coords(convex_polygon_coords(n))
        jt = dp_joint_polygon(PolygonPair(poly, poly))
        assert jt.verified and len(jt.triangles) == n - 2
        _check_array(jt.triangles)
    _check_array(TriangleSet())


def test_triangle_set_has_no_mutator():
    """A TriangleSet cannot change once built, so neither can its array:
    it has no method that adds or drops a member, and the array a set
    builds on first use is its sorted rows and is kept."""
    for name in ("add", "discard", "remove", "update", "clear", "pop",
                 "copy", "_seed_array"):
        assert not hasattr(TriangleSet, name), name
    fresh = TriangleSet([(4, 2, 0), (1, 2, 3), (2, 1, 0)])
    _check_array(fresh)
    assert fresh.array().tolist() == [[0, 1, 2], [0, 2, 4], [1, 2, 3]]
    assert fresh.array() is fresh.array()
    _check_array(TriangleSet._of_canonical({(1, 3, 4), (0, 1, 2)}))
