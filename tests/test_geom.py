import random
from functools import cmp_to_key
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointtri import geom, triangles
from jointtri.conditions import PointSetPair
from jointtri.geom import (COORD_LIMIT, MAX_TENSOR_POINTS, DegenerateInput,
                           LabeledSet, Point, SizeGuard, convex_hull, cross,
                           hull_edge_set, orient_sign_tensor)

from helpers import (brute_hull_edges, overlap_by_decomposition,
                     overlap_by_sampling, reference_sign_tensor,
                     star_polygon_coords, xorient)

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(Point, coords, coords)


def test_orient_basis():
    """``cross`` is positive on a left turn, zero on a line and negative
    on a right turn."""
    assert cross(Point(0, 0), Point(1, 0), Point(0, 1)) > 0
    assert cross(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
    assert cross(Point(0, 0), Point(0, 1), Point(1, 0)) < 0


@given(points, points, points)
def test_orient_antisymmetric_under_swaps(p, q, r):
    base = cross(p, q, r)
    assert cross(q, p, r) == -base
    assert cross(p, r, q) == -base
    assert cross(r, q, p) == -base


SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


def test_convex_hull_square():
    s = LabeledSet.from_coords(SQUARE)
    hull = convex_hull(s)
    assert hull == [0, 1, 2, 3]
    assert hull_edge_set(hull) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert s.hull == (0, 1, 2, 3) and s.hull is s.hull


def test_convex_hull_collinear_boundary_point_subdivides_edge():
    s = LabeledSet.from_coords(SQUARE + [(1, 0)])
    hull = convex_hull(s)
    assert hull == [0, 4, 1, 2, 3]
    assert (0, 1) not in hull_edge_set(hull)


def test_convex_hull_interior_point_excluded():
    s = LabeledSet.from_coords(SQUARE + [(1, 1)])
    assert convex_hull(s) == [0, 1, 2, 3]


def test_convex_hull_degenerate():
    s = LabeledSet.from_coords([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateInput):
        convex_hull(s)


def _hull_cycle_edges(pts):
    hull = convex_hull(LabeledSet.from_coords(pts))
    assert hull[0] == min(hull)
    return set(zip(hull, hull[1:] + hull[:1]))


def test_convex_hull_matches_brute_hull_on_dense_grids():
    # Dense grid sets with collinear runs on the vertical edges at min x and
    # max x, where the monotone chains meet a run of equal x end-on.
    rng = random.Random(31)
    for _ in range(300):
        side = rng.randint(2, 7)
        left = [(0, y) for y in rng.sample(range(side), rng.randint(2, side))]
        right = [(side - 1, y) for y in rng.sample(range(side), rng.randint(2, side))]
        inner = [(x, y) for x in range(1, side - 1) for y in range(side)]
        pts = left + right + rng.sample(inner, min(len(inner), rng.randint(0, 9)))
        rng.shuffle(pts)
        assert _hull_cycle_edges(pts) == set(brute_hull_edges(pts)), pts


def test_convex_hull_degenerate_exactly_when_all_collinear():
    rng = random.Random(32)
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3)):
        for n in range(3, 9):
            pts = [(3 + k * dx, 5 + k * dy) for k in rng.sample(range(-10, 10), n)]
            assert brute_hull_edges(pts) == []
            with pytest.raises(DegenerateInput):
                convex_hull(LabeledSet.from_coords(pts))
            # one point off the line: a triangle with the rest on one edge
            off = pts + [(3 + 10 * dx - dy, 5 + 10 * dy + dx)]
            assert _hull_cycle_edges(off) == set(brute_hull_edges(off)), off


def test_convex_hull_invariant_under_relabeling():
    rng = random.Random(7)
    for _ in range(30):
        pts = []
        while len(pts) < 8:
            p = (rng.randint(0, 40), rng.randint(0, 40))
            if p not in pts:
                pts.append(p)
        try:
            base = hull_edge_set(convex_hull(LabeledSet.from_coords(pts)))
        except DegenerateInput:
            continue
        perm = list(range(8))
        rng.shuffle(perm)
        permuted = [pts[perm[i]] for i in range(8)]
        relabeled = hull_edge_set(convex_hull(LabeledSet.from_coords(permuted)))
        inv = {perm[i]: i for i in range(8)}
        mapped = {tuple(sorted((inv[a], inv[b]))) for a, b in base}
        # base edge {a,b} refers to original positions; position p moved to
        # index inv[p] in the permuted set
        assert relabeled == mapped


def test_labeled_set_validation():
    with pytest.raises(ValueError):
        LabeledSet.from_coords([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        LabeledSet.from_coords([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(ValueError):
        LabeledSet.from_coords([(0, 0), (1, 0), (2 ** 30, 1)])


def _unchunked_signs(pts):
    xs = np.array([p[0] for p in pts], dtype=np.int64)
    ys = np.array([p[1] for p in pts], dtype=np.int64)
    dx = xs[None, :] - xs[:, None]
    dy = ys[None, :] - ys[:, None]
    det = dx[:, :, None] * dy[:, None, :] - dy[:, :, None] * dx[:, None, :]
    return np.sign(det).astype(np.int8)


def _pack(d):
    """The packed table of sign tensor d: bit k of row (i, j) set iff
    d[i, j, k] = 1, by shifts and sums, not ``np.packbits``."""
    n = len(d)
    words = -(-n // 64)
    bits = np.zeros((n, n, 64 * words), dtype=np.uint64)
    bits[:, :, :n] = d == 1
    shifted = bits.reshape(n, n, words, 64) << np.arange(64, dtype=np.uint64)
    return shifted.sum(axis=3, dtype=np.uint64)


def _signs_of(table):
    """The int8 sign tensor a packed table holds: bit k of row (i, j) minus
    bit k of row (j, i), read with shifts."""
    n = len(table)
    k = np.arange(n)
    bits = (table[:, :, k // 64] >> (k % 64).astype(np.uint64)) & np.uint64(1)
    bits = bits.astype(np.int8)
    return bits - bits.transpose(1, 0, 2)


def test_packed_table_is_the_reference_bit_for_bit(monkeypatch):
    # Word and padding boundaries (n = 63, 64, 65, 127, 128, 129), one row
    # per block and the default blocks, grid points with many collinear
    # triples scaled to within _INT32_COORDS and to far beyond it, plus a
    # few off-grid points.
    rng = random.Random(24)
    cells = [(x, y) for x in range(-10, 11) for y in range(-10, 11)]
    for n in (3, 63, 64, 65, 127, 128, 129):
        grid = rng.sample(cells, n - n // 8)
        for scale in (geom._INT32_COORDS // 10, COORD_LIMIT // 10):
            pts = [Point(x * scale, y * scale) for x, y in grid]
            while len(pts) < n:
                p = Point(rng.randint(-10 * scale, 10 * scale),
                          rng.randint(-10 * scale, 10 * scale))
                if p not in pts:
                    pts.append(p)
            narrow = max(abs(c) for p in pts for c in p) <= geom._INT32_COORDS
            assert narrow == (scale < geom._INT32_COORDS), (n, scale)
            ref = reference_sign_tensor(pts)
            # collinear triples of distinct points (3 n^2 - 2 n triples
            # repeat a label)
            assert n == 3 or (ref == 0).sum() > 3 * n * n - 2 * n, n
            want = _pack(ref)
            for block in (geom._TENSOR_BLOCK_BYTES, 1):
                monkeypatch.setattr(geom, "_TENSOR_BLOCK_BYTES", block)
                got = orient_sign_tensor(pts)
                assert got.dtype == np.uint64 and got.shape == (n, n, -(-n // 64))
                assert np.array_equal(got, want), (n, scale, block)
                if n % 64:  # padding bits past n are zero
                    assert not (got[:, :, -1] >> np.uint64(n % 64)).any()
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 1, 0] = 1
            monkeypatch.undo()


def test_chunked_sign_tensor_equals_unchunked_formula(monkeypatch):
    rng = random.Random(8)
    small = [Point(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(9)]
    d = orient_sign_tensor(small)
    assert d.dtype == np.uint64
    assert _signs_of(d).tolist() == [[[xorient(p, q, r) for r in small]
                                      for q in small] for p in small]
    # blocks in bytes: one row, and three int64 rows at n = 23
    for n, block in ((60, None), (100, None), (37, 1), (23, 3 * 23 * 23 * 8)):
        if block is not None:
            monkeypatch.setattr(geom, "_TENSOR_BLOCK_BYTES", block)
        lim = COORD_LIMIT if n % 2 else 20
        pts = [Point(rng.randint(-lim, lim), rng.randint(-lim, lim))
               for _ in range(n)]
        got = orient_sign_tensor(pts)
        assert got.dtype == np.uint64
        assert np.array_equal(got, _pack(_unchunked_signs(pts))), (n, block)


def test_sign_tensor_is_exact_on_collinear_triples_at_the_cap():
    # Points on y = x and y = -x out to +-COORD_LIMIT, and neighbours one
    # unit off them: the table's products reach COORD_LIMIT**2 and the
    # three terms of each collinear triple must cancel to exactly 0.
    lim = COORD_LIMIT
    diag = [Point(v, v) for v in (-lim, -lim + 1, -1, 0, 1, lim - 1, lim)]
    anti = [Point(v, -v) for v in (-lim, -lim + 1, lim - 1, lim)]
    near = [Point(lim, lim - 1), Point(-lim, lim - 1), Point(lim - 1, -lim),
            Point(-lim + 1, -lim)]
    pts = diag + anti + near
    d = _signs_of(orient_sign_tensor(pts))
    assert d.tolist() == [[[xorient(p, q, r) for r in pts] for q in pts]
                          for p in pts]
    on_anti = [3] + list(range(len(diag), len(diag) + len(anti)))
    for run in (range(len(diag)), on_anti):
        assert not d[np.ix_(run, run, run)].any()
    assert np.count_nonzero(d) > len(pts) ** 3 // 2


def test_sign_tensor_is_exact_at_the_int32_bound(monkeypatch):
    # Collinear and near-collinear triples with every coordinate within
    # +-2**14, the int32 build's bound: the table's entries reach 2**29 and
    # its sums 2**30.  One coordinate moved to 2**14 + 1 or
    # +-2**15 sends the build to int64.  The same points doubled have
    # doubled areas up to 2**32, past int32, so a build that stays in int32
    # there gets signs wrong.  One row per block crosses every boundary.
    monkeypatch.setattr(geom, "_TENSOR_BLOCK_BYTES", 1)
    c = 2**14
    frame = [Point(c, c), Point(-c, -c), Point(c, -c), Point(-c, c)]
    near = [Point(0, 0), Point(c - 1, c), Point(-c, -c + 1), Point(c, -c + 1),
            Point(-c + 1, c), Point(1, 1), Point(-1, 1), Point(c, 0),
            Point(0, -c), Point(c - 1, -c + 1)]
    base = frame + near
    sets = [base] + [base[:1] + [moved] + base[2:] for moved in (
        Point(c + 1, c), Point(c, 2 * c), Point(-2 * c, -c), Point(-c, -c - 1))]
    sets.append([Point(2 * x, 2 * y) for x, y in base])
    for pts in sets:
        table = orient_sign_tensor(pts)
        assert table.dtype == np.uint64
        d = _signs_of(table)
        assert d.tolist() == [[[xorient(p, q, r) for r in pts] for q in pts]
                              for p in pts], pts[1]
    # both diagonals pass through the origin; their neighbours do not
    d = _signs_of(orient_sign_tensor(base))
    assert not d[0, 1, 4] and not d[2, 3, 4]
    assert d[0, 1, 5] and d[0, 1, 6] and d[2, 3, 7]


def test_size_guard_one_past_the_tensor_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("tensor built past the size guard")

    coords = [(i, i * i % 1009) for i in range(MAX_TENSOR_POINTS + 1)]
    big = LabeledSet.from_coords(coords)
    monkeypatch.setattr(geom, "orient_sign_tensor", refuse)
    with pytest.raises(SizeGuard, match=f"n <= {MAX_TENSOR_POINTS}"):
        big.signs
    # the chain's first reader refuses before the sweep's [n, n] angle tables
    monkeypatch.setattr(triangles, "angle_order", refuse)
    with pytest.raises(SizeGuard, match=f"n <= {MAX_TENSOR_POINTS}"):
        PointSetPair(big, big).candidates
    monkeypatch.undo()
    # at the limit the tensor is built (checked here at a smaller limit)
    monkeypatch.setattr(geom, "MAX_TENSOR_POINTS", 12)
    assert LabeledSet.from_coords(coords[:12]).signs.shape == (12, 12, 1)
    with pytest.raises(SizeGuard):
        LabeledSet.from_coords(coords[:13]).signs


def _random_triangle(rng):
    while True:
        pts = tuple(Point(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(3))
        if xorient(*pts) != 0:
            return pts


def test_overlap_reference_against_sampling():
    # overlap_by_decomposition is the reference for the greedy's deletion
    # mask; random interior points that land in both triangles confirm it.
    rng = random.Random(20250810)
    sampled_hits = 0
    for _ in range(1000):
        t1 = _random_triangle(rng)
        t2 = _random_triangle(rng)
        got = overlap_by_decomposition(t1, t2)
        assert got == overlap_by_decomposition(t2, t1)
        witness = overlap_by_sampling(t1, t2, rng)
        if witness is True:
            sampled_hits += 1
            assert got
    assert sampled_hits > 300  # sampling actually exercised the true cases


def _direction_cmp(d, e) -> int:
    """Scalar reference order of nonzero directions, counterclockwise from
    +x: the upper half-plane (+x included) first, then the cross product;
    0 for equal directions."""
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    if half(d) != half(e):
        return half(d) - half(e)
    return -xorient((0, 0), d, e)


def _scalar_angle_tables(pts):
    """``angle_order``'s four tables from the scalar order: row u lists the
    other points by ``_direction_cmp``, nearest first within a direction,
    then u; ``first`` and ``last`` are the ends of each direction's run
    (u's own, at n - 1, alone), and ``graze`` says a nearer point shares
    the direction."""
    n = len(pts)
    order, first, last = (np.empty((n, n), dtype=np.int16) for _ in range(3))
    graze = np.zeros((n, n), dtype=bool)
    for u, (ux, uy) in enumerate(pts):
        d = {v: (x - ux, y - uy) for v, (x, y) in enumerate(pts) if v != u}

        def cmp(v, w):
            return _direction_cmp(d[v], d[w]) or \
                abs(d[v][0]) + abs(d[v][1]) - abs(d[w][0]) - abs(d[w][1])

        row = sorted(d, key=cmp_to_key(cmp)) + [u]
        order[u] = row
        start = 0
        for p in range(n):
            if p == n - 1 or p and _direction_cmp(d[row[p - 1]], d[row[p]]):
                first[u, row[start:p]] = start
                last[u, row[start:p]] = p - 1
                start = p
            graze[u, row[p]] = p > start
        first[u, u] = last[u, u] = n - 1
    return order, first, last, graze


def _check_angle_order(pts):
    """``angle_order`` on ``pts``, asserted equal to the scalar tables."""
    xs, ys = np.array(pts, dtype=np.int64).T
    got = geom.angle_order(xs, ys)
    for name, g, w in zip(("order", "first", "last", "graze"), got, _scalar_angle_tables(pts)):
        assert g.dtype == w.dtype and np.array_equal(g, w), (name, pts)
    return got


def _cap_directions():
    """Directions at the coordinate cap (differences up to 2 * COORD_LIMIT),
    in every octant: pairs one step apart, whose cross product is +-1, the
    half-plane boundaries, and equal directions at different lengths."""
    m = 2 * COORD_LIMIT
    base = [(m, m - 1), (m - 1, m - 2), (m, m), (1, 1), (m // 2, m // 2),
            (m, 1), (m, 0), (1, 0), (m - 1, 1), (m, m // 2), (2, 1),
            (m - 2, m // 2 - 1), (m - 1, m // 2), (3, m), (1, m - 1)]
    out = set()
    for x, y in base:
        for sx in (1, -1):
            for sy in (1, -1):
                out |= {(sx * x, sy * y), (sy * y, sx * x)}
    return sorted(out)


def test_angle_keys_order_directions_at_the_cap():
    dirs = _cap_directions()
    key = geom.angle_keys(*np.array(dirs, dtype=np.int64).T).tolist()
    ties = 0
    for i, j in combinations(range(len(dirs)), 2):
        want = _direction_cmp(dirs[i], dirs[j])
        assert (key[i] > key[j]) - (key[i] < key[j]) == (want > 0) - (want < 0), \
            (dirs[i], dirs[j])
        ties += want == 0
    assert ties >= 16


def test_angle_order_matches_scalar_sort_at_the_cap(monkeypatch):
    """``angle_order`` on points at +-COORD_LIMIT: each row sorted by the
    scalar direction order, nearest first within a direction, and
    ``first`` and ``last`` bracket each direction's run."""
    c = COORD_LIMIT
    pts = [(-c, -c), (c, c), (0, 0), (c, c - 1), (c - 1, c - 2), (-c, c),
           (c, -c), (c // 2, c // 2), (1, 0), (c, 0), (-c, 1), (2, 1),
           (c - 2, c // 2 - 1), (-c + 1, -c + 2), (0, c), (0, -c)]
    xs, ys = np.array(pts, dtype=np.int64).T
    order, first, last, graze = _check_angle_order(pts)
    assert graze.any()
    # Two distinct directions from (-c, -c), to (c, c - 1) and to
    # (c - 1, c - 2), whose cross product is -1: their coarse keys, the
    # full keys shifted right by 26 bits, collide, so the row takes the
    # exact path, and it still puts (c - 1, c - 2) first.
    d = np.array([[2 * c, 2 * c - 1], [2 * c - 1, 2 * c - 2]], dtype=np.int64)
    key = geom.angle_keys(*d.T)
    assert key[1] < key[0] and key[0] >> 26 == key[1] >> 26
    row = order[0].tolist()
    assert row.index(4) == row.index(3) - 1
    # the same tables in blocks of three rows of the 16 (the last holds one)
    monkeypatch.setattr(geom, "_ANGLE_BLOCK_CELLS", 16 * 3)
    for got, want in zip(geom.angle_order(xs, ys), (order, first, last, graze)):
        assert np.array_equal(got, want)


def test_angle_order_matches_scalar_sort(monkeypatch):
    """``angle_order`` against the scalar reference tables: on tie-heavy
    grids, where collinear points send rows to the exact sort, in one
    block, in blocks of seven rows (the last of four) and of one row; and
    on a star of 300 points, in blocks of 27 rows (the last of three)."""
    rng = random.Random(311)
    cells = [(x, y) for x in range(10) for y in range(10)]
    grids = [rng.sample(cells, 60) for _ in range(20)]
    tables = [_check_angle_order(pts) for pts in grids]
    for block in (60 * 7, 1):
        monkeypatch.setattr(geom, "_ANGLE_BLOCK_CELLS", block)
        for pts, want in zip(grids, tables):
            got = geom.angle_order(*np.array(pts, dtype=np.int64).T)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), pts
    monkeypatch.undo()
    assert all(t[3].any() for t in tables)
    star = star_polygon_coords(rng, 300, 2**20)
    assert len(set(star)) == 300 and geom._ANGLE_BLOCK_CELLS // 300 == 27
    _check_angle_order(star)
