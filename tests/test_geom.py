import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointtri import geom
from jointtri.geom import (CCW, COLLINEAR, COORD_LIMIT, CW, MAX_TENSOR_POINTS,
                           DegenerateInput, LabeledSet, Point, SizeGuard,
                           convex_hull, hull_edge_set, orient,
                           orient_sign_tensor)

from helpers import (brute_hull_edges, overlap_by_decomposition,
                     overlap_by_sampling, xorient)

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(Point, coords, coords)


def test_orient_basis():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == CCW
    assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) == COLLINEAR
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == CW


@given(points, points, points)
def test_orient_antisymmetric_under_swaps(p, q, r):
    base = orient(p, q, r)
    assert orient(q, p, r) == -base
    assert orient(p, r, q) == -base
    assert orient(r, q, p) == -base


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


def test_chunked_sign_tensor_equals_unchunked_formula(monkeypatch):
    rng = random.Random(8)
    small = [Point(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(9)]
    d = orient_sign_tensor(small)
    assert d.dtype == np.int8
    assert d.tolist() == [[[xorient(p, q, r) for r in small] for q in small]
                          for p in small]
    for n, block in ((60, None), (100, None), (37, 1), (23, 3 * 23 * 23)):
        if block is not None:
            monkeypatch.setattr(geom, "_TENSOR_BLOCK", block)
        lim = COORD_LIMIT if n % 2 else 20
        pts = [Point(rng.randint(-lim, lim), rng.randint(-lim, lim))
               for _ in range(n)]
        got = orient_sign_tensor(pts)
        assert got.dtype == np.int8
        assert np.array_equal(got, _unchunked_signs(pts)), (n, block)


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
    d = orient_sign_tensor(pts)
    assert d.tolist() == [[[xorient(p, q, r) for r in pts] for q in pts]
                          for p in pts]
    on_anti = [3] + list(range(len(diag), len(diag) + len(anti)))
    for run in (range(len(diag)), on_anti):
        assert not d[np.ix_(run, run, run)].any()
    assert np.count_nonzero(d) > len(pts) ** 3 // 2


def test_size_guard_one_past_the_tensor_limit(monkeypatch):
    def refuse(pts):
        raise AssertionError("tensor built past the size guard")

    coords = [(i, i * i % 1009) for i in range(MAX_TENSOR_POINTS + 1)]
    big = LabeledSet.from_coords(coords)
    monkeypatch.setattr(geom, "orient_sign_tensor", refuse)
    with pytest.raises(SizeGuard, match=f"n <= {MAX_TENSOR_POINTS}"):
        big.signs
    monkeypatch.undo()
    # at the limit the tensor is built (checked here at a smaller limit)
    monkeypatch.setattr(geom, "MAX_TENSOR_POINTS", 12)
    assert LabeledSet.from_coords(coords[:12]).signs.shape == (12, 12, 12)
    with pytest.raises(SizeGuard):
        LabeledSet.from_coords(coords[:13]).signs


def _random_triangle(rng):
    while True:
        pts = tuple(Point(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(3))
        if orient(*pts) != 0:
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
