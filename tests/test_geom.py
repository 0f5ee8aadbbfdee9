import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri.geom import (CCW, COLLINEAR, CW, DegenerateInput, LabeledSet,
                           Point, convex_hull, hull_edge_set,
                           interiors_overlap, orient)

from helpers import overlap_by_decomposition, overlap_by_sampling

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


def test_interiors_overlap_examples():
    t1 = (Point(0, 0), Point(2, 0), Point(2, 2))
    t2 = (Point(0, 0), Point(2, 2), Point(0, 2))
    assert not interiors_overlap(t1, t2)  # two halves of a square
    t3 = (Point(0, 0), Point(2, 0), Point(0, 2))
    assert interiors_overlap(t1, t3)
    big = (Point(0, 0), Point(6, 0), Point(0, 6))
    small = (Point(1, 1), Point(2, 1), Point(1, 2))
    assert interiors_overlap(big, small)
    assert interiors_overlap(small, big)


def test_interiors_overlap_shared_edge_nesting():
    # Nested with two shared vertices and the apex on the boundary:
    # no proper crossing and no strictly-contained vertex, yet overlap.
    outer = (Point(0, 0), Point(4, 0), Point(0, 4))
    inner = (Point(0, 0), Point(4, 0), Point(2, 2))
    assert interiors_overlap(outer, inner)
    assert interiors_overlap(inner, outer)


def test_interiors_overlap_self_and_degenerate():
    t = (Point(0, 0), Point(3, 0), Point(0, 3))
    assert interiors_overlap(t, t)
    flat = (Point(0, 0), Point(1, 1), Point(2, 2))
    with pytest.raises(ValueError):
        interiors_overlap(t, flat)


def _random_triangle(rng):
    while True:
        pts = tuple(Point(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(3))
        if orient(*pts) != 0:
            return pts


def test_interiors_overlap_against_decomposition_and_sampling():
    rng = random.Random(20250810)
    sampled_hits = 0
    for _ in range(1000):
        t1 = _random_triangle(rng)
        t2 = _random_triangle(rng)
        got = interiors_overlap(t1, t2)
        assert got == interiors_overlap(t2, t1)
        assert got == overlap_by_decomposition(t1, t2)
        witness = overlap_by_sampling(t1, t2, rng)
        if witness is True:
            sampled_hits += 1
            assert got
    assert sampled_hits > 300  # sampling actually exercised the true cases


@settings(max_examples=200)
@given(st.data())
def test_interiors_overlap_symmetry_property(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    t1 = _random_triangle(rng)
    t2 = _random_triangle(rng)
    assert interiors_overlap(t1, t2) == interiors_overlap(t2, t1)
