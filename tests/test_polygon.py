import math
import random

import pytest

from jointtri.oracle import gen_polygon_pair, polygon_oracle_exists
from jointtri.polygon import (GrazingDiagonal, Polygon, PolygonPair,
                              count_joint_triangulations, dp_joint_polygon,
                              ivg, verify_polygon_joint, visibility_graph)

from helpers import brute_diagonal_visible, convex_polygon_coords

CONVEX_QUAD = [(0, 0), (2, 0), (2, 2), (0, 2)]
DART = [(0, 0), (4, 0), (1, 1), (0, 4)]  # reflex at index 2
DART_SHIFTED = [(4, 0), (1, 1), (0, 4), (0, 0)]  # same shape, reflex at index 1


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon.from_coords([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        Polygon.from_coords([(0, 0), (1, 0), (0, 0), (1, 1)])
    with pytest.raises(ValueError):  # bowtie
        Polygon.from_coords([(0, 0), (2, 2), (2, 0), (0, 2)])
    with pytest.raises(ValueError):  # vertex on a non-adjacent edge
        Polygon.from_coords([(0, 0), (4, 0), (2, 0), (2, 4)])


def test_polygon_orientation_sign():
    assert Polygon.from_coords(CONVEX_QUAD).ccw_sign == 1
    assert Polygon.from_coords(CONVEX_QUAD[::-1]).ccw_sign == -1


def test_visibility_convex_is_complete():
    poly = Polygon.from_coords([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)])
    assert len(visibility_graph(poly)) == math.comb(5, 2)


def test_visibility_reflex_quad_single_diagonal():
    poly = Polygon.from_coords(DART)
    assert visibility_graph(poly) == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}


COMB = [(0, 0), (12, 0), (12, 5), (9, 1), (6, 4), (3, 1), (0, 5)]


def test_visibility_comb_matches_brute_force():
    poly = Polygon.from_coords(COMB)
    got = visibility_graph(poly)
    n = len(COMB)
    expected = set()
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n == 1 or (i - j) % n == n - 1 or (i, j) == (0, n - 1):
                expected.add((i, j))
            elif brute_diagonal_visible(COMB, i, j):
                expected.add((i, j))
    assert got == expected


def test_visibility_random_matches_brute_force():
    rng = random.Random(61)
    for trial in range(40):
        pair = gen_polygon_pair(rng.randint(4, 10), 30, 6100 + trial)
        for poly in (pair.a, pair.b):
            got = visibility_graph(poly)
            n = len(poly)
            for i in range(n):
                for j in range(i + 1, n):
                    adjacent = j - i == 1 or (i, j) == (0, n - 1)
                    want = adjacent or brute_diagonal_visible(poly.vertices, i, j)
                    assert ((i, j) in got) == want, (poly.vertices, i, j)


def test_grazing_diagonal_rejected():
    # Vertices 0,1,2 collinear: the candidate (0,2) runs along the boundary.
    poly = Polygon.from_coords([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])
    with pytest.raises(GrazingDiagonal):
        visibility_graph(poly)


def test_ivg_cases():
    quad = Polygon.from_coords(CONVEX_QUAD)
    assert len(ivg(PolygonPair(quad, quad))) == 6
    dart = Polygon.from_coords(DART)
    mixed = ivg(PolygonPair(quad, dart))
    assert mixed == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}
    crossed = ivg(PolygonPair(dart, Polygon.from_coords(DART_SHIFTED)))
    assert crossed == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_dp_convex_sizes():
    for n in (4, 5, 6, 8, 12):
        coords = convex_polygon_coords(n)
        pair = PolygonPair(Polygon.from_coords(coords), Polygon.from_coords(coords))
        jt = dp_joint_polygon(pair)
        assert jt is not None and jt.verified
        assert len(jt.triangles) == n - 2


def test_dp_forced_by_single_shared_diagonal():
    pair = PolygonPair(Polygon.from_coords(CONVEX_QUAD), Polygon.from_coords(DART))
    jt = dp_joint_polygon(pair)
    assert jt is not None and jt.verified
    assert jt.triangles.sorted_triangles() == [(0, 1, 2), (0, 2, 3)]


def test_dp_no_shared_diagonal_returns_none():
    pair = PolygonPair(Polygon.from_coords(DART),
                       Polygon.from_coords(DART_SHIFTED))
    assert dp_joint_polygon(pair) is None


def test_dp_count_convex_is_catalan():
    def catalan(m):
        return math.comb(2 * m, m) // (m + 1)

    for n in (4, 5, 6, 7):
        coords = convex_polygon_coords(n)
        pair = PolygonPair(Polygon.from_coords(coords), Polygon.from_coords(coords))
        assert count_joint_triangulations(pair) == catalan(n - 2)


def test_dp_mirrored_polygon_succeeds():
    # B traverses a mirror image, so its vertex cycle winds the other way;
    # interior-side checks are relative to each polygon's own winding.
    coords = [(0, 0), (6, 0), (7, 4), (3, 2), (1, 5)]
    mirror = [(x, -y) for x, y in coords]
    pair = PolygonPair(Polygon.from_coords(coords), Polygon.from_coords(mirror))
    jt = dp_joint_polygon(pair)
    assert jt is not None and jt.verified


def test_dp_self_pairs_always_succeed():
    rng = random.Random(71)
    for trial in range(30):
        pair = gen_polygon_pair(rng.randint(4, 10), 40, 7100 + trial)
        selfpair = PolygonPair(pair.a, pair.a)
        jt = dp_joint_polygon(selfpair)
        assert jt is not None and jt.verified, pair.a.vertices


def test_verify_polygon_joint_quad():
    quad = Polygon.from_coords(CONVEX_QUAD)
    pair = PolygonPair(quad, quad)
    assert verify_polygon_joint(pair, [(0, 1, 2), (0, 2, 3)]) is None
    assert verify_polygon_joint(pair, [(0, 1, 2)]) is not None
    bad = verify_polygon_joint(pair, [(0, 1, 2), (0, 1, 3)])
    assert bad is not None
    assert verify_polygon_joint(pair, [(0, 1, 2), (0, 1, 2)]) == \
        "duplicate triangle (0, 1, 2)"


def test_verify_polygon_rejects_edge_outside_shared_graph():
    # Exercised via an explicit shared-edge set: with only boundary
    # edges allowed, the tiling's diagonal must be flagged.
    quad = Polygon.from_coords(CONVEX_QUAD)
    pair = PolygonPair(quad, quad)
    violation = verify_polygon_joint(pair, [(0, 1, 2), (0, 2, 3)],
                                     shared=set(quad.boundary_edges()))
    assert violation == "edge (0, 2) not shared by both visibility graphs"


def test_table_monotone_under_shared_edge_removal():
    # Dropping a diagonal from the shared set never turns a false cell
    # true: every true cell of the restricted table is true in the full one.
    from jointtri.polygon import _fill_table

    rng = random.Random(83)
    sampled = 0
    for trial in range(30):
        pair = gen_polygon_pair(rng.randint(5, 9), 30, 8300 + trial)
        shared = ivg(pair)
        boundary = pair.a.boundary_edges()
        diagonals = sorted(shared - boundary)
        if not diagonals:
            continue
        full, _ = _fill_table(pair, shared)
        for _ in range(3):
            dropped = diagonals[rng.randrange(len(diagonals))]
            restricted, _ = _fill_table(pair, shared - {dropped})
            n = len(pair)
            for i in range(n):
                for q in range(i + 2, n):
                    if restricted[i][q]:
                        assert full[i][q], (pair.a.vertices, dropped, (i, q))
            sampled += 1
    assert sampled >= 20


def test_orientation_guard_versus_verbatim_rule():
    # The recurrence, with its interior-side guard on every split, must
    # stay exact (oracle-checked).
    rng = random.Random(97)
    for trial in range(60):
        pair = gen_polygon_pair(rng.randint(4, 8), 30, 9700 + trial)
        guarded = dp_joint_polygon(pair)
        oracle_says = polygon_oracle_exists(pair) is not None
        assert (guarded is not None and guarded.verified) == oracle_says
