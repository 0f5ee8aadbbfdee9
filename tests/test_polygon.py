import hashlib
import math
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from jointtri import geom, polygon
from jointtri.campaign import gen_polygon_pair
from jointtri.geom import COORD_LIMIT, SizeGuard, angle_order
from jointtri.oracle import MAX_ORACLE_POLYGON, polygon_oracle_exists
from jointtri.polygon import (GrazingDiagonal, Polygon, PolygonPair, _fill_table,
                              _split_triangles, dp_joint_polygon, ivg,
                              verify_polygon_joint, visibility_graph)

from helpers import (_diagonal_inside_slow, _interior_split, _on_open_segment,
                     _proper_cross, _winding, boundary_edges, brute_diagonal_visible,
                     brute_fill_table, brute_is_simple, convex_polygon_coords,
                     count_joint_triangulations, in_cone, legal_closure,
                     pairwise_verify_polygons, radially_jittered_star,
                     star_polygon_coords, xorient)

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


def test_visibility_size_guard(monkeypatch):
    """Above MAX_POLYGON_VERTICES no polygon is built, so none reaches
    visibility: construction raises SizeGuard before the side table or
    any chord mask is made.  At the limit visibility decides."""
    monkeypatch.setattr(polygon, "MAX_POLYGON_VERTICES", 8)
    at = Polygon.from_coords(convex_polygon_coords(8))
    assert len(visibility_graph(at)) == math.comb(8, 2)

    def no_table(*args):
        raise AssertionError("[n, n] table built above the size limit")

    monkeypatch.setattr(polygon, "_line_sides", no_table)
    monkeypatch.setattr(polygon, "_diagonal_mask", no_table)
    with pytest.raises(SizeGuard, match="n <= 8, got 9"):
        Polygon.from_coords(convex_polygon_coords(9))


def test_construction_refuses_above_the_size_limit(monkeypatch):
    """Construction raises SizeGuard right after its O(n) checks, so above
    MAX_POLYGON_VERTICES the simplicity check never runs and no [n, n]
    table is built: at n = 16,000, where the side table alone is 256 MB,
    the refusal's tracemalloc peak stays under 4 MB.  The O(n) checks'
    input errors still come first."""
    n = 16000
    vertices = tuple(geom.Point(k, k * k % 9973) for k in range(n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(SizeGuard, match=f"n <= {polygon.MAX_POLYGON_VERTICES}, got {n}"):
            Polygon(vertices)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    monkeypatch.setattr(polygon, "MAX_POLYGON_VERTICES", 8)
    with pytest.raises(ValueError, match="pairwise distinct"):
        Polygon.from_coords([(0, 0)] * 2 + convex_polygon_coords(8)[1:])
    with pytest.raises(ValueError, match="zero area"):
        Polygon.from_coords([(k, 0) for k in range(9)])
    # a 9-cycle that is not simple is refused by size at a limit of 8,
    # and as not simple at the real limit
    bowtie = convex_polygon_coords(9)
    bowtie[3], bowtie[4] = bowtie[4], bowtie[3]
    with pytest.raises(SizeGuard, match="n <= 8, got 9"):
        Polygon.from_coords(bowtie)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="edges 2 and 4 intersect"):
        Polygon.from_coords(bowtie)


def test_visibility_reflex_quad_single_diagonal():
    poly = Polygon.from_coords(DART)
    assert visibility_graph(poly) == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}


def test_edge_table_contract():
    """``visibility_graph`` and ``ivg`` return a read-only set over one
    [n, n] table: membership is bounds-checked, the set operators return
    frozensets, and iteration is lexicographic in Python ints."""
    dart = Polygon.from_coords(DART)
    want = frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)})
    for got in (visibility_graph(dart), ivg(PolygonPair(dart, dart))):
        assert got == want and want == got and got != want - {(0, 2)}
        assert len(got) == 5 and (0, 2) in got and (1, 3) not in got
        # reversed, negative (numpy would wrap (0, -1) onto (0, 3)),
        # out of range, and not a pair of labels
        for key in ((2, 0), (3, 0), (0, -1), (-3, 2), (-1, 0), (0, 4), (4, 5),
                    (np.int64(0), np.int64(-1)), (0,), (0, 1, 2), 0, None, "02"):
            assert key not in got, key
        assert (np.int64(0), np.int64(2)) in got
        assert type(got & {(0, 2), (1, 3)}) is frozenset
        assert got & {(0, 2), (1, 3)} == {(0, 2)}
        assert type(got - boundary_edges(dart)) is frozenset
        assert got - boundary_edges(dart) == {(0, 2)}
        assert list(got) == sorted(want)
        assert all(type(v) is int for e in got for v in e)
        assert not got.table.flags.writeable
        with pytest.raises(ValueError):
            got.table[1, 3] = True
    hexagon = visibility_graph(Polygon.from_coords(convex_polygon_coords(6)))
    assert list(hexagon) == list(combinations(range(6), 2))


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


def _grid_cycles(seed: int, count: int):
    """Seeded vertex cycles of 3 to 9 distinct points of a 4x4 to 6x6 grid,
    where collinear vertices and touching edges are common."""
    rng = random.Random(seed)
    for _ in range(count):
        side, n = rng.randint(4, 6), rng.randint(3, 9)
        yield rng.sample([(x, y) for x in range(side) for y in range(side)], n)


def _construction_verdicts(cycles) -> list[str]:
    out = []
    for coords in cycles:
        try:
            Polygon.from_coords(coords)
            out.append("ok")
        except ValueError as exc:
            out.append(str(exc))
    return out


def _visibility_or_grazing(poly):
    try:
        return sorted(visibility_graph(poly))
    except GrazingDiagonal as exc:
        return str(exc)


# sha256 of the construction verdicts of _grid_cycles(5, 3000), "ok" or
# the ValueError text, one a line: the first offending edge pair and the
# message for it must not drift.
GRID_VERDICTS_SHA256 = "c0a6f2b5b0b13d3900e98de19e16f0caf906924bec8334370645199b18a6aebd"


def test_polygon_accepts_exactly_the_brute_simple_grid_cycles():
    cycles = list(_grid_cycles(5, 3000))
    verdicts = _construction_verdicts(cycles)
    for coords, verdict in zip(cycles, verdicts):
        assert (verdict == "ok") == brute_is_simple(coords), (coords, verdict)
    assert 0 < verdicts.count("ok") < len(verdicts)
    assert any("overlap" in v for v in verdicts)
    assert any("intersect" in v for v in verdicts)
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert digest == GRID_VERDICTS_SHA256


def test_construction_and_visibility_across_block_boundaries(monkeypatch):
    cycles = list(_grid_cycles(6, 800))
    verdicts = _construction_verdicts(cycles)
    polys = [Polygon.from_coords(c) for c, v in zip(cycles, verdicts) if v == "ok"]
    graphs = [_visibility_or_grazing(p) for p in polys]
    # 20 cells is two to six rows of the side table per construction block
    # at these sizes, and the table is built one row per block; visibility
    # then takes the span path, in blocks of one row and two triples, on
    # angle tables built one row per block
    monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 20)
    monkeypatch.setattr(geom, "_ANGLE_BLOCK_CELLS", 1)
    assert _construction_verdicts(cycles) == verdicts
    # fresh polygons, since each caches its diagonals
    assert [_visibility_or_grazing(Polygon(p.vertices)) for p in polys] == graphs


def test_construction_refusals_at_full_block_size():
    """At n = 1,000 construction checks 131 edges per block, in 8 blocks,
    and names the first offending edge pair from the block that finds it:
    a convex cycle on the parabola (i, i^2), with two vertices of the last
    block swapped so that edges 949 and 951 cross, and with vertex 5 lifted
    onto the closing edge 999 -> 0, which puts it strictly inside that
    edge."""
    n = 1000
    assert -(-n // (polygon._HIT_BLOCK_CELLS // n)) == 8
    convex = [(i, i * i) for i in range(n)]
    Polygon.from_coords(convex)
    swapped = convex[:950] + [convex[951], convex[950]] + convex[952:]
    with pytest.raises(ValueError) as exc:
        Polygon.from_coords(swapped)
    assert str(exc.value) == "boundary is not simple: edges 949 and 951 intersect"
    # the closing edge is the line y = 999 x
    lifted = convex[:5] + [(5, 999 * 5)] + convex[6:]
    with pytest.raises(ValueError) as exc:
        Polygon.from_coords(lifted)
    assert str(exc.value) == "boundary is not simple: edges 4 and 999 intersect"


def _first_grazing_chord(vertices, chords=None):
    """First non-adjacent chord (i, j), i < j, among ``chords`` (default
    all), with a vertex strictly inside it and no proper crossing with any
    boundary edge (an incident edge meets it at orientation 0, so it never
    crosses properly)."""
    n = len(vertices)
    for i, j in sorted(chords) if chords is not None else combinations(range(n), 2):
        if j - i == 1 or (i, j) == (0, n - 1):
            continue
        a, b = vertices[i], vertices[j]
        if any(_on_open_segment(a, b, p) for p in vertices) and not any(
                _proper_cross(a, b, vertices[k], vertices[(k + 1) % n])
                for k in range(n)):
            return (i, j)
    return None


def test_visibility_on_grid_polygons_matches_brute_force():
    grazed = visible = 0
    for coords in _grid_cycles(7, 4000):
        if not brute_is_simple(coords):
            continue
        poly = Polygon.from_coords(coords)
        first = _first_grazing_chord(coords)
        if first is not None:
            for call in (lambda: poly.diagonals, lambda: visibility_graph(poly)):
                with pytest.raises(GrazingDiagonal) as exc:
                    call()
                assert str(exc.value) == \
                    f"diagonal candidate {first} passes through another vertex"
                assert "diagonals" not in vars(poly)
            grazed += 1
            continue
        got = visibility_graph(poly)
        diagonals = poly.diagonals
        assert diagonals.dtype == bool and not diagonals.flags.writeable
        assert not np.tril(diagonals).any()
        n = len(coords)
        for i, j in combinations(range(n), 2):
            adjacent = j - i == 1 or (i, j) == (0, n - 1)
            seen = not adjacent and brute_diagonal_visible(coords, i, j)
            assert ((i, j) in got) == (adjacent or seen), (coords, i, j)
            assert diagonals[i, j] == seen, (coords, i, j)
        visible += 1
    assert grazed >= 100 and visible >= 100, (grazed, visible)


def test_coords_is_one_read_only_int64_array():
    """``Polygon.coords`` is the vertices as one read-only int64 [n, 2]
    array, built by construction and the same object on every read."""
    for coords in (CONVEX_QUAD, DART[::-1],
                   [(-COORD_LIMIT, -COORD_LIMIT), (COORD_LIMIT, -COORD_LIMIT),
                    (COORD_LIMIT, COORD_LIMIT)]):
        poly = Polygon.from_coords(coords)
        assert "coords" in vars(poly)
        got = poly.coords
        assert got.dtype == np.int64 and got.shape == (len(coords), 2)
        assert got.tolist() == [list(v) for v in poly.vertices]
        assert not got.flags.writeable and poly.coords is got
        with pytest.raises(ValueError):
            got[0, 0] = 1


@pytest.mark.parametrize("one_or_two_rows", (False, True))
def test_visibility_on_hunt_polygons_matches_brute_force(monkeypatch, one_or_two_rows):
    """Both polygons of every ``gen_polygon_pair`` the hunt draws at
    n = 3-10, ranges 12 and 50, seeds 0-199: each is simple, its diagonal
    table equals ``brute_diagonal_visible`` and it raises GrazingDiagonal
    exactly on ``_first_grazing_chord``.  With ``one_or_two_rows`` each
    construction block holds two rows of the side table (one in the last
    block at odd n), the table is built a row per block and visibility
    takes the span path wherever there is a chord."""
    checked = 0
    for n in range(3, 11):
        if one_or_two_rows:
            monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 2 * n)
        for coord_range in (12, 50):
            for seed in range(200):
                pair = gen_polygon_pair(n, coord_range, seed)
                for poly in (pair.a, pair.b):
                    coords = poly.vertices
                    assert brute_is_simple(coords), coords
                    checked += 1
                    first = _first_grazing_chord(coords)
                    if first is not None:
                        with pytest.raises(GrazingDiagonal) as exc:
                            poly.diagonals
                        assert str(exc.value) == _grazing_message(first)
                        continue
                    diagonals = poly.diagonals
                    for i, j in combinations(range(n), 2):
                        adjacent = j - i == 1 or (i, j) == (0, n - 1)
                        seen = not adjacent and brute_diagonal_visible(coords, i, j)
                        assert diagonals[i, j] == seen, (coords, i, j)
    assert checked == 8 * 2 * 200 * 2


def _mask_polygons():
    """Simple grid cycles, stars and convex polygons, each in both windings."""
    out = [c for c in _grid_cycles(11, 1200) if brute_is_simple(c)]
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(3, 20)
        star = star_polygon_coords(rng, n, rng.choice((8, 1000)))
        out += [star] if brute_is_simple(star) else []
        out.append(convex_polygon_coords(n, rng.randint(1, 3)))
    return out + [c[::-1] for c in out]


def test_sides_table_matches_scalar_reference(monkeypatch):
    """``Polygon.sides[k, v]`` is the sign of vertex v against the line of
    edge k -> k + 1, filled by construction and read-only, with the table
    built in one block and then in blocks of one to three rows."""
    polys = _mask_polygons()
    for cells in (polygon._HIT_BLOCK_CELLS, 40):
        monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", cells)
        for coords in polys:
            n = len(coords)
            poly = Polygon.from_coords(coords)
            assert "sides" in vars(poly)
            side = poly.sides
            assert side.dtype == np.int8 and not side.flags.writeable
            assert side.tolist() == [[xorient(coords[k], coords[(k + 1) % n], v)
                                      for v in coords] for k in range(n)], coords
            with pytest.raises(ValueError):
                side[0, 0] = 1


def test_cone_and_graze_match_scalar_references():
    """``_cone`` and its turn row, and the graze masks of both visibility
    paths: the dense path's ``inside`` from ``_boundary_hits`` on every
    ordered pair, and the span path's from ``angle_order``.  On the same
    pairs, ``_line_sides`` matches scalar ``xorient``, and
    ``Polygon.sides`` is its table over the edges."""
    grazing = reflex = 0
    for coords in _mask_polygons():
        xs, ys = np.array(coords, dtype=np.int64).T
        n = len(coords)
        poly = Polygon.from_coords(coords)
        cone, turn = polygon._cone(poly.sides, poly.ccw_sign)
        assert turn.tolist() == [xorient(coords[u - 1], coords[u], coords[(u + 1) % n])
                                 for u in range(n)], coords
        us, vs = np.divmod(np.arange(n * n), n)
        line_sides = polygon._line_sides(poly.coords, us, vs)
        graze = polygon._boundary_hits(poly.coords, poly.sides.T, line_sides, us, vs)[1]
        graze = graze.any(axis=1).reshape(n, n)
        span_graze = angle_order(xs, ys)[3]
        k = np.arange(n)
        assert np.array_equal(poly.sides, polygon._line_sides(poly.coords, k, (k + 1) % n))
        for u in range(n):
            for v in range(n):
                a, b = coords[u], coords[v]
                grazes = any(_on_open_segment(a, b, p) for p in coords)
                assert graze[u, v] == grazes, (coords, u, v)
                assert span_graze[u, v] == grazes, (coords, u, v)
                assert cone[u, v] == (in_cone(coords, u, v) and in_cone(coords, v, u)), \
                    (coords, u, v)
                assert line_sides[u * n + v].tolist() == \
                    [xorient(a, b, w) for w in coords], (coords, u, v)
        grazing += bool(graze.any())
        s = _winding(coords)
        reflex += any(s * xorient(coords[u], coords[(u + 1) % n], coords[u - 1]) < 0
                      for u in range(n))
    assert grazing >= 100 and reflex >= 100, (grazing, reflex)


def test_shared_edges_match_scalar_reference():
    """``pair.shared`` holds exactly the chords both polygons see, boundary
    edges included.  Where computing it raises, the polygon oracle refuses
    the pair with the DP's GrazingDiagonal, after its size guard."""
    families = _seeded_pairs(157, 150)
    counts = {"refused": 0, "decided_grazing": 0}
    for pair in families["grid"] + families["star"] + families["gen"]:
        n = len(pair)
        try:
            shared = pair.shared
        except GrazingDiagonal as exc:
            with pytest.raises(GrazingDiagonal) as dp:
                dp_joint_polygon(pair)
            assert str(dp.value) == str(exc)
            if n > MAX_ORACLE_POLYGON:
                with pytest.raises(SizeGuard):
                    polygon_oracle_exists(pair)
                continue
            with pytest.raises(GrazingDiagonal) as got:
                polygon_oracle_exists(pair)
            assert str(got.value) == str(exc)
            counts["refused"] += 1
            continue
        for i, q in combinations(range(n), 2):
            want = (_diagonal_inside_slow(pair.a, i, q)
                    and _diagonal_inside_slow(pair.b, i, q))
            assert ((i, q) in shared) == want, (pair.a.vertices, pair.b.vertices, i, q)
        counts["decided_grazing"] += any(
            _first_grazing_chord(p.vertices) for p in (pair.a, pair.b))
    assert counts["refused"] >= 30 and counts["decided_grazing"] >= 5, counts


def test_ivg_cases():
    quad = Polygon.from_coords(CONVEX_QUAD)
    assert len(ivg(PolygonPair(quad, quad))) == 6
    dart = Polygon.from_coords(DART)
    mixed = ivg(PolygonPair(quad, dart))
    assert mixed == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}
    crossed = ivg(PolygonPair(dart, Polygon.from_coords(DART_SHIFTED)))
    assert crossed == {(0, 1), (1, 2), (2, 3), (0, 3)}


def _polygon_or_none(coords):
    try:
        return Polygon.from_coords(coords)
    except ValueError:
        return None


def _seeded_pairs(seed: int, per_family: int):
    """Family -> seeded polygon pairs, n 4 to 24: convex pairs (labels
    rotated, windings mixed), stars with a jittered or an independent
    partner, ``gen_polygon_pair`` pairs, and pairs of simple grid cycles of
    equal size.  Grid pairs often graze, stars rarely, the others never."""
    rng = random.Random(seed)
    out = {"convex": [], "star": [], "gen": [], "grid": []}

    def add(family, a, b):
        if a is not None and b is not None:
            out[family].append(PolygonPair(a, b))

    while len(out["convex"]) < per_family:
        n = rng.randint(4, 24)
        sides = []
        for _ in range(2):
            coords = convex_polygon_coords(n, rng.randint(1, 4))
            r = rng.randrange(n)
            coords = coords[r:] + coords[:r]
            sides.append(Polygon.from_coords(coords[::rng.choice((1, -1))]))
        add("convex", *sides)
    while len(out["star"]) < per_family:
        n = rng.randint(4, 24)
        a = star_polygon_coords(rng, n)
        b = ([(x + rng.randint(-30, 30), y + rng.randint(-30, 30)) for x, y in a]
             if rng.randrange(2) else star_polygon_coords(rng, n))
        add("star", _polygon_or_none(a), _polygon_or_none(b))
    while len(out["gen"]) < per_family:
        out["gen"].append(gen_polygon_pair(rng.randint(4, 16), 40, rng.randrange(10**6)))
    by_size: dict = {}
    for coords in _grid_cycles(seed, 40 * per_family):
        if len(out["grid"]) < per_family and len(coords) >= 4 and brute_is_simple(coords):
            other = by_size.pop(len(coords), None)
            if other is None:
                by_size[len(coords)] = coords
            else:
                add("grid", Polygon.from_coords(other), Polygon.from_coords(coords))
    return out


def _intersections(pairs):
    """(pair, visibility_graph(a) & visibility_graph(b)) for the pairs on
    which neither full graph raises GrazingDiagonal."""
    out = []
    for pair in pairs:
        try:
            out.append((pair, visibility_graph(pair.a) & visibility_graph(pair.b)))
        except GrazingDiagonal:
            pass
    return out


def test_ivg_is_the_intersection_of_the_full_graphs():
    families = _seeded_pairs(131, 300)
    cases = [c for pairs in families.values() for c in _intersections(pairs)]
    assert len(cases) >= 1000
    assert all(len(_intersections(pairs)) >= 100 for pairs in families.values())
    for pair, want in cases:
        assert ivg(pair) == want, (pair.a.vertices, pair.b.vertices)
    # the stars share few diagonals, the convex pairs all of them
    assert any(len(want) < len(visibility_graph(pair.a)) for pair, want in cases)


def test_ivg_across_block_boundaries(monkeypatch):
    cases = [c for pairs in _seeded_pairs(137, 50).values()
             for c in _intersections(pairs)]
    # 40 cells is one to ten chords per block at these sizes, so B's pass
    # over A's diagonals spans several blocks
    monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 40)
    for pair, want in cases:
        # fresh polygons, since each caches its diagonals
        fresh = PolygonPair(Polygon(pair.a.vertices), Polygon(pair.b.vertices))
        assert ivg(fresh) == want, (pair.a.vertices, pair.b.vertices)


PENTAGON = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]  # convex: sees every chord
FLAT_BOTTOM = [(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)]  # (0, 2) grazes vertex 1
NOTCHED = [(0, 0), (2, 1), (4, 0), (4, 4), (0, 4)]  # reflex at 1: (0, 2) outside


def _grazing_message(chord):
    return f"diagonal candidate {chord} passes through another vertex"


def test_ivg_grazing_on_a_raises_as_the_full_graph():
    pair = PolygonPair(Polygon.from_coords(FLAT_BOTTOM), Polygon.from_coords(PENTAGON))
    for _ in range(2):  # A's diagonals cache nothing when they raise
        with pytest.raises(GrazingDiagonal) as exc:
            ivg(pair)
        assert str(exc.value) == _grazing_message((0, 2))


def test_ivg_grazing_on_b_names_first_diagonal_of_a():
    # B grazes on (0, 2), which A does not see, and on (3, 5), which it does
    a = Polygon.from_coords([(0, 0), (2, 1), (4, 0), (4, 4), (2, 5), (0, 4)])
    b = Polygon.from_coords([(0, 0), (2, 0), (4, 0), (4, 4), (2, 4), (0, 4)])
    assert (0, 2) not in visibility_graph(a) and (3, 5) in visibility_graph(a)
    with pytest.raises(GrazingDiagonal) as exc:
        visibility_graph(b)
    assert str(exc.value) == _grazing_message((0, 2))
    with pytest.raises(GrazingDiagonal) as exc:
        ivg(PolygonPair(a, b))
    assert str(exc.value) == _grazing_message((3, 5))


def test_ivg_grazing_on_b_off_a_diagonals_is_decided():
    a, b = Polygon.from_coords(NOTCHED), Polygon.from_coords(FLAT_BOTTOM)
    with pytest.raises(GrazingDiagonal):
        visibility_graph(b)
    want = {e for e in visibility_graph(a)
            if e in boundary_edges(a) or brute_diagonal_visible(FLAT_BOTTOM, *e)}
    assert ivg(PolygonPair(a, b)) == want == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                              (0, 3), (1, 3), (1, 4), (2, 4)}


def test_ivg_on_grid_pairs_follows_the_grazing_rule():
    """On pairs of simple grid cycles: a grazing A raises as its full
    graph does; otherwise B raises on the first of A's diagonals it grazes;
    otherwise ivg keeps exactly A's edges that B sees."""
    counts = {"a": 0, "b": 0, "decided": 0}
    for pair in _seeded_pairs(139, 600)["grid"]:
        try:
            seen_a = visibility_graph(pair.a)
        except GrazingDiagonal as exc:
            with pytest.raises(GrazingDiagonal) as got:
                ivg(pair)
            assert str(got.value) == str(exc)
            counts["a"] += 1
            continue
        b = pair.b.vertices
        first = _first_grazing_chord(b, seen_a)
        if first is not None:
            with pytest.raises(GrazingDiagonal) as got:
                ivg(pair)
            assert str(got.value) == _grazing_message(first)
            counts["b"] += 1
            continue
        want = {e for e in seen_a
                if e in boundary_edges(pair.a) or brute_diagonal_visible(b, *e)}
        assert ivg(pair) == want, (pair.a.vertices, b)
        counts["decided"] += 1
    assert min(counts.values()) >= 30, counts


def _bool_table(n: int, edges) -> np.ndarray:
    """[n, n] bool table with cell (i, j) set for each edge (i, j), i < j."""
    table = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        table[i, j] = True
    return table


def _fill_cells(edges, n: int):
    """``_fill_table`` over the given edges, unpacked into the [n][n] cell
    and choice lists of ``brute_fill_table``: cell (i, q) is bit i of
    column q, and each true cell (i, q), i + 1 < q, chooses the least k
    with both sub-cells true."""
    col = _fill_table(_bool_table(n, edges))
    cells = [[bool(col[q] >> i & 1) for q in range(n)] for i in range(n)]
    choice = [[-1] * n for _ in range(n)]
    for i in range(n):
        for q in range(i + 2, n):
            if cells[i][q]:
                choice[i][q] = next(k for k in range(i + 1, q)
                                    if cells[i][k] and cells[k][q])
    return cells, choice


def _mirrored_stars(families):
    """Each star pair's A against its own mirror image, which winds the
    other way."""
    return [PolygonPair(p.a, Polygon.from_coords([(x, -y) for x, y in p.a.vertices]))
            for p in families["star"]]


def test_shared_triples_turn_with_both_windings():
    """The lemma that lets ``_fill_table`` skip orientation tests: when all
    three sides of a triple i < k < q are shared edges, the triangle
    (i, k, q) turns the way both polygons wind."""
    families = _seeded_pairs(157, 60)
    families["mirrored"] = _mirrored_stars(families)
    counts = {}
    for family, pairs in families.items():
        counts[family] = 0
        for pair, shared in _intersections(pairs):
            n = len(pair)
            for i, k, q in combinations(range(n), 3):
                if (i, k) in shared and (k, q) in shared and (i, q) in shared:
                    assert _interior_split(pair.a.vertices, pair.b.vertices,
                                           i, k, q), (pair.a.vertices, (i, k, q))
                    counts[family] += 1
    assert min(counts.values()) >= 50, counts


def test_fill_table_matches_brute_reference():
    failed = found = 0
    families = _seeded_pairs(149, 40)
    families["mirrored"] = _mirrored_stars(families)
    # independent stars from n = 16 on mostly admit no joint triangulation
    rng = random.Random(151)
    families["independent"] = [
        PolygonPair(*(Polygon.from_coords(star_polygon_coords(rng, n, 10**6))
                      for _ in range(2)))
        for n in range(16, 40)]
    for pairs in families.values():
        for pair, shared in _intersections(pairs):
            n = len(pair)
            m, choice = _fill_cells(shared, n)
            assert (m, choice) == brute_fill_table(pair, shared), pair.a.vertices
            found += m[0][-1]
            failed += not m[0][-1]
            diagonals = sorted(shared - boundary_edges(pair.a))
            if diagonals:
                fewer = shared - {diagonals[len(diagonals) // 2]}
                assert _fill_cells(fewer, n) == brute_fill_table(pair, fewer)
    assert found >= 100 and failed >= 40, (found, failed)


def _least_k_extraction(closure, n):
    """The triangles read off a nonempty legal closure by taking, in each
    label interval (i, q) from (0, n - 1) down, the least k with
    (i, k, q) kept."""
    out, todo = set(), [(0, n - 1)]
    while todo:
        i, q = todo.pop()
        if q - i > 1:
            k = min(k for k in range(i + 1, q) if (i, k, q) in closure)
            out.add((i, k, q))
            todo += [(i, k), (k, q)]
    return out


def test_dp_finds_a_joint_triangulation_iff_the_legal_closure_is_nonempty():
    """The theorem of ``dp_joint_polygon``'s docstring against the legal
    closure (``legal_closure``): the DP finds a joint triangulation iff the
    closure is nonempty, and every triangle it finds is in the closure.
    Its triangles are also the closure's least-k extraction: from the
    interval (0, n - 1), take in each interval (i, q) the least k with
    (i, k, q) kept, and recurse on (i, k) and (k, q).
    On ``gen_polygon_pair`` pairs at n 8-16, and on radially jittered star
    pairs at n 20-300, whose larger jitters leave no joint triangulation
    at n >= 100 and whose smaller ones leave one."""
    pairs = []
    for seed in range(300):
        pairs.append(("gen", gen_polygon_pair(8 + seed % 9, 30, 8800 + seed)))
    rng = random.Random(41)
    for n in (20, 40, 60, 100, 120, 200, 300):
        for jitter in (0.05, 0.3, 0.6):
            for _ in range(6):
                a, b = map(_polygon_or_none, radially_jittered_star(rng, n, jitter))
                if a and b:
                    pairs.append(("star", PolygonPair(a, b)))
    verdicts = Counter()
    for family, pair in pairs:
        try:
            jt = dp_joint_polygon(pair)
        except GrazingDiagonal:
            continue
        closure = legal_closure(pair)
        assert bool(closure) == (jt is not None), (family, pair)
        if jt is not None:
            assert jt.verified and set(jt.triangles) <= closure
            assert set(jt.triangles) == _least_k_extraction(closure, len(pair)), \
                (family, pair)
        verdicts[family, len(pair) >= 100, jt is not None] += 1
    # measured: gen 55 found, 245 not; stars below n = 100 44 and 10, at
    # n >= 100 29 and 43 (at n = 200 and 300, 6 and 12 each)
    for family, large in (("gen", False), ("star", False), ("star", True)):
        for found in (True, False):
            assert verdicts[family, large, found] >= 5, verdicts


def test_fill_table_all_shared_convex():
    """Every chord of a convex pair is shared, so every cell is true, each
    column q is (1 << q) - 1, and every cell splits at k = i + 1: the
    backtracking gives the fan from vertex n - 1."""
    n = 64
    pair = PolygonPair(*(Polygon.from_coords(convex_polygon_coords(n)),) * 2)
    shared = pair.shared
    assert len(shared) == n * (n - 1) // 2
    assert _fill_table(shared.table) == [(1 << q) - 1 for q in range(n)]
    cells, choice = _fill_cells(shared, n)
    assert (cells, choice) == brute_fill_table(pair, shared)
    assert all(choice[i][q] == i + 1 for i in range(n) for q in range(i + 2, n))
    assert _split_triangles(_fill_table(shared.table)) == \
        [(i, i + 1, n - 1) for i in range(n - 2)]


def test_split_skips_k_without_its_left_cell():
    """The backtracking of cell (0, 5) passes over k = 2, whose cell (2, 5)
    is true but whose cell (0, 2) is not, and splits at k = 3."""
    n = 6
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, 5), (1, 3), (0, 3), (3, 5), (2, 5)]
    col = _fill_table(_bool_table(n, edges))
    cells, choice = _fill_cells(edges, n)
    assert cells[2][5] and not cells[0][2] and cells[0][3] and cells[3][5]
    assert choice[0][5] == 3
    assert _split_triangles(col) == [(0, 3, 5), (0, 1, 3), (1, 2, 3), (3, 4, 5)]


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
        "label 3 is a vertex of no triangle"


NOTCH_A = [(4, 4), (2, 5), (0, 4), (0, 0), (4, 0)]  # convex


@pytest.mark.parametrize("apex", [(2, 3), (2, 2)])
def test_verify_polygon_rejects_chord_outside_polygon_without_visibility(apex):
    """B is A with vertex 1 pushed in to a reflex notch, so the fan's chord
    (0, 2) lies outside B; at (2, 2) B's chord (0, 3) also passes through
    vertex 1, which makes the DP refuse the pair.  The verifier rejects
    the fan, whose triangles (0, 1, 2) and (0, 2, 3) lie on one side of
    (0, 2) in B, and accepts the triangulation around the notch, as the
    pairwise reference does, reading neither polygon's visibility."""
    b = Polygon.from_coords([NOTCH_A[0], apex, *NOTCH_A[2:]])
    pair = PolygonPair(Polygon.from_coords(NOTCH_A), b)
    fan, notch = [(0, 1, 2), (0, 2, 3), (0, 3, 4)], [(0, 1, 4), (1, 2, 3), (1, 3, 4)]
    assert verify_polygon_joint(pair, fan) == \
        "triangles (0, 1, 2) and (0, 2, 3) overlap in B"
    assert verify_polygon_joint(pair, notch) is None
    assert not pairwise_verify_polygons(pair.a.vertices, b.vertices, fan)
    assert pairwise_verify_polygons(pair.a.vertices, b.vertices, notch)
    assert "shared" not in vars(pair)
    assert "diagonals" not in vars(pair.a) and "diagonals" not in vars(b)
    if apex == (2, 2):
        with pytest.raises(GrazingDiagonal) as exc:
            dp_joint_polygon(pair)
        assert str(exc.value) == "diagonal candidate (0, 3) passes through another vertex"


def test_table_monotone_under_shared_edge_removal():
    # Dropping a diagonal from the shared set never turns a false cell
    # true: every true cell of the restricted table is true in the full one.
    rng = random.Random(83)
    sampled = 0
    for trial in range(30):
        pair = gen_polygon_pair(rng.randint(5, 9), 30, 8300 + trial)
        shared = ivg(pair)
        boundary = boundary_edges(pair.a)
        diagonals = sorted(shared - boundary)
        if not diagonals:
            continue
        n = len(pair)
        full, _ = _fill_cells(shared, n)
        for _ in range(3):
            dropped = diagonals[rng.randrange(len(diagonals))]
            restricted, _ = _fill_cells(shared - {dropped}, n)
            for i in range(n):
                for q in range(i + 2, n):
                    if restricted[i][q]:
                        assert full[i][q], (pair.a.vertices, dropped, (i, q))
            sampled += 1
    assert sampled >= 20


def test_dp_backtracks_a_fan_deeper_than_the_recursion_limit():
    """On a convex pair every cell (i, q) splits at i + 1, so the chain of
    cells to backtrack is n - 2 deep; with the recursion limit 100 frames
    above the caller, a fan of 150 vertices still comes back whole."""
    pair = PolygonPair(*(Polygon.from_coords(convex_polygon_coords(150)),) * 2)
    pair.shared  # visibility at the normal limit
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        jt = dp_joint_polygon(pair)
    finally:
        sys.setrecursionlimit(limit)
    assert jt.verified and len(jt.triangles) == 148


def test_dp_memory_peak_stays_near_its_tables():
    """Past the shared edges, ``dp_joint_polygon`` on a convex pair at
    n = 600 holds its bit rows and columns, the triangles and the
    verifier's per-triangle arrays: its tracemalloc peak stays under 8 * n**2
    bytes.  Choice lists of every cell and whole [triangles, n] int64
    scans took about 39 * n**2."""
    n = 600
    pair = PolygonPair(*(Polygon.from_coords(convex_polygon_coords(n)),) * 2)
    pair.shared  # visibility is not measured here
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        jt = dp_joint_polygon(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert jt.verified and len(jt.triangles) == n - 2
    assert peak < 8 * n * n, peak


def test_orientation_guard_versus_verbatim_rule():
    # The recurrence, with its interior-side guard on every split, must
    # stay exact (oracle-checked).
    rng = random.Random(97)
    for trial in range(60):
        pair = gen_polygon_pair(rng.randint(4, 8), 30, 9700 + trial)
        guarded = dp_joint_polygon(pair)
        oracle_says = polygon_oracle_exists(pair) is not None
        assert (guarded is not None and guarded.verified) == oracle_says


def _comb_coords(rng: random.Random, teeth: int, flat: bool = False):
    """A comb, counterclockwise: a base edge under ``teeth`` spikes between
    low valleys, 2 * teeth + 3 vertices.  The tips stand at seeded heights,
    or all at one height when ``flat``, so that chords between tips graze."""
    tip = (lambda: 10**4) if flat else (lambda: rng.randint(6000, 10**4))
    out = [(0, 0), (400 * teeth, 0)]
    for t in range(teeth, 0, -1):
        out += [(400 * t, tip()), (400 * t - 200, rng.randint(1, 3000))]
    return out + [(0, tip())]


def _spiral_coords(points: int, turns: int, scale: int = 10**6):
    """A strip winding ``turns`` times inward, 2 * ``points`` vertices: an
    outer chain and, half a turn's spacing inside it, an inner one."""
    gap = scale / (turns + 1)
    outer, inner = [], []
    for k in range(points):
        theta = 2 * math.pi * turns * k / (points - 1)
        r = scale - gap * theta / (2 * math.pi)
        for chain, radius in ((outer, r), (inner, r - gap / 2)):
            chain.append((round(radius * math.cos(theta)),
                          round(radius * math.sin(theta))))
    return outer + inner[::-1]


def _at_the_cap(coords):
    """``coords`` stretched by an integer factor per axis and shifted to
    touch -COORD_LIMIT, which keeps every orientation and every verdict."""
    x0, y0 = min(x for x, _ in coords), min(y for _, y in coords)
    sx = 2 * COORD_LIMIT // (max(x for x, _ in coords) - x0)
    sy = 2 * COORD_LIMIT // (max(y for _, y in coords) - y0)
    return [((x - x0) * sx - COORD_LIMIT, (y - y0) * sy - COORD_LIMIT)
            for x, y in coords]


def _check_mask(coords, chords=None) -> str:
    """``_diagonal_mask`` on ``chords`` (default all), given as an [n, n]
    bool table, against the scalar references: it raises on the first
    grazing chord in lexicographic order with no proper crossing, or else
    decides each chord as ``brute_diagonal_visible`` does and is False off
    the chords.  Returns which of the two happened."""
    n = len(coords)
    chords = _all_chords(n) if chords is None else chords
    table = np.zeros((n, n), dtype=bool)
    for chord in chords:
        table[chord] = True
    poly = Polygon.from_coords(coords)
    first = _first_grazing_chord(coords, chords)
    if first is not None:
        with pytest.raises(GrazingDiagonal) as exc:
            polygon._diagonal_mask(poly, table)
        assert str(exc.value) == _grazing_message(first), coords
        return "grazing"
    got = polygon._diagonal_mask(poly, table)
    assert got.dtype == bool and got.shape == (n, n)
    assert [got[i, j] for i, j in chords] == [brute_diagonal_visible(coords, i, j)
                                              for i, j in chords], coords
    assert not (got & ~table).any(), coords
    return "decided"


def _strictly_convex(coords) -> bool:
    """Every vertex of the cycle turns strictly the way the cycle winds."""
    n, s = len(coords), _winding(coords)
    return all(xorient(coords[u - 1], coords[u], coords[(u + 1) % n]) == s
               for u in range(n))


def _counting_span(monkeypatch) -> list:
    """Count calls of ``_span_crossings``, the span path's crossing test."""
    calls = []
    span = polygon._span_crossings

    def counting(*args):
        calls.append(1)
        return span(*args)

    monkeypatch.setattr(polygon, "_span_crossings", counting)
    return calls


def _all_chords(n: int):
    """The non-adjacent vertex pairs (i, j), i < j, of an n-cycle, in
    lexicographic order."""
    return [(i, j) for i, j in combinations(range(n), 2)
            if j - i >= 2 and (i, j) != (0, n - 1)]


def _chord_sample(rng: random.Random, n: int):
    """About nine tenths of an n-gon's chords, seeded, as ``ivg`` passes
    A's diagonals to B."""
    return [c for c in _all_chords(n) if rng.randrange(10)]


def test_span_mask_on_combs_and_spirals(monkeypatch):
    """The candidate-heavy cases: every chord of a comb or spiral sees many
    edges' spans.  At n >= 70 all chords exceed one dense block, so the
    span path decides them."""
    rng = random.Random(167)
    polys = [_comb_coords(rng, 34), _comb_coords(rng, 40)[::-1],
             _comb_coords(rng, 36, flat=True), _at_the_cap(_comb_coords(rng, 35)),
             _spiral_coords(36, 3), _spiral_coords(40, 4)[::-1],
             _at_the_cap(_spiral_coords(37, 3))]
    calls = _counting_span(monkeypatch)
    seen = []
    for coords in polys:
        assert brute_is_simple(coords)
        seen.append(_check_mask(coords))
        seen.append(_check_mask(coords, _chord_sample(rng, len(coords))))
    assert len(calls) == len(seen) and seen.count("decided") >= 10 and "grazing" in seen


def test_span_mask_on_grid_polygons(monkeypatch):
    """Grid cycles, where collinear vertices and grazing chords are common,
    on the span path: 8 cells is less than one chord per block, and the
    angle tables are built one row per block.  A strictly convex cycle
    decides on its cone mask alone and runs no span test."""
    monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 8)
    monkeypatch.setattr(geom, "_ANGLE_BLOCK_CELLS", 1)
    calls = _counting_span(monkeypatch)
    rng = random.Random(173)
    seen = []
    spanned = 0
    for coords in _grid_cycles(173, 5000):
        if len(coords) >= 5 and brute_is_simple(coords):
            seen.append(_check_mask(coords))
            seen.append(_check_mask(coords, _chord_sample(rng, len(coords))))
            spanned += 2 * (not _strictly_convex(coords))
    assert len(calls) == spanned < len(seen)
    assert seen.count("grazing") >= 100 and seen.count("decided") >= 100


def test_span_mask_across_row_and_triple_blocks(monkeypatch):
    """With 96 cells a span block holds one row, and at most 24
    (vertex, edge, chord) triples or else one (vertex, edge) pair's, so
    combs and spirals of n 31 to 50 run many blocks of both."""
    monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 96)
    calls = _counting_span(monkeypatch)
    rng = random.Random(179)
    polys = [_comb_coords(rng, t, flat=t % 5 == 0) for t in range(14, 23)]
    polys += [_spiral_coords(p, 2 + p % 2) for p in range(18, 26)]
    seen = [_check_mask(c) for c in polys + [c[::-1] for c in polys]]
    assert len(calls) == len(seen) and seen.count("decided") >= 20 and "grazing" in seen


def test_dense_and_span_paths_agree_at_the_selection(monkeypatch):
    """``_diagonal_mask`` tests densely exactly when all chords fit a
    quarter of a ``_boundary_hits`` block of ``_HIT_BLOCK_CELLS`` cells,
    and both sides of that selection decide as the scalar references do.
    Past it, a strictly convex polygon runs no span test."""
    rng = random.Random(181)
    polys = [c for c in _grid_cycles(181, 1000) if len(c) >= 5 and brute_is_simple(c)]
    polys += [_comb_coords(rng, 6), _spiral_coords(12, 2)]
    polys += [s for s in (star_polygon_coords(rng, n) for n in range(6, 30, 3))
              if brute_is_simple(s)]
    calls = _counting_span(monkeypatch)
    sides = {"dense": [], "span": []}
    for coords in polys:
        n = len(coords)
        chords = n * (n - 3) // 2
        for cells, path in ((4 * chords * n, "dense"), (4 * chords * n - 1, "span")):
            monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", cells)
            before = len(calls)
            verdict = _check_mask(coords)
            sides[path].append(verdict)
            assert len(calls) - before == (path == "span" and not _strictly_convex(coords))
    assert sides["dense"] == sides["span"]
    assert sides["span"].count("grazing") >= 10 and sides["span"].count("decided") >= 20


def test_strictly_convex_polygons_build_no_angle_tables(monkeypatch):
    """Past the dense size a strictly convex polygon, either winding, sees
    every chord asked about, all of them or about nine tenths as ``ivg``
    asks B, with neither ``angle_order`` nor the span test called.  A
    convex cycle with one vertex of angle pi is not strictly convex: it
    takes the span path, and raises on the chord through that vertex."""
    def refuse(*args):
        raise AssertionError("strictly convex polygon built angle tables")

    rng = random.Random(191)
    xs = sorted(rng.sample(range(-3000, 3000), 55))
    convex = [convex_polygon_coords(60), convex_polygon_coords(48, 5),
              [(x, x * x) for x in xs], _at_the_cap(convex_polygon_coords(52))]
    monkeypatch.setattr(polygon, "angle_order", refuse)
    monkeypatch.setattr(polygon, "_span_crossings", refuse)
    for coords in convex + [c[::-1] for c in convex]:
        n = len(coords)
        sample = _chord_sample(rng, n)
        assert _strictly_convex(coords) and len(sample) * n > polygon._HIT_BLOCK_CELLS // 4
        assert _check_mask(coords) == _check_mask(coords, sample) == "decided"
    monkeypatch.undo()
    # The parabola arc 0..60 closed through (30, 1800), the midpoint of its
    # closing chord: vertex 61 has angle pi, and chord (0, 60) passes
    # through it.  Without that chord every other is decided.
    notched = convex_polygon_coords(61) + [(30, 1800)]
    calls = _counting_span(monkeypatch)
    for coords in (notched, notched[::-1]):
        n = len(coords)
        grazed = _first_grazing_chord(coords)
        assert not _strictly_convex(coords) and grazed in ((0, 60), (1, 61))
        assert _check_mask(coords) == "grazing"
        rest = [c for c in _all_chords(n) if c != grazed]
        assert _check_mask(coords, rest) == "decided"
    assert len(calls) == 4
