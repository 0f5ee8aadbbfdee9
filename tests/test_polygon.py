import hashlib
import math
import random
from itertools import combinations

import numpy as np
import pytest

from jointtri import polygon
from jointtri.geom import COORD_LIMIT, SizeGuard
from jointtri.greedy import verify_tiling
from jointtri.oracle import (MAX_ORACLE_POLYGON, gen_polygon_pair,
                             polygon_oracle_exists)
from jointtri.polygon import (GrazingDiagonal, Polygon, PolygonPair, _fill_table,
                              dp_joint_polygon, ivg, verify_polygon_joint,
                              visibility_graph)

from helpers import (_diagonal_inside_slow, _on_open_segment, _proper_cross,
                     _winding, brute_diagonal_visible, brute_fill_table,
                     brute_is_simple, convex_polygon_coords,
                     count_joint_triangulations, in_cone, star_polygon_coords,
                     xorient)

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
    # 20 cells is two to six segments per block at these sizes; visibility
    # then takes the span path, in blocks of one row and five triples
    monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 20)
    assert _construction_verdicts(cycles) == verdicts
    # fresh polygons, since each caches its diagonals
    assert [_visibility_or_grazing(Polygon(p.vertices)) for p in polys] == graphs


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
            with pytest.raises(GrazingDiagonal) as exc:
                visibility_graph(poly)
            assert str(exc.value) == \
                f"diagonal candidate {first} passes through another vertex"
            grazed += 1
            continue
        got = visibility_graph(poly)
        n = len(coords)
        for i, j in combinations(range(n), 2):
            adjacent = j - i == 1 or (i, j) == (0, n - 1)
            want = adjacent or brute_diagonal_visible(coords, i, j)
            assert ((i, j) in got) == want, (coords, i, j)
        visible += 1
    assert grazed >= 100 and visible >= 100, (grazed, visible)


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


def test_cone_and_graze_match_scalar_references():
    grazing = reflex = 0
    for coords in _mask_polygons():
        xs, ys = np.array(coords, dtype=np.int64).T
        cone, graze = polygon._cone_and_graze(
            xs, ys, Polygon.from_coords(coords).ccw_sign)
        span_graze = polygon._angle_order(xs, ys)[3]
        n = len(coords)
        for u in range(n):
            for v in range(n):
                a, b = coords[u], coords[v]
                grazes = any(_on_open_segment(a, b, p) for p in coords)
                assert graze[u, v] == grazes, (coords, u, v)
                assert span_graze[u, v] == grazes, (coords, u, v)
                assert cone[u, v] == (in_cone(coords, u, v) and in_cone(coords, v, u)), \
                    (coords, u, v)
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
            if e in a.boundary_edges() or brute_diagonal_visible(FLAT_BOTTOM, *e)}
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
                if e in pair.a.boundary_edges() or brute_diagonal_visible(b, *e)}
        assert ivg(pair) == want, (pair.a.vertices, b)
        counts["decided"] += 1
    assert min(counts.values()) >= 30, counts


def test_fill_table_matches_brute_reference():
    failed = found = 0
    families = _seeded_pairs(149, 40)
    families["mirrored"] = [PolygonPair(p.a, Polygon.from_coords(
        [(x, -y) for x, y in p.a.vertices])) for p in families["star"]]
    # independent stars from n = 16 on mostly admit no joint triangulation
    rng = random.Random(151)
    families["independent"] = [
        PolygonPair(*(Polygon.from_coords(star_polygon_coords(rng, n, 10**6))
                      for _ in range(2)))
        for n in range(16, 40)]
    for pairs in families.values():
        for pair, shared in _intersections(pairs):
            m, choice = _fill_table(pair, shared)
            assert (m, choice) == brute_fill_table(pair, shared), pair.a.vertices
            found += m[0][-1]
            failed += not m[0][-1]
            diagonals = sorted(shared - pair.a.boundary_edges())
            if diagonals:
                fewer = shared - {diagonals[len(diagonals) // 2]}
                assert _fill_table(pair, fewer) == brute_fill_table(pair, fewer)
    assert found >= 100 and failed >= 40, (found, failed)


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
    # With only boundary edges allowed, the tiling's diagonal is flagged.
    quad = Polygon.from_coords(CONVEX_QUAD)
    cycle = range(len(quad))
    sides = (("A", quad.vertices, cycle), ("B", quad.vertices, cycle))
    violation = verify_tiling(sides, [(0, 1, 2), (0, 2, 3)],
                              allowed=quad.boundary_edges())
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


def _direction_cmp(d, e) -> int:
    """Scalar reference order of nonzero directions, counterclockwise from
    +x: the upper half-plane (+x included) first, then the cross product;
    0 for equal directions."""
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    if half(d) != half(e):
        return half(d) - half(e)
    return -xorient((0, 0), d, e)


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
    key = polygon._angle_keys(*np.array(dirs, dtype=np.int64).T).tolist()
    ties = 0
    for i, j in combinations(range(len(dirs)), 2):
        want = _direction_cmp(dirs[i], dirs[j])
        assert (key[i] > key[j]) - (key[i] < key[j]) == (want > 0) - (want < 0), \
            (dirs[i], dirs[j])
        ties += want == 0
    assert ties >= 16


def test_angle_order_matches_scalar_sort_at_the_cap():
    """``_angle_order`` on points at +-COORD_LIMIT: each row sorted by the
    scalar direction order, nearest first within a direction, and
    ``first`` and ``last`` bracket each direction's run."""
    c = COORD_LIMIT
    pts = [(-c, -c), (c, c), (0, 0), (c, c - 1), (c - 1, c - 2), (-c, c),
           (c, -c), (c // 2, c // 2), (1, 0), (c, 0), (-c, 1), (2, 1),
           (c - 2, c // 2 - 1), (-c + 1, -c + 2), (0, c), (0, -c)]
    xs, ys = np.array(pts, dtype=np.int64).T
    order, first, last, graze = polygon._angle_order(xs, ys)
    n = len(pts)
    for u in range(n):
        row = order[u].tolist()
        assert row[-1] == u and sorted(row) == list(range(n))
        d = [(pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]) for v in row[:-1]]
        for p in range(n - 2):
            cmp = _direction_cmp(d[p], d[p + 1])
            assert cmp < 0 or (cmp == 0 and abs(d[p][0]) + abs(d[p][1])
                               < abs(d[p + 1][0]) + abs(d[p + 1][1])), (u, row)
        for p, v in enumerate(row[:-1]):
            run = [q for q in range(n - 1) if _direction_cmp(d[q], d[p]) == 0]
            assert (first[u, v], last[u, v]) == (run[0], run[-1]), (u, v)
            assert graze[u, v] == (p > run[0])
    assert graze.any()


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
    """``_diagonal_mask`` on ``chords`` (default all, lexicographic)
    against the scalar references: it raises on the first grazing chord
    with no proper crossing, or else decides each chord as
    ``brute_diagonal_visible`` does.  Returns which of the two happened."""
    n = len(coords)
    us, vs = polygon._chords(n) if chords is None else np.array(sorted(chords)).T
    poly = Polygon.from_coords(coords)
    first = _first_grazing_chord(coords, list(zip(us.tolist(), vs.tolist())))
    if first is not None:
        with pytest.raises(GrazingDiagonal) as exc:
            polygon._diagonal_mask(poly, us, vs)
        assert str(exc.value) == _grazing_message(first), coords
        return "grazing"
    got = polygon._diagonal_mask(poly, us, vs).tolist()
    assert got == [brute_diagonal_visible(coords, i, j)
                   for i, j in zip(us.tolist(), vs.tolist())], coords
    return "decided"


def _counting_span(monkeypatch) -> list:
    """Count calls of ``_span_crossings``, the span path's crossing test."""
    calls = []
    span = polygon._span_crossings

    def counting(*args):
        calls.append(1)
        return span(*args)

    monkeypatch.setattr(polygon, "_span_crossings", counting)
    return calls


def _chord_sample(rng: random.Random, n: int):
    """About nine tenths of an n-gon's chords, seeded, as ``ivg`` passes
    A's diagonals to B."""
    return [c for c in zip(*(a.tolist() for a in polygon._chords(n)))
            if rng.randrange(10)]


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
    on the span path: 8 cells is less than one chord per block."""
    monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", 8)
    calls = _counting_span(monkeypatch)
    rng = random.Random(173)
    seen = []
    for coords in _grid_cycles(173, 5000):
        if len(coords) >= 5 and brute_is_simple(coords):
            seen.append(_check_mask(coords))
            seen.append(_check_mask(coords, _chord_sample(rng, len(coords))))
    assert len(calls) == len(seen)
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
    """``_diagonal_mask`` tests densely exactly when all chords fit one
    ``_boundary_hits`` block of ``_HIT_BLOCK_CELLS`` cells, and both sides
    of that selection decide as the scalar references do."""
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
        for cells, path in ((chords * n, "dense"), (chords * n - 1, "span")):
            monkeypatch.setattr(polygon, "_HIT_BLOCK_CELLS", cells)
            before = len(calls)
            verdict = _check_mask(coords)
            sides[path].append(verdict)
            assert len(calls) - before == (path == "span")
    assert sides["dense"] == sides["span"]
    assert sides["span"].count("grazing") >= 10 and sides["span"].count("decided") >= 20
