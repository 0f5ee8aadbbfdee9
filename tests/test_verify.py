"""The linear-size verifier against the pairwise reference verifiers."""

import random
import re
from collections import Counter
from itertools import combinations, islice

from jointtri.campaign import gen_point_pair, gen_polygon_pair
from jointtri.conditions import PointSetPair, check_hull_correspondence, necessary_conditions
from jointtri.geom import DegenerateInput, LabeledSet, Point, convex_hull
from jointtri.greedy import LEX, greedy_construct, verify_joint, verify_tiling
from jointtri.oracle import iter_triangulations
from jointtri.polygon import Polygon, PolygonPair, dp_joint_polygon, verify_polygon_joint
from jointtri.triangles import paired_empty

from helpers import (boundary_edges, brute_hull_edges, enumerate_triangulations,
                     gen_perturbed_pair, grid_locked_coords, hull_locked_pair, mutate,
                     overlap_by_decomposition, pairwise_verify_points,
                     pairwise_verify_polygons, point_in_closed_triangle, xorient)


def _point_cases(rng):
    """Seeded (pair, triangles) cases: greedy results and their mutations,
    and random subsets of the paired empty triangles of Euler size."""
    seed = 0
    while True:
        seed += 1
        n = rng.randint(4, 8)
        kind = seed % 3
        if kind == 0:
            pair = gen_point_pair(n, 12, 5000 + seed)
        elif kind == 1:
            pair = gen_perturbed_pair(n, 25, 3, 5000 + seed)
        else:
            a = gen_point_pair(n, 25, 5000 + seed).a
            pair = PointSetPair(a, a)
        try:
            h = len(convex_hull(pair.a))
            nc = necessary_conditions(pair)
        except DegenerateInput:
            continue
        if nc.ok:
            jt = greedy_construct(pair, nc.legal.legal, LEX)
            tris = jt.triangles.sorted_triangles()
            yield pair, tris
            for _ in range(3):
                yield pair, mutate(rng, tris, n)
        size = 2 * n - h - 2
        # The chain stops at a failed NC1; those pairs still give subsets.
        paired = nc.candidates if nc.hull.ok else paired_empty(pair)
        cands = paired.sorted_triangles()
        if len(cands) >= size:
            for _ in range(4):
                yield pair, rng.sample(cands, size)


def _polygon_cases(rng):
    """Seeded (pair, triangles) cases: DP results on random pairs and on
    self pairs, each self-pair result also on the random pair, and
    mutations of all of them.  Each random pair (A, B) comes with
    (A, M) and the self pair (M, M), where M is A's mirror image
    (x, -y), so that M winds clockwise."""
    seed = 0
    while True:
        seed += 1
        n = rng.randint(4, 9)
        try:
            drawn = gen_polygon_pair(n, 30, 6000 + seed)
        except ValueError:
            continue
        mirror = Polygon.from_coords((x, -y) for x, y in drawn.a.vertices)
        for pair, selfpair in ((drawn, PolygonPair(drawn.a, drawn.a)),
                               (PolygonPair(drawn.a, mirror), PolygonPair(mirror, mirror))):
            found = [(p, dp_joint_polygon(p)) for p in (pair, selfpair)]
            for p, jt in found:
                if jt is None:
                    continue
                tris = jt.triangles.sorted_triangles()
                targets = (p, pair) if p is selfpair else (p,)
                for q in targets:
                    yield q, tris
                    yield q, mutate(rng, tris, n)


def _differential(cases, count, library, reference):
    verdicts = []
    for _, (pair, tris) in zip(range(count), cases):
        got = library(pair, tris)
        want = reference(pair, tris)
        assert (got is None) == want, (pair, tris, got)
        verdicts.append(want)
    return verdicts


def test_point_verifier_matches_pairwise_reference():
    verdicts = _differential(
        _point_cases(random.Random(2024)), 1000, verify_joint,
        lambda pair, tris: pairwise_verify_points(pair.a.points, pair.b.points, tris))
    assert len(verdicts) == 1000
    assert sum(verdicts) >= 100 and verdicts.count(False) >= 100


def test_polygon_verifier_matches_pairwise_reference():
    cases = list(islice(_polygon_cases(random.Random(2025)), 600))
    verdicts = _differential(
        cases, 600, verify_polygon_joint,
        lambda pair, tris: pairwise_verify_polygons(pair.a.vertices,
                                                    pair.b.vertices, tris))
    assert len(verdicts) == 600
    assert sum(verdicts) >= 50 and verdicts.count(False) >= 50
    # the verifier reads a clockwise B's boundary in reverse, both ways
    clockwise = [v for (pair, _), v in zip(cases, verdicts) if pair.b.ccw_sign < 0]
    assert sum(clockwise) >= 50 and clockwise.count(False) >= 50


def _triangulations_of_a():
    """Seeded (pair, triangles) cases: up to 60 triangulations of A per
    pair, by the frontier search on A paired with itself, each to be judged
    against B, on hull-locked, perturbed and independent pairs at n 5-9."""
    seed = 0
    while True:
        seed += 1
        n, kind = 5 + seed % 5, seed % 3
        if kind == 0:
            pair = hull_locked_pair(n, 40, 8, 7000 + seed)
        elif kind == 1:
            pair = gen_perturbed_pair(n, 30, 3, 7000 + seed)
        else:
            pair = gen_point_pair(n, 30, 7000 + seed)
        for tris in islice(iter_triangulations(PointSetPair(pair.a, pair.a)), 60):
            yield pair, sorted(tris)


def test_point_verifier_matches_pairwise_reference_on_triangulations_of_a():
    """The verifier tests no triangle for emptiness, yet it agrees with the
    pairwise reference, which does, on triangulations of A judged against
    B, most of which have a triangle holding another point of B."""
    cases = list(islice(_triangulations_of_a(), 4200))
    verdicts = _differential(
        cases, len(cases), verify_joint,
        lambda pair, tris: pairwise_verify_points(pair.a.points, pair.b.points, tris))
    held = sum(any(point_in_closed_triangle(*(pair.b.points[v] for v in t), p)
                   for t in tris for w, p in enumerate(pair.b.points) if w not in t)
               for pair, tris in cases)
    # measured: 3,018 of the 4,200 sets, from 138 pairs, hold a point of B;
    # 620 verify
    assert len(verdicts) == 4200 and held >= 2000 and sum(verdicts) >= 300


def _interval_triangulations(i, q):
    """Every triangulation of the convex chain i..q closed by {i, q}, as
    triple lists: each picks the apex k of the triangle on {i, q}."""
    if q - i < 2:
        return [[]]
    return [[(i, k, q), *left, *right] for k in range(i + 1, q)
            for left in _interval_triangulations(i, k)
            for right in _interval_triangulations(k, q)]


def _every_triangulation_cases():
    """Every triangulation of the n-gon, n 5-8, on 25 seeded polygon pairs
    per n, each with B as drawn and mirrored (x, -y), so clockwise."""
    for n in range(5, 9):
        every = _interval_triangulations(0, n - 1)
        for seed in range(25):
            drawn = gen_polygon_pair(n, 30, 9100 + 100 * n + seed)
            mirror = Polygon.from_coords((x, -y) for x, y in drawn.b.vertices)
            for pair in (drawn, PolygonPair(drawn.a, mirror)):
                for tris in every:
                    yield pair, tris


def test_polygon_verifier_matches_pairwise_reference_on_every_triangulation():
    """The verifier reads no visibility, yet accepts exactly the sets whose
    every edge the reference finds a boundary edge or a diagonal of both
    polygons and which tile both."""
    cases = list(_every_triangulation_cases())
    verdicts = _differential(
        cases, len(cases), verify_polygon_joint,
        lambda pair, tris: pairwise_verify_polygons(pair.a.vertices,
                                                    pair.b.vertices, tris))
    assert len(verdicts) == 25 * 2 * (5 + 14 + 42 + 132)
    clockwise = [v for (pair, _), v in zip(cases, verdicts) if pair.b.ccw_sign < 0]
    assert sum(verdicts) >= 300 and sum(clockwise) >= 150


def _grid_triple_cases(rng):
    """Seeded (pair, triangles) cases on grid pairs, where collinear
    triples are common: random label triples, so triangles are often
    degenerate or hold other points."""
    while True:
        coords = grid_locked_coords(rng, rng.randint(5, 9), 4)
        if coords is None:
            continue
        pair = PointSetPair(*(LabeledSet.from_coords(c) for c in coords))
        n = len(pair.a)
        yield pair, rng.sample(list(combinations(range(n), 3)), rng.randint(1, n))


def _realizations(pair):
    """Each side's coordinates by name, and the boundary edges of A as
    label pairs (i, j), i < j, of a point or polygon pair."""
    if isinstance(pair, PointSetPair):
        return ({"A": pair.a.points, "B": pair.b.points},
                {tuple(sorted(e)) for e in brute_hull_edges(pair.a.points)})
    return {"A": pair.a.vertices, "B": pair.b.vertices}, boundary_edges(pair.a)


def test_verifier_messages_name_their_witnesses():
    """On mutated point and polygon triangulations and on grid triples,
    each rejection of the four kinds after check 1 names a witness that a
    direct coordinate test confirms: the degenerate triangle named is the
    first whose corners are collinear, an unused label is in no triple, two overlapping triangles
    meet (``overlap_by_decomposition``), and a one-sided edge is a boundary
    edge or an interior edge of a triple, as the message says.  Each kind
    turns up at least ten times, and B's side at least ten times."""
    cases = ([(verify_joint, c) for c in islice(_point_cases(random.Random(2026)), 300)]
             + [(verify_joint, c) for c in islice(_grid_triple_cases(random.Random(2028)), 100)]
             + [(verify_polygon_joint, c)
                for c in islice(_polygon_cases(random.Random(2027)), 200)])
    kinds = Counter()
    for verify, (pair, tris) in cases:
        message = verify(pair, tris)
        if message is None:
            kinds["verified"] += 1
            continue
        sides, boundary = _realizations(pair)
        named = [tuple(map(int, g.split(", "))) for g in re.findall(r"\(([\d, ]+)\)", message)]
        side = sides.get(message[-1])
        if "degenerate" in message:  # the first, by triple and then side
            flat = [(t, name) for t in sorted(tuple(sorted(t)) for t in tris)
                    for name, points in sides.items() if xorient(*(points[v] for v in t)) == 0]
            kind, ok = "degenerate", flat[0] == (named[0], message[-1])
        elif message.endswith("is a vertex of no triangle"):
            label = int(message.split()[1])
            kind, ok = "unused label", all(label not in t for t in tris)
        elif "overlap" in message:
            kind, ok = "overlap", overlap_by_decomposition(
                *(tuple(side[v] for v in t) for t in named))
        elif message.startswith("boundary edge ("):
            kind, ok = "one-sided edge", named[0] in boundary
        elif message.startswith("interior edge ("):
            kind, ok = "one-sided edge", named[0] not in boundary and any(
                set(named[0]) <= set(t) for t in tris)
        else:  # check 1 or a DegenerateInput message, which name no geometric witness
            continue
        assert ok, (message, pair, tris)
        kinds[kind] += 1
        kinds["in B"] += message.endswith(" in B")
    assert kinds["verified"] >= 50, kinds
    for kind in ("degenerate", "unused label", "overlap", "one-sided edge", "in B"):
        assert kinds[kind] >= 10, (kind, kinds)


# Hand-built triple sets that pass checks 1-3 and fail only check 4, the
# half-edge check, each on a vertex cycle that winds counterclockwise as given:
# (coordinates, triangles, message).
_HALF_EDGE_FAILURES = [
    # two halves of a square on the same side of edge (0, 1): the areas
    # add up to the square's
    ([(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 1, 2), (0, 1, 3)],
     "triangles (0, 1, 2) and (0, 1, 3) overlap in A"),
    # four triangles of a hexagon whose edges cross but share no directed
    # edge: the overlap and the gap have equal area
    ([(1, 0), (3, 0), (4, 2), (3, 4), (1, 4), (0, 2)],
     [(0, 1, 2), (0, 2, 5), (1, 4, 5), (2, 3, 4)],
     "interior edge (1, 4) has a triangle on one side only in A"),
    # a polygon with a reflex vertex 1, triangulated with (0, 1, 4) moved
    # across boundary edge (0, 1) to the notch (0, 1, 2), of equal area
    ([(4, 4), (2, 2), (0, 4), (0, 0), (4, 0)], [(0, 1, 2), (1, 2, 3), (1, 3, 4)],
     "boundary edge (0, 1) not covered once from inside in A"),
]


def test_half_edge_failures_are_named_on_both_windings():
    """Each hand-built failure gives its message on the counterclockwise
    cycle and on its mirror image (x, -y), which winds clockwise; the
    notch polygon's true triangulation passes on both."""
    notch = (_HALF_EDGE_FAILURES[2][0], [(0, 1, 4), (1, 2, 3), (1, 3, 4)], None)
    for coords, tris, message in _HALF_EDGE_FAILURES + [notch]:
        for flip in (1, -1):
            points = [Point(x, flip * y) for x, y in coords]
            cycle = range(len(points))
            assert verify_tiling((("A", points, cycle), ("B", points, cycle)), tris) == message


def test_verifiers_reject_labels_out_of_range():
    """A label past n - 1 or below 0 is named by check 1 of both
    verifiers: neither raises IndexError, nor wraps -1 round to n - 1."""
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    s, poly = LabeledSet.from_coords(square), Polygon.from_coords(square)
    for verify, pair in ((verify_joint, PointSetPair(s, s)),
                         (verify_polygon_joint, PolygonPair(poly, poly))):
        assert verify(pair, [(0, 1, 9)]) == "triangle (0, 1, 9) has a label outside 0..3"
        assert verify(pair, [(0, 1, 2), (-1, 0, 2)]) == (
            "triangle (-1, 0, 2) has a label outside 0..3")
        assert verify(pair, [(0, 1, 2), (0, 2, 3)]) is None


def test_verifiers_name_a_triple_with_a_repeated_label_degenerate():
    """A triple that repeats a label is flat on every side: both verifiers
    name it in check 2 instead of raising."""
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    s, poly = LabeledSet.from_coords(square), Polygon.from_coords(square)
    assert verify_joint(PointSetPair(s, s), [(0, 0, 1)]) == (
        "triangle (0, 0, 1) degenerate in A")
    assert verify_polygon_joint(PolygonPair(poly, poly), [(0, 1, 1), (1, 2, 3)]) == (
        "triangle (0, 1, 1) degenerate in A")


def test_unequal_hulls_fail_the_half_edge_check_on_b():
    """No check compares the two hulls: a triangulation of A fails the
    half-edge check on B whenever B's hull has other edges.  In the
    hand-built pair, B's hull (0, 1, 2) drops A's hull vertex 3, and A's
    fan around point 4 tiles the quadrilateral 0, 1, 2, 3 in B with every
    triangle turning as in A, so no half-edge repeats and the first edge
    of the mismatch is B's hull edge (0, 2).  The sweep judges every
    triangulation of A on independent pairs that fail condition 1."""
    a = LabeledSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    b = LabeledSet.from_coords([(0, 0), (4, 0), (4, 4), (3, 2), (3, 1)])
    fan = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
    assert (a.hull, b.hull) == ((0, 1, 2, 3), (0, 1, 2))
    assert verify_joint(PointSetPair(a, a), fan) is None
    assert verify_joint(PointSetPair(a, b), fan) == (
        "boundary edge (0, 2) not covered once from inside in B")
    pairs = sets = 0
    for n in range(5, 10):
        for seed in range(8):
            pair = gen_point_pair(n, 20, 4300 + 10 * n + seed)
            try:
                if check_hull_correspondence(pair).ok:
                    continue
            except DegenerateInput:
                continue
            pairs += 1
            for tris in enumerate_triangulations(pair.a):
                message = verify_joint(pair, tris)
                assert message is not None and message.endswith(" in B"), (pair, tris)
                sets += 1
    # measured: 40 pairs, 3,030 triangulations of A
    assert pairs >= 30 and sets >= 2000, (pairs, sets)
