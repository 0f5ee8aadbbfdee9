"""The linear-size verifier against the pairwise reference verifiers."""

import random
from itertools import combinations, islice

from jointtri import greedy
from jointtri.conditions import PointSetPair, necessary_conditions
from jointtri.geom import DegenerateInput, LabeledSet, Point, convex_hull
from jointtri.greedy import LEX, greedy_construct, verify_joint, verify_tiling
from jointtri.oracle import gen_point_pair, gen_polygon_pair
from jointtri.polygon import Polygon, PolygonPair, dp_joint_polygon, verify_polygon_joint
from jointtri.triangles import paired_empty

from helpers import (gen_perturbed_pair, grid_locked_coords, mutate,
                     pairwise_verify_points, pairwise_verify_polygons)


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


def test_verifier_messages_hold_across_scan_blocks(monkeypatch):
    """Each verdict's message, not only its verdict, is the same when
    ``_scan`` runs in row blocks of one to a few triangles, on mutated
    point and polygon triangulations and on grid triples: the first
    degenerate or non-empty triangle is still the one named."""
    cases = ([(verify_joint, c) for c in islice(_point_cases(random.Random(2026)), 300)]
             + [(verify_joint, c) for c in islice(_grid_triple_cases(random.Random(2028)), 100)]
             + [(verify_polygon_joint, c)
                for c in islice(_polygon_cases(random.Random(2027)), 200)])
    whole = [verify(pair, tris) for verify, (pair, tris) in cases]
    # n is 4 to 9 and a block's cells count both sides: 1 cell is one row
    # per block, 40 cells two to five rows
    for cells in (1, 40):
        monkeypatch.setattr(greedy, "_SCAN_BLOCK_CELLS", cells)
        assert [verify(pair, tris) for verify, (pair, tris) in cases] == whole
    messages = [m for m in whole if m is not None]
    for kind in ("not empty in A", "not empty in B", "degenerate in A"):
        assert sum(kind in m for m in messages) >= 10, kind
    assert whole.count(None) >= 50


# Hand-built triple sets that pass checks 1-5 and fail only the half-edge
# check, each on a vertex cycle that winds counterclockwise as given:
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
