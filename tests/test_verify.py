"""The linear-size verifier against the pairwise reference verifiers."""

import random

from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 check_legal_nonempty, legal_set)
from jointtri.geom import DegenerateInput, convex_hull
from jointtri.greedy import LEX, greedy_construct, verify_joint
from jointtri.oracle import gen_perturbed_pair, gen_point_pair, gen_polygon_pair
from jointtri.polygon import PolygonPair, dp_joint_polygon, verify_polygon_joint
from jointtri.triangles import paired_empty

from helpers import mutate, pairwise_verify_points, pairwise_verify_polygons


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
            hc = check_hull_correspondence(pair)
        except DegenerateInput:
            continue
        paired = paired_empty(pair)
        if hc.ok:
            res = legal_set(pair, paired, hc.hull_edges)
            if check_legal_nonempty(res):
                jt = greedy_construct(pair, res.legal, LEX)
                tris = jt.triangles.sorted_triangles()
                yield pair, tris
                for _ in range(3):
                    yield pair, mutate(rng, tris, n)
        size = 2 * n - h - 2
        cands = paired.sorted_triangles()
        if len(cands) >= size:
            for _ in range(4):
                yield pair, rng.sample(cands, size)


def _polygon_cases(rng):
    """Seeded (pair, triangles) cases: DP results on random pairs and on
    self pairs, each self-pair result also on the random pair, and
    mutations of all of them."""
    seed = 0
    while True:
        seed += 1
        n = rng.randint(4, 9)
        try:
            pair = gen_polygon_pair(n, 30, 6000 + seed)
        except ValueError:
            continue
        selfpair = PolygonPair(pair.a, pair.a)
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
    verdicts = _differential(
        _polygon_cases(random.Random(2025)), 300, verify_polygon_joint,
        lambda pair, tris: pairwise_verify_polygons(pair.a.vertices,
                                                    pair.b.vertices, tris))
    assert len(verdicts) == 300
    assert sum(verdicts) >= 50 and verdicts.count(False) >= 50
