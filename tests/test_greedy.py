import random

import pytest

from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 check_legal_nonempty, legal_set)
from jointtri.geom import DegenerateInput, LabeledSet, convex_hull
from jointtri.greedy import (LEX, SEEDED_RANDOM, greedy_construct,
                             verify_joint)
from jointtri.triangles import TriangleSet, paired_empty

from helpers import mutate

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


def _pair(a_coords, b_coords=None):
    a = LabeledSet.from_coords(a_coords)
    b = LabeledSet.from_coords(b_coords) if b_coords else a
    return PointSetPair(a, b)


def _full_run(pair, policy=LEX, seed=None):
    hc = check_hull_correspondence(pair)
    assert hc.ok
    res = legal_set(pair, paired_empty(pair), hc.hull_edges)
    assert check_legal_nonempty(res)
    return greedy_construct(pair, res.legal, policy, seed)


def test_greedy_square_lex_is_hand_checkable():
    jt = _full_run(_pair(SQUARE))
    # picks (0,1,2); (0,1,3) and (1,2,3) overlap it in A; (0,2,3) survives
    assert jt.triangles.sorted_triangles() == [(0, 1, 2), (0, 2, 3)]
    assert jt.verified
    assert jt.violation is None
    assert jt.choices == [(0, 1, 2), (0, 2, 3)]


def test_greedy_lex_deterministic():
    first = _full_run(_pair(SQUARE))
    second = _full_run(_pair(SQUARE))
    assert first.triangles.sorted_triangles() == second.triangles.sorted_triangles()
    assert first.choices == second.choices


def test_greedy_seeded_random_reproducible():
    pts = [(0, 0), (9, 1), (11, 8), (4, 12), (5, 5), (7, 6)]
    a = _full_run(_pair(pts), SEEDED_RANDOM, seed=5)
    b = _full_run(_pair(pts), SEEDED_RANDOM, seed=5)
    assert a.choices == b.choices
    assert a.verified and b.verified


def test_greedy_requires_nonempty_legal_set():
    pair = _pair(SQUARE)
    with pytest.raises(ValueError):
        greedy_construct(pair, TriangleSet(), LEX)
    with pytest.raises(ValueError):
        greedy_construct(pair, TriangleSet([(0, 1, 2)]), "best-first")


def _random_set(rng, n):
    pts = []
    while len(pts) < n:
        p = (rng.randint(0, 30), rng.randint(0, 30))
        if p not in pts:
            pts.append(p)
    return LabeledSet.from_coords(pts)


def test_greedy_self_pairs_always_verify():
    rng = random.Random(17)
    done = 0
    while done < 60:
        s = _random_set(rng, rng.randint(4, 8))
        pair = PointSetPair(s, s)
        try:
            hc = check_hull_correspondence(pair)
        except DegenerateInput:
            continue
        res = legal_set(pair, paired_empty(pair), hc.hull_edges)
        assert check_legal_nonempty(res)  # a self pair always triangulates
        jt = greedy_construct(pair, res.legal, LEX)
        assert jt.verified, (s.points, jt.violation)
        done += 1


def test_verified_triangle_count_matches_euler_relation():
    rng = random.Random(29)
    done = 0
    while done < 25:
        s = _random_set(rng, rng.randint(5, 9))
        pair = PointSetPair(s, s)
        try:
            hull = convex_hull(s)
        except DegenerateInput:
            continue
        jt = _full_run(pair)
        assert jt.verified
        n_interior = len(s) - len(hull)
        assert len(jt.triangles) == 2 * n_interior + len(hull) - 2
        done += 1


def test_verify_square_pair():
    pair = _pair(SQUARE)
    assert verify_joint(pair, [(0, 1, 2), (0, 2, 3)]) is None
    violation = verify_joint(pair, [(0, 1, 2)])
    assert violation == "area mismatch in A: covered 4 of 8"


def test_verify_rejects_duplicates():
    pair = _pair(SQUARE)
    violation = verify_joint(pair, [(0, 1, 2), (0, 2, 3), (0, 1, 2)])
    assert violation == "duplicate triangle (0, 1, 2)"


def test_verify_rejects_overlap():
    pair = _pair(SQUARE)
    violation = verify_joint(pair, [(0, 1, 2), (0, 1, 3)])
    assert "overlap" in violation


def test_verify_empty_set():
    assert verify_joint(_pair(SQUARE), []) == "empty triangle set"


# One side empty, the other not: the same labels (3,4,5) bound an empty
# triangle in A while point 0 sits inside the corresponding triangle in B.
MISMATCH_A = [(10, 10), (12, 0), (-5, -5), (0, 0), (4, 0), (2, 3), (-8, 4), (8, -6)]
MISMATCH_B = [(2, 1), (12, 0), (-5, -5), (0, 0), (4, 0), (2, 3), (-8, 4), (8, -6)]


def test_verify_reports_one_sided_emptiness():
    pair = _pair(MISMATCH_A, MISMATCH_B)
    from jointtri.triangles import enumerate_empty

    assert (3, 4, 5) in enumerate_empty(pair.a)
    assert (3, 4, 5) not in enumerate_empty(pair.b)
    violation = verify_joint(pair, [(3, 4, 5)])
    assert violation == "corresponding triangle (3, 4, 5) not empty in B: contains point 0"


def test_verify_degenerate_triple():
    pts = [(0, 0), (1, 1), (2, 2), (5, 0), (0, 5), (7, 7)]
    pair = _pair(pts)
    violation = verify_joint(pair, [(0, 1, 2)])
    assert violation == "triangle (0, 1, 2) degenerate in A"


def test_verify_rejects_mutations():
    rng = random.Random(31)
    rejected = 0
    while rejected < 40:
        s = _random_set(rng, rng.randint(5, 8))
        pair = PointSetPair(s, s)
        try:
            jt = _full_run(pair)
        except (AssertionError, DegenerateInput):
            continue
        mutated = mutate(rng, jt.triangles.sorted_triangles(), len(s))
        violation = verify_joint(pair, mutated)
        assert violation is not None and violation != ""
        rejected += 1


def test_vectorized_deletion_mask_matches_scalar_overlap():
    import numpy as np

    from jointtri.geom import interiors_overlap, orient_sign_tensor
    from jointtri.greedy import _sat_overlap_mask
    from jointtri.triangles import enumerate_empty

    rng = random.Random(43)
    for _ in range(15):
        s = _random_set(rng, rng.randint(5, 9))
        cands = enumerate_empty(s).sorted_triangles()
        if len(cands) < 2:
            continue
        arr = np.array(cands, dtype=np.intp)
        d = orient_sign_tensor(s.points)
        signs = d[arr[:, 0], arr[:, 1], arr[:, 2]]
        pick = rng.randrange(len(cands))
        t = cands[pick]
        mask = _sat_overlap_mask(d, arr, signs, t, int(signs[pick]))
        t_pts = (s[t[0]], s[t[1]], s[t[2]])
        for row, u in enumerate(cands):
            u_pts = (s[u[0]], s[u[1]], s[u[2]])
            assert mask[row] == interiors_overlap(t_pts, u_pts), (t, u)


def test_every_verified_triple_is_paired_and_legal():
    rng = random.Random(37)
    done = 0
    while done < 20:
        s = _random_set(rng, rng.randint(5, 8))
        pair = PointSetPair(s, s)
        try:
            hc = check_hull_correspondence(pair)
        except DegenerateInput:
            continue
        cands = paired_empty(pair)
        res = legal_set(pair, cands, hc.hull_edges)
        jt = greedy_construct(pair, res.legal, LEX)
        assert jt.verified
        for t in jt.triangles:
            assert t in cands
            assert t in res.legal
        done += 1
