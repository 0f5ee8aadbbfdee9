import hashlib
import random
from itertools import combinations

import pytest

from jointtri.conditions import PointSetPair, necessary_conditions
from jointtri.geom import DegenerateInput, LabeledSet, convex_hull
from jointtri.greedy import (LEX, SEEDED_RANDOM, greedy_construct,
                             verify_joint)
from jointtri.triangles import TriangleSet

from helpers import (brute_greedy, grid_locked_coords, hull_locked_pair, mutate,
                     overlap_by_decomposition, pairwise_verify_points, xorient)

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


def _pair(a_coords, b_coords=None):
    a = LabeledSet.from_coords(a_coords)
    b = LabeledSet.from_coords(b_coords) if b_coords else a
    return PointSetPair(a, b)


def _full_run(pair, policy=LEX, seed=None):
    nc = necessary_conditions(pair)
    assert nc.ok
    return greedy_construct(pair, nc.legal.legal, policy, seed)


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


def test_greedy_choice_sequences_pinned():
    # LEX and seeded-random (seeds 0-2) choice sequences on five hull-locked
    # pairs, n 40-100, hashed in one sha256 of their reprs; recorded with
    # the intp survivor table, so a change to its dtype or layout cannot
    # change a choice.
    h = hashlib.sha256()
    for n, s in ((40, 0), (55, 1), (70, 2), (85, 3), (100, 4)):
        pair = hull_locked_pair(n, 1000, 3, s)
        nc = necessary_conditions(pair)
        for policy, seed in ((LEX, None), (SEEDED_RANDOM, 0),
                             (SEEDED_RANDOM, 1), (SEEDED_RANDOM, 2)):
            jt = greedy_construct(pair, nc.legal.legal, policy, seed)
            assert jt.verified, (n, s, policy, seed)
            h.update(repr(jt.choices).encode())
    assert h.hexdigest() == \
        "030fe2d8ec39343331044fcdc5f3f87ceeff986acfdb5bf721f4b5874767b411"


def test_greedy_requires_nonempty_legal_set():
    pair = _pair(SQUARE)
    with pytest.raises(ValueError):
        greedy_construct(pair, TriangleSet(), LEX)
    with pytest.raises(ValueError):
        greedy_construct(pair, TriangleSet([(0, 1, 2)]), "best-first")


def test_greedy_seeded_random_requires_a_seed():
    # Random(None) would seed from the OS, so the choices would not repeat.
    pair = _pair(SQUARE)
    legal = necessary_conditions(pair).legal.legal
    with pytest.raises(ValueError):
        greedy_construct(pair, legal, SEEDED_RANDOM)
    with pytest.raises(ValueError):
        greedy_construct(pair, legal, SEEDED_RANDOM, None)
    assert greedy_construct(pair, legal, SEEDED_RANDOM, 0).verified


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
            nc = necessary_conditions(pair)
        except DegenerateInput:
            continue
        assert nc.ok  # a self pair always triangulates
        jt = greedy_construct(pair, nc.legal.legal, LEX)
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
    assert violation == "label 3 is a vertex of no triangle"


def test_verify_rejects_a_tiling_that_skips_a_point():
    """Two triangles tile the square and pass every other check, yet the
    square's center, point 4, lies on their shared edge: only "every label
    is a vertex" rejects them, as the pairwise reference does."""
    pair = _pair(SQUARE + [(1, 1)])
    tris = [(0, 1, 2), (0, 2, 3)]
    assert verify_joint(pair, tris) == "label 4 is a vertex of no triangle"
    assert not pairwise_verify_points(pair.a.points, pair.b.points, tris)


def test_verify_rejects_a_flat_triangle_that_pairs_the_half_edges():
    """With the square's center, point 4, on the diagonal (0, 2), the flat
    triangle (0, 2, 4) gives every half-edge of (0, 1, 4), (1, 2, 4) and
    (0, 2, 3) its twin, and every label is used: only nondegeneracy
    rejects the set, as the pairwise reference does."""
    pair = _pair(SQUARE + [(1, 1)])
    tris = [(0, 1, 4), (1, 2, 4), (0, 2, 4), (0, 2, 3)]
    assert verify_joint(pair, tris) == "triangle (0, 2, 4) degenerate in A"
    assert not pairwise_verify_points(pair.a.points, pair.b.points, tris)


def test_verify_rejects_duplicates():
    pair = _pair(SQUARE)
    violation = verify_joint(pair, [(0, 1, 2), (0, 2, 3), (0, 1, 2)])
    assert violation == "triangles (0, 1, 2) and (0, 1, 2) overlap in A"


def test_verify_rejects_overlap():
    pair = _pair(SQUARE)
    violation = verify_joint(pair, [(0, 1, 2), (0, 1, 3)])
    assert "overlap" in violation


def test_verify_empty_set():
    assert verify_joint(_pair(SQUARE), []) == "label 0 is a vertex of no triangle"


# One side empty, the other not: the same labels (3,4,5) bound an empty
# triangle in A while point 0 sits inside the corresponding triangle in B.
MISMATCH_A = [(10, 10), (12, 0), (-5, -5), (0, 0), (4, 0), (2, 3), (-8, 4), (8, -6)]
MISMATCH_B = [(2, 1), (12, 0), (-5, -5), (0, 0), (4, 0), (2, 3), (-8, 4), (8, -6)]


# A square with two interior points; B moves point 5 into A's triangle
# (0, 1, 4), which A's triangulations below and around it leave empty.
LOCKED_A = [(0, 0), (12, 0), (12, 12), (0, 12), (4, 6), (8, 6)]
LOCKED_B = [(0, 0), (12, 0), (12, 12), (0, 12), (4, 6), (9, 2)]


def test_verify_reports_one_sided_emptiness():
    """The verifier tests no triangle for emptiness: a triangle that holds
    a point of B fails by another check.  Alone it leaves that point's
    label unused; in a triangulation of A with B's hull, the triangle on
    the point's other side overlaps it in B."""
    pair = _pair(MISMATCH_A, MISMATCH_B)
    from jointtri.triangles import enumerate_empty

    assert (3, 4, 5) in enumerate_empty(pair.a)
    assert (3, 4, 5) not in enumerate_empty(pair.b)
    violation = verify_joint(pair, [(3, 4, 5)])
    assert violation == "label 0 is a vertex of no triangle"
    locked = _pair(LOCKED_A, LOCKED_B)
    tris = [(0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5)]
    assert verify_joint(_pair(LOCKED_A), tris) is None
    assert (0, 1, 4) not in enumerate_empty(locked.b)
    assert verify_joint(locked, tris) == "triangles (0, 1, 4) and (1, 4, 5) overlap in B"


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


# Hand-made sets whose every nondegenerate triple the mask is tested on:
# two halves of a square (disjoint) and its crossing halves, a triangle
# nested in another across a shared edge, its apex on the outer boundary
# (no proper crossing and no strictly inner vertex, yet they overlap),
# and a triangle strictly inside another.
MASK_SETS = (SQUARE, [(0, 0), (4, 0), (0, 4), (2, 2)],
             [(0, 0), (6, 0), (0, 6), (1, 1), (2, 1), (1, 2)])


def test_vectorized_deletion_mask_matches_scalar_overlap(monkeypatch):
    import numpy as np

    from jointtri import greedy
    from jointtri.geom import orient_sign_tensor
    from jointtri.greedy import _head_overlaps, _overlap_mask, _survivors
    from jointtri.triangles import enumerate_empty

    def check(sides, cands, picks):
        # the mask is the overlap in either realization, one pick at a time
        # and for all picks at once, in one block of survivors or in blocks
        # of one and of a few; the head matrix is the same overlap between
        # every two candidates
        cols = np.array(cands, dtype=np.intp).T
        signs = tuple(orient_sign_tensor(s.points) for s in sides)
        state = _survivors(signs, cols)
        overlaps = [[[overlap_by_decomposition(tuple(s[v] for v in t),
                                               tuple(s[v] for v in u))
                      for s in sides] for u in cands] for t in cands]
        differ = 0
        for pick in picks:
            mask = _overlap_mask(signs, state, [pick])
            for row, u in enumerate(cands):
                assert mask[row] == any(overlaps[pick][row]), (cands[pick], u)
                differ += overlaps[pick][row][0] != overlaps[pick][row][1]
        want = [any(any(overlaps[p][row]) for p in picks) for row in range(len(cands))]
        for size in (greedy._MASK_BLOCK_BYTES, 1, 300):
            monkeypatch.setattr(greedy, "_MASK_BLOCK_BYTES", size)
            assert _overlap_mask(signs, state, list(picks)).tolist() == want
        monkeypatch.undo()
        head = _head_overlaps(signs, state, len(cands))
        assert head.tolist() == [[any(o) for o in row] for row in overlaps]
        return differ

    for coords in MASK_SETS:
        s = LabeledSet.from_coords(coords)
        cands = [t for t in combinations(range(len(s)), 3)
                 if xorient(*(s[v] for v in t))]
        check((s, s), cands, range(len(cands)))
    # the two halves of the square, and the nesting across a shared edge
    assert not overlap_by_decomposition(((0, 0), (2, 0), (2, 2)),
                                        ((0, 0), (2, 2), (0, 2)))
    assert overlap_by_decomposition(((0, 0), (4, 0), (0, 4)),
                                    ((0, 0), (4, 0), (2, 2)))
    rng = random.Random(43)
    differ = 0
    for _ in range(15):
        s = _random_set(rng, rng.randint(5, 9))
        cands = enumerate_empty(s).sorted_triangles()
        if len(cands) >= 2:
            pick = [rng.randrange(len(cands))]
            check((s, s), cands, pick)
            # a second realization: the triples nondegenerate in both
            other = _random_set(rng, len(s))
            both = [t for t in cands if xorient(*(other[v] for v in t))]
            if len(both) >= 2:
                differ += check((s, other), both, rng.sample(range(len(both)), 2))
    assert differ > 0


def test_every_verified_triple_is_paired_and_legal():
    rng = random.Random(37)
    done = 0
    while done < 20:
        s = _random_set(rng, rng.randint(5, 8))
        pair = PointSetPair(s, s)
        try:
            nc = necessary_conditions(pair)
        except DegenerateInput:
            continue
        jt = greedy_construct(pair, nc.legal.legal, LEX)
        assert jt.verified
        for t in jt.triangles:
            assert t in nc.candidates
            assert t in nc.legal.legal
        done += 1


def test_greedy_choices_match_brute_reference_on_grid_pairs(monkeypatch):
    # The legal set where condition 2 holds, else the paired empty
    # triangles: there B's overlaps differ more from A's.  LEX passes
    # resolve heads of 1, 2 and 3 survivors, the default, and the whole
    # table at once.
    from jointtri import greedy

    rng = random.Random(2024)
    done = legal = collinear = 0
    while done < 30:
        n = 8 + done * 22 // 29
        coords = grid_locked_coords(rng, n, 6 if n <= 14 else 8 if n <= 25 else 9)
        if coords is None:
            continue
        pair = _pair(*coords)
        nc = necessary_conditions(pair)
        pool = nc.legal.legal if nc.ok else nc.candidates
        for policy, seed in ((LEX, None), (SEEDED_RANDOM, 3), (SEEDED_RANDOM, 11)):
            want = brute_greedy(*coords, pool, seed)
            for head in (1, 2, 3, greedy._HEAD, len(pool) + 1):
                monkeypatch.setattr(greedy, "_HEAD", head)
                jt = greedy_construct(pair, pool, policy, seed)
                assert jt.choices == want, (coords, policy, seed, head)
            monkeypatch.undo()
        legal += nc.ok
        collinear += any(xorient(*t) == 0 for t in combinations(coords[0], 3))
        done += 1
    assert legal >= 15 and collinear >= 20


def test_greedy_ends_when_the_overlap_mask_reports_nothing(monkeypatch):
    # Faulty overlap readers that miss every overlap, even a triangle's
    # with itself: each pass still drops its commits, so the greedy
    # commits every legal triangle once and the verifier rejects the
    # overlapping result instead of the loop running forever.
    import numpy as np

    from jointtri import greedy

    pair = _pair(SQUARE)
    legal = necessary_conditions(pair).legal.legal
    calls = []

    def blind_mask(signs, state, *_):
        calls.append(state.shape[1])
        assert len(calls) <= 2 * len(legal), "the greedy does not end"
        return np.zeros(state.shape[1], dtype=bool)

    def blind_head(signs, state, k):
        calls.append(-k)
        return np.zeros((k, k), dtype=bool)

    monkeypatch.setattr(greedy, "_overlap_mask", blind_mask)
    monkeypatch.setattr(greedy, "_head_overlaps", blind_head)
    m = len(legal)
    for policy, seed, head in ((LEX, None, greedy._HEAD), (LEX, None, 1),
                               (SEEDED_RANDOM, 5, greedy._HEAD)):
        monkeypatch.setattr(greedy, "_HEAD", head)
        calls.clear()
        jt = greedy_construct(pair, legal, policy, seed)
        assert not jt.verified and jt.violation is not None
        assert sorted(jt.choices) == legal.sorted_triangles()
        # one mask per pass, both realizations at once: a LEX pass commits
        # its whole head, a seeded-random pass one pick; a LEX pass whose
        # head held every survivor ends the loop without a mask
        if policy == LEX:
            sizes = list(range(m, 0, -head))
            assert calls == [c for left in sizes
                             for c in ((-head, left) if left > head else (-left,))]
        else:
            assert calls == list(range(m, 0, -1))
