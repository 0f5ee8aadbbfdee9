import hashlib
import random
from itertools import combinations

import pytest

from jointtri.conditions import PointSetPair, necessary_conditions
from jointtri.geom import DegenerateInput, LabeledSet, convex_hull
from jointtri.greedy import (LEX, SEEDED_RANDOM, greedy_construct,
                             verify_joint)
from jointtri.triangles import TriangleSet

from helpers import (_proper_cross, brute_greedy, grid_locked_coords, hull_locked_pair,
                     mutate, overlap_by_decomposition, pairwise_verify_points, xorient)

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


# Hand-made sets whose every nondegenerate triple the head matrix is tested
# on: two halves of a square (disjoint) and its crossing halves, a triangle
# nested in another across a shared edge, its apex on the outer boundary
# (no proper crossing and no strictly inner vertex, yet they overlap), and
# a triangle strictly inside another.
MASK_SETS = (SQUARE, [(0, 0), (4, 0), (0, 4), (2, 2)],
             [(0, 0), (6, 0), (0, 6), (1, 1), (2, 1), (1, 2)])


def test_vectorized_deletion_mask_matches_scalar_overlap():
    import numpy as np

    from jointtri.greedy import _head_overlaps
    from jointtri.triangles import enumerate_empty

    def check(sides, cands):
        # the head matrix is the overlap in either realization between
        # every two candidates
        head = _head_overlaps(tuple(s.signs for s in sides),
                              np.array(cands, dtype=np.intp).reshape(-1, 3).T)
        overlaps = [[[overlap_by_decomposition(tuple(s[v] for v in t),
                                               tuple(s[v] for v in u))
                      for s in sides] for u in cands] for t in cands]
        assert head.tolist() == [[any(o) for o in row] for row in overlaps]
        return sum(o[0] != o[1] for row in overlaps for o in row)

    for coords in MASK_SETS:
        s = LabeledSet.from_coords(coords)
        check((s, s), [t for t in combinations(range(len(s)), 3)
                       if xorient(*(s[v] for v in t))])
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
        check((s, s), cands)
        # a second realization: the triples nondegenerate in both
        other = _random_set(rng, len(s))
        differ += check((s, other), [t for t in cands if xorient(*(other[v] for v in t))])
    assert differ > 0


# Hand cases for the crossed-edge table: a point set, a commit and a
# survivor, and whether they overlap.  (0, 1, 3) lies on the same side of
# the commit's edge (0, 1); (0, 3, 4) shares only the commit's vertex 0;
# (3, 4, 5) is disjoint from the commit, yet every edge line of the commit
# cuts it, so only its own edge (3, 5) separates the two.
CROSS_CASES = (
    ([(0, 0), (4, 0), (1, 2), (3, 2)], (0, 1, 2), (0, 1, 3), True),
    ([(0, 0), (2, 1), (1, 2), (-2, -1), (-1, -2)], (0, 1, 2), (0, 3, 4), False),
    ([(6, 2), (6, 4), (2, 1), (0, 5), (4, 6), (8, 4)], (0, 1, 2), (3, 4, 5), False),
)


def test_crossed_edge_table_matches_scalar_overlap(monkeypatch):
    """The greedy's deletion: a survivor goes iff one of its edges is in the
    crossed-edge table of the commits' edges.  On triples empty in both
    realizations, the lemma's domain and the greedy's input, that is
    exactly meeting some commit in either realization, for one commit and
    for several at once, with the table built in one block and in blocks of
    one edge.  The table itself is the proper crossing, in either
    realization, of every label pair with some committed edge."""
    import numpy as np

    from jointtri import greedy
    from jointtri.greedy import _crossed, _edge_ids
    from jointtri.triangles import paired_empty

    def deleted(sides, cands, commits):
        n = len(sides[0])
        ids = _edge_ids(np.array(cands, dtype=np.intp).T, n)
        edges = np.unique(ids[:, commits])
        tables = []
        for size in (greedy._CROSS_BLOCK_BYTES, 1):
            monkeypatch.setattr(greedy, "_CROSS_BLOCK_BYTES", size)
            tables.append(_crossed(tuple(s.signs for s in sides), edges))
        monkeypatch.undo()
        assert (tables[0] == tables[1]).all()
        want = [[any(_proper_cross(s[p], s[q], s[e // n], s[e % n])
                     for s in sides for e in edges.tolist())
                 for q in range(n)] for p in range(n)]
        assert tables[0].astype(bool).tolist() == want
        return tables[0].reshape(-1).take(ids).any(axis=0)

    def check(sides, cands, commit_sets):
        # overlaps[t][u]: in A, in B
        overlaps = [[[overlap_by_decomposition(tuple(s[v] for v in t),
                                               tuple(s[v] for v in u))
                      for s in sides] for u in cands] for t in cands]
        for commits in commit_sets:
            gone = deleted(sides, cands, list(commits))
            for row, u in enumerate(cands):
                if row not in commits:
                    assert gone[row] == any(any(overlaps[c][row]) for c in commits), \
                        ([cands[c] for c in commits], u)
        return sum(o[0] != o[1] for row in overlaps for o in row)

    for coords, commit, survivor, meet in CROSS_CASES:
        s = LabeledSet.from_coords(coords)
        cands = paired_empty(PointSetPair(s, s)).sorted_triangles()
        assert overlap_by_decomposition(*(tuple(s[v] for v in t)
                                          for t in (commit, survivor))) == meet
        gone = deleted((s, s), cands, [cands.index(commit)])
        assert gone[cands.index(survivor)] == meet
        check((s, s), cands, [[c] for c in range(len(cands))] + [range(len(cands))])

    rng = random.Random(47)
    differ = collinear = 0
    for trial in range(24):
        if trial % 3 == 2:
            # a collinear grid pair, B moving interior points of A
            coords = None
            while coords is None:
                coords = grid_locked_coords(rng, rng.randint(7, 10), 5)
            sides = tuple(LabeledSet.from_coords(c) for c in coords)
            collinear += any(xorient(*t) == 0 for t in combinations(coords[0], 3))
        else:
            s = _random_set(rng, rng.randint(5, 9))
            # the set with itself, or with a second realization
            sides = (s, s) if trial % 3 == 0 else (s, _random_set(rng, len(s)))
        cands = paired_empty(PointSetPair(*sides)).sorted_triangles()
        if len(cands) < 2:
            continue
        picks = range(len(cands))
        commit_sets = [[c] for c in picks] + [rng.sample(picks, k)
                                              for k in (2, 3, min(6, len(cands)))]
        differ += check(sides, cands, commit_sets)
    assert differ > 0 and collinear > 0


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

    def blind_table(signs, edges):
        calls.append(sorted(edges.tolist()))
        assert len(calls) <= 2 * len(legal), "the greedy does not end"
        return np.zeros((len(signs[0]),) * 2, dtype=np.uint8)

    def blind_head(signs, cols):
        calls.append(-cols.shape[1])
        return np.zeros((cols.shape[1],) * 2, dtype=bool)

    monkeypatch.setattr(greedy, "_crossed", blind_table)
    monkeypatch.setattr(greedy, "_head_overlaps", blind_head)
    for policy, seed, head in ((LEX, None, greedy._HEAD), (LEX, None, 1),
                               (SEEDED_RANDOM, 5, greedy._HEAD)):
        monkeypatch.setattr(greedy, "_HEAD", head)
        calls.clear()
        jt = greedy_construct(pair, legal, policy, seed)
        assert not jt.verified and jt.violation is not None
        assert sorted(jt.choices) == legal.sorted_triangles()
        # A pass reads one table of the edges its commits add (edge ids
        # i * 4 + j), if any; a LEX pass commits its whole head, and one
        # whose head held every survivor ends the loop, as does a
        # seeded-random pass that takes the last survivor.
        if policy == LEX and head > 1:
            assert calls == [-4]
            continue
        if policy == LEX:
            assert calls == [-1, [1, 2, 6], -1, [3, 7], -1, [11], -1]
        # each edge committed before the last pass is read once
        tables = [c for c in calls if isinstance(c, list)]
        assert sorted(sum(tables, [])) == sorted({
            i * 4 + j for t in jt.choices[:-1] for i, j in combinations(t, 2)})


def test_greedy_choice_sequences_pinned_at_wide_rows():
    # LEX and seeded-random (seeds 0 and 1) choice sequences on hull-locked
    # pairs at n = 150 and 200, whose orientation rows are 3 and 4 words
    # wide (the benchmark's pairs stay at n <= 100, two words), hashed in
    # one sha256 of their reprs; recorded with the union-mask greedy that
    # the crossed-edge table replaced.
    h = hashlib.sha256()
    for n, s in ((150, 1), (200, 0)):
        pair = hull_locked_pair(n, 1000, 3, s)
        nc = necessary_conditions(pair)
        for policy, seed in ((LEX, None), (SEEDED_RANDOM, 0), (SEEDED_RANDOM, 1)):
            jt = greedy_construct(pair, nc.legal.legal, policy, seed)
            assert jt.verified, (n, s, policy, seed)
            h.update(repr(jt.choices).encode())
    assert h.hexdigest() == \
        "b3af98f0918b2ed67a4cc93257f8fb65eb9fbaadd802773b8946df7fb350b5c7"


def test_greedy_memory_is_linear_in_the_legal_set_at_n300():
    # tracemalloc peaks on the 111,495 legal triangles of a hull-locked
    # n = 300 pair.  The LEX run must stay under 145 bytes per legal
    # triangle, the union-mask greedy's reading (15.4 MiB); survivors kept
    # as edge ids read about 33.  The crossed-edge table over all 883 edges
    # of the result at once must stay under 1 MiB (0.3 MiB in blocks, 24.5
    # MiB in one).
    import tracemalloc

    import numpy as np

    from jointtri.greedy import _crossed, _edge_ids

    pair = hull_locked_pair(300, 1000, 3, 0)
    legal = necessary_conditions(pair).legal.legal
    assert len(legal) == 111495

    def peak(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    jt, lex_peak = peak(lambda: greedy_construct(pair, legal))
    assert jt.verified
    assert lex_peak < 145 * len(legal), lex_peak / len(legal)
    edges = np.unique(_edge_ids(jt.triangles.array().T, 300))
    assert len(edges) == 883
    table, table_peak = peak(lambda: _crossed((pair.a.signs, pair.b.signs), edges))
    assert table.any() and table_peak < 1 << 20, table_peak
