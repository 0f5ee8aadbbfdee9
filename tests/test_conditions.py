import random
import tracemalloc

import numpy as np
import pytest

from jointtri import geom
from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 check_legal_nonempty, legal_set,
                                 necessary_conditions)
from jointtri.files import parse_instance
from jointtri.geom import DegenerateInput, LabeledSet
from jointtri.greedy import LEX, greedy_construct, verify_joint
from jointtri.oracle import iter_triangulations, oracle_joint_exists
from jointtri.triangles import TriangleSet, paired_empty, tri_edges

from helpers import (COLLAPSING_TEXT, brute_successors, gen_perturbed_pair,
                     grid_locked_coords, hull_locked_pair, reference_legal_set)

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


def _pair(a_coords, b_coords=None):
    a = LabeledSet.from_coords(a_coords)
    b = LabeledSet.from_coords(b_coords) if b_coords else a
    return PointSetPair(a, b)


def test_pair_size_mismatch():
    with pytest.raises(ValueError):
        _pair(SQUARE, SQUARE + [(9, 9)])


def test_condition1_identity():
    hc = check_hull_correspondence(_pair(SQUARE))
    assert hc.ok
    assert hc.hull_edges == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_condition1_label_swap_fails_with_witness():
    swapped = [(0, 0), (2, 2), (2, 0), (0, 2)]  # labels 1 and 2 exchanged
    hc = check_hull_correspondence(_pair(SQUARE, swapped))
    assert not hc.ok
    assert hc.witness == (0, 1)


def test_condition1_reflection_passes():
    pent = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]
    mirrored = [(x, -y) for x, y in pent]
    assert check_hull_correspondence(_pair(pent, mirrored)).ok


def test_condition1_degenerate_raises():
    pair = _pair([(0, 0), (1, 1), (2, 2), (3, 3)])
    # the cached hull caches nothing when it raises: every reader sees it
    for _ in range(2):
        with pytest.raises(DegenerateInput):
            check_hull_correspondence(pair)
    assert verify_joint(pair, []) == "degenerate point set: all points collinear"
    assert list(iter_triangulations(pair)) == []


def test_successors_square():
    pair = _pair(SQUARE)
    cands = paired_empty(pair)
    assert brute_successors(pair.a.points, pair.b.points, cands, (0, 1, 2), (0, 2)) == [(0, 2, 3)]
    assert brute_successors(pair.a.points, pair.b.points, cands, (0, 1, 2), (0, 1)) == []


# Eight points placed so one query has a three-way successor fan: the
# edge {5,7} carries triangle (4,5,7) with its apex below and three
# empty triangles with apexes above.
FAN_POINTS = [(10, 10), (1, 2), (3, 2), (-10, 10), (2, -2), (0, 0), (2, 2), (4, 0)]


def test_successors_multiway_fan():
    pair = _pair(FAN_POINTS)
    cands = paired_empty(pair)
    got = brute_successors(pair.a.points, pair.b.points, cands, (4, 5, 7), (5, 7))
    assert got == [(1, 5, 7), (2, 5, 7), (5, 6, 7)]


def test_legal_set_convex_quad_keeps_all():
    pair = _pair(SQUARE)
    hc = check_hull_correspondence(pair)
    res = legal_set(pair, paired_empty(pair), hc.hull_edges)
    assert len(res.legal) == 4
    assert res.removed == []
    assert check_legal_nonempty(res)


def test_legal_set_singleton_candidate_collapses():
    # (0,1,2) alone: its diagonal edge {0,2} has no partner, so the legal
    # set must come out empty.
    pair = _pair(SQUARE)
    hc = check_hull_correspondence(pair)
    res = legal_set(pair, TriangleSet([(0, 1, 2)]), hc.hull_edges)
    assert len(res.legal) == 0
    assert res.removed == [((0, 1, 2), (0, 2))]
    assert not check_legal_nonempty(res)


# Found by randomized search, then pinned: candidates exist but the
# pruning cascade clears them all, and the exhaustive oracle agrees no
# joint triangulation exists (see test_oracle for that half).
STUBBORN_A = [(8, 10), (12, 7), (16, 4), (8, 6), (2, 0), (14, 3), (4, 15), (16, 14)]
STUBBORN_B = [(9, 15), (14, 11), (17, 10), (8, 5), (2, 15), (16, 17), (6, 0), (16, 6)]


def test_legal_set_nonempty_candidates_can_still_collapse():
    pair = _pair(STUBBORN_A, STUBBORN_B)
    hc = check_hull_correspondence(pair)
    assert hc.ok
    cands = paired_empty(pair)
    assert len(cands) == 21
    res = legal_set(pair, cands, hc.hull_edges)
    assert len(res.legal) == 0
    assert len(res.removed) == 21


def _random_pair(rng, n):
    def side():
        pts = []
        while len(pts) < n:
            p = (rng.randint(0, 25), rng.randint(0, 25))
            if p not in pts:
                pts.append(p)
        return LabeledSet.from_coords(pts)

    return PointSetPair(side(), side())


def test_legal_set_fixpoint_and_order_independence():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        pair = _random_pair(rng, rng.randint(5, 8))
        try:
            hc = check_hull_correspondence(pair)
        except DegenerateInput:
            continue
        if not hc.ok:
            continue
        checked += 1
        cands = paired_empty(pair)
        res = legal_set(pair, cands, hc.hull_edges)
        # re-pruning the legal set changes nothing
        again = legal_set(pair, res.legal, hc.hull_edges)
        assert again.legal == res.legal
        assert again.removed == []
        # shuffled worklist orders agree exactly
        for seed in range(8):
            shuffled = legal_set(pair, cands, hc.hull_edges, order_seed=seed)
            assert shuffled.legal == res.legal


def test_removal_log_is_a_valid_cascade():
    # Replaying the log backwards: at its removal, the witness edge of
    # every deleted triangle had no successor for it among live triangles.
    rng = random.Random(23)
    audited = 0
    while audited < 10:
        pair = _random_pair(rng, 7)
        try:
            hc = check_hull_correspondence(pair)
        except DegenerateInput:
            continue
        if not hc.ok:
            continue
        cands = paired_empty(pair)
        res = legal_set(pair, cands, hc.hull_edges)
        if not res.removed:
            continue
        audited += 1
        live = cands.copy()
        for t, witness in res.removed:
            assert witness in tri_edges(t)
            assert witness not in hc.hull_edges
            assert brute_successors(pair.a.points, pair.b.points, live, t, witness) == []
            live.discard(t)
        assert live == res.legal


def _legal_set_inputs():
    """(pair, candidates, hull edges) for the array-worklist comparison."""
    out = []
    for n in range(8, 61, 4):
        pair = hull_locked_pair(n, 60 if n < 30 else 200, 2 + n % 3, n)
        hc = check_hull_correspondence(pair)
        out.append((pair, paired_empty(pair), hc.hull_edges))
    rng = random.Random(808)
    grid = 0
    while grid < 40:
        coords = grid_locked_coords(rng, rng.randint(5, 20), rng.choice((5, 6, 7)))
        if coords is None:
            continue
        pair = _pair(*coords)
        hc = check_hull_correspondence(pair)
        out.append((pair, paired_empty(pair), hc.hull_edges))
        grid += 1
    _, pair = parse_instance(COLLAPSING_TEXT)
    hc = check_hull_correspondence(pair)
    out.append((pair, paired_empty(pair), hc.hull_edges))
    out.append((pair, TriangleSet(), hc.hull_edges))
    return out


def test_legal_set_matches_reference_log_and_order():
    # The array worklist must reproduce the dict-and-set worklist's removal
    # log, order included, and the legal set's iteration order, for the
    # sorted worklist and for shuffled ones.
    removals = 0
    for pair, cands, hull in _legal_set_inputs():
        for order_seed in (None, 1, 2):
            want = reference_legal_set(pair, cands, hull, order_seed)
            got = legal_set(pair, cands, hull, order_seed)
            assert got.removed == want.removed, order_seed
            assert list(got.legal) == list(want.legal), order_seed
            removals += len(want.removed)
    assert removals > 1000


def test_legal_set_memory_on_a_long_cascade():
    # A hull-locked NO pair whose cascade removes all 23,354 candidates.
    # With int32 worklist tables legal_set's tracemalloc peak is about 320
    # bytes per candidate; with a Python int per table entry it was about
    # 650.  The log, order included, still matches the reference.
    pair = hull_locked_pair(120, 1000, 3, 2)
    hull = check_hull_correspondence(pair).hull_edges
    cands = paired_empty(pair)  # builds both orientation tables and the sorted rows
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = legal_set(pair, cands, hull)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(got.removed) == len(cands) > 20000
    assert peak < 400 * len(cands), peak / len(cands)
    for order_seed in (None, 1):
        got = legal_set(pair, cands, hull, order_seed)
        want = reference_legal_set(pair, cands, hull, order_seed)
        assert got.removed == want.removed, order_seed
        assert list(got.legal) == list(want.legal), order_seed


def test_chain_greedy_and_oracle_share_one_tensor_per_side(monkeypatch):
    calls = []
    build = geom.orient_sign_tensor

    def counting(pts):
        calls.append(len(pts))
        return build(pts)

    monkeypatch.setattr(geom, "orient_sign_tensor", counting)
    seed = 0
    while True:
        seed += 1
        pair = gen_perturbed_pair(7, 25, 4, 9000 + seed)
        calls.clear()
        nc = necessary_conditions(pair)
        if nc.ok:
            break
    jt = greedy_construct(pair, nc.legal.legal, LEX)
    assert jt.verified
    assert oracle_joint_exists(pair) is not None
    assert calls == [7, 7]
    assert np.array_equal(pair.a.signs, build(pair.a.points))
    assert np.array_equal(pair.b.signs, build(pair.b.points))
