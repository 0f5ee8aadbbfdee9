import inspect
import random
import tracemalloc

import numpy as np
import pytest

from jointtri import conditions, geom
from jointtri.campaign import gen_point_pair
from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 check_legal_nonempty, legal_set,
                                 necessary_conditions)
from jointtri.files import parse_instance
from jointtri.geom import DegenerateInput, LabeledSet, convex_hull
from jointtri.greedy import LEX, greedy_construct, verify_joint
from jointtri.oracle import iter_triangulations, oracle_joint_exists
from jointtri.triangles import TriangleSet, paired_empty

from helpers import (COLLAPSING_TEXT, brute_successors, convex_position_points,
                     gen_perturbed_pair, grid_locked_coords, hull_locked_pair,
                     invariance_failures, mirror, reference_legal_set, tri_edges,
                     xorient)

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


def test_condition2_does_not_imply_condition1():
    """A pair whose hulls carry different label pairs, yet whose legal set
    over A's hull edges is nonempty: condition 2 alone, run with A's hull,
    would pass it, and no joint triangulation exists, so condition 1
    cannot be dropped.  One of the 113 such pairs among the 7,988
    condition-1 failures of ``gen_point_pair`` at n 6-9, range 50, seeds
    0-1999."""
    pair = gen_point_pair(6, 50, 15)
    hc = check_hull_correspondence(pair)
    assert not hc.ok
    assert len(legal_set(pair, pair.candidates, hc.hull_edges).legal) > 0
    assert not necessary_conditions(pair).ok
    assert oracle_joint_exists(pair) is None


def _one_interior_point_pair(rng, h, label):
    """h points in strictly convex position, shared by both sides, and one
    integer point strictly inside their hull, drawn independently on each
    side and given ``label``."""
    hull = [(4 * x, y) for x, y in convex_position_points(h, 4)]
    cycle = list(zip(hull, hull[1:] + hull[:1]))  # counterclockwise

    def side():
        while True:
            q = (rng.randint(0, hull[-1][0]), rng.randint(0, hull[-1][1]))
            if all(xorient(u, v, q) > 0 for u, v in cycle):
                return LabeledSet.from_coords(hull[:label] + [q] + hull[label:])

    return PointSetPair(side(), side())


def test_one_interior_point_pairs_pass_and_the_greedy_verifies():
    """Both sides share h hull points in strictly convex position, with the
    same labels, and one interior point p drawn independently on each side
    (ROADMAP item 20 at k = 1).  Condition 1 holds, as both hulls are the
    h points in one cyclic order.  The fan from p over the hull edges is a
    joint triangulation.  In each realization p lies strictly inside the
    hull, so each fan triangle (p, u, v) over a hull edge uv is
    nondegenerate, and the fan tiles the hull around p.  No other point
    lies in a fan triangle: every other point is a vertex of the strictly
    convex hull, which is no convex combination of other points of the
    hull, and the triangle lies in the hull.  So condition 2 holds as well
    (necessity), and at n <= 9 the oracle finds a witness.  LEX must verify
    too; a pair on which it fails would be the first greedy failure on
    record."""
    rng = random.Random(20)
    for h in [*range(3, 9)] * 20 + [*range(9, 61)] * 4:
        label = rng.randint(0, h)
        pair = _one_interior_point_pair(rng, h, label)
        nc = necessary_conditions(pair)
        assert nc.hull.ok and nc.ok, pair
        hull = [v for v in range(h + 1) if v != label]
        fan = [(label, u, v) for u, v in zip(hull, hull[1:] + hull[:1])]
        assert verify_joint(pair, fan) is None, pair
        jt = greedy_construct(pair, nc.legal.legal, LEX)
        assert jt.verified, (pair, jt.violation)
        if h + 1 <= 9:
            assert oracle_joint_exists(pair) is not None, pair


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
        # the reference worklist, in shuffled orders, finds the same set
        for seed in range(8):
            shuffled = reference_legal_set(pair, cands, hc.hull_edges, order_seed=seed)
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
        live = set(cands)
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
    # log, order included, and the legal set's iteration order, and the
    # dict-and-set worklist in shuffled orders must find the same legal set.
    removals = 0
    for pair, cands, hull in _legal_set_inputs():
        want = reference_legal_set(pair, cands, hull)
        got = legal_set(pair, cands, hull)
        assert got.removed == want.removed
        assert list(got.legal) == list(want.legal)
        removals += len(want.removed)
        for order_seed in (1, 2):
            shuffled = reference_legal_set(pair, cands, hull, order_seed)
            assert shuffled.legal == got.legal, order_seed
    assert removals > 1000


def test_verdict_queue_reaches_the_reference_fixpoint():
    # The verdict run queues an edge only when a removal can doom one of
    # its triangles.  On pairs jittered by up to 60, whose cascades are
    # partial (at n = 40, seeds 0 and 1 keep 844 of 1,664 and 779 of 1,514
    # candidates) or remove everything, its legal rows must be the
    # reference worklist's legal set, sorted, in the id order and in two
    # shuffled orders; its removal count must be |P| - |S| before the log
    # is built; and pruning its legal set again must remove nothing.
    pairs = [hull_locked_pair(n, 1000, 60, seed)
             for n in range(10, 61, 5) for seed in (0, 1)]
    pairs += [gen_perturbed_pair(n, 1000, 60, seed)
              for n in (10, 15, 20) for seed in range(4)]
    partial = full = 0
    for pair in pairs:
        hc = check_hull_correspondence(pair)
        if not hc.ok:
            continue
        cands = paired_empty(pair)
        res = legal_set(pair, cands, hc.hull_edges)
        got = res.legal.array().tolist()
        assert len(res.removed) == len(cands) - len(got)
        for order_seed in (None, 1, 2):
            want = reference_legal_set(pair, cands, hc.hull_edges, order_seed).legal
            assert got == [list(t) for t in want.sorted_triangles()], (len(pair), order_seed)
        again = legal_set(pair, res.legal, hc.hull_edges)
        assert len(again.removed) == 0
        assert np.array_equal(again.legal.array(), res.legal.array())
        partial += 0 < len(got) < len(cands)
        full += len(cands) > 0 and not got
    assert partial >= 15 and full >= 5, (partial, full)


def _wave_pairs():
    """Hull-locked pairs, n 40-100, at jitter 3 (the benchmark's family)
    and 60, with their candidates and hull edges."""
    specs = [(n, 3, seed) for n in (40, 50) for seed in range(10)]
    specs += [(n, 3, seed) for n in (70, 100) for seed in range(2)]
    specs += [(n, 60, seed) for n in (40, 50, 60) for seed in range(3)]
    specs += [(n, 60, 0) for n in (70, 100)]
    out = []
    for n, jitter, seed in specs:
        pair = hull_locked_pair(n, 1000, jitter, seed)
        hc = check_hull_correspondence(pair)
        assert hc.ok
        out.append((pair, paired_empty(pair), hc.hull_edges))
    return out


def _by_edge(tris):
    """Each label pair's triangles among ``tris``."""
    on = {}
    for t in tris:
        for e in tri_edges(t):
            on.setdefault(e, []).append(t)
    return on


def test_verdict_covers_every_wave_outcome():
    # The verdict run removes at once every candidate with no successor
    # among all candidates on one of its non-hull edges, then runs the
    # worklist on what is left.  Sorted by the reference alone, the pairs
    # cover its three outcomes: (a) every removed triangle lacks a
    # successor among all candidates, so nothing cascades; (b) some removed
    # triangle had successors on each non-hull edge, so a cascade follows;
    # (c) everything goes.  Each verdict must be the reference's.
    classes = {"a": 0, "b": 0, "c": 0}
    for pair, cands, hull in _wave_pairs():
        want = reference_legal_set(pair, cands, hull)
        got = legal_set(pair, cands, hull)
        assert got.legal.array().tolist() == [list(t) for t in want.legal.sorted_triangles()]
        assert len(got.removed) == len(cands) - len(got.legal) == len(want.removed)
        on = _by_edge(cands)
        a, b = pair.a.points, pair.b.points
        cascade = any(all(e in hull or brute_successors(a, b, on[e], t, e)
                          for e in tri_edges(t)) for t, _ in want.removed)
        if not len(want.legal):
            classes["c"] += 1
        elif want.removed:
            classes["b" if cascade else "a"] += 1
    # measured: 7, 20 and 8 of the 35 pairs (one removes nothing)
    assert min(classes.values()) >= 5, classes


def test_verdict_run_return_contract():
    # The verdict run's positions are distinct rows, |P| - |S| of them, in
    # deletion order; each witness is a non-hull edge of its row on which,
    # at its removal, the row had no successor among the rows still alive.
    # With no candidates, the legal set and the log are empty.
    inputs = _wave_pairs()[::3]
    for pair, cands, hull in inputs:
        arr = cands.array()
        at, witness = conditions._prune(pair, arr.astype(np.int32), hull)
        legal = legal_set(pair, cands, hull).legal
        assert len(set(at.tolist())) == len(at) == len(cands) - len(legal)
        live = set(cands)
        on = _by_edge(live)
        for p, e in zip(at.tolist(), witness.tolist()):
            t, edge = tuple(arr[p].tolist()), divmod(e, len(pair))
            assert edge in tri_edges(t) and edge not in hull
            alive = [u for u in on[edge] if u in live]
            assert brute_successors(pair.a.points, pair.b.points, alive, t, edge) == []
            live.discard(t)
        assert live == legal
    pair, _, hull = inputs[0]
    res = legal_set(pair, TriangleSet(), hull)
    assert len(res.legal) == 0 and list(res.legal) == []
    assert len(res.removed) == 0 and list(res.removed) == []


def test_legal_set_memory_on_a_long_cascade():
    # A hull-locked NO pair whose cascade removes all 23,354 candidates.
    # With int32 worklist tables legal_set's tracemalloc peak is about 320
    # bytes per candidate; with a Python int per table entry it was about
    # 650.  The log, order included, still matches the reference, and the
    # reference in a shuffled order removes every candidate too.
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
    want = reference_legal_set(pair, cands, hull)
    assert got.removed == want.removed
    assert list(got.legal) == list(want.legal)
    assert reference_legal_set(pair, cands, hull, 1).legal == got.legal


def _traced_peak(run):
    """``run()`` and its tracemalloc peak in bytes above the memory traced
    when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_point_chain_memory_builds_no_tuple_set():
    # Hull-locked YES pairs of about 23,000 candidates.  Pairing and pruning
    # read sorted rows only: with the tuple sets of A's empty triangles, the
    # candidates and the legal set built eagerly they peaked at about 435
    # tracemalloc bytes per candidate, and without them at about 177.  The
    # removal log knows its length before it is built, and once read it is
    # the reference worklist's, order included.
    for seed in (0, 1, 3):
        pair = hull_locked_pair(120, 1000, 3, seed)
        hull = check_hull_correspondence(pair).hull_edges
        pair.a.signs, pair.b.signs  # the orientation tables are not measured

        def chain():
            c = paired_empty(pair)
            return c, legal_set(pair, c, hull)

        (cands, res), peak = _traced_peak(chain)
        assert len(cands) > 20000 and len(res.legal) > 0, seed
        assert peak < 320 * len(cands), (seed, peak / len(cands))
        assert len(res.removed) == len(cands) - len(res.legal) > 0
        want = reference_legal_set(pair, cands, hull)
        assert res.removed == want.removed
        assert list(res.legal) == list(want.legal)


def test_removal_log_build_memory_on_a_long_cascade():
    # The pair of test_legal_set_memory_on_a_long_cascade, whose cascade
    # removes every candidate.  The log is built on its first read, by the
    # worklist run over the candidates in set order, which builds their
    # tuple sets; that read peaked at about 350 tracemalloc bytes per
    # candidate.
    pair = hull_locked_pair(120, 1000, 3, 2)
    hull = check_hull_correspondence(pair).hull_edges
    cands = paired_empty(pair)
    res = legal_set(pair, cands, hull)
    assert len(res.removed) == len(cands) > 20000
    log, peak = _traced_peak(lambda: list(res.removed))
    assert len(log) == len(cands)
    assert peak < 400 * len(cands), peak / len(cands)


def test_chain_sets_read_the_same_in_any_order():
    # The candidates, the legal set and the removal log each build their
    # tuples on first read; whichever is read first, and whether the greedy
    # (which reads arrays only) runs before or after, each reads the same.
    for pair, cands, hull in _legal_set_inputs():
        res = legal_set(pair, cands, hull)
        want = [list(cands), list(res.legal), list(res.removed)]
        for first in range(3):
            for greedy_first in (True, False):
                fresh = paired_empty(pair) if len(cands) else TriangleSet()
                res = legal_set(pair, fresh, hull)
                if greedy_first and len(res.legal):
                    assert greedy_construct(pair, res.legal, LEX).verified
                readers = [lambda: list(fresh), lambda: list(res.legal),
                           lambda: list(res.removed)]
                got = [None] * 3
                for r in (first, *(x for x in range(3) if x != first)):
                    got[r] = readers[r]()
                if not greedy_first and len(res.legal):
                    assert greedy_construct(pair, res.legal, LEX).verified
                assert got == want, (len(pair), first, greedy_first)


def test_legal_set_runs_one_order():
    """``legal_set`` takes the pair, its candidates and the hull edges and
    nothing else, and ``jointtri.conditions`` binds nothing from ``random``:
    the worklist runs one order.  Order independence is checked on
    ``helpers.reference_legal_set`` under shuffled orders."""
    assert list(inspect.signature(legal_set).parameters) == [
        "pair", "candidates", "hull_edges"]
    bound = {value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
             for value in vars(conditions).values()}
    assert "random" not in bound


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


def test_legal_and_joint_triangles_turn_as_the_hulls_do():
    """Every legal triangle turns in B, relative to A, as the hulls do
    (``legal_set``'s lemma), and so does every triangle of every joint
    triangulation (n <= 8), on hull-locked pairs with B as drawn and
    mirrored.  Turns are read off coordinates: B's hull turns as A's iff
    B's points in the order of A's hull enclose a positive area."""
    other_pairs = passed = 0
    for n in range(6, 17):
        for seed in range(10):
            drawn = hull_locked_pair(n, 1000, 60, seed)
            for pair in (drawn, PointSetPair(drawn.a, mirror(drawn.b))):
                a, b = pair.a.points, pair.b.points
                hull = convex_hull(pair.a)
                hulls = 1 if sum(b[i].x * b[j].y - b[j].x * b[i].y for i, j in
                                 zip(hull, hull[1:] + hull[:1])) > 0 else -1

                def other_way(t):
                    i, j, k = t
                    return xorient(a[i], a[j], a[k]) * xorient(b[i], b[j], b[k]) != hulls

                nc = necessary_conditions(pair)
                assert not any(map(other_way, nc.legal.legal)), (n, seed)
                other_pairs += any(map(other_way, pair.candidates))
                passed += nc.ok
                if n <= 8:
                    for t_set in iter_triangulations(pair):
                        assert not any(map(other_way, t_set)), (n, seed)
    # measured: 196 and 220 of the 220 pairs
    assert other_pairs >= 180 and passed >= 200


def test_point_path_verdicts_invariant_under_swap_relabel_and_mirror():
    """The legal set is symmetric in A and B, maps by pi under a relabeling
    pi of both sides, and is unchanged by mirroring both sides; NC1's
    verdict and the verdicts of the LEX and seeded-random greedy runs do
    not change either, though their choices may.  The removal log depends
    on processing order, so only the sets are compared.  Hull-locked pairs
    at jitters 3 and 60, n 20-100, both NC-pass and NC-fail."""
    rng = random.Random(11)
    verdicts = []
    for jitter in (3, 60):
        for n in (20, 40, 70, 100):
            for seed in range(2):
                pair = hull_locked_pair(n, 1000, jitter, seed)
                (_, _, greedy), failed = invariance_failures(pair, rng.sample(range(n), n))
                assert not failed, (jitter, n, seed, failed)
                verdicts.append(greedy)
    # measured: 12 NC-pass pairs, every greedy run verified, and 4 NC-fail
    assert verdicts.count((True, True, True)) >= 10 and verdicts.count(None) >= 4
