"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Construction failures in criterion 2 are findings, not noise: they are
serialized as counterexample bundles and reported distinctly before the
assertion fires.
"""

import math
import random
import subprocess
import sys
import time

from jointtri.conditions import (PointSetPair, check_hull_correspondence,
                                 check_legal_nonempty, legal_set)
from jointtri.geom import DegenerateInput, LabeledSet, Point, convex_hull
from jointtri.greedy import LEX, greedy_construct, verify_joint
from jointtri.files import write_bundle
from jointtri.oracle import (Counterexample, POINTS, enumerate_triangulations,
                             gen_perturbed_pair, gen_point_pair,
                             gen_polygon_pair, oracle_joint_exists,
                             polygon_oracle_exists)
from jointtri.polygon import Polygon, PolygonPair, dp_joint_polygon
from jointtri.triangles import enumerate_empty, paired_empty

from helpers import brute_empty_triangles, convex_polygon_coords, mutate

N_RANGE = (4, 8)


def _verdict(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def _mixed_pairs(count: int, base_seed: int):
    """Seeded stream alternating independent and perturbed-copy pairs."""
    out = []
    for i in range(count):
        n = N_RANGE[0] + i % (N_RANGE[1] - N_RANGE[0] + 1)
        if i % 2 == 0:
            out.append(gen_point_pair(n, 25, base_seed + i))
        else:
            out.append(gen_perturbed_pair(n, 25, 4, base_seed + i))
    return out


def _nc_status(pair):
    try:
        hc = check_hull_correspondence(pair)
    except DegenerateInput:
        return False, None, None
    if not hc.ok:
        return False, hc, None
    res = legal_set(pair, paired_empty(pair), hc.hull_edges)
    return check_legal_nonempty(res), hc, res


def test_criterion_1_necessity_sweep():
    t0 = time.time()
    pairs = _mixed_pairs(500, 100_000)
    oracle_yes = 0
    violations = []
    for idx, pair in enumerate(pairs):
        witness = oracle_joint_exists(pair)
        if witness is None:
            continue
        oracle_yes += 1
        nc_ok, hc, res = _nc_status(pair)
        if not nc_ok:
            violations.append(idx)
    elapsed = time.time() - t0
    assert violations == [], f"necessity violated on instances {violations}"
    assert elapsed < 300.0
    assert oracle_yes > 30  # the sweep actually saw positive instances
    _verdict(1, "necessity sweep",
             f"500 instances, {oracle_yes} with joint triangulations, "
             f"0 violations, {elapsed:.1f}s")


def test_criterion_2_greedy_on_condition_passing_instances(tmp_path):
    passing = []
    seed = 200_000
    trials = 0
    while len(passing) < 500 and trials < 12_000:
        n = N_RANGE[0] + trials % (N_RANGE[1] - N_RANGE[0] + 1)
        pair = (gen_point_pair(n, 25, seed + trials) if trials % 2 == 0
                else gen_perturbed_pair(n, 25, 4, seed + trials))
        trials += 1
        nc_ok, hc, res = _nc_status(pair)
        if nc_ok:
            passing.append((seed + trials - 1, pair, res))
    assert len(passing) >= 500, f"only {len(passing)} condition-passing instances"

    failures = []
    for inst_seed, pair, res in passing:
        jt = greedy_construct(pair, res.legal, LEX)
        if not jt.verified:
            finding = Counterexample(POINTS, inst_seed, len(pair),
                                     f"greedy failed verification: {jt.violation}")
            path = write_bundle(str(tmp_path), "points", pair, finding,
                                [f"choice {t}" for t in (jt.choices or [])])
            print(f"CONJECTURE COUNTEREXAMPLE: seed={inst_seed} bundle={path}")
            failures.append(inst_seed)
    assert failures == [], (
        f"{len(failures)} construction counterexamples found; bundles written")
    _verdict(2, "greedy construction",
             f"verified on all {len(passing)} condition-passing instances "
             f"({trials} trials)")


def test_criterion_3_verifier_soundness():
    rng = random.Random(300_000)
    rejected = 0
    attempts = 0
    while rejected < 100 and attempts < 2000:
        attempts += 1
        pair = gen_perturbed_pair(rng.randint(5, 8), 25, 3, 300_000 + attempts)
        nc_ok, hc, res = _nc_status(pair)
        if not nc_ok:
            continue
        jt = greedy_construct(pair, res.legal, LEX)
        if not jt.verified:
            continue
        mutated = mutate(rng, jt.triangles.sorted_triangles(), len(pair))
        violation = verify_joint(pair, mutated)
        assert violation, f"mutation accepted: {mutated} on {pair.a.points}"
        rejected += 1
    assert rejected == 100
    _verdict(3, "verifier soundness", "100 mutated triangulations rejected, "
             "each with a named violation")


def test_criterion_4_fixpoint_and_order_independence():
    rng = random.Random(400_000)
    audited = 0
    trials = 0
    while audited < 100 and trials < 3000:
        trials += 1
        pair = (gen_point_pair(rng.randint(4, 8), 25, 400_000 + trials)
                if trials % 2 else
                gen_perturbed_pair(rng.randint(4, 8), 25, 4, 400_000 + trials))
        try:
            hc = check_hull_correspondence(pair)
        except DegenerateInput:
            continue
        if not hc.ok:
            continue
        audited += 1
        cands = paired_empty(pair)
        res = legal_set(pair, cands, hc.hull_edges)
        baseline = repr(res.legal.sorted_triangles())
        again = legal_set(pair, res.legal, hc.hull_edges)
        assert repr(again.legal.sorted_triangles()) == baseline
        assert again.removed == []
        for order_seed in range(20):
            shuffled = legal_set(pair, cands, hc.hull_edges, order_seed=order_seed)
            assert repr(shuffled.legal.sorted_triangles()) == baseline
    assert audited == 100
    _verdict(4, "legal-set fixpoint",
             "100 instances: re-pruning is identity; 20 shuffled orders "
             "byte-identical")


def test_criterion_5_empty_enumeration_exact():
    rng = random.Random(500_000)
    for trial in range(200):
        n = rng.randint(4, 12)
        pts = []
        while len(pts) < n:
            p = (rng.randint(0, 15), rng.randint(0, 15))
            if p not in pts:
                pts.append(p)
        s = LabeledSet.from_coords(pts)
        assert set(enumerate_empty(s)) == brute_empty_triangles(pts), pts
    for n in (5, 8, 12):
        s = LabeledSet.from_coords([(k, k * k) for k in range(n)])
        assert len(enumerate_empty(s)) == math.comb(n, 3)
    _verdict(5, "empty-triangle enumeration",
             "matches the quartic scan on 200 random sets; convex counts "
             "equal C(n,3)")


def test_criterion_6_triangulation_counts():
    def catalan(m):
        return math.comb(2 * m, m) // (m + 1)

    counts = {}
    for n in (6, 7):
        s = LabeledSet.from_coords([(k, k * k) for k in range(n)])
        counts[n] = len(enumerate_triangulations(s))
    assert counts[6] == 14 == catalan(4)
    assert counts[7] == 42 == catalan(5)
    _verdict(6, "triangulation counts", "convex n=6 gives 14, n=7 gives 42")


def test_criterion_7_polygon_agreement():
    rng = random.Random(700_000)
    agree = 0
    successes = 0
    for trial in range(200):
        n = rng.randint(4, 10)
        pair = gen_polygon_pair(n, 30, 700_000 + trial)
        dp = dp_joint_polygon(pair)
        fast = dp is not None and dp.verified
        oracle = polygon_oracle_exists(pair)
        assert fast == (oracle is not None), (
            f"existence mismatch on trial {trial}: dp={fast} oracle={oracle is not None}")
        agree += 1
        if fast:
            successes += 1
            assert dp.violation is None
    assert successes > 50
    # both-convex pairs always succeed with n-2 triangles
    for n in range(4, 11):
        a = Polygon.from_coords(convex_polygon_coords(n))
        b = Polygon.from_coords(convex_polygon_coords(n, spread=3))
        mirrored = Polygon.from_coords([(x, -y) for x, y in convex_polygon_coords(n, 2)])
        for other in (b, mirrored):
            jt = dp_joint_polygon(PolygonPair(a, other))
            assert jt is not None and jt.verified
            assert len(jt.triangles) == n - 2
    _verdict(7, "polygon agreement",
             f"200/200 existence matches ({successes} joint successes); "
             "both-convex pairs always tile with n-2 triangles")


def _hull_locked_pair(n, coord_range, jitter, seed):
    """B = A with hull points fixed and interior points jittered, each
    constrained to stay strictly inside the hull, so NC1 holds by
    construction and the greedy stage actually runs."""
    from jointtri.geom import CCW, orient

    base = gen_point_pair(n, coord_range, seed).a
    hull = convex_hull(base)
    hull_set = set(hull)
    hull_pts = [base.points[i] for i in hull]

    def strictly_inside(q):
        m = len(hull_pts)
        return all(orient(hull_pts[i], hull_pts[(i + 1) % m], q) == CCW
                   for i in range(m))

    rng = random.Random(seed + 1)
    pts, taken = [], set()
    fixed = {base.points[i] for i in hull_set}
    for i, p in enumerate(base.points):
        if i in hull_set:
            q = p
        else:
            q = p
            for _ in range(40):
                cand = Point(p.x + rng.randint(-jitter, jitter),
                             p.y + rng.randint(-jitter, jitter))
                if cand not in taken and cand not in fixed and strictly_inside(cand):
                    q = cand
                    break
        taken.add(q)
        pts.append(q)
    return PointSetPair(base, LabeledSet(tuple(pts)))


def test_criterion_8_performance_sanity():
    t0 = time.time()
    pair = _hull_locked_pair(60, 1000, 3, 0)
    hc = check_hull_correspondence(pair)
    assert hc.ok
    cands = paired_empty(pair)  # enumerates both sides
    res = legal_set(pair, cands, hc.hull_edges)
    assert check_legal_nonempty(res)
    jt = greedy_construct(pair, res.legal, LEX)
    assert jt.verified
    point_elapsed = time.time() - t0
    assert point_elapsed < 10.0, f"point pipeline took {point_elapsed:.1f}s"

    t0 = time.time()
    a = Polygon.from_coords(convex_polygon_coords(200))
    b = Polygon.from_coords(convex_polygon_coords(200, spread=2))
    jt_poly = dp_joint_polygon(PolygonPair(a, b))
    poly_elapsed = time.time() - t0
    assert jt_poly is not None and jt_poly.verified
    assert len(jt_poly.triangles) == 198
    assert poly_elapsed < 5.0, f"polygon dp took {poly_elapsed:.1f}s"
    _verdict(8, "performance sanity",
             f"n=60 point pipeline {point_elapsed:.2f}s (<10s); "
             f"n=200 convex polygon dp {poly_elapsed:.2f}s (<5s)")


def test_criterion_9_cli_determinism(tmp_path):
    env_cmds = [
        ["gen", "6", "40", "99"],
        ["hunt", "points", "4", "6", "30", "7"],
    ]
    inst = tmp_path / "inst.txt"
    first = subprocess.run([sys.executable, "-m", "jointtri.cli", "gen", "6", "40", "99"],
                           capture_output=True, check=True)
    inst.write_bytes(first.stdout)
    env_cmds.append(["check", str(inst)])
    env_cmds.append(["triangulate", str(inst), "--policy", "random", "--seed", "5"])
    for cmd in env_cmds:
        runs = [subprocess.run([sys.executable, "-m", "jointtri.cli", *cmd],
                               capture_output=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, f"nondeterministic stdout for {cmd}"
        assert runs[0].returncode == runs[1].returncode
    _verdict(9, "determinism", "byte-identical CLI output across repeated runs")
