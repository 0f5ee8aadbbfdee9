"""The workloads: each one's instance mix, the pipeline every instance runs
through the program's public functions, and the checks on its output.

An instance is instance text, as the CLI reads it.  Instance ``i`` of a
run draws from its own stream ``Random("<workload>:<seed>:<i>")``, so it
does not depend on how many instances came before it.  A workload's mix is
a fixed round of (family, n) specs repeated with fresh draws.  A run does
a fixed number of rounds, so every run measures the same mix and the same
sample count, and a faster program runs the very same instances in less
time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import gen
import jointtri
from jointtri import files

HERE = Path(__file__).resolve().parent
HUNT_RANGE = 50      # the hunt command's default coordinate range

# points-locked: every stage of the point path at n = 40..100.  Larger n
# (2-17 s per instance at n = 100..200) leaves too few instances in a 30 s
# run for a steady median and a tail.  n = 70 comes three times a round, so
# the median falls in the middle of a class of twelve instances spread over
# the whole run, and the tail (the eleventh-slowest of 36) in the middle of
# the n = 80 class, never on the gap between two sizes.
POINTS_SIZES = (40, 70, 100, 50, 70, 80, 60, 70, 90)
# polygon-pairs: twelve distinct sizes from 150 to 300, the kinds rotating,
# so instance times form a continuum and no percentile sits on a gap
# between size classes.
POLYGON_SIZES = tuple(150 + round(i * 150 / 11) for i in range(12))
# hunt-small: hull-locked and independent point pairs, then polygon pairs.
HUNT_ROUND = (("points-locked", 7), ("points-independent", 7),
              ("points-locked", 8), ("points-independent", 8),
              ("points-locked", 9), ("points-independent", 9),
              ("polygon-random", 7), ("polygon-random", 8),
              ("polygon-random", 9), ("polygon-random", 10))

MIX = {
    "points-locked": tuple(("points-locked", n) for n in POINTS_SIZES),
    "polygon-pairs": tuple((gen.POLYGON_KINDS[i % 3], n)
                           for i, n in enumerate(POLYGON_SIZES)),
    "hunt-small": HUNT_ROUND,
}
# Small instances of every family a workload uses, run once before timing
# so that lazy imports and first-call costs are paid in set-up.
WARMUP = {
    "points-locked": (("points-locked", 20),),
    "polygon-pairs": tuple((kind, 20) for kind in gen.POLYGON_KINDS),
    "hunt-small": (("points-locked", 7), ("points-independent", 7),
                   ("polygon-random", 7)),
}
WORKLOADS = tuple(MIX)
# Seconds one round takes on the seed commit (2-core x86 VM, Python 3.11,
# numpy 2.4), which sizes a run: rounds = --seconds / ROUND_SECONDS.
ROUND_SECONDS = {"points-locked": 8.3, "polygon-pairs": 15.0, "hunt-small": 0.3}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def instance_text(workload: str, family: str, n: int, rng: random.Random) -> str:
    if family == "points-locked":
        coord_range = HUNT_RANGE if workload == "hunt-small" else gen.POINT_RANGE
        return gen.points_locked(rng, n, coord_range)
    if family == "points-independent":
        pair = jointtri.gen_point_pair(n, HUNT_RANGE, rng.randrange(2**31))
        return gen.format_pair("POINTS", pair.a.points, pair.b.points)
    if family == "polygon-random":
        for _ in range(gen.MAX_REDRAWS):
            try:
                pair = jointtri.gen_polygon_pair(n, HUNT_RANGE, rng.randrange(2**31))
            except ValueError:
                continue
            return gen.format_pair("POLYGON", pair.a.vertices, pair.b.vertices)
        raise ValueError("no polygon pair generated")
    return gen.polygon_pair(rng, n, family)


@dataclass
class Instance:
    index: int
    family: str
    n: int
    text: str


def instances(workload: str, seed: int, round_no: int) -> list[Instance]:
    """Round ``round_no`` of the workload's instance stream."""
    specs = MIX[workload]
    out = []
    for pos, (family, n) in enumerate(specs):
        i = round_no * len(specs) + pos
        rng = random.Random(f"{workload}:{seed}:{i}")
        out.append(Instance(i, family, n, instance_text(workload, family, n, rng)))
    return out


def warmup_instances(workload: str) -> list[Instance]:
    rng = random.Random(f"{workload}:warmup")
    return [Instance(-1, family, n, instance_text(workload, family, n, rng))
            for family, n in WARMUP[workload]]


# -- pipelines: the timed part ----------------------------------------------

@dataclass
class Outcome:
    kind: str
    pair: object
    verdict: str
    triangles: Optional[list] = None
    choices: Optional[list] = None
    counts: dict = field(default_factory=dict)
    hull_edges: int = 0
    oracle: Optional[list] = None    # sorted witness, or None for "no joint"
    oracle_ran: bool = False
    fast_yes: bool = False


def _points(text: str) -> Outcome:
    _, pair = files.parse_instance(text)
    hc = jointtri.check_hull_correspondence(pair)
    if not hc.ok:
        return Outcome("points", pair, "nc1-fail")
    candidates = jointtri.paired_empty(pair)
    result = jointtri.legal_set(pair, candidates, hc.hull_edges)
    counts = {"P": len(candidates), "S": len(result.legal),
              "removed": len(result.removed)}
    if not jointtri.check_legal_nonempty(result):
        return Outcome("points", pair, "nc2-fail", counts=counts)
    jt = jointtri.greedy_construct(pair, result.legal, jointtri.LEX)
    return Outcome("points", pair, "joint" if jt.verified else "unverified",
                   jt.triangles.sorted_triangles(), list(jt.choices or ()),
                   counts, len(hc.hull_edges), fast_yes=jt.verified)


def _polygon(text: str) -> Outcome:
    _, pair = files.parse_instance(text)
    jt = jointtri.dp_joint_polygon(pair)
    if jt is None:
        return Outcome("polygon", pair, "none")
    return Outcome("polygon", pair, "joint" if jt.verified else "unverified",
                   jt.triangles.sorted_triangles(), fast_yes=jt.verified)


def solve(workload: str, inst: Instance) -> Outcome:
    """Instance text to verdict through the program; with ``hunt-small``
    the exhaustive oracle follows the fast path, as in the hunt."""
    is_points = inst.family.startswith("points")
    out = _points(inst.text) if is_points else _polygon(inst.text)
    if workload == "hunt-small":
        witness = (jointtri.oracle_joint_exists(out.pair) if is_points
                   else jointtri.polygon_oracle_exists(out.pair))
        out.oracle_ran = True
        out.oracle = sorted(witness) if witness is not None else None
    return out


# -- checks: outside the timed part -----------------------------------------

def round_digest(digests: list[str]) -> str:
    """Digest of one round: its instances' digests in order."""
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()[:10]


def digest(out: Outcome) -> str:
    """Short hash of everything a later change must not alter: verdict,
    sorted triangles, LEX choice sequence, |P|, |S|, removal count and,
    where the oracle ran, its witness."""
    parts = [out.kind, out.verdict, json.dumps(out.counts, sort_keys=True),
             repr(out.triangles), repr(out.choices)]
    if out.oracle_ran:
        parts.append(repr(out.oracle))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:10]


def _area2(p, q, r) -> int:
    return abs(gen.cross(p, q, r))


def _cycle_area2(pts) -> int:
    return abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1])))


def problems(out: Outcome) -> list[str]:
    """Every way the outcome is wrong; empty when it checks out.

    Beyond the program's own verdict, a constructed triangulation must have
    the triangle count Euler's formula gives and cover each side's hull
    (points) or polygon (polygons) exactly by doubled area."""
    found = []
    if out.verdict == "unverified":
        found.append("constructed result failed the program's verifier")
    if out.triangles is not None:
        if out.kind == "points":
            sides = (out.pair.a.points, out.pair.b.points)
            want_t = 2 * len(out.pair) - out.hull_edges - 2
            regions = [gen.hull_corners(list(s)) for s in sides]
        else:
            sides = (out.pair.a.vertices, out.pair.b.vertices)
            want_t = len(out.pair) - 2
            regions = [list(s) for s in sides]
        if len(out.triangles) != want_t:
            found.append(f"{len(out.triangles)} triangles, want {want_t}")
        for pts, region in zip(sides, regions):
            covered = sum(_area2(pts[i], pts[j], pts[k]) for i, j, k in out.triangles)
            if covered != _cycle_area2(region):
                found.append("triangles do not cover the region exactly")
    if out.oracle_ran and (out.oracle is not None) != out.fast_yes:
        found.append(f"fast path says {out.fast_yes}, oracle disagrees")
    return found


def expected_digests(workload: str, seed: int) -> list[str]:
    """Committed round digests of the first rounds of this seed's stream,
    as the seed-commit program produced them (``record.py``)."""
    path = HERE / "expected" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(str(seed), "").split()
