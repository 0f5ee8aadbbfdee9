"""Exhaustive ground truth at small sizes, instance generators, and the
conjecture-hunting harness.

The point-set oracle enumerates every triangulation of side A by frontier
expansion and keeps the first one that verifies as a joint triangulation
of the pair.  The polygon oracle recursively enumerates candidate triangle
sets over shared brute-force-validated diagonals and fully verifies each.
Both are deliberately simple so they can arbitrate the fast paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .conditions import (PointSetPair, check_hull_correspondence,
                         check_legal_nonempty, legal_set)
from .geom import (DegenerateInput, LabeledSet, Point, convex_hull,
                   interiors_overlap, orient, strictly_between)
from .greedy import LEX, greedy_construct, verify_joint
from .polygon import (GrazingDiagonal, Polygon, PolygonPair, dp_joint_polygon,
                      verify_polygon_joint)
from .triangles import Tri, enumerate_empty, paired_empty, tri

MAX_ORACLE_POINTS = 9
MAX_ORACLE_POLYGON = 10


class SizeGuard(ValueError):
    """An instance is too large for an exhaustive search to finish."""


def iter_triangulations(s: LabeledSet) -> Iterator[frozenset[Tri]]:
    """Yield every triangulation of the point set exactly once.

    Each triangulation is produced as its component-triangle set.  The
    search keeps the directed boundary of the untriangulated region and
    always expands its smallest edge, so each triangulation is reached
    along exactly one branch and no deduplication is needed.  Raises
    SizeGuard above MAX_ORACLE_POINTS.
    """
    n = len(s)
    if n > MAX_ORACLE_POINTS:
        raise SizeGuard(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_POINTS}, got {n}")
    try:
        hull = convex_hull(s)
    except DegenerateInput:
        return
    empty = enumerate_empty(s)
    frontier: set[tuple[int, int]] = {
        (hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
    placed: list[Tri] = []

    def expand() -> Iterator[frozenset[Tri]]:
        if not frontier:
            yield frozenset(placed)
            return
        u, v = min(frontier)
        for w in range(n):
            if w == u or w == v:
                continue
            if orient(s[u], s[v], s[w]) != 1:
                continue
            t = tri(u, v, w)
            if t not in empty:
                continue
            pts = (s[t[0]], s[t[1]], s[t[2]])
            if any(interiors_overlap(pts, (s[p[0]], s[p[1]], s[p[2]]))
                   for p in placed):
                continue
            new_edges = ((u, w), (w, v))
            if any(e in frontier for e in new_edges):
                continue
            frontier.remove((u, v))
            added = []
            for a, b in new_edges:
                if (b, a) in frontier:
                    frontier.remove((b, a))
                else:
                    frontier.add((a, b))
                    added.append((a, b))
            placed.append(t)
            yield from expand()
            placed.pop()
            for e in added:
                frontier.remove(e)
            for a, b in new_edges:
                if (a, b) not in added:
                    frontier.add((b, a))
            frontier.add((u, v))

    yield from expand()


def enumerate_triangulations(s: LabeledSet,
                             cap: Optional[int] = None) -> list[frozenset[Tri]]:
    """All triangulations of the set (at most ``cap`` of them)."""
    out: list[frozenset[Tri]] = []
    for t in iter_triangulations(s):
        out.append(t)
        if cap is not None and len(out) >= cap:
            break
    return out


def oracle_joint_exists(pair: PointSetPair) -> Optional[frozenset[Tri]]:
    """Exact decision of joint-triangulation existence (n <= 9).

    Walks every triangulation of A and returns the first whose triple
    set also verifies against B; None when none does.
    """
    empty_b = enumerate_empty(pair.b)
    for t_set in iter_triangulations(pair.a):
        if any(t not in empty_b for t in t_set):
            continue
        if verify_joint(pair, t_set) is None:
            return t_set
    return None


def _diagonal_inside_slow(poly: Polygon, i: int, j: int) -> bool:
    """Scalar reference test for a polygon diagonal; independent of the
    vectorized visibility-graph path."""
    n = len(poly)
    if (j - i) % n == 1 or (i - j) % n == 1:
        return True
    a, b = poly[i], poly[j]
    for w in range(n):
        if w in (i, j):
            continue
        if strictly_between(a, b, poly[w]):
            return False
    for k in range(n):
        k2 = (k + 1) % n
        if k in (i, j) or k2 in (i, j):
            continue
        d1 = orient(a, b, poly[k])
        d2 = orient(a, b, poly[k2])
        d3 = orient(poly[k], poly[k2], a)
        d4 = orient(poly[k], poly[k2], b)
        if d1 * d2 < 0 and d3 * d4 < 0:
            return False
    mid2 = (a[0] + b[0], a[1] + b[1])
    doubled = [Point(2 * p[0], 2 * p[1]) for p in poly.vertices]
    inside = False
    for k in range(n):
        u, v = doubled[k], doubled[(k + 1) % n]
        if (u[1] > mid2[1]) == (v[1] > mid2[1]):
            continue
        side = (v[0] - u[0]) * (mid2[1] - u[1]) - (v[1] - u[1]) * (mid2[0] - u[0])
        if (side > 0) if v[1] > u[1] else (side < 0):
            inside = not inside
    return inside


def polygon_oracle_exists(pair: PolygonPair) -> Optional[frozenset[Tri]]:
    """Exact polygon decision (n <= 10) by exhaustive interval recursion.

    Candidate triangle sets are assembled from chords that are valid
    diagonals of both polygons under the scalar reference test; each
    complete candidate is then fully verified, so the recursion may
    over-generate but never misses a joint triangulation.  Raises
    SizeGuard above MAX_ORACLE_POLYGON.
    """
    n = len(pair)
    if n > MAX_ORACLE_POLYGON:
        raise SizeGuard(
            f"polygon oracle is limited to n <= {MAX_ORACLE_POLYGON}, got {n}")

    ok_chord: dict[tuple[int, int], bool] = {}

    def chord(i: int, q: int) -> bool:
        key = (i, q)
        if key not in ok_chord:
            ok_chord[key] = (_diagonal_inside_slow(pair.a, i, q)
                             and _diagonal_inside_slow(pair.b, i, q))
        return ok_chord[key]

    memo: dict[tuple[int, int], list[frozenset[Tri]]] = {}

    def variants(i: int, q: int) -> list[frozenset[Tri]]:
        if q - i < 2:
            return [frozenset()]
        key = (i, q)
        if key in memo:
            return memo[key]
        out: list[frozenset[Tri]] = []
        for k in range(i + 1, q):
            if not (chord(i, k) and chord(k, q)):
                continue
            t = tri(i, k, q)
            for left in variants(i, k):
                for right in variants(k, q):
                    out.append(left | right | {t})
        memo[key] = out
        return out

    for candidate in variants(0, n - 1):
        if verify_polygon_joint(pair, candidate) is None:
            return candidate
    return None


def gen_point_pair(n: int, coord_range: int, seed: int) -> PointSetPair:
    """Two independent uniform sets of n distinct integer points in
    [0, coord_range]^2, deterministic per seed."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if (coord_range + 1) ** 2 < n:
        raise ValueError(
            f"coordinate range {coord_range} too small for {n} distinct points")
    rng = random.Random(seed)

    def side() -> LabeledSet:
        pts: list[Point] = []
        seen: set[Point] = set()
        while len(pts) < n:
            p = Point(rng.randint(0, coord_range), rng.randint(0, coord_range))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        return LabeledSet(tuple(pts))

    return PointSetPair(side(), side())


def gen_perturbed_pair(n: int, coord_range: int, jitter: int,
                       seed: int) -> PointSetPair:
    """A pair where B is A with a bounded integer offset per point.

    Useful for producing nontrivial instances that still share hull
    structure; offsets re-draw on collisions or range violations.
    """
    rng = random.Random(seed)
    base = gen_point_pair(n, coord_range, rng.randrange(2 ** 30)).a
    pts: list[Point] = []
    seen: set[Point] = set()
    for p in base.points:
        while True:
            q = Point(p[0] + rng.randint(-jitter, jitter),
                      p[1] + rng.randint(-jitter, jitter))
            if q not in seen and 0 <= q[0] <= coord_range and 0 <= q[1] <= coord_range:
                seen.add(q)
                pts.append(q)
                break
    return PointSetPair(base, LabeledSet(tuple(pts)))


def _untangle(pts: list[Point], rng: random.Random,
              max_sweeps: int = 2000) -> Optional[list[Point]]:
    """Remove boundary crossings by repeated 2-opt segment reversal.

    Each applied swap strictly shortens the tour, so the loop terminates;
    None when the sweep budget runs out.
    """
    order = pts[:]
    n = len(order)
    for _ in range(max_sweeps):
        crossed = False
        for i in range(n - 1):
            a, b = order[i], order[i + 1]
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                c, d = order[j], order[(j + 1) % n]
                d1 = orient(a, b, c)
                d2 = orient(a, b, d)
                d3 = orient(c, d, a)
                d4 = orient(c, d, b)
                if d1 * d2 < 0 and d3 * d4 < 0:
                    order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
                    crossed = True
                    break
            if crossed:
                break
        if not crossed:
            return order
    return None


def gen_polygon_pair(n: int, coord_range: int, seed: int,
                     max_tries: int = 50) -> PolygonPair:
    """Two independent random simple polygons on n vertices each, both
    wound counterclockwise, deterministic per seed.

    Vertices are drawn uniformly, re-drawn until no three are collinear
    (collinear triples make diagonal visibility ambiguous), then a random
    vertex order is untangled into a simple cycle by 2-opt swaps.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rng = random.Random(seed)

    def side() -> Polygon:
        for _ in range(max_tries):
            pts: list[Point] = []
            seen: set[Point] = set()
            guard = 0
            while len(pts) < n and guard < 50 * n + 1000:
                guard += 1
                p = Point(rng.randint(0, coord_range), rng.randint(0, coord_range))
                if p in seen:
                    continue
                if any(orient(q, r, p) == 0
                       for qi, q in enumerate(pts) for r in pts[qi + 1:]):
                    continue
                seen.add(p)
                pts.append(p)
            if len(pts) < n:
                continue
            rng.shuffle(pts)
            order = _untangle(pts, rng)
            if order is None:
                continue
            poly = Polygon(tuple(order))
            if poly.ccw_sign < 0:
                poly = Polygon(tuple(reversed(order)))
            return poly
        raise ValueError(
            f"failed to generate a simple polygon with n={n} in {max_tries} tries")

    return PolygonPair(side(), side())


POINTS = "points"
POLYGONS = "polygons"


@dataclass
class Counterexample:
    """One instance whose outcome contradicts an expected property."""

    mode: str
    seed: int
    n: int
    reason: str
    oracle_verdict: Optional[str] = None
    bundle_path: Optional[str] = None


@dataclass
class HuntReport:
    """Aggregate results of a randomized campaign."""

    mode: str
    instances_tried: int = 0
    nc_pass_count: int = 0
    greedy_success: int = 0
    oracle_checked: int = 0
    oracle_agreements: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [
            f"mode {self.mode}",
            f"instances_tried {self.instances_tried}",
            f"nc_pass {self.nc_pass_count}",
            f"construct_success {self.greedy_success}",
            f"oracle_checked {self.oracle_checked}",
            f"oracle_agreements {self.oracle_agreements}",
            f"counterexamples {len(self.counterexamples)}",
        ]
        for c in self.counterexamples:
            where = f" bundle={c.bundle_path}" if c.bundle_path else ""
            verdict = f" oracle={c.oracle_verdict}" if c.oracle_verdict else ""
            lines.append(f"counterexample seed={c.seed} n={c.n} {c.reason}{verdict}{where}")
        return lines


def hunt(mode: str, n_range: tuple[int, int], trials: int, seed: int,
         coord_range: int = 50, cross_check: bool = True,
         bundle_dir: Optional[str] = None) -> HuntReport:
    """Randomized campaign over generated instances.

    POINTS: run both necessary conditions; where they pass, construct
    greedily (LEX) and verify; where n <= 8 also compare the combined
    fast-path verdict against the exhaustive oracle.  POLYGONS: run the
    interval DP and verify; where n <= 10 compare existence against the
    polygon oracle.  ``nc_pass_count`` counts condition passes (POINTS)
    or DP successes (POLYGONS).  Any verification failure or oracle
    disagreement is recorded as a counterexample (and serialized when
    ``bundle_dir`` is given); these are findings, not errors.
    """
    if mode not in (POINTS, POLYGONS):
        raise ValueError(f"unknown hunt mode: {mode!r}")
    n_lo, n_hi = n_range
    report = HuntReport(mode=mode)
    master = random.Random(seed)

    for _ in range(trials):
        inst_seed = master.randrange(2 ** 31)
        n = master.randint(n_lo, n_hi)
        report.instances_tried += 1
        if mode == POINTS:
            pair = gen_point_pair(n, coord_range, inst_seed)
            _hunt_points(pair, inst_seed, n, report, cross_check, bundle_dir)
        else:
            try:
                pair = gen_polygon_pair(n, coord_range, inst_seed)
            except (ValueError, GrazingDiagonal):
                continue
            _hunt_polygons(pair, inst_seed, n, report, cross_check, bundle_dir)
    return report


def _record(report: HuntReport, ce: Counterexample, pair, kind: str,
            bundle_dir: Optional[str], trace: list[str]) -> None:
    from .files import write_bundle

    if bundle_dir is not None:
        path = write_bundle(bundle_dir, kind, pair, ce, trace)
        ce.bundle_path = path
    report.counterexamples.append(ce)


def _hunt_points(pair: PointSetPair, inst_seed: int, n: int,
                 report: HuntReport, cross_check: bool,
                 bundle_dir: Optional[str]) -> None:
    try:
        hc = check_hull_correspondence(pair)
    except DegenerateInput:
        hc = None
    fast_yes = False
    result = None
    if hc is not None and hc.ok:
        candidates = paired_empty(pair)
        legal = legal_set(pair, candidates, hc.hull_edges)
        if check_legal_nonempty(legal):
            report.nc_pass_count += 1
            result = greedy_construct(pair, legal.legal, LEX)
            if result.verified:
                report.greedy_success += 1
                fast_yes = True
            else:
                _record(report,
                        Counterexample(POINTS, inst_seed, n,
                                       f"greedy result failed verification: {result.violation}"),
                        pair, "points", bundle_dir,
                        [f"choice {t}" for t in (result.choices or [])])
    if cross_check and n <= 8:
        report.oracle_checked += 1
        witness = oracle_joint_exists(pair)
        if (witness is not None) == fast_yes:
            report.oracle_agreements += 1
        else:
            verdict = "joint exists" if witness is not None else "no joint"
            _record(report,
                    Counterexample(POINTS, inst_seed, n,
                                   "oracle disagrees with fast path",
                                   oracle_verdict=verdict),
                    pair, "points", bundle_dir, [])


def _hunt_polygons(pair: PolygonPair, inst_seed: int, n: int,
                   report: HuntReport, cross_check: bool,
                   bundle_dir: Optional[str]) -> None:
    try:
        result = dp_joint_polygon(pair)
    except GrazingDiagonal:
        return
    if result is not None:
        report.nc_pass_count += 1
        if result.verified:
            report.greedy_success += 1
        else:
            _record(report,
                    Counterexample(POLYGONS, inst_seed, n,
                                   f"dp result failed verification: {result.violation}"),
                    pair, "polygon", bundle_dir,
                    [f"choice {t}" for t in (result.choices or [])])
    if cross_check and n <= MAX_ORACLE_POLYGON:
        report.oracle_checked += 1
        witness = polygon_oracle_exists(pair)
        if (witness is not None) == (result is not None and result.verified):
            report.oracle_agreements += 1
        else:
            verdict = "joint exists" if witness is not None else "no joint"
            _record(report,
                    Counterexample(POLYGONS, inst_seed, n,
                                   "polygon oracle disagrees with dp",
                                   oracle_verdict=verdict),
                    pair, "polygon", bundle_dir, [])
