"""Exhaustive ground truth at small sizes, instance generators, and the
conjecture-hunting harness.

The point-set oracle enumerates, by frontier expansion over the paired
empty triangles, the joint triangulations of a pair whose two hulls
carry the same edges, and returns the first one after verifying it.
The polygon oracle recursively enumerates candidate triangle sets over
the chords both polygons see and fully verifies each.  Both are
deliberately simple so they can arbitrate the fast paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .conditions import PointSetPair, necessary_conditions
from .files import write_bundle
from .geom import (DegenerateInput, LabeledSet, Point, SizeGuard, hull_edge_set,
                   orient, signed_area2)
from .greedy import LEX, greedy_construct, verify_joint
from .polygon import (GrazingDiagonal, Polygon, PolygonPair, dp_joint_polygon,
                      verify_polygon_joint)
from .triangles import Edge, Tri, edge, tri

MAX_ORACLE_POINTS = 9
MAX_ORACLE_POLYGON = 10


def iter_triangulations(pair: PointSetPair) -> Iterator[frozenset[Tri]]:
    """Yield, each exactly once, every joint triangulation of the pair:
    none unless both hulls carry the same edges (condition 1), and then
    every triangulation of side A built from paired empty triangles
    (``pair.candidates``) whose two triangles at each interior edge lie on
    opposite sides of it in B as well.

    Frontier search: the open directed edges of the untriangulated region
    (the region on their left in A) start as A's hull edges, and the
    smallest is always expanded, trying apexes w in ascending order, so
    each triangulation is reached along exactly one branch.  Each open
    edge keeps the B orientation its next apex must have, opposite the
    triangle already there (none on a hull edge).  A placement is
    rejected when it lies on the wrong side in B of the expanded edge or
    of an edge it closes, when one of its new edges is already open in
    the same direction (two triangles on one side in A), or when it
    reopens a closed edge.  A completed branch
    uses every interior edge twice, from opposite sides in both
    realizations, and every hull edge once from inside A, so by the
    degree argument of ``verify_tiling`` it tiles A's hull, and B's,
    whose hull edges are the same.  Raises SizeGuard above
    MAX_ORACLE_POINTS.
    """
    n = len(pair)
    if n > MAX_ORACLE_POINTS:
        raise SizeGuard(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_POINTS}, got {n}")
    try:
        hull = pair.a.hull
        if hull_edge_set(hull) != hull_edge_set(pair.b.hull):
            return
    except DegenerateInput:
        return
    sa, sb = pair.a.signs.tolist(), pair.b.signs.tolist()
    # Directed edge u -> v to the apexes w of its paired triangles on its
    # left in A, ascending.
    apexes: dict[Edge, list[int]] = {}
    for i, j, k in pair.candidates:
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            apexes.setdefault((u, v) if sa[u][v][w] == 1 else (v, u), []).append(w)
    for ws in apexes.values():
        ws.sort()
    frontier: dict[Edge, int] = {
        (hull[i], hull[(i + 1) % len(hull)]): 0 for i in range(len(hull))}
    closed: set[Edge] = set()
    placed: list[Tri] = []

    def expand() -> Iterator[frozenset[Tri]]:
        if not frontier:
            yield frozenset(placed)
            return
        u, v = min(frontier)
        want = frontier.pop((u, v))
        closed.add(edge(u, v))
        for w in apexes.get((u, v), ()):
            if want and sb[u][v][w] != want:
                continue
            # The triangle lies right of u -> w and of w -> v, opposite its
            # third vertex on each.
            sides = (((u, w), v), ((w, v), u))
            if any((a, b) in frontier or edge(a, b) in closed
                   or frontier.get((b, a), 0) not in (0, sb[b][a][c])
                   for (a, b), c in sides):
                continue
            shut: dict[Edge, int] = {}
            opened: list[Edge] = []
            for (a, b), c in sides:
                if (b, a) in frontier:
                    shut[(b, a)] = frontier.pop((b, a))
                    closed.add(edge(a, b))
                else:
                    frontier[(a, b)] = -sb[a][b][c]
                    opened.append((a, b))
            placed.append(tri(u, v, w))
            yield from expand()
            placed.pop()
            for e in opened:
                del frontier[e]
            for e in shut:
                closed.discard(edge(*e))
            frontier.update(shut)
        closed.discard(edge(u, v))
        frontier[(u, v)] = want

    yield from expand()


def enumerate_triangulations(s: LabeledSet) -> list[frozenset[Tri]]:
    """All triangulations of the set: the frontier search on the pair of
    the set with itself."""
    return list(iter_triangulations(PointSetPair(s, s)))


def oracle_joint_exists(pair: PointSetPair) -> Optional[frozenset[Tri]]:
    """Exact decision of joint-triangulation existence (n <= 9).

    Returns the first set of ``iter_triangulations``, re-checked by
    ``verify_joint`` (every yielded set passes, so this verifies once per
    YES and never on a NO); None when nothing is yielded.
    """
    for t_set in iter_triangulations(pair):
        if verify_joint(pair, t_set) is None:
            return t_set
    return None


def polygon_oracle_exists(pair: PolygonPair) -> Optional[frozenset[Tri]]:
    """Exact polygon decision (n <= 10) by exhaustive interval recursion.

    Candidate triangle sets are assembled from the pair's shared edges
    (``PolygonPair.shared``); each complete candidate is then fully
    verified, so the recursion may over-generate but never misses a joint
    triangulation.  Raises SizeGuard above MAX_ORACLE_POLYGON, and
    GrazingDiagonal wherever ``dp_joint_polygon`` does.
    """
    n = len(pair)
    if n > MAX_ORACLE_POLYGON:
        raise SizeGuard(
            f"polygon oracle is limited to n <= {MAX_ORACLE_POLYGON}, got {n}")

    shared = pair.shared
    memo: dict[tuple[int, int], list[frozenset[Tri]]] = {}

    def variants(i: int, q: int) -> list[frozenset[Tri]]:
        if q - i < 2:
            return [frozenset()]
        key = (i, q)
        if key in memo:
            return memo[key]
        out: list[frozenset[Tri]] = []
        for k in range(i + 1, q):
            if not ((i, k) in shared and (k, q) in shared):
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


# Budgets of the random polygon generator: 2-opt sweeps per untangling,
# and attempts per side before it gives up.
_UNTANGLE_SWEEPS = 2000
_POLYGON_TRIES = 50


def _untangle(pts: list[Point]) -> Optional[list[Point]]:
    """Remove boundary crossings by repeated 2-opt segment reversal.

    Each applied swap strictly shortens the tour, so the loop terminates;
    None when the sweep budget runs out.
    """
    order = pts[:]
    n = len(order)
    for _ in range(_UNTANGLE_SWEEPS):
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


def gen_polygon_pair(n: int, coord_range: int, seed: int) -> PolygonPair:
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
        for _ in range(_POLYGON_TRIES):
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
            order = _untangle(pts)
            if order is None:
                continue
            if signed_area2(order) < 0:
                order.reverse()
            return Polygon(tuple(order))
        raise ValueError(
            f"failed to generate a simple polygon with n={n} in {_POLYGON_TRIES} tries")

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
            except ValueError:
                continue
            _hunt_polygons(pair, inst_seed, n, report, cross_check, bundle_dir)
    return report


def _record(report: HuntReport, ce: Counterexample, pair,
            bundle_dir: Optional[str], trace: list[str]) -> None:
    if bundle_dir is not None:
        ce.bundle_path = write_bundle(bundle_dir, pair, ce, trace)
    report.counterexamples.append(ce)


def _hunt_points(pair: PointSetPair, inst_seed: int, n: int,
                 report: HuntReport, cross_check: bool,
                 bundle_dir: Optional[str]) -> None:
    try:
        nc = necessary_conditions(pair)
    except DegenerateInput:
        nc = None
    fast_yes = False
    if nc is not None and nc.ok:
        report.nc_pass_count += 1
        result = greedy_construct(pair, nc.legal.legal, LEX)
        if result.verified:
            report.greedy_success += 1
            fast_yes = True
        else:
            _record(report,
                    Counterexample(POINTS, inst_seed, n,
                                   f"greedy result failed verification: {result.violation}"),
                    pair, bundle_dir,
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
                    pair, bundle_dir, [])


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
                    pair, bundle_dir,
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
                    pair, bundle_dir, [])
