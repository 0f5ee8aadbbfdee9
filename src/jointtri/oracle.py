"""Exhaustive ground truth at small sizes, instance generators, and the
conjecture-hunting harness.

The point-set oracle enumerates, by frontier expansion over the paired
empty triangles that turn in B as the hulls do, the joint triangulations
of a pair whose two hulls carry the same edges, and returns the first
one after verifying it.
The polygon oracle recursively enumerates candidate triangle sets over
the chords both polygons see and fully verifies each.  Both are
deliberately simple so they can arbitrate the fast paths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .conditions import PointSetPair, check_hull_correspondence, necessary_conditions
from .files import Instance, write_bundle
from .geom import (COORD_LIMIT, DegenerateInput, InputError, LabeledSet, Point,
                   SizeGuard, signed_area2, strictly_left)
from .greedy import LEX, JointTriangulation, greedy_construct, verify_joint
from .polygon import (GrazingDiagonal, Polygon, PolygonPair, check_polygon_size,
                      dp_joint_polygon, sides_and_first_meet, verify_polygon_joint)
from .triangles import Edge, Tri, edge, tri

MAX_ORACLE_POINTS = 9
MAX_ORACLE_POLYGON = 10


def iter_triangulations(pair: PointSetPair) -> Iterator[frozenset[Tri]]:
    """Yield, each exactly once, every joint triangulation of the pair:
    none unless both hulls carry the same edges (condition 1), and then
    every triangulation of side A built from the paired empty triangles
    (``pair.candidates``) that turn in B, relative to A, as the hulls do.
    Both hulls run counterclockwise from the smallest label over the same
    edges, so they are one label sequence iff B's hull turns as A's does.
    Nothing else in the search reads B.

    These are exactly the joint triangulations.  A triangle on a hull edge
    has its apex inside both hulls, so it turns as the hulls do.  Two
    triangles on opposite sides of an edge in A lie on opposite sides in B
    iff they turn alike.  A triangulation is connected through its
    interior edges, so a joint one uses only triangles that turn as the
    hulls do.  Conversely, a triangulation of A built from those has on
    each interior edge two triangles on opposite sides in both
    realizations, and on each hull edge one, inside; its triangles are
    nondegenerate in B and use every label, so by the proof in
    ``verify_tiling`` it triangulates B as well.

    Frontier search: the open directed edges of the untriangulated region
    (the region on their left in A) start as A's hull edges, and the
    smallest is always expanded, trying apexes w in ascending order, so
    each triangulation is reached along exactly one branch.  A placement is
    rejected when one of its new edges is already open in the same
    direction (two triangles on one side in A) or when it reopens a closed
    edge.  Raises SizeGuard above MAX_ORACLE_POINTS.
    """
    n = len(pair)
    if n > MAX_ORACLE_POINTS:
        raise SizeGuard(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_POINTS}, got {n}")
    try:
        if not check_hull_correspondence(pair).ok:
            return
    except DegenerateInput:
        return
    hull = pair.a.hull
    rows = pair.candidates.array()
    ccw = strictly_left(pair.a.signs, *rows.T)
    keep = (ccw == strictly_left(pair.b.signs, *rows.T)) == (pair.b.hull == hull)
    # Directed edge u -> v to the apexes w of its kept triangles on its left
    # in A, ascending since the rows are sorted.
    apexes: dict[Edge, list[int]] = {}
    for (i, j, k), left in zip(rows[keep].tolist(), ccw[keep].tolist()):
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            apexes.setdefault((u, v) if left else (v, u), []).append(w)
    frontier: set[Edge] = set(zip(hull, hull[1:] + hull[:1]))
    closed: set[Edge] = set()
    placed: list[Tri] = []

    def expand() -> Iterator[frozenset[Tri]]:
        if not frontier:
            yield frozenset(placed)
            return
        u, v = min(frontier)
        frontier.remove((u, v))
        closed.add(edge(u, v))
        for w in apexes.get((u, v), ()):
            # The triangle lies right of u -> w and of w -> v.
            sides = ((u, w), (w, v))
            if any(e in frontier or edge(*e) in closed for e in sides):
                continue
            shut = [(b, a) for a, b in sides if (b, a) in frontier]
            opened = [(a, b) for a, b in sides if (b, a) not in frontier]
            frontier.difference_update(shut)
            frontier.update(opened)
            closed.update(edge(*e) for e in shut)
            placed.append(tri(u, v, w))
            yield from expand()
            placed.pop()
            frontier.difference_update(opened)
            frontier.update(shut)
            closed.difference_update(edge(*e) for e in shut)
        closed.discard(edge(u, v))
        frontier.add((u, v))

    yield from expand()


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

    shared = pair.shared.table.tolist()  # read at (i, k) and (k, q), i < k < q
    memo: dict[tuple[int, int], list[frozenset[Tri]]] = {}

    def variants(i: int, q: int) -> list[frozenset[Tri]]:
        if q - i < 2:
            return [frozenset()]
        key = (i, q)
        if key in memo:
            return memo[key]
        out: list[frozenset[Tri]] = []
        for k in range(i + 1, q):
            if not (shared[i][k] and shared[k][q]):
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
    _check_size(n, coord_range)
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


def _check_size(n: int, coord_range: int) -> None:
    """Raise InputError unless n distinct points, n >= 3, fit in
    [0, coord_range]^2 and coord_range is at most COORD_LIMIT."""
    if n < 3:
        raise InputError("n must be at least 3")
    if coord_range > COORD_LIMIT:
        raise InputError(
            f"coordinate range {coord_range} exceeds the limit {COORD_LIMIT}")
    if coord_range < 0 or (coord_range + 1) ** 2 < n:
        raise InputError(
            f"coordinate range {coord_range} too small for {n} distinct points")


# Budgets of the random polygon generator: 2-opt sweeps per untangling,
# and attempts per side before it gives up.
_UNTANGLE_SWEEPS = 2000
_POLYGON_TRIES = 50


def _untangle(pts: list[Point]) -> Optional[list[Point]]:
    """Remove boundary crossings by 2-opt: while construction's segment
    test (``sides_and_first_meet``) names a pair of edges (i, j), reverse
    order[i + 1..j].  The caller draws no three points collinear, so each
    pair named crosses properly.  Each swap strictly shortens the tour, so
    the loop terminates; None when the budget, one swap a sweep, runs out.
    The order is one int64 [n, 2] array throughout, points only at the end.
    The caller raises SizeGuard above MAX_POLYGON_VERTICES before drawing.
    """
    order = np.array(pts, dtype=np.int64)
    for _ in range(_UNTANGLE_SWEEPS):
        meet = sides_and_first_meet(order)[1]
        if meet is None:
            return [Point(x, y) for x, y in order.tolist()]
        i, j = meet
        order[i + 1:j + 1] = order[i + 1:j + 1][::-1]
    return None


def _direction(p: Point, q: Point) -> tuple[int, int]:
    """The direction from p to q != p, gcd-reduced and turned to point
    right or straight up: equal for q and r iff p, q, r are collinear."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)


def _draw_points(rng: random.Random, n: int, coord_range: int) -> list[Point]:
    """Up to n distinct points drawn uniformly in [0, coord_range]^2, each
    kept only if no two kept points are collinear with it, within
    50 n + 1000 draws.  Each kept point q holds its directions to the
    others (``_direction``); a draw p is collinear with q and some r iff
    its direction from q is among them, so each draw costs O(kept)."""
    lines: dict[Point, set[tuple[int, int]]] = {}  # kept point -> its directions
    guard = 0
    while len(lines) < n and guard < 50 * n + 1000:
        guard += 1
        p = Point(rng.randint(0, coord_range), rng.randint(0, coord_range))
        if p in lines:
            continue
        heading = {q: _direction(q, p) for q in lines}
        if any(h in lines[q] for q, h in heading.items()):
            continue
        for q, h in heading.items():
            lines[q].add(h)
        lines[p] = set(heading.values())
    return list(lines)


def gen_polygon_pair(n: int, coord_range: int, seed: int) -> PolygonPair:
    """Two independent random simple polygons on n vertices each, both
    wound counterclockwise, deterministic per seed.

    Vertices are drawn uniformly, re-drawn until no three are collinear
    (collinear triples make diagonal visibility ambiguous), then a random
    vertex order is untangled into a simple cycle by 2-opt swaps.  Raises
    InputError as ``gen_point_pair`` does, and when no simple polygon turns
    up within the attempt budget.  Above MAX_POLYGON_VERTICES, where no
    polygon is constructed, it raises SizeGuard before drawing anything.
    """
    _check_size(n, coord_range)
    check_polygon_size(n)
    rng = random.Random(seed)

    def side() -> Polygon:
        for _ in range(_POLYGON_TRIES):
            pts = _draw_points(rng, n, coord_range)
            if len(pts) < n:
                continue
            rng.shuffle(pts)
            order = _untangle(pts)
            if order is None:
                continue
            if signed_area2(order) < 0:
                order.reverse()
            return Polygon(tuple(order))
        raise InputError(
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
    instances_skipped: int = 0
    nc_pass_count: int = 0
    construct_success: int = 0
    oracle_checked: int = 0
    oracle_agreements: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [
            f"mode {self.mode}",
            f"instances_tried {self.instances_tried}",
        ]
        if self.instances_skipped:
            lines.append(f"instances_skipped {self.instances_skipped}")
        lines += [
            f"nc_pass {self.nc_pass_count}",
            f"construct_success {self.construct_success}",
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

    Each instance takes one step, of either kind: generate the pair, run
    the fast path, tally its result, cross-check it against the oracle.
    The fast path is the LEX greedy where both necessary conditions hold
    (POINTS; a collinear side fails them) or the interval DP (POLYGONS);
    ``nc_pass_count`` counts its results, ``construct_success`` the verified
    ones.  With ``cross_check`` the oracle runs at n <= 8 (POINTS, though
    the ``oracle`` command takes 9) or n <= MAX_ORACLE_POLYGON, collinear
    point sets included; a polygon pair with a grazing diagonal leaves
    before it.  ``instances_skipped`` counts the tried instances
    ``gen_polygon_pair`` could not build, and the summary names it only
    when it is not zero.  A verification failure or an oracle
    disagreement is a counterexample, bundled when ``bundle_dir`` is
    given; a disagreement's bundle name ends in ``-oracle``, so one
    instance may have two.  These are findings, not errors.  Raises
    InputError, before the first instance, on an unknown mode, an empty
    size range, or a size or range ``gen_point_pair`` refuses; then
    SizeGuard in POLYGONS mode when nmax is above MAX_POLYGON_VERTICES.
    """
    if mode not in (POINTS, POLYGONS):
        raise InputError(f"unknown hunt mode: {mode!r}")
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise InputError(f"empty size range: nmin {n_lo} exceeds nmax {n_hi}")
    _check_size(n_lo, coord_range)
    _check_size(n_hi, coord_range)
    if mode == POLYGONS:
        check_polygon_size(n_hi)
    report = HuntReport(mode=mode)
    master = random.Random(seed)
    if mode == POINTS:
        generate, fast_path, oracle_exists, max_oracle, disagrees = (
            gen_point_pair, _lex_where_conditions_hold, oracle_joint_exists, 8,
            "oracle disagrees with fast path")
    else:
        generate, fast_path, oracle_exists, max_oracle, disagrees = (
            gen_polygon_pair, dp_joint_polygon, polygon_oracle_exists,
            MAX_ORACLE_POLYGON, "polygon oracle disagrees with dp")

    for _ in range(trials):
        inst_seed = master.randrange(2 ** 31)
        n = master.randint(n_lo, n_hi)
        report.instances_tried += 1
        try:
            pair = generate(n, coord_range, inst_seed)
        except InputError:  # the sizes passed above: the generator gave up
            report.instances_skipped += 1
            continue
        try:
            result = fast_path(pair)
        except GrazingDiagonal:  # neither the DP nor the oracle decides it
            continue
        if result is not None:
            report.nc_pass_count += 1
            if result.verified:
                report.construct_success += 1
            else:
                report.counterexamples.append(
                    verification_failure(pair, result, inst_seed, bundle_dir))
        if cross_check and n <= max_oracle:
            report.oracle_checked += 1
            witness = oracle_exists(pair)
            if (witness is not None) == (result is not None and result.verified):
                report.oracle_agreements += 1
            else:
                verdict = "joint exists" if witness is not None else "no joint"
                report.counterexamples.append(_bundled(
                    Counterexample(mode, inst_seed, n, disagrees, oracle_verdict=verdict),
                    pair, bundle_dir, []))
    return report


def _lex_where_conditions_hold(pair: PointSetPair) -> Optional[JointTriangulation]:
    """The LEX greedy construction where both necessary conditions hold,
    else None; a collinear side (``DegenerateInput``) fails them."""
    try:
        nc = necessary_conditions(pair)
    except DegenerateInput:
        return None
    return greedy_construct(pair, nc.legal.legal, LEX) if nc.ok else None


def verification_failure(pair: Instance, result: JointTriangulation, seed: int,
                         bundle_dir: Optional[str],
                         trace: Sequence[str] = ()) -> Counterexample:
    """The finding for a greedy (point pair) or DP (polygon pair) result
    that failed verification, bundled as ``_bundled`` does with ``trace``
    and then the result's choices as its trace lines."""
    mode, source = ((POINTS, "greedy") if isinstance(pair, PointSetPair)
                    else (POLYGONS, "dp"))
    finding = Counterexample(mode, seed, len(pair),
                             f"{source} result failed verification: {result.violation}")
    return _bundled(finding, pair, bundle_dir,
                    [*trace, *(f"choice {t}" for t in result.choices or [])])


def _bundled(finding: Counterexample, pair: Instance, bundle_dir: Optional[str],
             trace: list[str]) -> Counterexample:
    """The finding, its bundle written to ``bundle_dir`` when one is given."""
    if bundle_dir is not None:
        finding.bundle_path = write_bundle(bundle_dir, pair, finding, trace)
    return finding
