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
from typing import Iterator, Optional, Sequence

import numpy as np

from .conditions import PointSetPair, necessary_conditions
from .files import Instance, write_bundle
from .geom import (COORD_LIMIT, DegenerateInput, InputError, LabeledSet, Point,
                   SizeGuard, hull_edge_set, orient, row_bits, signed_area2)
from .greedy import LEX, JointTriangulation, greedy_construct, verify_joint
from .polygon import (GrazingDiagonal, Polygon, PolygonPair, dp_joint_polygon,
                      verify_polygon_joint)
from .triangles import Edge, Tri, edge, tri

MAX_ORACLE_POINTS = 9
MAX_ORACLE_POLYGON = 10


def _sign_lists(s: LabeledSet) -> list[list[list[int]]]:
    """The set's orientation signs as nested lists, [i][j][k] = orient(i, j, k),
    unpacked from its orientation table: a small local table for the
    oracle's sizes, indexed faster than the packed bits."""
    left = row_bits(s.signs, len(s)).view(np.int8)
    return (left - left.transpose(1, 0, 2)).tolist()


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
    sa, sb = _sign_lists(pair.a), _sign_lists(pair.b)
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
    vertex order is untangled into a simple cycle by 2-opt swaps.  Raises
    InputError as ``gen_point_pair`` does, and when no simple polygon turns
    up within the attempt budget.
    """
    _check_size(n, coord_range)
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
    size range, or a size or range ``gen_point_pair`` refuses.
    """
    if mode not in (POINTS, POLYGONS):
        raise InputError(f"unknown hunt mode: {mode!r}")
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise InputError(f"empty size range: nmin {n_lo} exceeds nmax {n_hi}")
    _check_size(n_lo, coord_range)
    _check_size(n_hi, coord_range)
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
