"""Instance generators and the conjecture-hunting campaign.

The generators draw seeded random instances: independent uniform point
pairs (``gen_point_pair``) and independent simple polygon pairs
(``gen_polygon_pair``), the latter untangled by 2-opt swaps.  ``hunt``
runs the fast path on each generated instance and cross-checks it
against the exact judges of ``jointtri.oracle``; a verification failure
or a disagreement is a ``Counterexample``, written as an instance file
with its trace by ``write_bundle``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .conditions import PointSetPair, necessary_conditions
from .files import Instance, format_instance
from .geom import (COORD_LIMIT, DegenerateInput, InputError, LabeledSet, Point,
                   signed_area2)
from .greedy import LEX, JointTriangulation, greedy_construct
from .oracle import MAX_ORACLE_POLYGON, oracle_joint_exists, polygon_oracle_exists
from .polygon import (GrazingDiagonal, Polygon, PolygonPair, check_polygon_size,
                      dp_joint_polygon, sides_and_first_meet)


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
    InputError, before the first instance, on an unknown mode, a negative
    trial count, an empty size range, or a size or range ``gen_point_pair``
    refuses; then SizeGuard in POLYGONS mode when nmax is above
    MAX_POLYGON_VERTICES.
    """
    if mode not in (POINTS, POLYGONS):
        raise InputError(f"unknown hunt mode: {mode!r}")
    if trials < 0:
        raise InputError(f"negative trial count: {trials}")
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


def write_bundle(bundle_dir: str, pair: Instance, finding: Counterexample,
                 trace_lines: list[str]) -> str:
    """Write a counterexample bundle and return its path.

    The bundle is itself a valid instance file of the pair's kind; the
    finding and the execution trace ride along as comment lines.  A
    finding with an oracle verdict, an oracle disagreement, is named with
    an ``-oracle`` suffix, so it never overwrites the failed-verification
    bundle of the same instance.
    """
    os.makedirs(bundle_dir, exist_ok=True)
    suffix = "-oracle" if finding.oracle_verdict else ""
    name = f"counterexample-{finding.mode}-seed{finding.seed}-n{finding.n}{suffix}.txt"
    path = os.path.join(bundle_dir, name)
    parts = [
        f"# counterexample: {finding.reason}",
    ]
    if finding.oracle_verdict:
        parts.append(f"# oracle verdict: {finding.oracle_verdict}")
    parts.append(format_instance(pair).rstrip("\n"))
    if trace_lines:
        parts.append("# trace:")
        parts.extend(f"# {line}" for line in trace_lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
