"""Exact judges at small sizes: whether a joint triangulation exists.

The point-set oracle enumerates, by frontier expansion over the paired
empty triangles that turn in B as the hulls do, the joint triangulations
of a pair whose two hulls carry the same edges, and returns the first
one after verifying it.
The polygon oracle lazily enumerates, in split order, the interval
triangulations over the chords both polygons see, and verifies them
until one passes: the first, the DP's own least-k triangulation.  Both
are deliberately simple so they can arbitrate the fast paths; the
generators and the hunt that drives them live in ``jointtri.campaign``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .conditions import PointSetPair, check_hull_correspondence
from .geom import DegenerateInput, SizeGuard, strictly_left
from .greedy import verify_joint
from .polygon import PolygonPair, verify_polygon_joint
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

    A nested generator yields the triangulations over the pair's shared
    edges (``PolygonPair.shared``) lazily in split order, split vertex k
    ascending and each left sub-interval's before the right's, and each is
    verified until one passes.  By ``_fill_table``'s lemma the first one
    passes, and it is the DP's least-k triangulation: the judge
    cross-checks the DP's bit columns and backtracking over the same
    shared table (the brute references in ``tests/helpers.py`` check
    visibility).  Raises SizeGuard above MAX_ORACLE_POLYGON, and
    GrazingDiagonal wherever ``dp_joint_polygon`` does.
    """
    n = len(pair)
    if n > MAX_ORACLE_POLYGON:
        raise SizeGuard(
            f"polygon oracle is limited to n <= {MAX_ORACLE_POLYGON}, got {n}")

    shared = pair.shared.table.tolist()  # read at (i, k) and (k, q), i < k < q

    def variants(i: int, q: int) -> Iterator[frozenset[Tri]]:
        if q - i < 2:
            yield frozenset()
            return
        for k in range(i + 1, q):
            if shared[i][k] and shared[k][q]:
                t = tri(i, k, q)
                for left in variants(i, k):
                    for right in variants(k, q):
                        yield left | right | {t}

    for candidate in variants(0, n - 1):
        if verify_polygon_joint(pair, candidate) is None:
            return candidate
    return None
