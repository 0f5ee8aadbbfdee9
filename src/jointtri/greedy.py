"""Greedy construction of a joint triangulation and its exact verifier.

The constructor repeatedly commits one legal triangle and discards every
survivor whose interior overlaps it in either realization, until nothing
is left.  Whether this always tiles both hulls whenever the legal set is
nonempty is an open question, so the result is always re-checked by the
independent verifier and returned with an explicit verdict instead of
being trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .conditions import PointSetPair
from .geom import (DegenerateInput, Point, convex_hull, hull_edge_set, orient,
                   orient_sign_tensor, signed_area2)
from .triangles import Edge, Tri, TriangleSet, apex, edge, tri, tri_edges

LEX = "lex"
SEEDED_RANDOM = "random"


@dataclass
class JointTriangulation:
    """A claimed joint triangulation plus its verification verdict."""

    triangles: TriangleSet
    verified: bool
    violation: Optional[str] = None
    choices: list[Tri] | None = None

    def __len__(self) -> int:
        return len(self.triangles)


Side = tuple[str, Sequence[Point], Sequence[int]]


def _scan(points: Sequence[Point], arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled signed area of each triangle of ``arr`` (label rows) and the
    first point in its closed triangle other than its vertices (-1: none).

    int64 throughout, exact under COORD_LIMIT; one [T, n] pass per edge.
    """
    xy = np.array(points, dtype=np.int64)
    x, y = xy[:, 0], xy[:, 1]
    tx, ty = x[arr], y[arr]
    ex = tx[:, [1, 2, 0]] - tx
    ey = ty[:, [1, 2, 0]] - ty
    det = ex[:, 0] * ey[:, 1] - ey[:, 0] * ex[:, 1]
    s = np.sign(det)[:, None]
    inside = np.ones((len(arr), len(x)), dtype=bool)
    for e in range(3):
        inside &= s * (ex[:, e, None] * (y - ty[:, e, None])
                       - ey[:, e, None] * (x - tx[:, e, None])) >= 0
    inside[np.arange(len(arr))[:, None], arr] = False
    return det, np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def verify_tiling(sides: Sequence[Side], triangles: Iterable[Tri],
                  allowed: Optional[Collection[Edge]] = None) -> Optional[str]:
    """Exact check that one triple set triangulates every side.

    Each side is ``(name, points, cycle)``: the realization's name, its
    points by label, and its boundary as a label cycle (a convex hull or a
    simple polygon).  Returns None when every check passes, else a
    description of the first failure.  Checks, in order:

    1. no duplicate triple, and at least one triple;
    2. each triple nondegenerate and empty (no other point in the closed
       triangle) on every side;
    3. doubled areas summing to each cycle's doubled area (redundant);
    4. the same boundary edges on every side;
    5. every used edge in ``allowed``, when given;
    6. on every side, at most one triangle on each side of each used edge;
    7. each boundary edge used once, its triangle on the interior side of
       the cycle's winding;
    8. every other edge used twice.

    The checks are local and linear in size, yet they rule out overlap.  In
    one realization let deg(x) count the triangles containing a point x on
    no edge.  By 2, two distinct edges share at most one point (a collinear
    overlap would put a vertex on an edge), so deg changes only across an
    edge, by the triangles on that edge on the side entered minus those on
    the side left.  By 6 and 8 an interior edge has one triangle on each
    side, so deg does not change across it; by 7 deg changes across a
    boundary edge exactly as the indicator of the cycle's interior does.
    So deg minus the indicator is constant, and zero far away: the
    triangles cover the cycle's interior exactly once and nothing outside
    it, and by 2 every point is a vertex.  This forces the triangle count
    (n - 2 for a polygon, 2n - h - 2 for n points with h on the hull).
    """
    tris = sorted(tri(*t) for t in triangles)
    for u, t in zip(tris, tris[1:]):
        if u == t:
            return f"duplicate triangle {t}"
    if not tris:
        return "empty triangle set"

    arr = np.array(tris, dtype=np.intp)
    scans = [_scan(points, arr) for _, points, _ in sides]
    if any((det == 0).any() or (hit >= 0).any() for det, hit in scans):
        for r, t in enumerate(tris):
            for (name, _, _), (det, hit) in zip(sides, scans):
                if det[r] == 0:
                    return f"triangle {t} degenerate in {name}"
                if hit[r] >= 0:
                    return (f"corresponding triangle {t} not empty in {name}: "
                            f"contains point {int(hit[r])}")

    windings = []
    for (name, points, cycle), (det, _) in zip(sides, scans):
        covered = sum(np.abs(det).tolist())
        signed = signed_area2([points[i] for i in cycle])
        if covered != abs(signed):
            return f"area mismatch in {name}: covered {covered} of {abs(signed)}"
        windings.append(1 if signed > 0 else -1)

    boundary = hull_edge_set(sides[0][2])
    if any(hull_edge_set(cycle) != boundary for _, _, cycle in sides[1:]):
        return "boundary edge sets of " + " and ".join(s[0] for s in sides) + " differ"

    uses: dict[Edge, list[int]] = {}
    for r, t in enumerate(tris):
        for e in tri_edges(t):
            uses.setdefault(e, []).append(r)
    if allowed is not None:
        for e in sorted(uses):
            if e not in allowed:
                return f"edge {e} not shared by both visibility graphs"

    # The apex of (i, j, k) lies on the side of sign s = orient(i, j, k)
    # of the directed edges i->j and j->k, and on side -s of i->k.
    signs = [np.sign(det).tolist() for det, _ in scans]
    seen: dict[tuple[str, Edge, int], int] = {}
    for r, t in enumerate(tris):
        for (name, _, _), sign in zip(sides, signs):
            for e, flip in zip(tri_edges(t), (1, 1, -1)):
                u = seen.setdefault((name, e, flip * sign[r]), r)
                if u != r:
                    return f"triangles {tris[u]} and {t} overlap in {name}"

    for e in sorted(boundary):
        if len(uses.get(e, ())) != 1:
            return f"boundary edge {e} used {len(uses.get(e, ()))} times (want 1)"
    for (name, points, cycle), winding in zip(sides, windings):
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
            t = tris[uses[edge(a, b)][0]]
            if orient(points[a], points[b], points[apex(t, (a, b))]) != winding:
                return f"triangle {t} outside boundary edge {edge(a, b)} in {name}"
    for e in sorted(uses):
        if e not in boundary and len(uses[e]) != 2:
            return f"interior edge {e} used {len(uses[e])} times (want 2)"
    return None


def verify_joint(pair: PointSetPair, triangles: Iterable[Tri]) -> Optional[str]:
    """Exact check that a triple set is a joint triangulation of the pair:
    ``verify_tiling`` with each side's convex hull as its boundary cycle."""
    try:
        hull_a, hull_b = convex_hull(pair.a), convex_hull(pair.b)
    except DegenerateInput as exc:
        return str(exc)
    return verify_tiling((("A", pair.a.points, hull_a),
                          ("B", pair.b.points, hull_b)), triangles)


def _sat_overlap_mask(d: np.ndarray, arr: np.ndarray, s_arr: np.ndarray,
                      t: Tri, s_t: int) -> np.ndarray:
    """Per-candidate mask: does the candidate's interior meet t's interior
    in the realization whose orientation-sign tensor is d?
    """
    i, j, k = t
    sep = np.zeros(len(arr), dtype=bool)
    for a, b in ((i, j), (j, k), (k, i)):
        row = d[a, b]
        m = (s_t * row[arr[:, 0]] <= 0)
        m &= (s_t * row[arr[:, 1]] <= 0)
        m &= (s_t * row[arr[:, 2]] <= 0)
        sep |= m
    for ca, cb in ((0, 1), (1, 2), (2, 0)):
        va = arr[:, ca]
        vb = arr[:, cb]
        m = np.ones(len(arr), dtype=bool)
        for v in (i, j, k):
            m &= (s_arr * d[va, vb, v] <= 0)
        sep |= m
    return ~sep


def greedy_construct(pair: PointSetPair, legal: TriangleSet,
                     policy: str = LEX, seed: Optional[int] = None) -> JointTriangulation:
    """Build a triangle set greedily from the legal set and verify it.

    Each round commits one surviving triangle (the canonically smallest
    under LEX, or a seeded-uniform pick under SEEDED_RANDOM) and deletes
    every survivor overlapping its interior in either realization; the
    committed triangle overlaps itself and is deleted too.  The result
    is never trusted: ``verified`` reflects the independent verifier,
    and a False verdict is returned, not raised.
    """
    if len(legal) == 0:
        raise ValueError("greedy_construct requires a nonempty legal set")
    if policy not in (LEX, SEEDED_RANDOM):
        raise ValueError(f"unknown policy: {policy!r}")
    arr = np.array(legal.sorted_triangles(), dtype=np.intp)
    da = orient_sign_tensor(pair.a.points)
    db = orient_sign_tensor(pair.b.points)
    sa = da[arr[:, 0], arr[:, 1], arr[:, 2]]
    sb = db[arr[:, 0], arr[:, 1], arr[:, 2]]
    alive = np.ones(len(arr), dtype=bool)
    rng = random.Random(seed) if policy == SEEDED_RANDOM else None
    chosen: list[Tri] = []
    while alive.any():
        live_idx = np.nonzero(alive)[0]
        pick = live_idx[rng.randrange(len(live_idx))] if rng else live_idx[0]
        t: Tri = tuple(int(v) for v in arr[pick])  # type: ignore[assignment]
        chosen.append(t)
        gone = _sat_overlap_mask(da, arr, sa, t, int(sa[pick]))
        gone |= _sat_overlap_mask(db, arr, sb, t, int(sb[pick]))
        alive &= ~gone
    violation = verify_joint(pair, chosen)
    return JointTriangulation(TriangleSet(chosen), violation is None,
                              violation, chosen)
