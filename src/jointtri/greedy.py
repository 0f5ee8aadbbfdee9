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
from typing import Iterable, Optional, Sequence

import numpy as np

from .conditions import PointSetPair
from .geom import (DegenerateInput, Point, cross, hull_edge_set, row_bits,
                   signed_area2, strictly_left)
from .triangles import Edge, Tri, TriangleSet, edge

LEX = "lex"
SEEDED_RANDOM = "random"


@dataclass
class JointTriangulation:
    """A claimed joint triangulation plus its verification verdict."""

    triangles: TriangleSet
    violation: Optional[str] = None
    choices: list[Tri] | None = None

    @property
    def verified(self) -> bool:
        return self.violation is None

    def __len__(self) -> int:
        return len(self.triangles)


Side = tuple[str, Sequence[Point], Sequence[int]]


def verify_tiling(sides: Sequence[Side], triangles: Iterable[Tri]) -> Optional[str]:
    """Exact check that one triple set triangulates every side.

    Each side is ``(name, points, cycle)``: the realization's name, its
    points by label, and its boundary as a label cycle (a convex hull or a
    simple polygon).  All sides share one label set: each lists the same
    number of points, label i naming corresponding points.  Returns None
    when every check passes, else a description of the first failure.
    Checks, in order:

    1. every label in 0..n-1;
    2. each triple nondegenerate on every side: one doubled signed area
       per side and triple, whose sign also directs its edges in 4;
    3. every label 0..n-1 a vertex of some triple;
    4. on every side, with each triangle's edges directed to have it on
       their left: no directed edge twice, and the directed edges whose
       reverse is missing are exactly the cycle, directed to have its
       interior on their left (the half-edge invariant of a planar
       subdivision: every half-edge has a twin except on the boundary).

    The checks are local and linear in size, yet they rule out overlap and
    any point inside a triangle.  In one realization let deg(x) count the
    triangles containing a point x on no edge.  Crossing an edge at a point
    that is no vertex and on no edge of another direction, deg changes by
    the triangles with an edge through it on the side entered minus those
    on the side left; group them by their edge's label pair, however many
    such segments overlap collinearly.  By 4 an edge off the cycle has one
    triangle on each side, so it adds nothing, and a cycle edge has one on
    its interior side only; edges of a simple cycle never overlap.  So deg
    minus the indicator of the cycle's interior is constant, and zero far
    away: the triangles cover the interior once and nothing outside it.

    Suppose a point p lies in a closed triangle s but is not its vertex.
    By 3, p is a vertex of another triangle t, which by 2 has a wedge of
    positive angle at p; near p, the wedge meets the open half-disc on one
    side or the other of any line through p.  If p is inside s, the wedge
    meets s, and deg is 2 there.  Else p is inside an edge of s.  Off the
    cycle, the edge's partner s' beyond it (nondegenerate, so p is not its
    vertex either) and s cover both half-discs near p, so again deg is 2
    in the wedge.  On the cycle, p is inside an edge of a simple cycle, so
    the half-disc beyond lies outside it, where the wedge makes deg 1.
    So every triangle is empty and every point a vertex: the set is a
    triangulation, which forces the triangle count (n - 2 for a polygon,
    2n - h - 2 for n points with h on the hull).

    No check compares the boundaries.  Where 4 passes on a side, the
    loose half-edges, undirected, are the edges of exactly one triangle
    (an edge of two has both half-edges, one of three repeats one), a set
    fixed by the triples, and 4 equates it with that side's cycle.

    Nor is there a duplicate or empty-set check: a repeated triple repeats
    its half-edges, which 4 reports as an overlap, an empty set leaves
    label 0 unused (3), and a triple with a repeated label is flat (2).
    """
    tris = sorted(tuple(sorted(t)) for t in triangles)
    n = len(sides[0][1])
    for t in tris:
        if t[0] < 0 or t[2] >= n:
            return f"triangle {t} has a label outside 0..{n - 1}"

    # [sides][triangles] doubled areas, Python integers: exact at any magnitude
    dets = [[cross(points[i], points[j], points[k]) for i, j, k in tris]
            for _, points, _ in sides]
    for t, areas in zip(tris, zip(*dets)):  # the first triangle, then side, is named
        if 0 in areas:
            return f"triangle {t} degenerate in {sides[areas.index(0)][0]}"
    if unused := set(range(n)).difference(*tris):
        return f"label {min(unused)} is a vertex of no triangle"

    for (name, points, cycle), det in zip(sides, dets):
        half: dict[Edge, int] = {}  # directed edge -> the triangle on its left
        for r, (i, j, k) in enumerate(tris):
            for h in ((i, j), (j, k), (k, i)) if det[r] > 0 else ((j, i), (k, j), (i, k)):
                u = half.setdefault(h, r)
                if u != r:
                    return f"triangles {tris[u]} and {tris[r]} overlap in {name}"
        rim = set(zip(cycle, [*cycle[1:], cycle[0]]))
        if signed_area2([points[i] for i in cycle]) < 0:
            rim = {(b, a) for a, b in rim}
        loose = {(a, b) for a, b in half if (b, a) not in half}
        if loose != rim:
            e = min(edge(*h) for h in loose ^ rim)
            if e in hull_edge_set(cycle):
                return f"boundary edge {e} not covered once from inside in {name}"
            return f"interior edge {e} has a triangle on one side only in {name}"
    return None


def verify_joint(pair: PointSetPair, triangles: Iterable[Tri]) -> Optional[str]:
    """Exact check that a triple set is a joint triangulation of the pair:
    ``verify_tiling`` with each side's convex hull as its boundary cycle."""
    try:
        hull_a, hull_b = pair.a.hull, pair.b.hull
    except DegenerateInput as exc:
        return str(exc)
    return verify_tiling((("A", pair.a.points, hull_a),
                          ("B", pair.b.points, hull_b)), triangles)


def _edge_cells(d: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """[3, m] cells ``a * n + b`` of the edges (c0, c1), (c1, c2), (c2, c0)
    of the label columns ``cols`` ([3, m]), each edge directed so that its
    triangle lies on its left in the realization whose packed orientation
    table is d.  The triangles must be nondegenerate there."""
    n = len(d)
    heads = cols[[1, 2, 0]]
    fwd = cols * n + heads
    ccw = strictly_left(d, *cols)
    return np.where(ccw, fwd, heads * n + cols)


def _survivors(signs: Sequence[np.ndarray], cols: np.ndarray) -> np.ndarray:
    """The [9, m] survivor table of label columns ``cols`` ([3, m]) under
    the two realizations' packed orientation tables ``signs``: the labels,
    A's directed edge cells (``_edge_cells``) and B's, these offset by n * n
    so that they index B's half of a stacked [2, n, n] table."""
    n = len(signs[0])
    cols = np.ascontiguousarray(cols)  # a transposed label array reads slower
    return np.concatenate((cols, _edge_cells(signs[0], cols),
                           _edge_cells(signs[1], cols) + n * n))


# Per realization, the bits of a triangle's three edges in a point's code:
# A's in the low three bits, B's in the next three (bit e for the e-th of
# the six edge rows, ``_EDGE_SHIFTS``).
_SIDE_BITS = np.array([0b111, 0b111000], dtype=np.uint8)[:, None, None]
_EDGE_SHIFTS = np.arange(6, dtype=np.uint8)[:, None, None]

# Survivors a LEX pass resolves at once: the first _HEAD of the sorted
# survivor table (``greedy_construct``).  Over the points-locked pairs of
# seeds 0 and 1 (n 40-100, verify excluded, head sizes interleaved in one
# process on a 2-core VM, Python 3.11, numpy 2.4), heads of 8, 24 and 32
# took the greedy loop 1.15, 0.97 and 0.96 times as long as heads of 16,
# which took about 0.57 of the time of one commit per round.
_HEAD = 32
# Bytes of one survivor block of the union mask: about 14 bytes of
# temporaries per survivor and pick, and 72 bytes per survivor of index
# copies (its labels and cells) once the table is cut into blocks.  Over
# the 111,495 survivors of a hull-locked n = 300 pair, 12 picks peaked at
# 3.1 MB (tracemalloc, 2.2 MB of it their planes) and 17.5 MB in one block.
_MASK_BLOCK_BYTES = 1 << 20


def _edge_rows(signs: Sequence[np.ndarray], cells: np.ndarray) -> np.ndarray:
    """[6 L, words]: the packed rows (a, b) of L triangles' directed edge
    cells (``cells``, [6, L] columns of ``_survivors``), inverted, so that
    bit k is set iff point k is off the edge's open left side: A's three
    edges of each triangle, then B's three."""
    da, db = signs
    n, _, w = da.shape
    return ~np.concatenate((da.reshape(n * n, w).take(cells[:3], axis=0),
                            db.reshape(n * n, w).take(cells[3:] - n * n, axis=0))
                           ).reshape(-1, w)


def _codes(bits: np.ndarray) -> np.ndarray:
    """[L, n] uint8 codes of L triangles from their unpacked ``_edge_rows``
    ([6 L, n]): a point's code has bit e (A) or 3 + e (B) set iff it is off
    the open left side of the triangle's edge e in that realization."""
    return np.bitwise_or.reduce(bits.reshape(6, -1, bits.shape[1]) << _EDGE_SHIFTS,
                                axis=0)


def _head_overlaps(signs: Sequence[np.ndarray], state: np.ndarray,
                   k: int) -> np.ndarray:
    """[k, k] bool: do the interiors of survivors p and q, both among the
    first k of the survivor table ``state``, meet in either realization?

    Two triangles are interior-disjoint iff an edge of either has the
    other's three vertices off its open left side (``_overlap_mask``).  The
    AND of p's codes at q's vertices holds the edges of p that separate q;
    ORed with its transpose, the edges of either that separate the pair.
    Every member's codes are at hand, so no bit planes are needed.
    """
    n = len(signs[0])
    code = _codes(row_bits(_edge_rows(signs, state[3:, :k]), n))
    sep = np.bitwise_and.reduce(code.take(state[:3, :k], axis=1), axis=1)
    sep |= sep.T
    return ((sep & _SIDE_BITS) == 0).any(axis=0)


def _overlap_mask(signs: Sequence[np.ndarray], state: np.ndarray,
                  picks: Sequence[int]) -> np.ndarray:
    """Per-survivor mask: does the survivor's interior meet that of some
    pick in either realization?  ``signs`` holds A's and B's packed
    orientation tables, ``state`` the survivor table (``_survivors``),
    ``picks`` positions in it.

    Two triangles are interior-disjoint iff some edge of either has the
    other's three vertices on its closed far side, that is off its open
    left side: sign != 1 on an edge with its triangle on the left.  A
    pick's edges become one 6-bit code per point (``_codes``), so its edges
    separate a survivor in a realization iff the AND of its codes at the
    survivor's three vertices has a bit of that realization.  For the
    survivor's own edges, each pick and realization gets one n x n plane,
    the OR of the pick's vertices' rows (v, a), unpacked: a survivor's edge
    cell ``a * n + b`` reads whether d[v, a, b] = d[a, b, v] = 1 for some
    picked v, since orientation is cyclic, and that edge separates iff none
    is.  All picks and both realizations share one unpack and, per block of
    survivors (``_MASK_BLOCK_BYTES``), one code gather and one plane gather.
    """
    da, db = signs
    n, _, w = da.shape
    cols, cells = state[:3], state[3:]
    verts = cols.take(picks, axis=1)
    picked = len(picks)
    # [picks, 2 n, words]: the rows of A's plane, then B's, per pick
    planes = np.concatenate((np.bitwise_or.reduce(da.take(verts, axis=0), axis=0),
                             np.bitwise_or.reduce(db.take(verts, axis=0), axis=0)),
                            axis=1)
    bits = row_bits(np.concatenate((_edge_rows(signs, cells.take(picks, axis=1)),
                                    planes.reshape(-1, w))), n)
    code = _codes(bits[:6 * picked])
    planes = bits[6 * picked:].reshape(picked, -1)
    gone = np.empty(cols.shape[1], dtype=bool)
    step = max(1, _MASK_BLOCK_BYTES // (72 + 14 * picked))
    for lo in range(0, len(gone), step):
        b = slice(lo, lo + step)
        # [2, picks, survivors]: no edge of the pick separates, per
        # realization ...
        meet = (np.bitwise_and.reduce(code.take(cols[:, b], axis=1), axis=1)
                & _SIDE_BITS) == 0
        # ... and no edge of the survivor does
        reach = planes.take(cells[:, b], axis=1).reshape(picked, 2, 3, -1)
        meet &= np.bitwise_and.reduce(reach, axis=2).transpose(1, 0, 2) == 1
        gone[b] = meet.reshape(-1, meet.shape[2]).any(axis=0)
    return gone


def greedy_construct(pair: PointSetPair, legal: TriangleSet,
                     policy: str = LEX, seed: Optional[int] = None) -> JointTriangulation:
    """Build a triangle set greedily from the legal set and verify it.

    Each round commits one surviving triangle (the canonically smallest
    under LEX, or a seeded-uniform pick under SEEDED_RANDOM, which needs an
    integer ``seed``) and deletes it and every survivor whose interior
    meets it in either realization.  The survivors start as the legal
    set's sorted rows (``legal.array()``); their labels and both
    realizations' edge cells are compacted together after each pass, in
    sorted order.

    LEX runs its rounds in passes over a head, the first ``_HEAD``
    survivors.  A pass walks the head in order and commits a member iff it
    meets no earlier commit of the pass (``_head_overlaps``), then deletes
    the commits and every survivor meeting one of them with one union mask
    (``_overlap_mask``).  The choices are those of one round at a time:
    after some commits, the next round's pick is the smallest survivor
    meeting none of them.  While that survivor lies in the head, the walk
    takes it.  Once the head is spent, every member was committed or meets
    a commit, so the next pick lies past the head, among exactly the
    survivors the union mask leaves.  A pass whose head held every
    survivor ends the loop without the mask, since then every survivor was
    committed or meets a commit: this is the last pass of every LEX run,
    and the only one when |legal| <= ``_HEAD``.  SEEDED_RANDOM draws from
    the survivor count after each deletion, so each of its passes holds
    one pick.  A pass deletes its commits, at least one, so the loop ends
    after at most |legal| passes whatever the overlap readers report.  The
    result is never trusted: ``verified`` reflects the independent
    verifier, and a False verdict is returned, not raised.
    """
    if len(legal) == 0:
        raise ValueError("greedy_construct requires a nonempty legal set")
    if policy not in (LEX, SEEDED_RANDOM):
        raise ValueError(f"unknown policy: {policy!r}")
    if policy == SEEDED_RANDOM and seed is None:
        raise ValueError("the seeded-random policy requires an integer seed")
    signs = (pair.a.signs, pair.b.signs)
    # Labels, then A's and B's edge cells, per survivor: one compaction.
    state = _survivors(signs, legal.array().T)
    rng = random.Random(seed) if policy == SEEDED_RANDOM else None
    chosen: list[Tri] = []
    while state.shape[1]:
        if rng:
            picks = [rng.randrange(state.shape[1])]
        else:
            head = min(_HEAD, state.shape[1])
            picks = []
            for p, row in enumerate(_head_overlaps(signs, state, head).tolist()):
                if not any(map(row.__getitem__, picks)):
                    picks.append(p)
        chosen.extend(map(tuple, state[:3].take(picks, axis=1).T.tolist()))
        if not rng and state.shape[1] <= _HEAD:
            break  # the head held every survivor: nothing is left
        gone = _overlap_mask(signs, state, picks)
        gone[picks] = True
        state = state.compress(~gone, axis=1)
    violation = verify_joint(pair, chosen)
    # the rows of legal.array() are canonical triples
    return JointTriangulation(TriangleSet._of_canonical(set(chosen)), violation, chosen)
