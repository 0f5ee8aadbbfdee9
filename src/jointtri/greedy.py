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


# Per realization, the bits of a triangle's three edges in a point's code:
# A's in the low three bits, B's in the next three (bit e for the e-th of
# the six edge rows, ``_EDGE_SHIFTS``).
_SIDE_BITS = np.array([0b111, 0b111000], dtype=np.uint8)[:, None, None]
_EDGE_SHIFTS = np.arange(6, dtype=np.uint8)[:, None, None]

# Survivors a LEX pass resolves at once: the first _HEAD of the sorted
# survivor table (``greedy_construct``).  Over the points-locked pairs of
# seeds 0 and 1, rounds 0-3 (n 40-100, verify stubbed, interleaved in one
# process on a 2-core VM, Python 3.11, numpy 2.4), heads of 32, 64, 96, 128
# and 192 took the LEX loop 0.49, 0.42, 0.38, 0.37 and 0.36 times as long
# as the union-mask greedy with its head of 32; on hull_locked_pair(300,
# 1000, 3, 0), heads of 64 to 192 took 0.30, 0.28, 0.24 and 0.23 times.
_HEAD = 128
# Bytes of one [edges, n, words] array of ``_crossed``'s blocks of
# committed edges; a block holds a few such arrays, so the build's
# temporaries stay near a MB at any n.
_CROSS_BLOCK_BYTES = 1 << 17


def _codes(bits: np.ndarray) -> np.ndarray:
    """[L, n] uint8 codes of L triangles from the unpacked, inverted rows of
    their directed edges ([6 L, n], A's three edges of each triangle, then
    B's three): a point's code has bit e (A) or 3 + e (B) set iff it is off
    the open left side of the triangle's edge e in that realization."""
    return np.bitwise_or.reduce(bits.reshape(6, -1, bits.shape[1]) << _EDGE_SHIFTS,
                                axis=0)


def _head_overlaps(signs: Sequence[np.ndarray], cols: np.ndarray) -> np.ndarray:
    """[k, k] bool: do the interiors of triangles p and q of the label
    columns ``cols`` ([3, k], nondegenerate in both realizations) meet in
    either realization?  ``signs`` holds A's and B's packed orientation
    tables.

    Two triangles are interior-disjoint iff an edge of either has the
    other's three vertices off its open left side, the edge directed to
    have its triangle on its left (separating lines).  Each member's three
    edge rows per realization, inverted, become one 6-bit code per point
    (``_codes``).  The AND of p's codes at q's vertices holds the edges of
    p that separate q; ORed with its transpose, the edges of either that
    separate the pair.  The codes are gathered by point, a row of every
    member's codes per vertex.
    """
    n, _, w = signs[0].shape
    rows = np.concatenate([d.reshape(n * n, w).take(_edge_cells(d, cols), axis=0)
                           for d in signs])
    # [n, k]: the codes of each point, one column per member
    code = np.ascontiguousarray(_codes(row_bits(~rows.reshape(-1, w), n)).T)
    sep = code.take(cols[0], axis=0)
    sep &= code.take(cols[1], axis=0)
    sep &= code.take(cols[2], axis=0)
    sep |= sep.T
    return ((sep & _SIDE_BITS) == 0).any(axis=0)


def _walk(over: np.ndarray) -> list[int]:
    """The members a LEX pass commits, in head order: each that meets no
    earlier commit by the [k, k] overlap matrix ``over``, whose rows are
    read as bit masks of the members they meet, so the walk steps from
    one commit to the next."""
    width = -(-len(over) // 8)
    rows = np.packbits(over, axis=1, bitorder="little").tobytes()
    picks: list[int] = []
    free = (1 << len(over)) - 1  # members after the last commit meeting none
    while free:
        p = (free & -free).bit_length() - 1
        picks.append(p)
        free &= ~int.from_bytes(rows[p * width:(p + 1) * width], "little") & -(2 << p)
    return picks


def _edge_ids(cols: np.ndarray, n: int) -> np.ndarray:
    """[3, m] canonical edge ids ``i * n + j``, ``j * n + k`` and
    ``i * n + k`` of the sorted label columns ``cols`` ([3, m], i < j < k)."""
    ids = np.empty((3, cols.shape[1]), dtype=np.intp)
    np.multiply(cols[:2], n, out=ids[:2])
    ids[2] = ids[0]
    ids[:2] += cols[1:]
    ids[2] += cols[2]
    return ids


def _crossed(signs: Sequence[np.ndarray], edges: np.ndarray) -> np.ndarray:
    """[n, n] uint8 table, 1 at (p, q) iff the segment p-q properly crosses
    one of the label-pair ``edges`` (ids ``r * n + s``) in either
    realization: p and q strictly on opposite sides of the line r-s, and r
    and s strictly on opposite sides of the line p-q.  ``signs`` holds A's
    and B's packed orientation tables.

    When p is strictly left of r -> s, that is p in row (r, s), a proper
    crossing puts q in row (s, r), r strictly right of p -> q and s strictly
    left: q in row (p, r) and in row (s, p), by cyclic orientation.  So the
    row of such a p is row (s, r) & row (p, r) & row (s, p), and every other
    row is 0.  These rows give each crossing pair once, with p on the left,
    and the table ORed with its transpose gives it both ways.  Edges go in
    blocks of ``_CROSS_BLOCK_BYTES`` of packed rows, the rows ORed over each
    block before one unpack of the whole table.
    """
    n, _, w = signs[0].shape
    r, s = np.divmod(edges, n)
    out = np.zeros((n, w), dtype=np.uint64)
    step = max(1, _CROSS_BLOCK_BYTES // (8 * n * w))
    for lo in range(0, len(edges), step):
        eb, rb, sb = edges[lo:lo + step], r[lo:lo + step], s[lo:lo + step]
        # [edges, n] cells, per p: (p, r), and (s, r), the latter replaced
        # by (0, 0), an empty row, where p is not in row (r, s)
        into_r = np.arange(0, n * n, n) + rb[:, None]
        right = (sb * n + rb)[:, None]
        for d in signs:
            flat = d.reshape(n * n, w)
            on_left = row_bits(flat.take(eb, axis=0), n).view(bool)
            # [edges, n, words], gathered whole: a row broadcast along
            # another axis would make numpy step through it word by word
            rows = flat.take(np.where(on_left, right, 0), axis=0)
            rows &= flat.take(into_r, axis=0)
            rows &= d.take(sb, axis=0)
            out |= np.bitwise_or.reduce(rows, axis=0)
    table = row_bits(out, n)
    table |= table.T
    return table


def greedy_construct(pair: PointSetPair, legal: TriangleSet,
                     policy: str = LEX, seed: Optional[int] = None) -> JointTriangulation:
    """Build a triangle set greedily from the legal set and verify it.

    Each round commits one surviving triangle (the canonically smallest
    under LEX, or a seeded-uniform pick under SEEDED_RANDOM, which needs an
    integer ``seed``) and deletes it and every survivor whose interior
    meets it in either realization.  The survivors start as the legal
    set's sorted rows (``legal.array()``).

    Precondition: ``legal`` is a subset of the paired empty triangles, as
    every legal set is.  The deletions rest on the lemma below, which needs
    emptiness; on other triples the choices may differ from those of the
    overlap rule above, and the verifier still judges the result.

    Lemma.  Let s and t be distinct nondegenerate triangles, each empty in
    a realization: no point of the set lies in its closed triangle but its
    vertices.  Their interiors meet there iff an edge of one properly
    crosses an edge of the other (the segments meet in one point inside
    both).  If: near the crossing point, s is the closed half-disc on its
    side of its edge's line and t the one on its side of its own, and two
    distinct lines through a point leave the half-discs an open quadrant in
    common.  Only if: a vertex of t in s would be a vertex of s, so t in s
    would make t = s, and likewise s is not in t.  So the interior of s,
    which meets that of t, also meets the outside of t, and being connected
    it meets t's boundary, at y on an edge f = ab of t.  If a and b were
    both vertices of s, f would be an edge of s and miss its interior; so
    one, say a, is not, and lies outside s.  Going from y to a, f leaves s
    at a point z strictly inside f.  No vertex of s is inside f, for it
    would be a point of the set in t other than a, b and, t being
    nondegenerate, t's third vertex.  So z is inside an edge e of s; f is
    not on e's line, since it meets the interior of s; so e and f cross
    properly at z.

    LEX runs its rounds in passes over a head, the first ``_HEAD``
    survivors.  A pass walks the head in order and commits a member iff it
    meets no earlier commit of the pass (``_head_overlaps``, ``_walk``).
    The choices are those of one round at a time: after some commits, the
    next round's pick is the smallest survivor meeting none of them.  While
    that survivor lies in the head, the walk takes it.  Once the head is
    spent, every member was committed or meets a commit, so the next pick
    lies past the head, among exactly the survivors the deletion leaves.
    A pass whose head held every survivor ends the loop, since then every
    survivor was committed or meets a commit: this is the last pass of
    every LEX run, and the only one when |legal| <= ``_HEAD``, which then
    builds no edge ids or table.  SEEDED_RANDOM draws from the survivor
    count after each deletion, so each of its passes holds one pick.

    Past a one-pass run the survivors are kept as their canonical edge ids
    (``_edge_ids``), compacted in sorted order after each pass, and a pass
    deletes its commits and every survivor with an edge in the crossed-edge
    table of its new committed edges (``_crossed``), those of its commits
    not committed before.  By the lemma, in both realizations, a survivor
    meets a commit iff one of its edges crosses one of the commit's; every
    survivor that crosses an edge committed in an earlier pass was deleted
    then.  So a pass costs one table, O(edges * n * words), and three
    gathers per survivor, whatever its pick count.  A pass deletes its
    commits, at least one, so the loop ends after at most |legal| passes
    whatever the overlap readers report.  The result is never trusted:
    ``verified`` reflects the independent verifier, and a False verdict is
    returned, not raised.
    """
    if len(legal) == 0:
        raise ValueError("greedy_construct requires a nonempty legal set")
    if policy not in (LEX, SEEDED_RANDOM):
        raise ValueError(f"unknown policy: {policy!r}")
    if policy == SEEDED_RANDOM and seed is None:
        raise ValueError("the seeded-random policy requires an integer seed")
    signs = (pair.a.signs, pair.b.signs)
    n = len(pair.a)
    cols = legal.array().T
    rng = random.Random(seed) if policy == SEEDED_RANDOM else None
    if not rng and cols.shape[1] <= _HEAD:
        picks = _walk(_head_overlaps(signs, cols))
        chosen = list(map(tuple, cols.take(picks, axis=1).T.tolist()))
    else:
        chosen = []
        state = _edge_ids(cols, n)
        committed: set[int] = set()
        while True:
            m = state.shape[1]
            if rng:
                picks = [rng.randrange(m)]
            else:
                q, r = np.divmod(state[:2, :_HEAD], n)
                picks = _walk(_head_overlaps(signs, np.concatenate((q[:1], r))))
            ids = state.take(picks, axis=1).T.tolist()
            chosen.extend((a // n, a % n, b % n) for a, b, _ in ids)
            if m <= (1 if rng else _HEAD):
                break  # every survivor was committed or meets a commit
            new = {e for t in ids for e in t} - committed
            committed |= new
            if new:
                gone = _crossed(signs, np.fromiter(new, np.intp, len(new))
                                ).reshape(-1).take(state).any(axis=0)
            else:
                gone = np.zeros(m, dtype=bool)
            gone[picks] = True
            state = state.compress(~gone, axis=1)
    violation = verify_joint(pair, chosen)
    # the rows of legal.array() are canonical triples
    return JointTriangulation(TriangleSet._of_canonical(set(chosen)), violation, chosen)
