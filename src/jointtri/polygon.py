"""Joint triangulation of two simple polygons.

Pipeline: per-polygon visibility graphs, their label-wise intersection,
then an interval dynamic program over boundary indices.  Each polygon
converts its vertices once, to one int64 [n, 2] array
(``Polygon.coords``), and holds one exact [n, n] table of the side of
every vertex against every edge's line (``Polygon.sides``), built from
that array.  One kernel, ``_line_sides``, gives every line side: the
table's rows and the dense test's chord lines.  One segment test,
``_boundary_hits``, says whether segments cross an edge properly or pass
through a vertex.  It has three callers: construction and the polygon
generator's 2-opt (``campaign._untangle``) run it on a cycle's edges, whose
line sides are the table's rows (``sides_and_first_meet``), and visibility
runs it on chords.  Two [n, n] masks (does a chord leave both ends into
the interior angle, does it pass through a third vertex) pick the chords
worth a boundary crossing test, and the masks with that test decide
every chord.  Small polygons run the segment test on every chord at
once.  In a larger strictly convex one (every vertex turns strictly
toward the interior) every chord is a diagonal, and the cone mask alone
decides.  Other larger ones sort the vertices around each vertex in the
exact angular order of ``geom.angle_order`` and test a chord u-w only
against the edges whose angular span at u holds w's direction.  The
chords a polygon is asked about, its diagonals (``Polygon.diagonals``),
its visibility graph and the shared graph are each one read-only [n, n]
bool table, i < j; B decides exactly the cells of A's diagonals.  A
cell (i, q) of the DP records whether the chain i..q closed by the chord
{i, q} admits a joint triangulation; the table keeps each column's cells
as the bits of one integer, filled as the rows reachable from the
column's first cell through shared chords, and the backtracking that
extracts the triangle set splits each true cell (i, q) at the least k
above i in column q whose own column holds i, so no choice is stored per
cell.
"""

from __future__ import annotations

from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .geom import (InputError, Point, SizeGuard, angle_order, check_coords,
                   check_distinct, signed_area2)
from .greedy import JointTriangulation, verify_tiling
from .triangles import Edge, Tri, TriangleSet, tri


class GrazingDiagonal(InputError):
    """A candidate diagonal passes through a third vertex, making its
    visibility status ambiguous; such instances are rejected outright."""


class EdgeTable(Set):
    """A read-only set of label pairs (i, j), i < j, held as one [n, n]
    bool table: ``table[i, j]`` iff (i, j) is in the set; the diagonal and
    the lower triangle are False.  ``in`` reads one cell after a bounds
    check (numpy would wrap a negative index onto another cell) and is
    False for any key that is not such a pair; iteration is lexicographic,
    in Python ints; the set operators return frozensets."""

    __slots__ = ("table", "_n", "_size")

    def __init__(self, table: np.ndarray) -> None:
        table.flags.writeable = False
        self.table = table
        self._n = len(table)
        self._size = int(np.count_nonzero(table))

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, e: object) -> bool:
        try:
            i, j = e
            return 0 <= i < j < self._n and self.table.item(i, j)
        except (TypeError, ValueError):
            return False

    def __iter__(self) -> Iterator[Edge]:
        us, vs = np.divmod(np.flatnonzero(self.table), self._n)
        return zip(us.tolist(), vs.tolist())


# Cells of ``Polygon.sides`` per block of construction's segment test,
# which runs ``_boundary_hits`` on the edges, so it and visibility stay
# within a few MB at any n.  ``_line_sides`` holds int64 temporaries, so
# its blocks, the table's rows at construction and the dense test's
# chords, take a quarter of this.  The span test's blocks take an eighth:
# its flat index arrays are int64 too, and at a quarter they took 300 to
# 360 minor page faults per polygon pair of n 150-300, at an eighth 33 to
# 36, in the same time.  Visibility tests all chords densely only while
# they fit a quarter (n <= 41 for a whole polygon), about where the span
# test becomes the faster one.
_HIT_BLOCK_CELLS = 1 << 17

# Largest polygon constructed, and so the largest whose visibility is
# decided.  A notched parabola pair (the vertices (i, i**2), the middle one
# raised into the interior, so one is reflex; B mirrored) through
# visibility, the DP and the verifier peaks near 14 * n**2 bytes above the
# interpreter (31 MB at n = 1500, 83 MB at n = 2500, fresh ru_maxrss), set
# by visibility's angle tables and bool masks; a strictly convex pair
# builds no angle tables and peaks lower (18 and 49 MB), and the DP's bit
# columns and the verifier's per-triangle arrays stay below either.  So a pair
# stays well under 1 GB, and the int16 angle tables exact, up to here.
MAX_POLYGON_VERTICES = 2500


def check_polygon_size(n: int) -> None:
    """Raise SizeGuard above MAX_POLYGON_VERTICES vertices."""
    if n > MAX_POLYGON_VERTICES:
        raise SizeGuard(f"polygon visibility is limited to n <= "
                        f"{MAX_POLYGON_VERTICES}, got {n}")


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given as its boundary vertex cycle.

    Construction validates simplicity exactly: non-adjacent edges must
    not touch at all, adjacent edges must share only their common
    endpoint.  The given vertex order is preserved (it defines the
    labels); ``ccw_sign`` says which way it winds (+1 counterclockwise,
    -1 clockwise).  Construction builds two read-only arrays once.
    ``coords`` is the vertices as one int64 [n, 2] array: the side table,
    the simplicity check and visibility read the vertices from it alone.
    ``sides`` is an [n, n] int8 table, ``sides[k, v]`` the sign of vertex
    v against the line of edge k -> k + 1, positive on its left: each row
    is ``_line_sides`` of its edge, the table built in blocks of
    ``_HIT_BLOCK_CELLS // 4`` cells.  Construction's segment test
    (``sides_and_first_meet``) reads its rows as the edges' own line sides
    and its columns as their ends' sides; the cone test and both crossing
    tests read it too.
    Above MAX_POLYGON_VERTICES vertices construction raises SizeGuard
    after its O(n) checks, before any [n, n] table is built.
    """

    vertices: tuple[Point, ...]
    ccw_sign: int = field(init=False, repr=False, compare=False)
    coords: np.ndarray = field(init=False, repr=False, compare=False)
    sides: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n < 3:
            raise InputError("a polygon needs at least 3 vertices")
        check_coords(self.vertices)
        check_distinct(self.vertices, "polygon vertices must be pairwise distinct")
        if (area := signed_area2(self.vertices)) == 0:
            raise InputError("polygon has zero area")
        check_polygon_size(n)
        object.__setattr__(self, "ccw_sign", 1 if area > 0 else -1)
        coords = np.fromiter(chain.from_iterable(self.vertices), np.int64).reshape(n, 2)
        side, meet = sides_and_first_meet(coords)
        if meet is not None:
            i, j = meet
            if j == i + 1 or (i, j) == (0, n - 1):
                w = self.vertices[j if j == i + 1 else 0]
                raise InputError(
                    f"boundary is not simple: edges at vertex overlap near {w}")
            raise InputError(f"boundary is not simple: edges {i} and {j} intersect")
        coords.flags.writeable = side.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "sides", side)

    @classmethod
    def from_coords(cls, coords) -> "Polygon":
        return cls(tuple(Point(int(x), int(y)) for x, y in coords))

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, label: int) -> Point:
        return self.vertices[label]

    @cached_property
    def diagonals(self) -> np.ndarray:
        """Read-only [n, n] bool table of the polygon's diagonals:
        ``diagonals[i, j]``, i < j, iff (i, j) is one; the diagonal and the
        lower triangle are False.  Decided once and read by
        ``visibility_graph`` and ``ivg``.  Raises GrazingDiagonal on the
        first grazing chord in row-major order, and then caches nothing."""
        n = len(self)
        i = np.arange(n)
        chords = np.less_equal.outer(i + 2, i)  # no [n, n] int temporary
        chords[0, n - 1] = False
        seen = _diagonal_mask(self, chords)
        seen.flags.writeable = False
        return seen


@dataclass(frozen=True)
class PolygonPair:
    """Two simple polygons of equal size; vertex i of a corresponds to
    vertex i of b."""

    a: Polygon
    b: Polygon

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise InputError("paired polygons must have equal vertex counts")

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def shared(self) -> EdgeTable:
        """The pair's shared visibility edges (``ivg``), computed once and
        read by the interval DP and the polygon oracle.
        Raises GrazingDiagonal as ``ivg`` does, and then caches nothing."""
        return ivg(self)


def _cone(side: np.ndarray, ccw_sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact [n, n] mask over the ordered vertex pairs (u, v) of a cycle
    with edge-side table ``side`` (``Polygon.sides``) that winds as
    ``ccw_sign`` says: the segment leaves both of its ends strictly inside
    the interior angle there (O'Rourke's InCone, at u and at v).  Also
    returns each vertex u's turn, the side of u + 1 against the edge
    u - 1 -> u.

    Relative to the winding the interior lies left of every edge.  A
    convex u (interior angle at most pi: u + 1 is not right of the edge
    u - 1 -> u) needs v strictly left of both the edge into u and the edge
    out of u, a reflex u needs either.  Adjacent vertices never qualify.
    The edge into u is row u - 1 of the table, read for every u by one
    gather through the "previous" index (u - 1 mod n).
    """
    prev = np.arange(-1, len(side) - 1)  # u - 1, mod n, as an index
    out = side == ccw_sign
    into = out.take(prev, axis=0)
    turn = side[prev, prev + (2 - len(side))]
    cone = np.where((turn != -ccw_sign)[:, None], into & out, into | out)
    return cone & cone.T, turn


def _span_crossings(side: np.ndarray, order: np.ndarray, first: np.ndarray,
                    last: np.ndarray, tested: np.ndarray) -> np.ndarray:
    """[n, n] mask: ``blocked[u, w]`` iff the segment u-w crosses an edge
    of the cycle with edge-side table ``side`` (``Polygon.sides``) at a
    point interior to both, decided on the cells ``tested`` marks and
    False elsewhere.  ``order``, ``first`` and ``last`` are
    ``angle_order``'s tables.

    Span lemma: seen from a vertex u off its line, an edge a -> b covers
    the directions strictly between a's and b's, a cyclic run of
    ``order[u]``; from u on its line (incident edges among them) it covers
    none.  The segment u-w can cross the edge properly only if w's
    direction is in that run, and then it does iff u and w lie strictly on
    opposite sides of the edge's line.  So row u lists its tested vertices
    in angular order, twice over so no run wraps, a prefix count per
    position says which of them fall in each edge's run, and only those
    (vertex, edge, chord) triples are tested.  Rows, and then triples, go
    in blocks of about an eighth of ``_HIT_BLOCK_CELLS`` cells, and cells
    of the [n, n] tables are read by ``take`` on their flat views, each
    row's offset added to its column indices.
    """
    n = len(side)
    flat_side = side.reshape(-1)
    side_rows = np.ascontiguousarray(side.T)  # row u: u's side of every edge
    flat_tested, flat_first, flat_last = (a.reshape(-1) for a in (tested, first, last))
    blocked = np.zeros((n, n), dtype=bool)
    flat_blocked = blocked.reshape(-1)
    k = np.arange(n, dtype=np.int16)
    k1 = (k + 1) % n
    rows = np.flatnonzero(tested.any(axis=1))
    cells = max(1, _HIT_BLOCK_CELLS // 8)
    step = max(1, cells // n)
    for lo in range(0, len(rows), step):
        u = rows[lo:lo + step]
        at = u[:, None] * n  # row u's offset into the [n, n] tables
        around = order[u]
        listed = flat_tested.take(around + at)
        # count[r, p]: u's tested vertices before position p.  Column n
        # is there for the incident edges, whose ends include u itself at
        # position n - 1; their runs are zeroed below.
        count = np.zeros((len(u), n + 1), dtype=np.int32)
        np.cumsum(listed, axis=1, out=count[:, 1:])
        total = count[:, -1:]
        flat_count = count.reshape(-1)
        at_count = np.arange(0, count.size, n + 1)[:, None]
        # each row's tested vertices in angular order, twice, row after row
        targets = np.tile(around, 2)[np.tile(listed, 2)]
        base = 2 * (np.cumsum(total) - total[:, 0])
        # Edge k's run starts past its clockwise end's group and stops
        # before its counterclockwise end's; starting after it stops, it
        # wraps round through the row's end.
        s = side_rows[u]
        ccw = s > 0
        start = flat_last.take(np.where(ccw, k, k1) + at) + 1
        stop = flat_first.take(np.where(ccw, k1, k) + at)
        begin = flat_count.take(start + at_count)
        live = s != 0
        size = np.zeros(s.shape, dtype=np.int32)
        np.subtract(flat_count.take(stop + at_count), begin, out=size, where=live)
        np.add(size, total, out=size, where=live & (start > stop))
        cell = np.flatnonzero(size)
        r, e = np.divmod(cell, n)
        size = size.reshape(-1).take(cell)
        ends = np.cumsum(size)
        # Triple t, counted over the block's pairs, reads its vertex w at
        # targets[head + t]; it crosses iff side[e, w] is opposite u's.
        head = base[r] + begin.reshape(-1).take(cell) - (ends - size)
        edge = e * n
        away = -s.reshape(-1).take(cell)
        owner = at[:, 0].take(r)
        i = 0
        while i < len(ends):
            j = max(i + 1, int(np.searchsorted(ends, ends[i] - size[i] + cells,
                                               side="right")))
            pick = np.repeat(np.arange(i, j), size[i:j])
            w = targets[head[pick] + np.arange(ends[i] - size[i], ends[j - 1])]
            hit = flat_side[edge[pick] + w] == away[pick]
            flat_blocked[owner[pick[hit]] + w[hit]] = True
            i = j
    return blocked


def _line_sides(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """[len(us), n] int64 table: the sign of every vertex of ``coords``
    (``Polygon.coords``) against the line us[r] -> vs[r], positive on its
    left.  The one place the polygon code computes a line side: both
    ``Polygon.sides`` and the dense crossing test read their signs from it.
    Int64 is exact for coordinates within COORD_LIMIT; callers pass at most
    ``_HIT_BLOCK_CELLS // (4 * n)`` lines, for the int64 products."""
    pu = coords.take(us, axis=0)
    # (v - u) cross (w - u): (dx, -dy) against (y, x) of w, less of u
    d = coords.take(vs, axis=0) - pu
    d[:, 1] *= -1
    cross = d @ coords[:, ::-1].T
    cross -= np.vecdot(d, pu[:, ::-1])[:, None]
    return np.sign(cross, out=cross)


def _boundary_hits(coords: np.ndarray, side_rows: np.ndarray, sign: np.ndarray,
                   us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact tests of the segments us[r] -> vs[r], between vertices of the
    cycle ``coords`` (``Polygon.coords``), against its boundary: the one
    segment test, run by construction on the edges and by the dense
    visibility path on chords.  ``side_rows`` is ``Polygon.sides``
    transposed (row v: v's side of every edge's line), and ``sign`` the
    [len(us), n] table of every vertex's side of each segment's line
    (``_line_sides``; an edge's is its row of ``Polygon.sides``).  Returns
    two [len(us), n] masks: ``proper[r, k]`` iff the segment and edge
    k -> k+1 cross at a point interior to both, and ``inside[r, w]`` iff
    vertex w lies strictly inside the segment.

    The segment crosses edge k properly iff the edge's ends lie strictly
    on opposite sides of the segment's line, columns k and k + 1 of
    ``sign``, and the segment's ends strictly on opposite sides of the
    edge's, rows us[r] and vs[r] of ``side_rows``.  A vertex on the
    segment's line lies strictly inside it iff it sees its ends in
    opposite directions (a negative dot product); that test runs only if
    some line holds a vertex besides the segment's own ends.
    """
    # column k + 1 for every k, as two slices: a gather through the "next"
    # index reads the table a byte at a time, about ten times slower at n = 300
    far = np.concatenate((sign[:, 1:], sign[:, :1]), axis=1)
    proper = sign * far < 0
    proper &= side_rows.take(us, axis=0) * side_rows.take(vs, axis=0) < 0
    inside = np.zeros(proper.shape, dtype=bool)
    on_line = sign == 0
    if np.count_nonzero(on_line) > 2 * len(us):
        r, w = np.nonzero(on_line)
        pw = coords[w]
        inside[r, w] = np.add.reduce((pw - coords[us[r]]) * (pw - coords[vs[r]]), axis=1) < 0
    return proper, inside


def sides_and_first_meet(coords) -> tuple[np.ndarray, Optional[Edge]]:
    """``Polygon.sides`` of the cycle ``coords`` of distinct vertices (an
    int64 [n, 2] array, or a sequence of integer points), and the first
    pair of its edges (i, j), i < j, in row-major order, that meet but at a
    shared endpoint, None if the cycle is simple: the segment test
    ``_boundary_hits`` run on the edges, whose lines are the table's rows,
    in row blocks."""
    coords = np.asarray(coords, dtype=np.int64)
    n = len(coords)
    edges = np.arange(n)
    nxt = np.arange(1 - n, 1)  # k + 1, mod n, as an index
    side = np.empty((n, n), dtype=np.int8)
    step = max(1, _HIT_BLOCK_CELLS // (4 * n))
    for lo in range(0, n, step):  # edge k's row: every vertex's side of its line
        side[lo:lo + step] = _line_sides(coords, edges[lo:lo + step], nxt[lo:lo + step])
    side_rows = np.ascontiguousarray(side.T)
    first = n * n
    step = max(1, _HIT_BLOCK_CELLS // n)
    for lo in range(0, n, step):
        b = slice(lo, lo + step)
        hits, inside = _boundary_hits(coords, side_rows, side[b], edges[b], nxt[b])
        if np.count_nonzero(inside):  # vertex c or c + 1 inside edge r
            hits |= inside | inside.take(nxt, axis=1)
        if np.count_nonzero(hits):
            r, c = np.divmod(np.flatnonzero(hits), n)
            r += lo
            first = min(first, int((np.minimum(r, c) * n + np.maximum(r, c)).min()))
    return side, (divmod(first, n) if first < n * n else None)


def _diagonal_mask(poly: Polygon, chords: np.ndarray) -> np.ndarray:
    """Which of ``chords``, an [n, n] bool table of non-adjacent vertex
    pairs (i, j), i < j, of the polygon, are diagonals of it: an [n, n]
    bool table, False off ``chords``.

    A chord through a third vertex (``graze``) is never a diagonal; it is
    ambiguous, its visibility hinging on the grazed vertex, unless it also
    crosses an edge properly.  Any other chord that crosses no edge
    properly meets the boundary only at its ends, so its open segment lies
    wholly inside or wholly outside, and the ``cone`` test at its ends
    tells which.  So crossings matter only on chords that pass the cone
    test or graze.  While all the chords fit ``_HIT_BLOCK_CELLS // 4``
    cells, they are listed and one ``_boundary_hits`` call tests them all
    against every edge and vertex; above that, ``angle_order`` gives the
    graze mask and ``_span_crossings`` tests only those chords, each
    against the edges that cover its direction.  GrazingDiagonal names the
    first ambiguous chord in row-major order: rather than guess, such
    instances are refused.

    A strictly convex polygon, every vertex turning strictly toward the
    interior, skips the span path and builds no angle table: every chord
    is a diagonal, so ``cone`` is the answer.  A simple polygon whose
    every interior angle is below pi is convex, and each of its vertices
    is an extreme point, so no vertex lies on a chord (nothing grazes) and
    every chord meets the boundary only at its ends (nothing crosses).  A
    vertex of angle pi fails the strict test, so the span path still
    finds the chords that graze it.
    """
    p = poly.coords
    n = len(p)
    cone, turn = _cone(poly.sides, poly.ccw_sign)
    cone &= chords
    if np.count_nonzero(chords) * n <= _HIT_BLOCK_CELLS // 4:
        us, vs = np.nonzero(chords)
        proper, inside = _boundary_hits(p, poly.sides.T, _line_sides(p, us, vs), us, vs)
        graze, blocked = np.zeros((2, n, n), dtype=bool)
        graze[us, vs], blocked[us, vs] = inside.any(axis=1), proper.any(axis=1)
    elif (turn == poly.ccw_sign).all():  # strictly convex
        return cone
    else:
        order, first, last, graze = angle_order(*p.T)
        graze &= chords
        blocked = _span_crossings(poly.sides, order, first, last, cone | graze)
    ambiguous = graze & ~blocked
    if np.count_nonzero(ambiguous):
        chord = divmod(int(np.argmax(ambiguous)), n)
        raise GrazingDiagonal(f"diagonal candidate {chord} passes through another vertex")
    return cone & ~blocked  # graze lies within blocked here


def _edge_table(diagonals: np.ndarray) -> EdgeTable:
    """The boundary edges of the cycle plus ``diagonals``, an [n, n] bool
    table, i < j, as one table."""
    n = len(diagonals)
    table = diagonals.copy()
    i = np.arange(n - 1)
    table[i, i + 1] = True
    table[0, n - 1] = True
    return EdgeTable(table)


def visibility_graph(poly: Polygon) -> EdgeTable:
    """Boundary edges plus every diagonal of the polygon (``Polygon.diagonals``),
    deciding every non-adjacent pair (i, j), i < j, in lexicographic order;
    a GrazingDiagonal names the first grazing chord in that order."""
    return _edge_table(poly.diagonals)


def ivg(pair: PolygonPair) -> EdgeTable:
    """Label-pair intersection of the two visibility graphs; always
    contains all boundary edges.

    A's full graph comes first, so a grazing chord of A raises exactly as
    in ``visibility_graph``.  B then decides only A's diagonals, in
    lexicographic order: a chord A does not see cannot be shared whatever
    B's verdict on it, so B raises GrazingDiagonal only on a chord that is
    a diagonal of A.
    """
    # A's full graph, which raises on a grazing A and is the call the
    # benchmark's tracer reads |E_A| from; its diagonals stay cached on A.
    visibility_graph(pair.a)
    return _edge_table(_diagonal_mask(pair.b, pair.a.diagonals))


def _fill_table(table: np.ndarray) -> list[int]:
    """The interval table over the shared edges ``table`` (an [n, n] bool
    table, i < j), as bit columns: bit i of ``col[q]`` says whether cell
    (i, q) is true.

    Cell (i, q), i + 1 < q, is true iff {i, q} is shared and some k in
    (i, q) has both cells (i, k) and (k, q) true.  Cells (i, i + 1) are
    true.  So column q is the set of rows reachable from q - 1 through
    shared chords: a true cell (k, q) makes every shared row i of column
    k's cells true in column q, and every true cell is reached so, since
    its witness k lies nearer q.  Columns go in ascending order, each from
    {q - 1}; each step ORs the columns of the rows it just added, keeps
    the shared rows not yet in the column, and stops once none is new or
    no shared row is missing.  A convex pair's column q - 1 already holds
    every row below it, so each of its columns takes one step.

    No coordinate is read, because the triangle (i, k, q) of every such
    split lies on the interior side of both polygons.  Lemma: if i < k < q
    and each of {i, k}, {k, q} and {i, q} is a boundary edge or a diagonal
    of a simple polygon, then the triangle (i, k, q) turns the way the
    polygon winds.  The chord {i, q} bounds the sub-polygon i, i + 1, ...,
    q (the whole polygon when it is the edge {0, n - 1}), and the other two
    chords lie in it.  The chord {i, k} splits that sub-polygon again, and
    {k, q} then cuts off the triangle (i, k, q) as a face.  A face keeps
    the winding of the polygon it was cut from, and it is not degenerate,
    since a collinear triple would put a vertex on one of the three
    segments.  The shared edges are edges or diagonals of both polygons,
    and a true cell's chord is shared, so both orientation tests would pass
    at every split the table reaches.  Leaving them out can only add true
    cells, never remove one, and ``verify_polygon_joint`` still checks the
    result.
    """
    n = len(table)
    # every column of the shared table as the bytes of one little-endian int
    packed = np.packbits(table.T, axis=1, bitorder="little")
    width = packed.shape[1]
    packed = packed.tobytes()
    cols = [0] * n
    for q in range(1, n):
        shared = int.from_bytes(packed[q * width:(q + 1) * width], "little")
        if q == n - 1:
            shared |= 1  # the goal cell, never a sub-cell: tried regardless
        col = fresh = 1 << (q - 1)
        missing = shared & ~col
        while fresh and missing:
            reach = 0
            while fresh:
                low = fresh & -fresh
                reach |= cols[low.bit_length() - 1]
                fresh ^= low
            fresh = reach & missing
            col |= fresh
            missing ^= fresh
        cols[q] = col
    return cols


def _split_triangles(col: list[int]) -> list[Tri]:
    """The triangles of the true goal cell (0, n - 1) of the interval table
    ``col`` (``_fill_table``), in preorder: each true cell (i, q) splits
    at the least k in (i, q) with both sub-cells true, found by scanning
    column q's bits above i for the first k whose column holds bit i."""
    # An explicit stack, cell (i, k) before (k, q): a fan's chain of cells
    # is n - 2 deep.
    tris: list[Tri] = []
    stack = [(0, len(col) - 1)]
    while stack:
        i, q = stack.pop()
        if q - i < 2:
            continue
        rest = col[q] >> (i + 1) << (i + 1)
        while True:
            low = rest & -rest
            k = low.bit_length() - 1
            if col[k] >> i & 1:
                break
            rest ^= low
        tris.append(tri(i, k, q))
        stack += ((k, q), (i, k))
    return tris


def dp_joint_polygon(pair: PolygonPair) -> Optional[JointTriangulation]:
    """Interval dynamic program for a joint triangulation of the pair.

    Cell (i, q) is true iff {i, q} is a shared visibility edge and some
    split vertex k strictly between them has both sub-cells true, so the
    chords {i, k} and {k, q} are shared too; the triangle (i, k, q) then
    lies on the interior side in both realizations.  ``_fill_table``
    builds each column of cells as the rows reachable from its first
    cell, and the backtracking (``_split_triangles``) splits each true
    cell at its least such k, scanning the column's cells above i.  On
    success the triangle set is re-checked by the polygon verifier; None
    means no joint triangulation exists.

    For polygon pairs the paper's necessary conditions are sufficient.
    Call a triangle legal when its three sides are shared edges; the legal
    closure keeps a legal triangle while each of its diagonals has a kept
    triangle on its other side.  It is nonempty iff a joint triangulation
    exists.  A diagonal {u, v} of both polygons cuts each into the
    sub-polygon u, u + 1, ..., v and the rest.  The triangles of a joint
    triangulation are legal and each has its neighbour across each
    diagonal in the set, so none is ever the first to lose a partner: the
    closure keeps them.  Conversely, across each diagonal of a kept
    triangle a kept partner lies in the sub-polygon beyond, inside both
    polygons (``_fill_table``'s lemma), and across each of the partner's
    other diagonals a smaller sub-polygon within that one, again with a
    kept partner.  The sub-polygons are disjoint and shrink, so this ends
    in a tiling of both polygons with shared edges: a joint triangulation.
    ``tests/helpers.legal_closure`` is the reference for this DP's verdict.
    """
    col = _fill_table(pair.shared.table)
    if not col[-1] & 1:
        return None
    tris = _split_triangles(col)
    violation = verify_polygon_joint(pair, tris)
    return JointTriangulation(TriangleSet._of_canonical(set(tris)), violation, tris)


def verify_polygon_joint(pair: PolygonPair, triangles) -> Optional[str]:
    """Exact check that a triple set jointly triangulates both polygons:
    ``verify_tiling`` with each polygon's vertex cycle as its boundary.

    It reads coordinates and cycles only, never visibility: a set that
    tiles a polygon uses no edge that leaves it or passes through a third
    vertex, so every edge is a boundary edge or a diagonal of both
    polygons, which is what a shared visibility edge is.  So it raises no
    GrazingDiagonal, and judges the DP without reading the DP's input.
    """
    cycle = range(len(pair))
    return verify_tiling((("A", pair.a.vertices, cycle),
                          ("B", pair.b.vertices, cycle)), triangles)
