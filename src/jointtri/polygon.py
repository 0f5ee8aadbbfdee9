"""Joint triangulation of two simple polygons.

Pipeline: per-polygon visibility graphs, their label-wise intersection,
then an interval dynamic program over boundary indices.  Visibility is
decided exactly: two [n, n] masks (does a chord leave both ends into the
interior angle, does it pass through a third vertex) pick the chords
worth a boundary crossing test, and the masks with that test decide
every chord.  Small polygons test those chords against every edge.
Larger ones sort the vertices around each vertex by an exact integer
angle key and test a chord u-w only against the edges whose angular span
at u holds w's direction, so a convex polygon tests none.  A cell (i, q)
records whether the chain i..q closed by the chord {i, q} admits a joint
triangulation; the split vertex chosen for each true cell drives the
backtracking that extracts the triangle set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Optional

import numpy as np

from .geom import COORD_LIMIT, Point, hull_edge_set, signed_area2
from .greedy import JointTriangulation, verify_tiling
from .triangles import Edge, Tri, TriangleSet, tri


class GrazingDiagonal(ValueError):
    """A candidate diagonal passes through a third vertex, making its
    visibility status ambiguous; such instances are rejected outright."""


# Cells of one [segments, n] block of _boundary_hits' int64 temporaries
# (1 MB each), so construction and visibility stay within a few MB at any n.
# The angle tables and the span test hold about four times as many int64
# temporaries per cell, so their blocks take a quarter of this.
_HIT_BLOCK_CELLS = 1 << 17


def _boundary_hits(xs: np.ndarray, ys: np.ndarray, us: np.ndarray,
                   vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact tests of the segments us[r] -> vs[r], between vertices of the
    cycle (xs, ys), against its boundary.  Returns two [len(us), n] masks:
    ``proper[r, k]`` iff the segment and edge k -> k+1 cross at a point
    interior to both, and ``on_line[r, w]`` iff vertex w lies on the
    segment's line (the segment's own ends among them).

    Only the side of each vertex against each segment is computed densely;
    the few edges whose ends lie strictly on opposite sides are then
    tested one by one.  A segment sharing an endpoint with edge k has side
    0 there, so it never crosses that edge properly.  Int64 is exact for
    coordinates within COORD_LIMIT; callers pass at most
    ``_HIT_BLOCK_CELLS // n`` segments.
    """
    n = len(xs)
    dx, dy = xs[vs] - xs[us], ys[vs] - ys[us]
    # vertex w is left of segment r iff cross > 0, with cross =
    # dx * (y_w - y_u) - dy * (x_w - x_u), split into [r, w] and [r] terms;
    # column n repeats vertex 0, so column k + 1 is edge k's far end
    ring = np.arange(-n, 1)
    cross = dx[:, None] * ys[ring] - dy[:, None] * xs[ring]
    offset = (dx * ys[us] - dy * xs[us])[:, None]
    left, right = cross > offset, cross < offset
    proper = (left[:, :-1] & right[:, 1:]) | (right[:, :-1] & left[:, 1:])
    r, k = np.divmod(np.flatnonzero(proper), n)
    k1 = (k + 1) % n
    ex, ey = xs[k1] - xs[k], ys[k1] - ys[k]
    at_u = np.sign(ex * (ys[us[r]] - ys[k]) - ey * (xs[us[r]] - xs[k]))
    at_v = np.sign(ex * (ys[vs[r]] - ys[k]) - ey * (xs[vs[r]] - xs[k]))
    proper[r, k] = at_u * at_v < 0
    return proper, ~(left[:, :-1] | right[:, :-1])


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given as its boundary vertex cycle.

    Construction validates simplicity exactly: non-adjacent edges must
    not touch at all, adjacent edges must share only their common
    endpoint.  The given vertex order is preserved (it defines the
    labels); ``ccw_sign`` says which way it winds.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        for p in self.vertices:
            if not (-COORD_LIMIT <= p[0] <= COORD_LIMIT
                    and -COORD_LIMIT <= p[1] <= COORD_LIMIT):
                raise ValueError(
                    f"coordinate out of range [-{COORD_LIMIT}, {COORD_LIMIT}]: {p}")
        if len(set(self.vertices)) != n:
            raise ValueError("polygon vertices must be pairwise distinct")
        if signed_area2(self.vertices) == 0:
            raise ValueError("polygon has zero area")
        # With distinct vertices the cycle is simple iff no two edges meet
        # but at a shared endpoint: no edge crosses another properly and no
        # vertex lies strictly inside an edge.  The first offending pair
        # (i, j), i < j, in row-major order is the one reported.
        xs, ys = np.array(self.vertices, dtype=np.int64).T
        edges = np.arange(n)
        first = n * n
        step = max(1, _HIT_BLOCK_CELLS // n)
        for lo in range(0, n, step):
            rows = edges[lo:lo + step]
            ends = (rows + 1) % n
            proper, inner = _boundary_hits(xs, ys, rows, ends)
            # a vertex w on the line of edge u -> v lies strictly inside
            # the edge iff w - u and w - v point opposite ways
            r, w = np.nonzero(inner)
            u, v = rows[r], ends[r]
            inner[r, w] = ((xs[w] - xs[u]) * (xs[w] - xs[v])
                           + (ys[w] - ys[u]) * (ys[w] - ys[v]) < 0)
            # edge r crosses edge c, or vertex c or c + 1 lies inside edge r
            r, c = np.nonzero(proper | inner | np.roll(inner, -1, axis=1))
            if r.size:
                r = rows[r]
                first = min(first, int((np.minimum(r, c) * n + np.maximum(r, c)).min()))
        if first < n * n:
            i, j = divmod(first, n)
            if j == i + 1 or (i, j) == (0, n - 1):
                w = self.vertices[j if j == i + 1 else 0]
                raise ValueError(
                    f"boundary is not simple: edges at vertex overlap near {w}")
            raise ValueError(f"boundary is not simple: edges {i} and {j} intersect")

    @classmethod
    def from_coords(cls, coords) -> "Polygon":
        return cls(tuple(Point(int(x), int(y)) for x, y in coords))

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, label: int) -> Point:
        return self.vertices[label]

    @cached_property
    def ccw_sign(self) -> int:
        """+1 if the vertex cycle winds counterclockwise, -1 if clockwise."""
        return 1 if signed_area2(self.vertices) > 0 else -1

    def boundary_edges(self) -> frozenset[Edge]:
        return hull_edge_set(range(len(self.vertices)))

    @cached_property
    def diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """The polygon's diagonals (i, j), i < j, in lexicographic order, as
        two read-only index arrays, decided once and read by
        ``visibility_graph`` and ``ivg``.  Raises GrazingDiagonal on the
        first grazing chord in that order, and then caches nothing."""
        us, vs = _chords(len(self))
        seen = _diagonal_mask(self, us, vs)
        us, vs = us[seen], vs[seen]
        us.flags.writeable = vs.flags.writeable = False
        return us, vs


@dataclass(frozen=True)
class PolygonPair:
    """Two simple polygons of equal size; vertex i of a corresponds to
    vertex i of b."""

    a: Polygon
    b: Polygon

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("paired polygons must have equal vertex counts")

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def shared(self) -> frozenset[Edge]:
        """The pair's shared visibility edges (``ivg``), computed once and
        read by the interval DP, the verifier and the polygon oracle.
        Raises GrazingDiagonal as ``ivg`` does, and then caches nothing."""
        return ivg(self)


def _cone(dx: np.ndarray, dy: np.ndarray, ccw_sign: int) -> np.ndarray:
    """Exact [n, n] mask over the ordered vertex pairs (u, v) of a cycle
    that winds as ``ccw_sign`` says, given ``dx[u, v] = x_v - x_u`` and
    ``dy`` likewise: the segment leaves both of its ends strictly inside
    the interior angle there (O'Rourke's InCone, at u and at v).

    At u, let p and q be the signs, relative to the winding, of the
    previous and the next vertex against the line u -> v.  A convex u
    (interior angle at most pi) needs p > 0 and q < 0, a reflex u needs
    p > 0 or q < 0.  Adjacent vertices never qualify.
    """
    n = len(dx)
    # The previous and next vertex of u, relative to u.  A clockwise cycle
    # is the counterclockwise one run backwards: the two swap roles.
    u = np.arange(n)
    before, after = u - 1, (u + 1) % n
    if ccw_sign < 0:
        before, after = after, before
    px, py, qx, qy = dx[u, before], dy[u, before], dx[u, after], dy[u, after]
    p = dx * py[:, None] > dy * px[:, None]
    q = dx * qy[:, None] < dy * qx[:, None]
    convex = (qx * py >= qy * px)[:, None]
    cone = np.where(convex, p & q, p | q)
    return cone & cone.T


def _cone_and_graze(xs: np.ndarray, ys: np.ndarray,
                    ccw_sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Two exact [n, n] masks over the ordered vertex pairs (u, v) of the
    cycle (xs, ys), which winds as ``ccw_sign`` says: ``_cone``'s, and
    ``graze``.

    ``graze[u, v]``: some third vertex lies strictly inside the segment.
    The directions from u to the other vertices reduce by their gcd to
    integer keys, and w lies strictly between u and v iff its key is v's
    at a smaller multiple.  Keys and multiples fit int64 under COORD_LIMIT.
    """
    n = len(xs)
    dx, dy = xs - xs[:, None], ys - ys[:, None]  # dx[u, v] = x_v - x_u
    u = np.arange(n)
    g = np.gcd(dx, dy)
    g[u, u] = 1  # u itself: key 0, alone in its row
    key = dx // g * (1 << 27) + dy // g  # |dy // g| <= 2**25
    order = np.lexsort((g, key))  # each row by key, then by multiple
    row = u[:, None]
    ranked = key[row, order]
    graze = np.zeros((n, n), dtype=bool)
    graze[row, order[:, 1:]] = ranked[:, 1:] == ranked[:, :-1]
    return _cone(dx, dy, ccw_sign), graze


def _angle_keys(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact int64 keys that order nonzero directions (x, y), coordinate
    differences within 2 * COORD_LIMIT, counterclockwise from +x: equal
    keys for equal directions, the upper half-plane (+x included) first.

    The lower half-plane is turned by pi onto the upper one, where the
    diamond angle -x / (|x| + y) grows with the angle.  Its value times
    2**52, floored, is taken as two 26-bit digits: with |x| + y <= 2**26,
    two distinct directions of one half-plane differ in value by at least
    2**-52, so their floors differ.  Every term stays within 2**52, and
    every key below 2**54 + 2**52 + 2**26.
    """
    lower = (y < 0) | ((y == 0) & (x < 0))
    den = np.abs(x) + np.abs(y)
    d1, rest = np.divmod(np.where(lower, x, -x) << 26, den)
    return (lower.astype(np.int64) << 54) + (d1 << 26) + (rest << 26) // den


def _angle_order(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every vertex's view of the others, by exact ``_angle_keys``.
    Returns four [n, n] tables:

    - ``order[u]``: the other vertices counterclockwise around u from +x,
      those in one direction nearest first, then u itself (position n - 1);
    - ``first[u, v]``, ``last[u, v]``: the first and last position in
      ``order[u]`` of v's direction group (the vertices in v's direction
      from u);
    - ``graze[u, v]``: a nearer vertex lies in v's direction from u, so
      strictly inside the segment u-v.

    The first three are int16, which holds n at any size whose [n, n]
    int64 cone masks fit in memory.  Rows go in blocks of a quarter of
    ``_HIT_BLOCK_CELLS`` cells.
    """
    n = len(xs)
    order, first, last = (np.empty((n, n), dtype=np.int16) for _ in range(3))
    graze = np.zeros((n, n), dtype=bool)
    pos = np.arange(n)
    step = max(1, _HIT_BLOCK_CELLS // (4 * n))
    for lo in range(0, n, step):
        rows = pos[lo:lo + step]
        x, y = xs - xs[rows, None], ys - ys[rows, None]
        own = (rows - lo, rows)
        x[own] = 1  # a stand-in direction for u itself, so no zero divisor
        key = _angle_keys(x, y)
        key[own] = 1 << 62  # u itself sorts last
        o = np.argsort(key, axis=1)
        ranked = np.take_along_axis(key, o, axis=1)
        same = ranked[:, 1:] == ranked[:, :-1]
        tie = same.any(axis=1)
        if tie.any():  # rows with collinear vertices: nearest first
            x, y = x[tie], y[tie]
            o[tie] = np.lexsort((x * x + y * y, key[tie]))
        graze[rows[:, None], o[:, 1:]] = same
        order[rows] = o
        # a group starts where the key changes and ends before the next start
        starts = np.ones(o.shape, dtype=bool)
        starts[:, 1:] = ~same
        ends = np.ones(o.shape, dtype=bool)
        ends[:, :-1] = ~same
        cell = rows[:, None], o
        first[cell] = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
        last[cell] = np.minimum.accumulate(
            np.where(ends, pos, n)[:, ::-1], axis=1)[:, ::-1]
    return order, first, last, graze


def _edge_sides(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[n, n] int8 table: ``side[k, v]`` is the sign of vertex v against
    the line of edge k -> k + 1, positive on its left.  Edges go in
    blocks of a quarter of ``_HIT_BLOCK_CELLS`` cells."""
    n = len(xs)
    side = np.empty((n, n), dtype=np.int8)
    step = max(1, _HIT_BLOCK_CELLS // (4 * n))
    for lo in range(0, n, step):
        k = np.arange(lo, min(n, lo + step))
        k1 = (k + 1) % n
        ex, ey = (xs[k1] - xs[k])[:, None], (ys[k1] - ys[k])[:, None]
        v = ex * (ys - ys[k, None]) - ey * (xs - xs[k, None])
        np.subtract(v > 0, v < 0, dtype=np.int8, out=side[lo:lo + step])
    return side


def _span_crossings(xs: np.ndarray, ys: np.ndarray, order: np.ndarray,
                    first: np.ndarray, last: np.ndarray,
                    tested: np.ndarray) -> np.ndarray:
    """[n, n] mask: ``blocked[u, w]`` iff the segment u-w crosses an edge
    of the cycle (xs, ys) at a point interior to both, decided on the
    cells ``tested`` marks and False elsewhere.  ``order``, ``first`` and
    ``last`` are ``_angle_order``'s tables.

    Span lemma: seen from a vertex u off its line, an edge a -> b covers
    the directions strictly between a's and b's, a cyclic run of
    ``order[u]``; from u on its line (incident edges among them) it covers
    none.  The segment u-w can cross the edge properly only if w's
    direction is in that run, and then it does iff u and w lie strictly on
    opposite sides of the edge's line.  So row u lists its tested vertices
    in angular order, twice over so no run wraps, a prefix count per
    position says which of them fall in each edge's run, and only those
    (vertex, edge, chord) triples are tested.  Rows, and then triples, go
    in blocks of about a quarter of ``_HIT_BLOCK_CELLS`` cells.
    """
    n = len(xs)
    side = _edge_sides(xs, ys)
    flat_side = side.reshape(-1)
    blocked = np.zeros((n, n), dtype=bool)
    k = np.arange(n, dtype=np.int16)
    k1 = (k + 1) % n
    rows = np.flatnonzero(tested.any(axis=1))
    cells = max(1, _HIT_BLOCK_CELLS // 4)
    step = max(1, cells // n)
    for lo in range(0, len(rows), step):
        u = rows[lo:lo + step]
        around = order[u]
        listed = tested[u[:, None], around]
        # count[r, p]: u's tested vertices before position p.  Column n
        # is there for the incident edges, whose ends include u itself at
        # position n - 1; their runs are zeroed below.
        count = np.zeros((len(u), n + 1), dtype=np.int32)
        np.cumsum(listed, axis=1, out=count[:, 1:])
        total = count[:, -1:]
        # each row's tested vertices in angular order, twice, row after row
        targets = np.tile(around, 2)[np.tile(listed, 2)]
        base = 2 * (np.cumsum(total) - total[:, 0])
        # Edge k's run starts past its clockwise end's group and stops
        # before its counterclockwise end's; starting after it stops, it
        # wraps round through the row's end.
        s = side[:, u].T
        ccw = s > 0
        start = np.take_along_axis(last[u], np.where(ccw, k, k1), axis=1) + 1
        stop = np.take_along_axis(first[u], np.where(ccw, k1, k), axis=1)
        begin = np.take_along_axis(count, start, axis=1)
        size = np.take_along_axis(count, stop, axis=1) - begin
        size += (start > stop) * total
        size[s == 0] = 0
        r, e = np.nonzero(size)
        size = size[r, e]
        ends = np.cumsum(size)
        # Triple t, counted over the block's pairs, reads its vertex w at
        # targets[head + t]; it crosses iff side[e, w] is opposite u's.
        head = base[r] + begin[r, e] - (ends - size)
        edge = e * n
        away = -s[r, e]
        i = 0
        while i < len(ends):
            j = max(i + 1, int(np.searchsorted(ends, ends[i] - size[i] + cells,
                                               side="right")))
            pick = np.repeat(np.arange(i, j), size[i:j])
            w = targets[head[pick] + np.arange(ends[i] - size[i], ends[j - 1])]
            hit = flat_side[edge[pick] + w] == away[pick]
            blocked[u[r[pick[hit]]], w[hit]] = True
            i = j
    return blocked


def _diagonal_mask(poly: Polygon, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Which chords us[r] -> vs[r], non-adjacent vertex pairs of the
    polygon, are diagonals of it.

    A chord through a third vertex (``graze``) is never a diagonal; it is
    ambiguous, its visibility hinging on the grazed vertex, unless it also
    crosses an edge properly.  Any other chord that crosses no edge
    properly meets the boundary only at its ends, so its open segment lies
    wholly inside or wholly outside, and the ``cone`` test at its ends
    tells which.  So only chords that pass the cone test or graze are
    tested for crossings.  When all the chords fit one ``_boundary_hits``
    block, those are tested densely against every edge, with
    ``_cone_and_graze``'s masks; above that, ``_angle_order`` gives the
    graze mask and ``_span_crossings`` tests each chord only against the
    edges that cover its direction.  GrazingDiagonal names the first
    ambiguous chord in the given order: rather than guess, such instances
    are refused.
    """
    xs, ys = np.array(poly.vertices, dtype=np.int64).T
    n = len(xs)
    if len(us) <= max(1, _HIT_BLOCK_CELLS // n):
        cone, graze = _cone_and_graze(xs, ys, poly.ccw_sign)
        cone, graze = cone[us, vs], graze[us, vs]
        test = np.flatnonzero(cone | graze)
        blocked = np.zeros(len(us), dtype=bool)
        proper, _ = _boundary_hits(xs, ys, us[test], vs[test])
        blocked[test] = proper.any(axis=1)
    else:
        order, first, last, graze = _angle_order(xs, ys)
        cone = _cone(xs - xs[:, None], ys - ys[:, None], poly.ccw_sign)[us, vs]
        graze = graze[us, vs]
        tested = np.zeros((n, n), dtype=bool)
        tested[us, vs] = cone | graze
        blocked = _span_crossings(xs, ys, order, first, last, tested)[us, vs]
    ambiguous = graze & ~blocked
    if ambiguous.any():
        r = int(np.argmax(ambiguous))
        raise GrazingDiagonal(f"diagonal candidate {(int(us[r]), int(vs[r]))} "
                              f"passes through another vertex")
    return cone & ~graze & ~blocked


def _chords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-adjacent vertex pairs (i, j), i < j, of an n-cycle, in
    lexicographic order, as two index arrays."""
    i = np.arange(n)
    chord = i - i[:, None] >= 2
    chord[0, n - 1] = False
    return np.nonzero(chord)


def visibility_graph(poly: Polygon) -> set[Edge]:
    """Boundary edges plus every diagonal of the polygon (``Polygon.diagonals``),
    deciding every non-adjacent pair (i, j), i < j, in lexicographic order;
    a GrazingDiagonal names the first grazing chord in that order."""
    us, vs = poly.diagonals
    out: set[Edge] = set(poly.boundary_edges())
    out.update(zip(us.tolist(), vs.tolist()))
    return out


def ivg(pair: PolygonPair) -> frozenset[Edge]:
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
    us, vs = pair.a.diagonals
    seen = _diagonal_mask(pair.b, us, vs)
    return pair.b.boundary_edges().union(zip(us[seen].tolist(), vs[seen].tolist()))


def _fill_table(pair: PolygonPair,
                shared: AbstractSet[Edge]) -> tuple[list[list[bool]], list[list[int]]]:
    """Fill the boolean interval table and the split-vertex choices.

    Each cell takes the first split vertex k, in ascending order, that
    qualifies.  Shared edges are read from an [n][n] table and the two
    orientation tests are inlined on coordinate tuples: the triangle
    (i, k, q) must turn the way each polygon winds.
    """
    n = len(pair)
    ok = [[False] * n for _ in range(n)]
    for i, q in shared:
        ok[i][q] = True
    ok[0][n - 1] = True  # the goal cell, never a sub-cell: tried regardless
    ax, ay = zip(*pair.a.vertices)
    bx, by = zip(*pair.b.vertices)
    sa, sb = pair.a.ccw_sign, pair.b.ccw_sign
    m = [[False] * n for _ in range(n)]
    choice = [[-1] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = True
    for gap in range(2, n):
        for i in range(0, n - gap):
            q = i + gap
            mi, oki = m[i], ok[i]
            if not oki[q]:
                continue
            axi, ayi, bxi, byi = ax[i], ay[i], bx[i], by[i]
            aqx, aqy, bqx, bqy = ax[q] - axi, ay[q] - ayi, bx[q] - bxi, by[q] - byi
            for k in range(i + 1, q):
                if not (mi[k] and m[k][q] and oki[k] and ok[k][q]):
                    continue
                if ((ax[k] - axi) * aqy - (ay[k] - ayi) * aqx) * sa <= 0:
                    continue
                if ((bx[k] - bxi) * bqy - (by[k] - byi) * bqx) * sb <= 0:
                    continue
                mi[q] = True
                choice[i][q] = k
                break
    return m, choice


def dp_joint_polygon(pair: PolygonPair) -> Optional[JointTriangulation]:
    """Interval dynamic program for a joint triangulation of the pair.

    Cell (i, q) is true iff {i, q} is a shared visibility edge and some
    split vertex k strictly between them has both sub-cells true, the
    chords {i, k} and {k, q} shared, and the triangle (i, k, q) on the
    interior side in both realizations.  On success the backtracked
    triangle set is re-checked by the polygon verifier; None means no
    joint triangulation exists.
    """
    n = len(pair)
    m, choice = _fill_table(pair, pair.shared)
    if not m[0][n - 1]:
        return None

    tris: list[Tri] = []

    def collect(i: int, q: int) -> None:
        if q - i < 2:
            return
        k = choice[i][q]
        tris.append(tri(i, k, q))
        collect(i, k)
        collect(k, q)

    collect(0, n - 1)
    violation = verify_polygon_joint(pair, tris)
    return JointTriangulation(TriangleSet(tris), violation is None, violation, tris)


def verify_polygon_joint(pair: PolygonPair, triangles) -> Optional[str]:
    """Exact check that a triple set jointly triangulates both polygons:
    ``verify_tiling`` with each polygon's vertex cycle as its boundary and
    the pair's shared visibility edges (``PolygonPair.shared``) as the
    allowed edges.
    """
    cycle = range(len(pair))
    return verify_tiling((("A", pair.a.vertices, cycle),
                          ("B", pair.b.vertices, cycle)), triangles, pair.shared)
