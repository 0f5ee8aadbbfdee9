"""Exact planar predicates on integer coordinates.

Every combinatorial decision in this package reduces to the sign of a
2x2 cross-product determinant over integer coordinates; nothing in a
decision path touches floating point.  Scalar predicates use Python
integers and are exact for any magnitude.  The vectorized helpers use
64-bit integers (the orientation table's build 32-bit ones where the
coordinates allow), which is why coordinates are capped at construction
time (see ``COORD_LIMIT``).  Orientations of all triples are kept as bits,
n**3 / 8 bytes per point set (``orient_sign_tensor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

# Cap so that any orientation determinant of coordinate differences
# (|value| <= 2 * (2*COORD_LIMIT)**2 = 2**51), and the three-term sum the
# orientation table adds (below 3 * 2**49 < 2**51), stay well inside signed
# 64-bit range on the numpy fast paths, with headroom for summing a few
# thousand doubled areas.  The orientation table's build drops to int32
# where every coordinate is within _INT32_COORDS = 2**14 (its sum then
# stays below 6 * 2**28 < 2**31).  Inputs outside the cap are rejected
# when a point set or polygon is constructed, never inside a predicate.
COORD_LIMIT = 2**24

CCW = 1
COLLINEAR = 0
CW = -1


class Point(NamedTuple):
    x: int
    y: int


class InputError(ValueError):
    """An input or argument from outside the library was rejected (CLI
    exit 1).  ``label`` is the 0-based label of the one point the
    rejection names, or None."""

    def __init__(self, message: str = "", label: Optional[int] = None) -> None:
        super().__init__(message)
        self.label = label


class DegenerateInput(InputError):
    """Raised for inputs that admit no triangulation (e.g. all collinear)."""


class SizeGuard(ValueError):
    """Raised when a request exceeds a documented size limit (CLI exit 3)."""


# Largest point set whose orientation table is built.  The table itself is
# only n**3 / 8 bytes per side (64 MB at n = 800); the limit stays for the
# stages downstream of it: the tuple sets of A's empty triangles and of the
# candidates, Theta(n**2) in expectation (together about 140 MB at n = 500
# on hull-locked pairs) and up to C(n, 3) in convex position, and the int32
# triangle codes of enumerate_empty and legal_set, exact while n**3 < 2**31.
MAX_TENSOR_POINTS = 800
# Bytes of the widest temporary of one block of the table build, its
# [rows, n, n] sums in int32 or int64 (256 KB, or one row where that is
# larger), so the build's temporaries stay small at any n; at n = 100
# blocks of 1 MB ran about 20% slower.
_TENSOR_BLOCK_BYTES = 1 << 18
# Largest coordinate magnitude at which the table build runs in int32:
# |C| <= 2 * (2**14)**2 = 2**29, and its three-term sums stay below
# 6 * 2**28 < 2**31.  Beyond it the build runs in int64, exact up to
# COORD_LIMIT.
_INT32_COORDS = 2**14
# Cells of one row block of the angle tables, whose int64 temporaries are
# then 64 KB each.  On polygons of n 150-300 such blocks took about 25
# minor page faults per call, their pages reused from the heap by the next
# block and call, against about 290 with blocks of 2**15 cells, whose
# larger temporaries came as fresh pages; 2**13 also ran faster than 2**12
# or 2**15, and as fast as 2**14.
_ANGLE_BLOCK_CELLS = 1 << 13


def cross(o: Point, a: Point, b: Point) -> int:
    """Doubled signed area of triangle (o, a, b); positive iff CCW."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orient(p: Point, q: Point, r: Point) -> int:
    """Turn direction p -> q -> r: CCW (+1), CW (-1) or COLLINEAR (0)."""
    d = cross(p, q, r)
    if d > 0:
        return CCW
    if d < 0:
        return CW
    return COLLINEAR


def check_coords(points: Iterable[Point]) -> None:
    """Raise InputError, with its label, on the first point with a
    coordinate outside [-COORD_LIMIT, COORD_LIMIT]."""
    for label, p in enumerate(points):
        if not (-COORD_LIMIT <= p[0] <= COORD_LIMIT
                and -COORD_LIMIT <= p[1] <= COORD_LIMIT):
            raise InputError(
                f"coordinate out of range [-{COORD_LIMIT}, {COORD_LIMIT}]: {p}", label)


def check_distinct(points: Sequence[Point], message: str) -> None:
    """Raise InputError(message), with the label of the first point that
    repeats an earlier one, unless the points are pairwise distinct."""
    seen: set[Point] = set()
    for label, p in enumerate(points):
        if p in seen:
            raise InputError(message, label)
        seen.add(p)


def signed_area2(points: Sequence[Point]) -> int:
    """Doubled signed area of a closed vertex cycle (positive iff CCW)."""
    total = 0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


@dataclass(frozen=True)
class LabeledSet:
    """An indexed planar point set; a point's position in the tuple is its label.

    Labels are 0-based internally (1-based only in files and CLI output).
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise InputError("a labeled set needs at least 3 points")
        check_coords(self.points)
        check_distinct(self.points, "points must be pairwise distinct")

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[int, int]]) -> "LabeledSet":
        return cls(tuple(Point(int(x), int(y)) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, label: int) -> Point:
        return self.points[label]

    @cached_property
    def signs(self) -> np.ndarray:
        """The set's packed orientation table (``orient_sign_tensor``,
        n**3 / 8 bytes), built once and shared by every stage that reads
        it; read-only.  Raises SizeGuard, before allocating, above
        MAX_TENSOR_POINTS points."""
        if len(self) > MAX_TENSOR_POINTS:
            raise SizeGuard(f"orientation tensors are limited to n <= "
                            f"{MAX_TENSOR_POINTS}, got {len(self)}")
        return orient_sign_tensor(self.points)

    @cached_property
    def hull(self) -> tuple[int, ...]:
        """The set's ``convex_hull`` label cycle, computed once and read by
        the hull-correspondence test, the verifier and the oracle.  Raises
        DegenerateInput as ``convex_hull`` does, and then caches nothing."""
        return tuple(convex_hull(self))


def convex_hull(s: LabeledSet) -> list[int]:
    """Counterclockwise label sequence of the convex hull boundary.

    Andrew's monotone chain, popping only on a strict right turn, so
    points collinear on the boundary stay as hull vertices and a boundary
    segment covering another input point is never a hull edge.  The
    sequence is rotated to start at the smallest label.  Raises
    DegenerateInput if all points are collinear (the two chains then
    trace the same line and repeat a label).
    """
    pts = s.points
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def chain(indices: list[int]) -> list[int]:
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and cross(pts[out[-2]], pts[out[-1]], pts[i]) < 0:
                out.pop()
            out.append(i)
        return out

    hull = chain(order)[:-1] + chain(order[::-1])[:-1]
    if len(set(hull)) != len(hull):
        raise DegenerateInput("degenerate point set: all points collinear")
    start = hull.index(min(hull))
    return hull[start:] + hull[:start]


def hull_edge_set(hull: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Unordered label pairs of consecutive hull boundary vertices."""
    n = len(hull)
    return frozenset(
        (min(hull[i], hull[(i + 1) % n]), max(hull[i], hull[(i + 1) % n]))
        for i in range(n))


def orient_sign_tensor(pts: Sequence[Point]) -> np.ndarray:
    """The orientation signs D[i,j,k] = sign(cross(p_i, p_j, p_k)) of all
    triples as bits: a read-only uint64 [n, n, ceil(n / 64)] table whose
    row (i, j) has bit k (bit k % 64 of word k // 64) set iff D[i,j,k] = +1,
    that is iff p_k is strictly left of p_i -> p_j.  D[i,j,k] = -1 is bit k
    of row (j, i), and a collinear triple sets neither; bits past n are
    zero.  n**3 / 8 bytes, a row per label pair.

    cross(p_i, p_j, p_k) = C[i,j] + C[j,k] + C[k,i] with the antisymmetric
    n x n table C[a,b] = x_a * y_b - x_b * y_a, so each entry is two
    additions.  Exact in int32 when every coordinate is within
    ``_INT32_COORDS`` = 2**14: then |C| <= 2**29, and the sum and its
    partial sums stay within 3 * 2**29 = 6 * 2**28 < 2**31.  Otherwise in
    int64, exact for coordinates within COORD_LIMIT: |C| <= 2**49 and the
    sum stays below 3 * 2**49 < 2**51.  Built in blocks of i, each block's
    widest temporary about ``_TENSOR_BLOCK_BYTES`` (at least one row).  A
    block's signs go into a bool buffer whose rows are padded with False to
    whole words, so one flat ``packbits`` of it, little-endian, is the
    block's rows of the table (a ``packbits`` along a row n bits long ran
    several times slower).
    """
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    narrow = max(map(abs, xs + ys), default=0) <= _INT32_COORDS
    xs, ys = (np.array(v, dtype=np.int32 if narrow else np.int64) for v in (xs, ys))
    n = len(xs)
    c = xs[:, None] * ys[None, :] - xs[None, :] * ys[:, None]
    words = -(-n // 64)
    out = np.empty((n, n, words), dtype="<u8")
    out_rows = out.view(np.uint8).reshape(n, -1)
    step = max(1, _TENSOR_BLOCK_BYTES // (n * n * c.itemsize))
    left = np.zeros((min(step, n), n, 64 * words), dtype=bool)
    for i in range(0, n, step):
        # C[k, i] = -C[i, k]
        v = c[i:i + step, :, None] + c[None, :, :]
        v -= c[i:i + step, None, :]
        rows = len(v)
        np.greater(v, 0, out=left[:rows, :, :n])
        out_rows[i:i + rows] = np.packbits(left[:rows], bitorder="little").reshape(rows, -1)
    out.flags.writeable = False
    return out


def row_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """The bits of rows of an ``orient_sign_tensor`` table, ``rows`` a
    contiguous [..., ceil(n / 64)] array of them, as a [..., n] uint8 array
    of 0 and 1, bit k at position k."""
    return np.unpackbits(rows.view(np.uint8), axis=-1, count=n, bitorder="little")


def strictly_left(d: np.ndarray, i: np.ndarray, j: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
    """Elementwise over label arrays i, j, k: is p_k strictly left of
    p_i -> p_j, that is D[i,j,k] = +1?  One bit of ``orient_sign_tensor``'s
    table ``d`` per element."""
    n, _, w = d.shape
    word = d.reshape(-1).take((i * n + j) * w + (k >> 6))
    return (word >> (k & 63).astype(np.uint64) & np.uint64(1)).astype(bool)


def angle_keys(x: np.ndarray, y: np.ndarray) -> np.ndarray:
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


def angle_order(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every point's view of the others, by exact ``angle_keys``, for
    int64 coordinate arrays within COORD_LIMIT.  Returns four [n, n]
    tables:

    - ``order[u]``: the other points counterclockwise around u from +x,
      those in one direction nearest first, then u itself (position n - 1);
    - ``first[u, v]``, ``last[u, v]``: the first and last position in
      ``order[u]`` of v's direction group (the points in v's direction
      from u), so ``first[u, v]`` counts the points strictly before v's
      direction;
    - ``graze[u, v]``: a nearer point lies in v's direction from u, so
      strictly inside the segment u-v.

    The first three are int16, exact below 32,768 points.  Rows are sorted
    on a coarse key, ``angle_keys``'s key shifted right by 26 bits: the
    half-plane bit, then the diamond angle times 2**26, floored, which
    takes one division per cell.  It orders directions as the full key
    does, only coarser, so a row whose coarse keys are distinct is in
    exact order with every direction group one point; only a row with two
    equal coarse keys is sorted again on the full keys, nearest first
    within a direction.  Rows go in blocks of ``_ANGLE_BLOCK_CELLS`` cells.
    """
    n = len(xs)
    order, first, last = (np.empty((n, n), dtype=np.int16) for _ in range(3))
    graze = np.zeros((n, n), dtype=bool)
    flat_first, flat_last, flat_graze = (a.reshape(-1) for a in (first, last, graze))
    pos = np.arange(n)
    step = max(1, _ANGLE_BLOCK_CELLS // n)
    for lo in range(0, n, step):
        rows = pos[lo:lo + step]
        x, y = xs - xs[rows, None], ys - ys[rows, None]
        own = (rows - lo, rows)
        x[own] = 1  # a stand-in direction for u itself, so no zero divisor
        lower = (y < 0) | ((y == 0) & (x < 0))
        key = (np.where(lower, x, -x) << 26) // (np.abs(x) + np.abs(y))
        key[lower] += 1 << 28
        key[own] = 1 << 62  # u itself sorts last
        o = np.argsort(key, axis=1)
        order[lo:lo + step] = o
        ranked = np.take_along_axis(key, o, axis=1)
        # with distinct keys each point is its own direction group
        cell = rows[:, None] * n + o
        flat_first[cell] = pos
        last[lo:lo + step] = first[lo:lo + step]
        tie = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
        if tie.size:  # rows with close or collinear points: exact keys
            x, y = x[tie], y[tie]
            key = angle_keys(x, y)
            key[np.arange(len(tie)), rows[tie]] = 1 << 62
            o = np.lexsort((x * x + y * y, key))
            order[rows[tie]] = o
            ranked = np.take_along_axis(key, o, axis=1)
            same = ranked[:, 1:] == ranked[:, :-1]
            cell = rows[tie, None] * n + o
            flat_graze[cell[:, 1:]] = same
            # a group starts where the key changes and ends before the
            # next start
            starts = np.ones(o.shape, dtype=bool)
            starts[:, 1:] = ~same
            ends = np.ones(o.shape, dtype=bool)
            ends[:, :-1] = ~same
            flat_first[cell] = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
            flat_last[cell] = np.minimum.accumulate(
                np.where(ends, pos, n)[:, ::-1], axis=1)[:, ::-1]
    return order, first, last, graze
