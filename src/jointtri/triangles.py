"""Empty-triangle enumeration and the triangle set container.

A triangle is an unordered label triple stored as a sorted tuple, so one
triple simultaneously names a triangle in each of two paired point sets.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geom import LabeledSet, angle_order, strictly_left

if TYPE_CHECKING:
    from .conditions import PointSetPair

Tri = tuple[int, int, int]
Edge = tuple[int, int]


def tri(i: int, j: int, k: int) -> Tri:
    """Canonical (sorted) form of a label triple."""
    a, b, c = sorted((i, j, k))
    if a == b or b == c:
        raise ValueError(f"triangle labels must be distinct: {(i, j, k)}")
    return (a, b, c)


def edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError("edge endpoints must be distinct")
    return (i, j) if i < j else (j, i)


# The apex of (i, j, k) lies on side s, the sign of cross(i, j, k), of the
# directed edges i->j and j->k, and on side -s of i->k: one flip per edge,
# in the order (i, j), (j, k), (i, k).
FLIPS = (1, 1, -1)


class TriangleSet:
    """An immutable set of canonical label triples, held from construction
    as its sorted rows: a read-only [m, 3] intp array in lexicographic
    order, which ``array()`` returns and ``len``, ``sorted_triangles()``
    and ``==`` between sets read.  Its tuple set is only a view, built on
    the first ``__iter__`` or ``__contains__``: a set built from any
    triples (each canonicalized) keeps the set they were canonicalized
    into, and a producer hands over its rows (``_of_rows``) with the
    ``build`` that makes its tuple set by its own set operations, so every
    set iterates as an eager build would.  Nothing changes either form.

    The enumeration, pairing and ``legal_set`` hand over the rows they
    already hold, and ``greedy_construct`` and ``dp_joint_polygon`` their
    sorted triangles.  ``legal_set`` runs its one worklist in sorted row
    order for the verdict, and in set iteration order only when its
    removal log is read, so a chain whose sets are never iterated builds
    no tuple set.
    """

    def __init__(self, triangles: Iterable[Tri] = ()):
        tris = {tri(*t) for t in triangles}
        self._arr = np.array(sorted(tris), dtype=np.intp).reshape(-1, 3)
        self._arr.flags.writeable = False
        self._tris: Optional[set[Tri]] = tris
        self._build: Optional[Callable[[], set[Tri]]] = None

    @classmethod
    def _of_rows(cls, arr: np.ndarray,
                 build: Optional[Callable[[], set[Tri]]] = None) -> "TriangleSet":
        """A set over the rows of ``arr``, canonical triples in
        lexicographic order, which becomes ``array()``.  Its tuple set is
        ``build()`` on first read, by default the rows' tuples added in row
        order; ``build`` must give exactly the rows' triples."""
        out = cls.__new__(cls)
        arr.flags.writeable = False
        out._tris, out._arr = None, arr
        out._build = build or (lambda: set(_tuples(arr)))
        return out

    def _set(self) -> set[Tri]:
        if self._tris is None:
            self._tris = self._build()
            self._build = None
        return self._tris

    def sorted_triangles(self) -> list[Tri]:
        return list(_tuples(self._arr))

    def array(self) -> np.ndarray:
        """The set's rows, those of ``sorted_triangles()``."""
        return self._arr

    def __contains__(self, t: object) -> bool:
        return t in self._set()

    def __iter__(self) -> Iterator[Tri]:
        return iter(self._set())

    def __len__(self) -> int:
        return len(self._arr)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TriangleSet):
            return np.array_equal(self._arr, other._arr)
        if isinstance(other, (set, frozenset)):
            return self._set() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TriangleSet({self.sorted_triangles()!r})"


# Cells of one [rows, n] block of _empty_rows' triangle rows and points,
# whose temporaries are then 2**18 / 8 bytes of bit rows each (or one row
# where that is larger), so pairing stays within about a MB at any n.
# ``enumerate_empty`` tests every triple directly where they fit in one
# chunk, which at 2**18 cells is up to n = 36.
_ROW_CHUNK_CELLS = 1 << 18


def _empty_rows(d: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """For each label-triple row of ``arr``, whether the triangle is
    nondegenerate and has no point but its vertices in its closed triangle,
    under packed orientation table ``d`` (``orient_sign_tensor``).

    With its vertices counterclockwise as (a, b, c), a point is outside
    the closed triangle iff it is strictly right of one of its edges, that
    is strictly left of b -> a, c -> b or a -> c; no vertex is.  So a
    nondegenerate triangle is empty iff the OR of those three bit rows has
    n - 3 bits.
    """
    n, _, w = d.shape
    rows = d.reshape(n * n, w)
    out = np.empty(len(arr), dtype=bool)
    step = max(1, _ROW_CHUNK_CELLS // n)
    for lo in range(0, len(arr), step):
        i, j, k = arr[lo:lo + step].T
        # (a, b, k) is (i, j, k) if that is counterclockwise, else (j, i, k)
        ccw = strictly_left(d, i, j, k)
        a, b = np.where(ccw, i, j), np.where(ccw, j, i)
        outside = rows.take(b * n + a, axis=0)
        outside |= rows.take(k * n + b, axis=0)
        outside |= rows.take(a * n + k, axis=0)
        out[lo:lo + step] = (strictly_left(d, a, b, k)
                             & (np.bitwise_count(outside).sum(axis=1) == n - 3))
    return out


# Cells of one [positions, rows] block of the sweep's temporaries, of at
# most 8 bytes each (the gather indices), so its working set stays near
# 256 KB at any n.
_SWEEP_BLOCK_CELLS = 1 << 15


def enumerate_empty(s: LabeledSet) -> TriangleSet:
    """All empty triangles of a point set, added in lexicographic order.

    A triple is empty when no other point of the set lies in its closed
    triangle minus the three vertices (a point on an edge disqualifies).
    Degenerate (collinear) triples are excluded.

    A set of at most 36 points, where every triple fits in one chunk of
    ``_empty_rows`` (C(n, 3) n <= ``_ROW_CHUNK_CELLS``), has all its rows
    i < j < k tested directly, as pairing tests B's: at hunt sizes (n 7-9)
    that takes about a third of the sweep's time, which is mostly fixed
    per-call cost there.  Larger sets take the angular sweep below.

    Angular sweep, O(n^3) on the exact angular order of ``angle_order``.
    Its ``first`` table is the rank table R: R[v, p] counts the points
    strictly before p's direction around v, counterclockwise from +x.
    Each triangle is found once, in the row (i, j) of its smallest label i
    and the j that puts the third vertex k strictly left of i -> j.  The
    closed triangle is the intersection of its angles at i and at j, so a
    point p other than i, j, k lies in it iff p's angle at i,
    counterclockwise from i -> j, is at most k's, and p's angle at j,
    clockwise from j -> i, is at most k's too.  Row (i, j) walks i's other
    points counterclockwise from j's direction, ties nearest first (a
    rotation of i's one sorted list, read by a gather), and gives each its
    clockwise rank offset at j from j -> i: a prefix of the walk holds
    exactly the points of the first test, so k is empty iff its offset is
    below every earlier one.  A point inside segment ij has offset 0 and
    blocks the whole row; a point on ik comes before k, and one on jk ties
    with it, so both block it.

    A row stops at its half-turn: it holds j's direction group (g points,
    j among them), then the points strictly left of i -> j, and nothing
    after them can be a candidate or precede one.  So row (i, j) is
    L = g + |{k strictly left of i -> j}| long (g from ``angle_order``'s
    ``last`` table, the count a popcount of the orientation table's row
    (i, j)), a candidate is a position t with g <= t < L, and rows with
    nothing strictly left are skipped.  Rows are sorted by L, longest
    first, and swept in blocks of about ``_SWEEP_BLOCK_CELLS`` cells, each
    as long as its longest row.
    """
    n = len(s)
    d = s.signs  # raises SizeGuard above MAX_TENSOR_POINTS, before any [n, n] table
    if math.comb(n, 3) * n <= _ROW_CHUNK_CELLS:
        r = np.arange(n)
        arr = np.argwhere((r[:, None, None] < r[:, None]) & (r[:, None] < r))
        arr = arr[_empty_rows(d, arr)]
        return TriangleSet._of_rows(arr)
    # The sweep's per-row tables die with _sweep_codes, before the rows are
    # filled.  Each triangle is found in exactly one row, so sorting the
    # codes gives lexicographic order.
    code = np.concatenate(_sweep_codes(s, d) or [np.empty(0, dtype=np.int32)])
    code.sort()
    arr = np.empty((len(code), 3), dtype=np.intp)
    np.divmod(code, n, out=(code, arr[:, 2]))
    np.divmod(code, n, out=(arr[:, 0], arr[:, 1]))
    return TriangleSet._of_rows(arr)


def _sweep_codes(s: LabeledSet, d: np.ndarray) -> list[np.ndarray]:
    """The angular sweep of ``enumerate_empty`` over ``s``, whose packed
    orientation table is ``d``: each empty triangle (a, b, c), a < b < c,
    as the int32 code (a * n + b) * n + c, in blocks of unsorted codes.
    The codes stay below n**3 < 2**31 within MAX_TENSOR_POINTS, and int32
    divides several times faster."""
    n = len(s)
    order, ranks, last, _ = angle_order(*np.array(s.points, dtype=np.int64).T)
    # i itself, last in its own list, is dropped and ranked -n, below every
    # other point; the list is doubled so every rotation is one window.
    np.fill_diagonal(ranks, -n)
    width = n - 1
    around = order[:, :-1]
    around = np.concatenate((around, around), axis=1).ravel()
    around = as_strided(around, (len(around) - width + 1, width),
                        around.strides * 2, writeable=False)
    flat_r = ranks.reshape(-1)
    pos = np.arange(n)
    cell = np.flatnonzero(pos[:, None] < pos)
    left = _left_counts(d, cell)
    cell, left = cell[left > 0], left[left > 0]
    base = flat_r[cell]
    group = last.reshape(-1)[cell] + 1 - base
    length = group + left
    wide = np.argsort(-length, kind="stable")
    cell, base, group, left, length = (
        a[wide] for a in (cell, base, group, left, length))
    # with int32 labels every code is computed in int32
    ii, jj = np.divmod(cell.astype(np.int32), n)
    # The first point in j's direction from i has index R[i, j] in i's
    # sorted list, since exactly R[i, j] points precede that direction.
    start = ii * (2 * width) + base
    # Clockwise rank of i at j, from which each walk point's offset counts.
    home = flat_r[jj * n + ii]
    i16 = ii.astype(np.int16)
    span = np.arange(width, dtype=np.int16)[:, None]
    codes = []
    lo = 0
    while lo < len(cell):
        # a block of rows is [positions, rows], as long as its first row
        w = int(length[lo])
        b = slice(lo, lo + max(1, _SWEEP_BLOCK_CELLS // w))
        lo = b.stop
        k = np.ascontiguousarray(around[start[b], :w].T)
        # Clockwise rank offset at j from j -> i, in [0, n - 2]; j itself
        # gets R[j, i] + n, past every point.
        low = home[b] - flat_r.take(jj[b] * n + k)
        low += np.int16(width) * (low < 0)
        low = _prefix_min(low)
        # k at position t is empty iff its offset is below every earlier
        # one, that is iff the running minimum falls at t, and t is a
        # candidate iff group <= t < length: t - group, taken unsigned, is
        # below the row's count of points left of i -> j.
        hit = (low[1:] < low[:-1]) & (k[1:] > i16[b])
        hit &= (span[1:w] - group[b]).view(np.uint16) < left[b].view(np.uint16)
        t, r = np.divmod(np.flatnonzero(hit), k.shape[1])
        a, m, c = ii[b][r], jj[b][r], k[t + 1, r]
        codes.append((a * n + np.minimum(m, c)) * n + np.maximum(m, c))
    return codes


def _left_counts(d: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """For each flat cell i * n + j of ``cell``, the number of points
    strictly left of i -> j: the popcount of row (i, j) of packed
    orientation table ``d``, over blocks of about ``_SWEEP_BLOCK_CELLS``
    bytes of rows."""
    n, _, w = d.shape
    rows = d.reshape(n * n, w)
    step = max(1, _SWEEP_BLOCK_CELLS // (8 * w))
    return np.concatenate([
        np.bitwise_count(rows.take(cell[lo:lo + step], axis=0)).sum(axis=1, dtype=np.int16)
        for lo in range(0, len(cell), step)])


def _prefix_min(a: np.ndarray) -> np.ndarray:
    """The running minimum of 2-D ``a`` down axis 0, by doubling: about
    log2(len(a)) elementwise minima over whole blocks of rows, which numpy
    vectorizes (``np.minimum.accumulate`` walks the cells one by one and
    ran several times slower).  Overwrites ``a``."""
    spare = np.empty_like(a)
    s = 1
    while s < len(a):
        spare[:s] = a[:s]
        np.minimum(a[s:], a[:-s], out=spare[s:])
        a, spare = spare, a
        s *= 2
    return a


def _tuples(arr: np.ndarray) -> Iterator[Tri]:
    """The rows of a label array as tuples, in row order."""
    return zip(*(c.tolist() for c in arr.T))


def paired_empty(pair: "PointSetPair") -> TriangleSet:
    """Triples that are empty triangles in both sides of a pair.

    Only these can ever appear in a joint triangulation, so this is the
    candidate pool for everything downstream.  A's empty triangles are
    tested against B's orientation table; the kept rows of A's sorted
    array are the result's rows, and its tuple set, built when first read,
    adds the kept members of A's set in A's iteration order.
    """
    in_a = enumerate_empty(pair.a)
    arr = in_a.array()
    keep = _empty_rows(pair.b.signs, arr)

    def build() -> set[Tri]:
        drop = set(_tuples(arr[~keep]))
        return {t for t in in_a if t not in drop}

    return TriangleSet._of_rows(arr[keep], build)
