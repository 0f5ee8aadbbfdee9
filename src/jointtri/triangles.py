"""Empty-triangle enumeration and the triangle set container.

A triangle is an unordered label triple stored as a sorted tuple, so one
triple simultaneously names a triangle in each of two paired point sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .geom import LabeledSet

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


def tri_edges(t: Tri) -> tuple[Edge, Edge, Edge]:
    i, j, k = t
    return ((i, j), (j, k), (i, k))


# The apex of (i, j, k) lies on side s = orient(i, j, k) of the directed
# edges i->j and j->k, and on side -s of i->k: one flip per edge, in the
# order of tri_edges.
FLIPS = (1, 1, -1)


def apex(t: Tri, e: Edge) -> int:
    """The vertex of t opposite to edge e."""
    for v in t:
        if v not in e:
            return v
    raise ValueError(f"edge {e} not in triangle {t}")


class TriangleSet:
    """A set of canonical label triples."""

    def __init__(self, triangles: Iterable[Tri] = ()):
        self._tris: set[Tri] = set()
        for t in triangles:
            self.add(t)

    @classmethod
    def _of_canonical(cls, triangles: Iterable[Tri]) -> "TriangleSet":
        """A set of triples already in canonical form, added in the given
        order, so it iterates exactly as one built by ``add``.  (``iter``
        keeps a set argument from being copied table to table.)"""
        out = cls.__new__(cls)
        out._tris = set(iter(triangles))
        return out

    def add(self, t: Tri) -> None:
        self._tris.add(tri(*t))

    def discard(self, t: Tri) -> None:
        self._tris.discard(t)

    def sorted_triangles(self) -> list[Tri]:
        return sorted(self._tris)

    def copy(self) -> "TriangleSet":
        return TriangleSet._of_canonical(self._tris)

    def __contains__(self, t: object) -> bool:
        return t in self._tris

    def __iter__(self) -> Iterator[Tri]:
        return iter(self._tris)

    def __len__(self) -> int:
        return len(self._tris)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TriangleSet):
            return self._tris == other._tris
        if isinstance(other, (set, frozenset)):
            return self._tris == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TriangleSet({self.sorted_triangles()!r})"


# Cells of one [rows, n] block of _empty_rows' temporaries (1 MB of int8),
# so enumeration stays within a few MB at any n.
_ROW_CHUNK_CELLS = 1 << 20


def _empty_rows(d: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """For each label-triple row of ``arr``, whether the triangle is
    nondegenerate and has no point but its vertices in its closed triangle,
    under orientation-sign tensor ``d``.

    A point is in closed tri(i, j, k) iff no edge sign opposes the
    triangle's orientation (zero: on the edge line); the three vertices
    always are, so the triangle is empty iff exactly three points are.
    """
    n = d.shape[0]
    out = np.empty(len(arr), dtype=bool)
    step = max(1, _ROW_CHUNK_CELLS // n)
    for lo in range(0, len(arr), step):
        i, j, k = arr[lo:lo + step].T
        s = d[i, j, k]
        away = -s[:, None]
        outside = d[i, j] == away
        outside |= d[j, k] == away
        outside |= d[k, i] == away
        out[lo:lo + step] = (s != 0) & (np.count_nonzero(outside, axis=1) == n - 3)
    return out


def enumerate_empty(s: LabeledSet) -> TriangleSet:
    """All empty triangles of a point set, added in lexicographic order.

    A triple is empty when no other point of the set lies in its closed
    triangle minus the three vertices (a point on an edge disqualifies).
    Degenerate (collinear) triples are excluded.  Vectorized over the
    set's cached orientation-sign tensor (``LabeledSet.signs``), one block
    of rows (i, j, k), j < k, per i.
    """
    n = len(s)
    d = s.signs
    found: list[Tri] = []
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        arr = np.column_stack((np.full(len(j), i), j + i + 1, k + i + 1))
        found.extend(map(tuple, arr[_empty_rows(d, arr)].tolist()))
    return TriangleSet._of_canonical(found)


def paired_empty(pair: "PointSetPair") -> TriangleSet:
    """Triples that are empty triangles in both sides of a pair.

    Only these can ever appear in a joint triangulation, so this is the
    candidate pool for everything downstream.  A's empty triangles are
    tested against B's tensor, kept in A's iteration order.
    """
    in_a = list(enumerate_empty(pair.a))
    keep = _empty_rows(pair.b.signs, np.array(in_a, dtype=np.intp).reshape(-1, 3))
    return TriangleSet._of_canonical(
        t for t, ok in zip(in_a, keep.tolist()) if ok)
