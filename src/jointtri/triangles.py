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

    def add(self, t: Tri) -> None:
        self._tris.add(tri(*t))

    def discard(self, t: Tri) -> None:
        self._tris.discard(t)

    def sorted_triangles(self) -> list[Tri]:
        return sorted(self._tris)

    def copy(self) -> "TriangleSet":
        return TriangleSet(self._tris)

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


def enumerate_empty(s: LabeledSet) -> TriangleSet:
    """All empty triangles of a point set.

    A triple is empty when no other point of the set lies in its closed
    triangle minus the three vertices (a point on an edge disqualifies).
    Degenerate (collinear) triples are excluded.  Vectorized over the
    set's cached orientation-sign tensor (``LabeledSet.signs``).
    """
    n = len(s)
    d = s.signs
    found: list[Tri] = []
    idx = np.arange(n)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            sij = d[i, j]
            ks = idx[j + 1:][sij[j + 1:] != 0]
            if ks.size == 0:
                continue
            sk = sij[ks].astype(np.int8)[:, None]
            # p is in closed tri(i,j,k) iff all three edge signs agree
            # with the triangle's orientation (zero allowed: on an edge).
            inside = (sk * sij[None, :] >= 0)
            inside &= (sk * d[j, ks, :] >= 0)
            inside &= (sk * d[ks, i, :] >= 0)
            inside[:, i] = False
            inside[:, j] = False
            inside[np.arange(ks.size), ks] = False
            for k in ks[~inside.any(axis=1)]:
                found.append((i, j, int(k)))
    return TriangleSet(found)


def paired_empty(pair: "PointSetPair") -> TriangleSet:
    """Triples that are empty triangles in both sides of a pair.

    Only these can ever appear in a joint triangulation, so this is the
    candidate pool for everything downstream.
    """
    in_a = enumerate_empty(pair.a)
    in_b = enumerate_empty(pair.b)
    return TriangleSet(t for t in in_a if t in in_b)
