"""Joint triangulation of two simple polygons.

Pipeline: per-polygon visibility graphs, their label-wise intersection,
then an interval dynamic program over boundary indices.  A cell (i, q)
records whether the chain i..q closed by the chord {i, q} admits a joint
triangulation; the split vertex chosen for each true cell drives the
backtracking that extracts the triangle set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .geom import (COORD_LIMIT, Point, orient, point_on_segment,
                   segments_intersect_closed, signed_area2)
from .greedy import JointTriangulation, verify_tiling
from .triangles import Edge, Tri, TriangleSet, edge, tri


class GrazingDiagonal(ValueError):
    """A candidate diagonal passes through a third vertex, making its
    visibility status ambiguous; such instances are rejected outright."""


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
        self._check_simple()

    def _check_simple(self) -> None:
        v = self.vertices
        n = len(v)
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                c, d = v[j], v[(j + 1) % n]
                shared = {i, (i + 1) % n} & {j, (j + 1) % n}
                if shared:
                    if len(shared) == 2:
                        raise ValueError("boundary is not simple: repeated edge")
                    # Adjacent edges may only touch at the shared vertex.
                    w = v[shared.pop()]
                    others = [p for p in (a, b, c, d) if p != w]
                    if orient(others[0], others[1], w) == 0 and (
                            point_on_segment(w, others[0], others[1])
                            or point_on_segment(w, others[1], others[0])):
                        raise ValueError(
                            f"boundary is not simple: edges at vertex overlap near {w}")
                    continue
                if segments_intersect_closed(a, b, c, d):
                    raise ValueError(
                        f"boundary is not simple: edges {i} and {j} intersect")

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
        n = len(self.vertices)
        return frozenset(edge(i, (i + 1) % n) for i in range(n))


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


def visibility_graph(poly: Polygon) -> set[Edge]:
    """Boundary edges plus every diagonal of the polygon.

    A non-adjacent pair {i, j} is a diagonal iff the open segment meets
    the boundary only at its endpoints and its midpoint lies inside the
    polygon.  A segment passing through a third vertex is never a
    diagonal; if such a segment would otherwise qualify, the instance
    is rejected with GrazingDiagonal because its status is ambiguous.

    Vectorized one row at a time: for a fixed i, every test against all
    j, all vertices and all boundary edges is a single [n, n] pass.
    """
    n = len(poly)
    xs = np.array([p[0] for p in poly.vertices], dtype=np.int64)
    ys = np.array([p[1] for p in poly.vertices], dtype=np.int64)
    ex, ey = np.roll(xs, -1), np.roll(ys, -1)
    edge_idx = np.arange(n)
    # Lazily built [k, j] helpers shared across rows.
    d4_all = ((ex - xs)[:, None] * (ys[None, :] - ys[:, None])
              - (ey - ys)[:, None] * (xs[None, :] - xs[:, None]))
    dxw = xs[None, :] - xs[:, None]  # [j, w]: x_w - x_j
    dyw = ys[None, :] - ys[:, None]

    out: set[Edge] = set(poly.boundary_edges())
    for i in range(n):
        js = np.arange(i + 2, n)
        js = js[~((js == (i - 1) % n) | (js == (i + 1) % n))]
        if js.size == 0:
            continue
        ux = xs - xs[i]
        uy = ys - ys[i]
        # cvert[j, w] = orientation of vertex w against the segment i -> j
        cvert = ux[js, None] * uy[None, :] - uy[js, None] * ux[None, :]
        on_line = cvert == 0
        dots = ux[None, :] * dxw[js, :] + uy[None, :] * dyw[js, :]
        grazing = (on_line & (dots < 0)).any(axis=1)

        d1 = cvert
        d2 = cvert[:, (edge_idx + 1) % n]
        d3 = (ex - xs) * (ys[i] - ys) - (ey - ys) * (xs[i] - xs)
        d4 = d4_all[:, js].T
        proper = ((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))
        proper &= ((d3[None, :] > 0) & (d4 < 0)) | ((d3[None, :] < 0) & (d4 > 0))
        proper[:, i] = proper[:, (i - 1) % n] = False
        proper[np.arange(js.size), js] = False
        proper[np.arange(js.size), (js - 1) % n] = False
        blocked = proper.any(axis=1)

        ambiguous = grazing & ~blocked
        if bool(ambiguous.any()):
            # No crossing rules these out, so visibility hinges on the
            # grazed vertex; refuse rather than guess (the midpoint test
            # below is not even well defined here).
            j_bad = int(js[ambiguous][0])
            raise GrazingDiagonal(
                f"diagonal candidate {(i, j_bad)} passes through another vertex")

        # Midpoint-in-polygon, on doubled coordinates, for the survivors.
        alive = js[~blocked]
        if alive.size == 0:
            continue
        px2 = xs[i] + xs[alive]
        py2 = ys[i] + ys[alive]
        uy2, vy2 = 2 * ys, 2 * ey
        straddle = (uy2[None, :] > py2[:, None]) != (vy2[None, :] > py2[:, None])
        side = ((2 * ex - 2 * xs)[None, :] * (py2[:, None] - uy2[None, :])
                - (vy2 - uy2)[None, :] * (px2[:, None] - 2 * xs[None, :]))
        hit = straddle & np.where((vy2 > uy2)[None, :], side > 0, side < 0)
        inside = (hit.sum(axis=1) % 2) == 1
        for j in alive[inside]:
            out.add((i, int(j)))
    return out


def ivg(pair: PolygonPair) -> set[Edge]:
    """Label-pair intersection of the two visibility graphs; always
    contains all boundary edges."""
    return visibility_graph(pair.a) & visibility_graph(pair.b)


def _interior_triangle(pair: PolygonPair, i: int, k: int, q: int) -> bool:
    """The triangle (i, k, q) must sit on the interior side of the chain
    in both polygons, relative to each polygon's own winding."""
    return (orient(pair.a[i], pair.a[k], pair.a[q]) == pair.a.ccw_sign
            and orient(pair.b[i], pair.b[k], pair.b[q]) == pair.b.ccw_sign)


def _fill_table(pair: PolygonPair,
                shared: set[Edge]) -> tuple[list[list[bool]], list[list[int]]]:
    """Fill the boolean interval table and the split-vertex choices."""
    n = len(pair)
    m = [[False] * n for _ in range(n)]
    choice = [[-1] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = True
    for gap in range(2, n):
        for i in range(0, n - gap):
            q = i + gap
            if (i, q) not in shared and (i, q) != (0, n - 1):
                continue
            for k in range(i + 1, q):
                if not (m[i][k] and m[k][q]):
                    continue
                if (i, k) not in shared or (k, q) not in shared:
                    continue
                if not _interior_triangle(pair, i, k, q):
                    continue
                m[i][q] = True
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
    shared = ivg(pair)
    m, choice = _fill_table(pair, shared)
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
    violation = verify_polygon_joint(pair, tris, shared=shared)
    return JointTriangulation(TriangleSet(tris), violation is None, violation, tris)


def count_joint_triangulations(pair: PolygonPair) -> int:
    """Number of distinct joint triangulations the interval recurrence
    admits (the split vertex on a chord is unique per triangulation, so
    this counts triangle sets exactly)."""
    n = len(pair)
    shared = ivg(pair)
    counts = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        counts[i][i + 1] = 1
    for gap in range(2, n):
        for i in range(0, n - gap):
            q = i + gap
            if (i, q) not in shared and (i, q) != (0, n - 1):
                continue
            total = 0
            for k in range(i + 1, q):
                if counts[i][k] and counts[k][q] \
                        and (i, k) in shared and (k, q) in shared \
                        and _interior_triangle(pair, i, k, q):
                    total += counts[i][k] * counts[k][q]
            counts[i][q] = total
    return counts[0][n - 1]


def verify_polygon_joint(pair: PolygonPair, triangles,
                         shared: Optional[set[Edge]] = None) -> Optional[str]:
    """Exact check that a triple set jointly triangulates both polygons:
    ``verify_tiling`` with each polygon's vertex cycle as its boundary and
    the shared visibility edges as the allowed edges.  Pass ``shared`` to
    reuse an already-computed ``ivg(pair)``.
    """
    if shared is None:
        shared = ivg(pair)
    cycle = range(len(pair))
    return verify_tiling((("A", pair.a.vertices, cycle),
                          ("B", pair.b.vertices, cycle)), triangles, shared)
