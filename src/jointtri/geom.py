"""Exact planar predicates on integer coordinates.

Every combinatorial decision in this package reduces to the sign of a
2x2 cross-product determinant over integer coordinates; nothing in a
decision path touches floating point.  Scalar predicates use Python
integers and are exact for any magnitude.  The vectorized helpers use
64-bit integers, which is why coordinates are capped at construction
time (see ``COORD_LIMIT``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Cap so that any orientation determinant of coordinate differences
# (|value| <= 2 * (2*COORD_LIMIT)**2 = 2**51) stays well inside signed
# 64-bit range on the numpy fast paths, with headroom for summing a few
# thousand doubled areas.  Inputs outside the cap are rejected when a
# point set or polygon is constructed, never inside a predicate.
COORD_LIMIT = 2**24

CCW = 1
COLLINEAR = 0
CW = -1

STRICT_INTERIOR = "strict"
CLOSED_MINUS_VERTICES = "closed"


class Point(NamedTuple):
    x: int
    y: int


Triangle = tuple[Point, Point, Point]


class DegenerateInput(ValueError):
    """Raised for inputs that admit no triangulation (e.g. all collinear)."""


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


def area2(a: Point, b: Point, c: Point) -> int:
    """Doubled absolute area of a triangle."""
    return abs(cross(a, b, c))


def signed_area2(points: Sequence[Point]) -> int:
    """Doubled signed area of a closed vertex cycle (positive iff CCW)."""
    total = 0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def point_on_segment(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment ab (endpoints included)."""
    if orient(a, b, p) != COLLINEAR:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def strictly_between(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the open segment ab (endpoints excluded)."""
    return p != a and p != b and point_on_segment(a, b, p)


def segments_intersect_closed(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the closed segments ab and cd share at least one point."""
    d1 = orient(a, b, c)
    d2 = orient(a, b, d)
    d3 = orient(c, d, a)
    d4 = orient(c, d, b)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == 0 and point_on_segment(a, b, c):
        return True
    if d2 == 0 and point_on_segment(a, b, d):
        return True
    if d3 == 0 and point_on_segment(c, d, a):
        return True
    if d4 == 0 and point_on_segment(c, d, b):
        return True
    return False


def triangle_contains(t: Triangle, p: Point, mode: str = CLOSED_MINUS_VERTICES) -> bool:
    """Test whether p lies in triangle t.

    ``STRICT_INTERIOR``: p strictly inside a nondegenerate t (False for
    a degenerate t).  ``CLOSED_MINUS_VERTICES``: p anywhere in the
    closed triangle -- interior or on an edge; for a degenerate
    (collinear) t, p on the segment spanned by the three points.  The
    caller guarantees p is not a vertex of t.
    """
    a, b, c = t
    s = orient(a, b, c)
    if s == COLLINEAR:
        if mode == STRICT_INTERIOR:
            return False
        # Spanned segment of three collinear points = hull of the extremes.
        lo = min(a, b, c)
        hi = max(a, b, c)
        return point_on_segment(lo, hi, p)
    d1 = orient(a, b, p)
    d2 = orient(b, c, p)
    d3 = orient(c, a, p)
    if mode == STRICT_INTERIOR:
        return d1 == s and d2 == s and d3 == s
    if mode == CLOSED_MINUS_VERTICES:
        return s * d1 >= 0 and s * d2 >= 0 and s * d3 >= 0
    raise ValueError(f"unknown containment mode: {mode!r}")


def interiors_overlap(t1: Triangle, t2: Triangle) -> bool:
    """True iff the open interiors of two nondegenerate triangles meet.

    Sharing only vertices or boundary segments does not count; one
    triangle nested inside the other does.  Implemented as an exact
    separating-axis test over the six edge lines: the interiors are
    disjoint iff some edge line of one triangle has the whole other
    triangle on its closed outer side.
    """
    s1 = orient(*t1)
    s2 = orient(*t2)
    if s1 == 0 or s2 == 0:
        raise ValueError("interiors_overlap requires nondegenerate triangles")
    return not (_edge_separates(t1, s1, t2) or _edge_separates(t2, s2, t1))


def _edge_separates(tri: Triangle, s: int, other: Triangle) -> bool:
    for i in range(3):
        a = tri[i]
        b = tri[(i + 1) % 3]
        if all(s * cross(a, b, v) <= 0 for v in other):
            return True
    return False


@dataclass(frozen=True)
class LabeledSet:
    """An indexed planar point set; a point's position in the tuple is its label.

    Labels are 0-based internally (1-based only in files and CLI output).
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise ValueError("a labeled set needs at least 3 points")
        for p in self.points:
            if not (-COORD_LIMIT <= p[0] <= COORD_LIMIT
                    and -COORD_LIMIT <= p[1] <= COORD_LIMIT):
                raise ValueError(
                    f"coordinate out of range [-{COORD_LIMIT}, {COORD_LIMIT}]: {p}")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[int, int]]) -> "LabeledSet":
        return cls(tuple(Point(int(x), int(y)) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, label: int) -> Point:
        return self.points[label]


def convex_hull(s: LabeledSet | Sequence[Point]) -> list[int]:
    """Counterclockwise label sequence of the convex hull boundary.

    Points collinear on the boundary are included as hull vertices, so a
    boundary segment covering another input point is never a hull edge.
    The sequence is rotated to start at the smallest label.  Raises
    DegenerateInput if all points are collinear.
    """
    pts = s.points if isinstance(s, LabeledSet) else tuple(s)
    n = len(pts)
    order = sorted(range(n), key=lambda i: pts[i])

    def chain(indices: list[int]) -> list[int]:
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and cross(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    corners = lower[:-1] + upper[:-1]
    if len(corners) < 3:
        raise DegenerateInput("degenerate point set: all points collinear")

    # Insert collinear boundary points along each strict hull edge.
    hull: list[int] = []
    on_hull = set(corners)
    for idx, u in enumerate(corners):
        v = corners[(idx + 1) % len(corners)]
        hull.append(u)
        between = [w for w in range(n)
                   if w not in on_hull and strictly_between(pts[u], pts[v], pts[w])]
        between.sort(key=lambda w: (abs(pts[w][0] - pts[u][0]),
                                    abs(pts[w][1] - pts[u][1])))
        hull.extend(between)

    start = hull.index(min(hull))
    return hull[start:] + hull[:start]


def hull_edge_set(hull: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Unordered label pairs of consecutive hull boundary vertices."""
    n = len(hull)
    return frozenset(
        (min(hull[i], hull[(i + 1) % n]), max(hull[i], hull[(i + 1) % n]))
        for i in range(n))


def orient_sign_tensor(pts: Sequence[Point]) -> np.ndarray:
    """n x n x n tensor of orientation signs D[i,j,k] = sign(cross(p_i, p_j, p_k)).

    Exact for coordinates within COORD_LIMIT (the determinant fits in
    int64 with a wide margin).
    """
    xs = np.array([p[0] for p in pts], dtype=np.int64)
    ys = np.array([p[1] for p in pts], dtype=np.int64)
    dx = xs[None, :] - xs[:, None]
    dy = ys[None, :] - ys[:, None]
    det = dx[:, :, None] * dy[:, None, :] - dy[:, :, None] * dx[:, None, :]
    return np.sign(det).astype(np.int8)
