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
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Cap so that any orientation determinant of coordinate differences
# (|value| <= 2 * (2*COORD_LIMIT)**2 = 2**51), and the three-term sum the
# sign tensor adds (below 3 * 2**49 < 2**51), stay well inside signed
# 64-bit range on the numpy fast paths, with headroom for summing a few
# thousand doubled areas.  Inputs outside the cap are rejected when a
# point set or polygon is constructed, never inside a predicate.
COORD_LIMIT = 2**24

CCW = 1
COLLINEAR = 0
CW = -1


class Point(NamedTuple):
    x: int
    y: int


class DegenerateInput(ValueError):
    """Raised for inputs that admit no triangulation (e.g. all collinear)."""


class SizeGuard(ValueError):
    """Raised when a request exceeds a documented size limit (CLI exit 3)."""


# Largest point set whose orientation-sign tensor is built: n**3 int8 bytes
# per side (512 MB at n = 800), so a pair's two tensors stay near 1 GB.
MAX_TENSOR_POINTS = 800
# Entries of one int64 block of the tensor build (1 MB); bounds its
# temporaries at any n.
_TENSOR_BLOCK = 1 << 17


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

    @cached_property
    def signs(self) -> np.ndarray:
        """The set's orientation-sign tensor (``orient_sign_tensor``), built
        once and shared by every stage that reads it; read-only.  Raises
        SizeGuard, before allocating, above MAX_TENSOR_POINTS points."""
        if len(self) > MAX_TENSOR_POINTS:
            raise SizeGuard(f"orientation tensors are limited to n <= "
                            f"{MAX_TENSOR_POINTS}, got {len(self)}")
        d = orient_sign_tensor(self.points)
        d.flags.writeable = False
        return d

    @cached_property
    def hull(self) -> tuple[int, ...]:
        """The set's ``convex_hull`` label cycle, computed once and read by
        the hull-correspondence test, the verifier and the oracle.  Raises
        DegenerateInput as ``convex_hull`` does, and then caches nothing."""
        return tuple(convex_hull(self))


def convex_hull(s: LabeledSet | Sequence[Point]) -> list[int]:
    """Counterclockwise label sequence of the convex hull boundary.

    Andrew's monotone chain, popping only on a strict right turn, so
    points collinear on the boundary stay as hull vertices and a boundary
    segment covering another input point is never a hull edge.  The
    sequence is rotated to start at the smallest label.  Raises
    DegenerateInput if all points are collinear (the two chains then
    trace the same line and repeat a label).
    """
    pts = s.points if isinstance(s, LabeledSet) else tuple(s)
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
    """n x n x n tensor of orientation signs D[i,j,k] = sign(cross(p_i, p_j, p_k)).

    cross(p_i, p_j, p_k) = C[i,j] + C[j,k] + C[k,i] with the antisymmetric
    n x n table C[a,b] = x_a * y_b - x_b * y_a, so each entry is two
    additions.  Exact for coordinates within COORD_LIMIT: |C| <= 2**49 and
    the sum stays below 3 * 2**49 < 2**51.  Built in blocks of i into one
    int8 array, so the int64 temporaries stay near ``_TENSOR_BLOCK`` entries.
    """
    xs = np.array([p[0] for p in pts], dtype=np.int64)
    ys = np.array([p[1] for p in pts], dtype=np.int64)
    c = xs[:, None] * ys[None, :] - xs[None, :] * ys[:, None]
    n = len(xs)
    out = np.empty((n, n, n), dtype=np.int8)
    step = max(1, _TENSOR_BLOCK // (n * n))
    for i in range(0, n, step):
        # C[k, i] = -C[i, k]
        v = c[i:i + step, :, None] + c[None, :, :]
        v -= c[i:i + step, None, :]
        np.subtract(v > 0, v < 0, dtype=np.int8, out=out[i:i + step])
    return out
