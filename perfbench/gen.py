"""Seeded instance generators for the benchmark.

Every generator takes an explicit ``random.Random`` and returns instance
text in the program's file format, so the same seed gives byte-identical
inputs.  The point and polygon families used by the large workloads are
self-contained (own integer predicates and hull), so a change to the
program cannot change the inputs it is measured on.  ``hunt-small`` uses
the program's own ``gen_point_pair`` and ``gen_polygon_pair`` because it
measures the hunt campaign, whose instances come from them.

No generator filters on the program's verdict: pairs that fail NC2 or for
which the polygon DP finds nothing stay in the stream.
"""

from __future__ import annotations

import math
import random

import numpy as np

POINT_RANGE = 1000     # coordinate range of the hull-locked point pairs
POINT_JITTER = 3       # interior jitter of side B
STAR_RADIUS = 2**20    # outer radius of the star polygons
STAR_INNER = 0.3       # inner radius as a share of STAR_RADIUS
STAR_JITTER = 600      # vertex jitter of the jittered star copy
MAX_REDRAWS = 1000


def cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def format_pair(kind: str, a, b) -> str:
    """Instance text: a ``POINTS n`` or ``POLYGON n`` header, then one
    ``ax ay bx by`` row per label."""
    rows = [f"{kind} {len(a)}"]
    rows += [f"{p[0]} {p[1]} {q[0]} {q[1]}" for p, q in zip(a, b)]
    return "\n".join(rows) + "\n"


# -- hull-locked point pairs ------------------------------------------------

def hull_corners(pts):
    """Strict convex-hull corners in counterclockwise order (monotone chain)."""
    order = sorted(pts)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(order), chain(order[::-1])
    return lower[:-1] + upper[:-1]


def points_locked(rng: random.Random, n: int,
                  coord_range: int = POINT_RANGE,
                  jitter: int = POINT_JITTER) -> str:
    """A point pair whose B is A with every hull point fixed (collinear
    boundary points included) and every interior point jittered to a free
    position strictly inside the hull.  Both hulls carry the same labels,
    so NC1 holds by construction and the later stages all run."""
    seen: set = set()
    a = []
    while len(a) < n:
        p = (rng.randint(0, coord_range), rng.randint(0, coord_range))
        if p not in seen:
            seen.add(p)
            a.append(p)
    corners = hull_corners(a)
    if len(corners) < 3:
        raise ValueError("degenerate draw: all points collinear")
    edges = list(zip(corners, corners[1:] + corners[:1]))

    def strictly_inside(q) -> bool:
        return all(cross(u, v, q) > 0 for u, v in edges)

    taken = {p for p in a if not strictly_inside(p)}   # hull, fixed
    b = []
    for p in a:
        if not strictly_inside(p):
            b.append(p)
            continue
        for _ in range(MAX_REDRAWS):
            q = (p[0] + rng.randint(-jitter, jitter),
                 p[1] + rng.randint(-jitter, jitter))
            if q not in taken and strictly_inside(q):
                break
        else:
            raise ValueError("no free jitter position")
        taken.add(q)
        b.append(q)
    return format_pair("POINTS", a, b)


# -- polygons ---------------------------------------------------------------

def convex_polygon(rng: random.Random, n: int):
    """A strictly convex counterclockwise polygon: n points of a parabola
    ``y = c x^2`` at increasing seeded x, closed by the chord."""
    c = rng.randint(1, 2)
    x = rng.randint(0, 50)
    out = []
    for _ in range(n):
        out.append((x, c * x * x))
        x += rng.randint(1, 9)
    return out


def _star_ok(poly, center) -> bool:
    """Exact test that the cycle winds once around ``center`` with every
    step turning counterclockwise, which makes it star-shaped and simple,
    and that no three vertices are collinear, which rules out grazing
    diagonals.  With every step counterclockwise, each upward crossing of
    the horizontal through ``center`` is one turn of winding."""
    winding = 0
    for u, v in zip(poly, poly[1:] + poly[:1]):
        if cross(center, u, v) <= 0:
            return False
        if u[1] < center[1] <= v[1]:
            winding += 1
    return winding == 1 and not has_collinear_triple(poly)


def has_collinear_triple(pts) -> bool:
    """Exact: do any three of the points lie on one line?  For each point,
    reduce the direction to every other point by its gcd and sign; two
    equal directions from one point mean a collinear triple."""
    xy = np.array(pts, dtype=np.int64)
    dx = xy[None, :, 0] - xy[:, None, 0]
    dy = xy[None, :, 1] - xy[:, None, 1]
    g = np.gcd(dx, dy)
    np.fill_diagonal(g, 1)
    dx //= g
    dy //= g
    flip = (dx < 0) | ((dx == 0) & (dy < 0))
    dx[flip] *= -1
    dy[flip] *= -1
    key = dx * (1 << 32) + dy
    np.fill_diagonal(key, np.iinfo(np.int64).min)
    key.sort(axis=1)
    return bool((key[:, 2:] == key[:, 1:-1]).any())


def _star(rng: random.Random, n: int):
    """One seeded star draw around (R, R): n stratified angles, radii
    uniform in [STAR_INNER * R, R], rounded to integers."""
    out = []
    for k in range(n):
        theta = 2 * math.pi * (k + 0.8 * rng.random()) / n
        r = STAR_RADIUS * (STAR_INNER + (1 - STAR_INNER) * rng.random())
        out.append((STAR_RADIUS + round(r * math.cos(theta)),
                    STAR_RADIUS + round(r * math.sin(theta))))
    return out


def star_polygon(rng: random.Random, n: int):
    """A star-shaped simple polygon with no three collinear vertices,
    re-drawn from the same stream until it is one."""
    center = (STAR_RADIUS, STAR_RADIUS)
    for _ in range(MAX_REDRAWS):
        poly = _star(rng, n)
        if _star_ok(poly, center):
            return poly
    raise ValueError("no valid star polygon drawn")


def jittered_star(rng: random.Random, base, jitter: int = STAR_JITTER):
    """``base`` with every vertex moved by at most ``jitter`` per axis,
    re-drawn until it is again a valid star polygon."""
    center = (STAR_RADIUS, STAR_RADIUS)
    for _ in range(MAX_REDRAWS):
        poly = [(x + rng.randint(-jitter, jitter), y + rng.randint(-jitter, jitter))
                for x, y in base]
        if _star_ok(poly, center):
            return poly
    raise ValueError("no valid jittered star drawn")


POLYGON_KINDS = ("convex", "star-jittered", "star-independent")


def polygon_pair(rng: random.Random, n: int, kind: str) -> str:
    if kind == "convex":
        a, b = convex_polygon(rng, n), convex_polygon(rng, n)
    elif kind == "star-jittered":
        a = star_polygon(rng, n)
        b = jittered_star(rng, a)
    elif kind == "star-independent":
        a, b = star_polygon(rng, n), star_polygon(rng, n)
    else:
        raise ValueError(f"unknown polygon kind {kind!r}")
    return format_pair("POLYGON", a, b)
