"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly against coordinate arithmetic, on
purpose: these functions arbitrate the library's fast paths and must not
share code with them.
"""

from __future__ import annotations

import random
from itertools import combinations


def xorient(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def point_in_closed_triangle(a, b, c, p) -> bool:
    s = xorient(a, b, c)
    if s == 0:
        if xorient(a, b, p) != 0:
            return False
        lo, hi = min(a, b, c), max(a, b, c)
        return min(lo[0], hi[0]) <= p[0] <= max(lo[0], hi[0]) \
            and min(lo[1], hi[1]) <= p[1] <= max(lo[1], hi[1])
    return (s * xorient(a, b, p) >= 0 and s * xorient(b, c, p) >= 0
            and s * xorient(c, a, p) >= 0)


def brute_empty_triangles(points) -> set[tuple[int, int, int]]:
    """All empty triples by the direct all-triples, all-points scan."""
    n = len(points)
    out = set()
    for i, j, k in combinations(range(n), 3):
        a, b, c = points[i], points[j], points[k]
        if xorient(a, b, c) == 0:
            continue
        if any(point_in_closed_triangle(a, b, c, points[w])
               for w in range(n) if w not in (i, j, k)):
            continue
        out.add((i, j, k))
    return out


def _proper_cross(a, b, c, d) -> bool:
    return (xorient(a, b, c) * xorient(a, b, d) < 0
            and xorient(c, d, a) * xorient(c, d, b) < 0)


def _strictly_inside(a, b, c, p) -> bool:
    s = xorient(a, b, c)
    return (xorient(a, b, p) == s and xorient(b, c, p) == s
            and xorient(c, a, p) == s)


def overlap_by_decomposition(t1, t2) -> bool:
    """Interior overlap via crossing + containment decomposition.

    Proper edge crossing, or a vertex of one strictly inside the other,
    or (covering shared-boundary nestings) the tripled centroid of one
    strictly inside the other triangle scaled by three.
    """
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for c, d in ((0, 1), (1, 2), (2, 0)):
            if _proper_cross(t1[a], t1[b], t2[c], t2[d]):
                return True
    for u, v in ((t1, t2), (t2, t1)):
        for p in u:
            if _strictly_inside(v[0], v[1], v[2], p):
                return True
    for u, v in ((t1, t2), (t2, t1)):
        cen = (u[0][0] + u[1][0] + u[2][0], u[0][1] + u[1][1] + u[2][1])
        v3 = tuple((3 * p[0], 3 * p[1]) for p in v)
        if _strictly_inside(v3[0], v3[1], v3[2], cen):
            return True
    return False


def overlap_by_sampling(t1, t2, rng: random.Random, tries: int = 400):
    """Randomized overlap witness: returns True when a sampled point is
    strictly inside both triangles, None when sampling is inconclusive."""
    for _ in range(tries):
        # Random convex combination of t1's vertices, scaled to stay integral.
        w = [rng.randint(1, 97) for _ in range(3)]
        total = sum(w)
        px = sum(wi * p[0] for wi, p in zip(w, t1))
        py = sum(wi * p[1] for wi, p in zip(w, t1))
        scaled1 = tuple((total * p[0], total * p[1]) for p in t1)
        scaled2 = tuple((total * p[0], total * p[1]) for p in t2)
        if _strictly_inside(scaled1[0], scaled1[1], scaled1[2], (px, py)) and \
                _strictly_inside(scaled2[0], scaled2[1], scaled2[2], (px, py)):
            return True
    return None


def brute_diagonal_visible(vertices, i: int, j: int) -> bool:
    """Reference visibility test for a polygon diagonal, O(n) per query.

    True iff the open segment between vertices i and j stays strictly
    inside the polygon: no third vertex on it, no crossing with any
    non-incident boundary edge, midpoint inside (ray parity on doubled
    coordinates).
    """
    n = len(vertices)
    a, b = vertices[i], vertices[j]
    for w in range(n):
        if w in (i, j):
            continue
        p = vertices[w]
        if xorient(a, b, p) == 0 and \
                min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
                min(a[1], b[1]) <= p[1] <= max(a[1], b[1]) and p != a and p != b:
            return False
    for k in range(n):
        k2 = (k + 1) % n
        if k in (i, j) or k2 in (i, j):
            continue
        if _proper_cross(a, b, vertices[k], vertices[k2]):
            return False
    mx, my = a[0] + b[0], a[1] + b[1]
    inside = False
    for k in range(n):
        u = (2 * vertices[k][0], 2 * vertices[k][1])
        v = (2 * vertices[(k + 1) % n][0], 2 * vertices[(k + 1) % n][1])
        if (u[1] > my) == (v[1] > my):
            continue
        side = (v[0] - u[0]) * (my - u[1]) - (v[1] - u[1]) * (mx - u[0])
        if (side > 0) if v[1] > u[1] else (side < 0):
            inside = not inside
    return inside


def convex_position_points(n: int, spread: int = 1):
    """n integer points in strictly convex position (on a parabola)."""
    return [(k, spread * k * k) for k in range(n)]


def convex_polygon_coords(n: int, spread: int = 1):
    """A strictly convex integer polygon (parabola arc closed by its chord);
    no three vertices are collinear."""
    return [(k, spread * k * k) for k in range(n)]


def mutate(rng: random.Random, tris, n: int):
    """One random drop, vertex swap or duplication of a triangle list."""
    tris = [tuple(t) for t in tris]
    kind = rng.choice(("drop", "swap", "dup"))
    if kind == "drop" and len(tris) > 1:
        del tris[rng.randrange(len(tris))]
    elif kind == "swap":
        i = rng.randrange(len(tris))
        t = list(tris[i])
        pos = rng.randrange(3)
        t[pos] = rng.choice([v for v in range(n) if v not in t])
        tris[i] = tuple(sorted(t))
    else:
        tris.append(tris[rng.randrange(len(tris))])
    return tris


def _area2(a, b, c) -> int:
    return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _on_open_segment(a, b, p) -> bool:
    return p != a and p != b and point_in_closed_triangle(a, b, a, p)


def brute_hull_edges(points) -> list[tuple[int, int]]:
    """Directed hull edges i -> j with the set on the closed left side and
    no point strictly between i and j (collinear boundary points are hull
    vertices).  Empty for a collinear set."""
    n = len(points)
    if all(xorient(points[0], points[1], p) == 0 for p in points):
        return []
    return [(i, j) for i in range(n) for j in range(n) if i != j
            and all(xorient(points[i], points[j], p) >= 0 for p in points)
            and not any(_on_open_segment(points[i], points[j], p) for p in points)]


def _pairwise_tiles(sides, tris, empty: bool) -> bool:
    """Each side is (points, directed boundary edges of the region)."""
    if not tris or len(set(tris)) != len(tris):
        return False
    for points, boundary in sides:
        if not boundary:
            return False
        real = [tuple(points[v] for v in t) for t in tris]
        if any(xorient(*r) == 0 for r in real):
            return False
        if empty and any(point_in_closed_triangle(*r, points[w])
                         for t, r in zip(tris, real)
                         for w in range(len(points)) if w not in t):
            return False
        if any(overlap_by_decomposition(r, s)
               for x, r in enumerate(real) for s in real[:x]):
            return False
        region = abs(sum(points[i][0] * points[j][1] - points[j][0] * points[i][1]
                         for i, j in boundary))
        if sum(_area2(*r) for r in real) != region:
            return False
    undirected = [{tuple(sorted(e)) for e in b} for _, b in sides]
    if any(u != undirected[0] for u in undirected):
        return False
    counts: dict = {}
    for i, j, k in tris:
        for e in ((i, j), (j, k), (i, k)):
            counts[e] = counts.get(e, 0) + 1
    return (all(counts.get(e) == 1 for e in undirected[0])
            and all(c == 2 for e, c in counts.items() if e not in undirected[0]))


def pairwise_verify_points(a, b, triangles) -> bool:
    """Reference joint-triangulation check for two labeled point sets,
    comparing every pair of triangles: nondegenerate and empty on both
    sides, pairwise interior-disjoint, areas summing to each hull's, equal
    hull edges, hull edges used once and all others twice."""
    tris = [tuple(sorted(t)) for t in triangles]
    return _pairwise_tiles([(a, brute_hull_edges(a)), (b, brute_hull_edges(b))],
                           tris, empty=True)


def pairwise_verify_polygons(a, b, triangles) -> bool:
    """Reference joint-triangulation check for two vertex cycles, comparing
    every pair of triangles: n - 2 triangles, nondegenerate and pairwise
    interior-disjoint on both sides, areas summing to each polygon's, every
    edge a boundary edge or a diagonal of both, boundary edges used once
    and diagonals twice."""
    n = len(a)
    tris = [tuple(sorted(t)) for t in triangles]
    if len(tris) != n - 2:
        return False
    for i, j, k in tris:
        for u, v in ((i, j), (j, k), (i, k)):
            if (v - u) % n not in (1, n - 1) and not (
                    brute_diagonal_visible(a, u, v) and brute_diagonal_visible(b, u, v)):
                return False
    boundary = [(i, (i + 1) % n) for i in range(n)]
    return _pairwise_tiles([(a, boundary), (b, boundary)], tris, empty=False)
