"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly against coordinate arithmetic, on
purpose: these functions arbitrate the library's fast paths and must not
share code with them.  Two exceptions check the interval recurrence, not
visibility, so they read the shared chords from the library:
``count_joint_triangulations`` from ``visibility_graph``, and
``legal_closure``, the reference for the DP's verdict, from
``PolygonPair.shared``.  ``reference_sign_tensor`` is the int8
n^3 orientation tensor, built triple by triple with ``xorient``, against
which the packed orientation table is pinned; ``reference_legal_set`` and
``scan_empty_triangles`` read it.  ``reference_legal_set`` checks the order
of the array worklist's removal log.  ``scan_empty_triangles`` is the
per-label scan that ``enumerate_empty`` replaced, kept to pin the sweep's
triples and their order; its row test is the int8 form of ``_empty_rows``,
``paired_empty``'s test on side B.  ``reference_untangle`` is the
scalar 2-opt sweep the polygon generator ran before it searched for
crossings with the polygon module's segment test, and
``reference_draw_points`` its vertex draw with the scalar collinearity
test it ran before it kept directions per point.
Some helpers are not references and call the library.
``hull_locked_pair`` and ``gen_perturbed_pair`` are instance generators:
each draws A with ``gen_point_pair``, and ``hull_locked_pair`` fixes A's
hull from ``convex_hull``.  ``invariance_failures`` runs the point path
(``point_path_outcome``) on a pair and on its swapped, relabeled and
mirrored images, for tier-1 and for CI's run at n = 300.
``enumerate_triangulations`` lists the library's own frontier search
(``iter_triangulations``) on a set paired with itself.  ``tri_edges`` and ``boundary_edges`` only list label pairs,
a triple's edges and a polygon's boundary edges, for the tests' sets.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

from jointtri import campaign
from jointtri.campaign import gen_point_pair
from jointtri.conditions import LegalSetResult, PointSetPair, necessary_conditions
from jointtri.geom import LabeledSet, Point, convex_hull
from jointtri.greedy import LEX, SEEDED_RANDOM, greedy_construct
from jointtri.oracle import iter_triangulations
from jointtri.polygon import visibility_graph
from jointtri.triangles import FLIPS, Tri, TriangleSet, tri


# A point instance that passes NC1 and fails NC2: all 21 of its paired
# empty triangles prune away in one long removal cascade.
COLLAPSING_TEXT = """\
POINTS 8
8 10 9 15
12 7 14 11
16 4 17 10
8 6 8 5
2 0 2 15
14 3 16 17
4 15 6 0
16 14 16 6
"""


def tri_edges(t) -> tuple[tuple[int, int], ...]:
    """The edges of a canonical triple (i, j, k), in the order
    (i, j), (j, k), (i, k) that ``triangles.FLIPS`` follows."""
    i, j, k = t
    return ((i, j), (j, k), (i, k))


def boundary_edges(poly) -> frozenset[tuple[int, int]]:
    """The label pairs of a polygon's boundary edges, (i, i + 1) and
    (0, n - 1)."""
    n = len(poly)
    return frozenset((i, i + 1) for i in range(n - 1)) | {(0, n - 1)}


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


def brute_successors(a, b, candidates, t, e) -> list[tuple[int, int, int]]:
    """Candidates other than t that contain edge e and whose apex is
    strictly across e from t's apex in both realizations, by orienting
    each apex against e directly."""
    i, j = e
    (k,) = set(t) - {i, j}
    out = []
    for u in candidates:
        if set(u) == set(t) or not {i, j} <= set(u):
            continue
        (w,) = set(u) - {i, j}
        if all(xorient(p[i], p[j], p[k]) * xorient(p[i], p[j], p[w]) < 0
               for p in (a, b)):
            out.append(tuple(sorted(u)))
    return sorted(out)


def reference_sign_tensor(points) -> np.ndarray:
    """The int8 [n, n, n] tensor of ``xorient(p_i, p_j, p_k)``: each triple
    i < j < k by ``xorient``, copied to its permutations with the
    permutation's sign."""
    n = len(points)
    d = np.zeros((n, n, n), dtype=np.int8)
    for i, p in enumerate(points):
        # (j, k), i < j < k, in the row-major order of triu_indices
        s = np.array([xorient(p, q, r) for j, q in enumerate(points[i + 1:], i + 1)
                      for r in points[j + 1:]], dtype=np.int8)
        j, k = np.triu_indices(n - i - 1, 1)
        j, k = j + i + 1, k + i + 1
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            d[a, b, c] = s
            d[b, a, c] = -s
    return d


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


def scan_empty_triangles(s: LabeledSet) -> TriangleSet:
    """Empty triples, added in lexicographic order, by testing for each i
    all rows (i, j, k), i < j < k, against every point of the set's
    ``reference_sign_tensor``.  A point is in closed tri(i, j, k) iff no
    edge sign opposes the triangle's orientation (zero: on the edge line);
    the three vertices always are, so the triangle is empty iff exactly
    three points are."""
    n = len(s)
    d = reference_sign_tensor(s.points)
    found = []
    for i in range(n - 2):
        j, k = np.triu_indices(n - i - 1, 1)
        j, k = j + i + 1, k + i + 1
        away = -d[i, j, k][:, None]
        outside = (d[i, j] == away) | (d[j, k] == away) | (d[k, i] == away)
        empty = (away[:, 0] != 0) & (np.count_nonzero(outside, axis=1) == n - 3)
        found.extend(zip([i] * int(empty.sum()), j[empty].tolist(), k[empty].tolist()))
    return TriangleSet._of_rows(np.array(found, dtype=np.intp).reshape(-1, 3))


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


def reference_legal_set(pair, candidates, hull_edges, order_seed=None) -> LegalSetResult:
    """The dict-and-set worklist that ``conditions.legal_set`` replaced,
    kept to pin its removal log (order included) and the legal set's
    iteration order, and run in shuffled orders (``order_seed``) to check
    that the legal set does not depend on the processing order.
    Triangles are bucketed on each edge by their (side A, side B) apex
    signs; a triangle is supported on an edge iff the opposite bucket is
    nonempty."""
    live = set(candidates)
    da, db = (reference_sign_tensor(s.points) for s in (pair.a, pair.b))
    sides = {}
    buckets = {}
    for t in live:
        sa, sb = sides[t] = int(da[t]), int(db[t])
        for e, flip in zip(tri_edges(t), FLIPS):
            buckets.setdefault(e, {}).setdefault((flip * sa, flip * sb), set()).add(t)

    pending = sorted(e for e in buckets if e not in hull_edges)
    pending_set = set(pending)
    rng = random.Random(order_seed) if order_seed is not None else None
    removed = []

    while pending:
        pos = rng.randrange(len(pending)) if rng else 0
        pending[pos], pending[-1] = pending[-1], pending[pos]
        e = pending.pop()
        pending_set.discard(e)
        by_sig = buckets.get(e)
        if not by_sig:
            continue
        doomed = [t for sig, residents in by_sig.items()
                  for t in residents
                  if not by_sig.get((-sig[0], -sig[1]))]
        if not doomed:
            continue
        for t in doomed:
            live.discard(t)
            removed.append((t, e))
            sa, sb = sides[t]
            for f, flip in zip(tri_edges(t), FLIPS):
                sig = (flip * sa, flip * sb)
                bucket = buckets[f][sig]
                bucket.discard(t)
                if not bucket:
                    del buckets[f][sig]
                if f not in hull_edges and f not in pending_set and buckets[f]:
                    pending.append(f)
                    pending_set.add(f)
    # live itself is the tuple set, so the result iterates as the worklist
    # left it
    rows = np.array(sorted(live), dtype=np.intp).reshape(-1, 3)
    return LegalSetResult(TriangleSet._of_rows(rows, lambda: live), removed)


def brute_greedy(a, b, legal, seed=None) -> list[tuple[int, int, int]]:
    """Reference greedy choice sequence over two coordinate lists.

    Survivors start as the sorted triples of ``legal``.  Each round
    commits the first survivor (``seed`` None) or ``Random(seed).randrange``
    of them, then keeps only the survivors other than it whose interiors
    meet it on neither side, by ``overlap_by_decomposition``.
    """
    rng = random.Random(seed) if seed is not None else None
    alive = sorted(tuple(sorted(t)) for t in legal)
    chosen = []
    while alive:
        t = alive[rng.randrange(len(alive))] if rng else alive[0]
        chosen.append(t)
        alive = [u for u in alive if u != t and not any(
            overlap_by_decomposition(tuple(p[v] for v in t), tuple(p[v] for v in u))
            for p in (a, b))]
    return chosen


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


def _diagonal_inside_slow(poly, i: int, j: int) -> bool:
    """Scalar reference for one polygon's half of ``PolygonPair.shared``:
    does the polygon see {i, j}.  A boundary edge counts as true, any
    other chord as ``brute_diagonal_visible`` says (a chord through a
    third vertex is no diagonal)."""
    n = len(poly)
    if (j - i) % n == 1 or (i - j) % n == 1:
        return True
    return brute_diagonal_visible(poly.vertices, i, j)


def in_cone(vertices, u: int, v: int) -> bool:
    """O'Rourke's InCone: the segment u -> v leaves u strictly inside the
    interior angle there.  Written for a counterclockwise cycle; every
    orientation is multiplied by the winding."""
    s = _winding(vertices)
    n = len(vertices)
    a, b = vertices[u], vertices[v]
    a0, a1 = vertices[(u - 1) % n], vertices[(u + 1) % n]
    if s * xorient(a, a1, a0) >= 0:  # convex (or straight) at u
        return s * xorient(a, b, a0) > 0 and s * xorient(b, a, a1) > 0
    return not (s * xorient(a, b, a1) >= 0 and s * xorient(b, a, a0) >= 0)


def brute_is_simple(vertices) -> bool:
    """Reference simplicity test for a cycle of distinct vertices, over
    every pair of edges: non-adjacent edges share no point (no proper
    crossing, no endpoint on the other closed segment), and adjacent edges
    do not overlap (neither far endpoint on the other edge)."""
    n = len(vertices)

    def on(a, b, p):
        return point_in_closed_triangle(a, b, a, p)

    ends = [(vertices[k], vertices[(k + 1) % n]) for k in range(n)]
    for i, j in combinations(range(n), 2):
        (a, b), (c, d) = ends[i], ends[j]
        if j == i + 1:  # b == c
            if on(b, a, d) or on(b, d, a):
                return False
        elif (i, j) == (0, n - 1):  # a == d
            if on(a, b, c) or on(a, c, b):
                return False
        elif _proper_cross(a, b, c, d) or on(a, b, c) or on(a, b, d) \
                or on(c, d, a) or on(c, d, b):
            return False
    return True


def reference_untangle(pts):
    """The random polygon generator's 2-opt untangling as a scalar sweep,
    the reference for ``campaign._untangle``: reverse the path between the
    first pair of edges, in row-major order, that cross properly, at most
    ``campaign._UNTANGLE_SWEEPS`` times; None when that budget runs out."""
    order = pts[:]
    n = len(order)
    for _ in range(campaign._UNTANGLE_SWEEPS):
        crossed = False
        for i in range(n - 1):
            a, b = order[i], order[i + 1]
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                c, d = order[j], order[(j + 1) % n]
                d1 = xorient(a, b, c)
                d2 = xorient(a, b, d)
                d3 = xorient(c, d, a)
                d4 = xorient(c, d, b)
                if d1 * d2 < 0 and d3 * d4 < 0:
                    order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
                    crossed = True
                    break
            if crossed:
                break
        if not crossed:
            return order
    return None


def reference_draw_points(rng: random.Random, n: int, coord_range: int):
    """The polygon generator's vertex draw with the scalar collinearity
    test it ran before it kept directions per point, the reference for
    ``campaign._draw_points``: up to n distinct uniform points, each kept
    only if ``xorient`` finds it on no line through two kept ones, within
    50 n + 1000 draws.  Returns the kept points and the number of draws
    refused as collinear."""
    pts: list[Point] = []
    seen: set[Point] = set()
    guard = refused = 0
    while len(pts) < n and guard < 50 * n + 1000:
        guard += 1
        p = Point(rng.randint(0, coord_range), rng.randint(0, coord_range))
        if p in seen:
            continue
        if any(xorient(q, r, p) == 0
               for qi, q in enumerate(pts) for r in pts[qi + 1:]):
            refused += 1
            continue
        seen.add(p)
        pts.append(p)
    return pts, refused


def convex_position_points(n: int, spread: int = 1):
    """n integer points in strictly convex position (on a parabola)."""
    return [(k, spread * k * k) for k in range(n)]


def convex_polygon_coords(n: int, spread: int = 1):
    """A strictly convex integer polygon (parabola arc closed by its chord);
    no three vertices are collinear."""
    return [(k, spread * k * k) for k in range(n)]


def star_polygon_coords(rng: random.Random, n: int, radius: int = 1000):
    """n integer vertices around the origin at stratified angles and radii
    in [radius / 3, radius], counterclockwise; the cycle is star-shaped
    from the origin unless rounding breaks it, so callers must still
    validate it."""
    out = []
    for k in range(n):
        angle = 2 * math.pi * (k + rng.uniform(0.1, 0.9)) / n
        r = rng.uniform(radius / 3, radius)
        out.append((round(r * math.cos(angle)), round(r * math.sin(angle))))
    return out


def radially_jittered_star(rng: random.Random, n: int, jitter: float,
                           radius: int = 10**6):
    """A star pair's coordinates: A is ``star_polygon_coords``, and B moves
    each vertex of A along its ray from the origin, to the mix, at weight
    ``jitter`` (0 to 1), of its distance and a fresh uniform one in
    [radius / 3, radius].  The rays keep their order, so B is star-shaped
    unless rounding breaks it; callers must still validate both."""
    a = star_polygon_coords(rng, n, radius)
    b = []
    for x, y in a:
        r = math.hypot(x, y)
        f = 1 - jitter + jitter * rng.uniform(radius / 3, radius) / r
        b.append((round(x * f), round(y * f)))
    return a, b


def _winding(vertices) -> int:
    """+1 if the cycle winds counterclockwise, -1 if clockwise."""
    n = len(vertices)
    area2 = sum(vertices[i][0] * vertices[(i + 1) % n][1]
                - vertices[(i + 1) % n][0] * vertices[i][1] for i in range(n))
    return 1 if area2 > 0 else -1


def _interior_split(a, b, i: int, k: int, q: int) -> bool:
    """Triangle (i, k, q) turns the way both vertex cycles wind."""
    return all(xorient(p[i], p[k], p[q]) == _winding(p) for p in (a, b))


def brute_fill_table(pair, shared):
    """Reference interval table and split choices of ``_fill_table``, as
    [n][n] lists (its bit rows unpacked): cell (i, q), i + 1 < q, is true
    iff {i, q} is shared (or is {0, n - 1}) and some k between them has
    both sub-cells true, {i, k} and {k, q} shared and the triangle
    (i, k, q) on the interior side in both polygons; the choice is the
    first such k.  ``_fill_table`` leaves the orientation test out (a
    lemma in its docstring); this reference keeps it."""
    a, b = pair.a.vertices, pair.b.vertices
    n = len(a)
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
                if m[i][k] and m[k][q] and (i, k) in shared and (k, q) in shared \
                        and _interior_split(a, b, i, k, q):
                    m[i][q] = True
                    choice[i][q] = k
                    break
    return m, choice


def count_joint_triangulations(pair) -> int:
    """Number of distinct joint triangulations the interval recurrence
    admits (the split vertex on a chord is unique per triangulation, so
    this counts triangle sets exactly), over the chords shared by both
    visibility graphs."""
    a, b = pair.a.vertices, pair.b.vertices
    n = len(a)
    shared = visibility_graph(pair.a) & visibility_graph(pair.b)
    counts = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        counts[i][i + 1] = 1
    for gap in range(2, n):
        for i in range(0, n - gap):
            q = i + gap
            if (i, q) not in shared and (i, q) != (0, n - 1):
                continue
            counts[i][q] = sum(
                counts[i][k] * counts[k][q] for k in range(i + 1, q)
                if (i, k) in shared and (k, q) in shared
                and _interior_split(a, b, i, k, q))
    return counts[0][n - 1]


def _chord_sides(t):
    """The chords of a canonical triple (i, j, k), each with whether the
    triangle lies on its inner side, the side of the labels between its
    ends: outer for (i, j) and (j, k), inner for (i, k)."""
    i, j, k = t
    return (((i, j), False), ((j, k), False), ((i, k), True))


def legal_closure(pair) -> set[tuple[int, int, int]]:
    """The legal closure of a polygon pair, the reference for whether
    ``dp_joint_polygon`` finds a joint triangulation.  A triple is legal
    when its three sides are shared edges (``pair.shared``, the DP's own
    input: this checks the recurrence, not visibility).  The closure keeps
    a legal triple while each of its diagonals has a kept triple on its
    other side, labels between the chord's ends against labels outside
    them; a boundary edge needs none.  A worklist removes the triples that
    lose their last partner across some diagonal."""
    n = len(pair)
    shared = set(pair.shared)
    boundary = boundary_edges(pair.a)
    around = [set() for _ in range(n)]
    for i, j in shared:
        around[i].add(j)
    kept = {(i, j, k) for i, j in shared for k in around[j] if k in around[i]}
    on = {}  # (chord, inner) -> the kept triples on that side of the chord
    for t in kept:
        for side in _chord_sides(t):
            on.setdefault(side, set()).add(t)

    def lonely(t):
        return any(chord not in boundary and not on.get((chord, not inner))
                   for chord, inner in _chord_sides(t))

    doomed = [t for t in kept if lonely(t)]
    while doomed:
        t = doomed.pop()
        if t not in kept:
            continue
        kept.remove(t)
        for chord, inner in _chord_sides(t):
            on[chord, inner].remove(t)
            if not on[chord, inner] and chord not in boundary:
                doomed.extend(on.get((chord, not inner), ()))
    return kept


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


def grid_locked_coords(rng: random.Random, n: int, side: int):
    """Coordinates of a hull-locked pair on the side x side grid, or None
    when the drawn points are collinear.

    A is n distinct grid points.  B keeps A's hull points (collinear
    boundary points included) and moves about a third of the others, each
    to a random free neighbouring grid point strictly inside the hull, so
    both sides have the same hull edges.  The grid makes collinear triples
    and points on edges common.
    """
    a = rng.sample([(x, y) for x in range(side) for y in range(side)], n)
    edges = brute_hull_edges(a)
    if not edges:
        return None
    on_hull = {i for e in edges for i in e}
    b = list(a)
    for i in range(n):
        if i in on_hull or rng.randrange(3):
            continue
        moves = [(a[i][0] + dx, a[i][1] + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        moves = [q for q in moves if q not in b
                 and all(xorient(a[u], a[v], q) > 0 for u, v in edges)]
        if moves:
            b[i] = rng.choice(moves)
    return a, b


def enumerate_triangulations(s: LabeledSet) -> list[frozenset[Tri]]:
    """All triangulations of the set: the frontier search on the pair of
    the set with itself."""
    return list(iter_triangulations(PointSetPair(s, s)))


def gen_perturbed_pair(n: int, coord_range: int, jitter: int,
                       seed: int) -> PointSetPair:
    """A pair where B is A with a bounded integer offset per point.

    Useful for producing nontrivial instances that still share hull
    structure; offsets re-draw on collisions or range violations.
    """
    rng = random.Random(seed)
    base = gen_point_pair(n, coord_range, rng.randrange(2 ** 30)).a
    pts: list[Point] = []
    seen: set[Point] = set()
    for p in base.points:
        while True:
            q = Point(p[0] + rng.randint(-jitter, jitter),
                      p[1] + rng.randint(-jitter, jitter))
            if q not in seen and 0 <= q[0] <= coord_range and 0 <= q[1] <= coord_range:
                seen.add(q)
                pts.append(q)
                break
    return PointSetPair(base, LabeledSet(tuple(pts)))


def hull_locked_pair(n, coord_range, jitter, seed):
    """B = A with hull points fixed and interior points jittered, each
    constrained to stay strictly inside the hull, so NC1 holds by
    construction and the greedy stage actually runs."""
    base = gen_point_pair(n, coord_range, seed).a
    hull = convex_hull(base)
    hull_set = set(hull)
    hull_pts = [base.points[i] for i in hull]

    def strictly_inside(q):
        m = len(hull_pts)
        return all(xorient(hull_pts[i], hull_pts[(i + 1) % m], q) > 0
                   for i in range(m))

    rng = random.Random(seed + 1)
    pts, taken = [], set()
    fixed = {base.points[i] for i in hull_set}
    for i, p in enumerate(base.points):
        if i in hull_set:
            q = p
        else:
            q = p
            for _ in range(40):
                cand = Point(p.x + rng.randint(-jitter, jitter),
                             p.y + rng.randint(-jitter, jitter))
                if cand not in taken and cand not in fixed and strictly_inside(cand):
                    q = cand
                    break
        taken.add(q)
        pts.append(q)
    return PointSetPair(base, LabeledSet(tuple(pts)))


def mirror(s: LabeledSet) -> LabeledSet:
    """The set's mirror image (x, y) -> (-x, y), which reverses the turn
    of every triangle and of the hull."""
    return LabeledSet(tuple(Point(-p.x, p.y) for p in s.points))


def point_path_outcome(pair):
    """NC1's verdict, the legal set as a set of triples, and the verdicts
    of the LEX and seeded-random (seeds 0 and 1) greedy runs, None where
    the necessary conditions fail."""
    nc = necessary_conditions(pair)
    greedy = None
    if nc.ok:
        greedy = tuple(greedy_construct(pair, nc.legal.legal, *policy).verified
                       for policy in ((LEX,), (SEEDED_RANDOM, 0), (SEEDED_RANDOM, 1)))
    legal = set(nc.legal.legal) if nc.legal is not None else set()
    return nc.hull.ok, legal, greedy


def relabeled(s: LabeledSet, pi) -> LabeledSet:
    """The set with each label i renamed pi[i]."""
    points = [None] * len(s)
    for i, p in enumerate(s.points):
        points[pi[i]] = p
    return LabeledSet(tuple(points))


def invariance_failures(pair, pi):
    """The point path's outcome on the pair (``point_path_outcome``), and
    the names of the images of the pair whose outcome is not the one it
    predicts: the A <-> B swap ("swap") and the mirror image of both sides
    ("mirror") keep it, and relabeling both sides by the permutation pi
    ("relabel") maps the legal set by pi and keeps the verdicts.  Legal
    sets are compared as sets, since the removal log depends on the order
    of work and the greedy choices may change."""
    nc1, legal, greedy = outcome = point_path_outcome(pair)
    moved = {tri(*(pi[v] for v in t)) for t in legal}
    images = (("swap", PointSetPair(pair.b, pair.a), legal),
              ("relabel", PointSetPair(relabeled(pair.a, pi), relabeled(pair.b, pi)), moved),
              ("mirror", PointSetPair(mirror(pair.a), mirror(pair.b)), legal))
    return outcome, [name for name, image, want in images
                     if point_path_outcome(image) != (nc1, want, greedy)]


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


def brute_joint_triangulations(a, b):
    """Every joint triangulation of two coordinate lists, as a sorted
    triple list, by subset search: triples empty on both sides
    (``brute_empty_triangles``), taken in sorted order and pairwise
    interior-disjoint on both sides (``overlap_by_decomposition``), until
    their doubled areas reach A's hull's; a set that does is yielded only
    if ``pairwise_verify_points`` accepts it.  Exponential; meant for
    n <= 7."""
    edges = brute_hull_edges(a)
    if not edges:
        return
    total = abs(sum(a[i][0] * a[j][1] - a[j][0] * a[i][1] for i, j in edges))
    cands = sorted(brute_empty_triangles(a) & brute_empty_triangles(b))
    areas = [_area2(*(a[v] for v in t)) for t in cands]
    clash = [[any(overlap_by_decomposition(tuple(p[v] for v in t), tuple(p[v] for v in u))
                  for p in (a, b)) for u in cands] for t in cands]
    chosen: list[int] = []

    def search(idx: int, covered: int):
        if covered == total:
            tris = [cands[x] for x in chosen]
            if pairwise_verify_points(a, b, tris):
                yield tris
            return
        if idx == len(cands):
            return
        if not any(clash[idx][x] for x in chosen):
            chosen.append(idx)
            yield from search(idx + 1, covered + areas[idx])
            chosen.pop()
        yield from search(idx + 1, covered)

    yield from search(0, 0)


def brute_joint_exists(a, b) -> bool:
    """Reference decision: does ``brute_joint_triangulations`` find one?"""
    return next(brute_joint_triangulations(a, b), None) is not None
