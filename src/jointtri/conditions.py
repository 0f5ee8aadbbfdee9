"""Necessary-condition tests for joint triangulability of paired point sets.

Condition 1 asks the two convex hulls to have identical edge label sets.
Condition 2 asks the legal triangle set to be nonempty, where the legal
set is the greatest subset of the paired empty triangles in which every
member still has a successor on each of its non-hull edges.  Successor:
a second candidate sharing the edge whose apex lies strictly on the
opposite side of that edge in *both* realizations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Optional

import numpy as np

from .geom import InputError, LabeledSet, hull_edge_set, strictly_left
from .triangles import FLIPS, Edge, Tri, TriangleSet, paired_empty


@dataclass(frozen=True)
class PointSetPair:
    """Two equal-size labeled point sets; the bijection is label identity."""

    a: LabeledSet
    b: LabeledSet

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise InputError(
                f"paired sets must have equal size, got {len(self.a)} and {len(self.b)}")

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def candidates(self) -> TriangleSet:
        """The pair's paired empty triangles (``paired_empty``), computed
        once and read by the necessary-condition chain and the oracle's
        search."""
        return paired_empty(self)


@dataclass(frozen=True)
class HullCorrespondence:
    """Outcome of the hull-edge comparison (condition 1)."""

    ok: bool
    hull_edges: frozenset[Edge]
    witness: Optional[Edge] = None


class RemovalLog(Sequence):
    """The pruning cascade's removals, (triangle, witness edge) in deletion
    order: at the moment of deletion the triangle had no successor on the
    witness edge among the triangles still alive.

    A read-only sequence whose length, the number of removals, is known
    up front; its entries are built on the first read of one, by
    ``build()``, and kept.
    """

    def __init__(self, count: int, build: Callable[[], list[tuple[Tri, Edge]]]):
        self._count = count
        self._build: Optional[Callable[[], list[tuple[Tri, Edge]]]] = build
        self._entries: list[tuple[Tri, Edge]] = []

    def _read(self) -> list[tuple[Tri, Edge]]:
        if self._build is not None:
            self._entries = self._build() if self._count else []
            self._build = None
        return self._entries

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self) -> Iterator[tuple[Tri, Edge]]:
        return iter(self._read())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, RemovalLog)):
            return len(self) == len(other) and self._read() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RemovalLog({self._read()!r})"


@dataclass
class LegalSetResult:
    """The legal set plus an audit log of the pruning cascade, ``removed``
    (a ``RemovalLog`` from ``legal_set``)."""

    legal: TriangleSet
    removed: Sequence[tuple[Tri, Edge]] = field(default_factory=list)


def check_hull_correspondence(pair: PointSetPair) -> HullCorrespondence:
    """Condition 1: the hulls of both sides carry the same edge label pairs.

    On failure the witness is a label pair that is a hull edge on
    exactly one side.  Raises DegenerateInput if either side is fully
    collinear.
    """
    edges_a = hull_edge_set(pair.a.hull)
    edges_b = hull_edge_set(pair.b.hull)
    if edges_a == edges_b:
        return HullCorrespondence(True, edges_a)
    witness = min(edges_a.symmetric_difference(edges_b))
    return HullCorrespondence(False, edges_a, witness)


def legal_set(pair: PointSetPair, candidates: TriangleSet,
              hull_edges: frozenset[Edge]) -> LegalSetResult:
    """Greatest subset of the candidates in which every triangle keeps at
    least one successor on each of its non-hull edges.

    Worklist deletion (``_prune``): processing a queued non-hull edge
    deletes the resident triangles that have no opposite-side partner left
    on it, and queues edges that the deletions touch.  Deletion only ever
    removes triangles that cannot be supported, so the fixpoint is unique
    and no processing order can change the result.

    One worklist runs twice, with two queues.  The verdict runs it over the
    candidates' sorted rows (``candidates.array()``), which give the legal
    rows and the removal count without building a tuple set.  It opens with
    one array wave that removes every candidate with no partner among all
    candidates on one of its non-hull edges; then it queues an edge only
    when a triangle on it has lost its last partner, builds its per-edge
    tables only when that queue is not empty, and reaches the same
    fixpoint (the argument is in ``_prune``).  The removal log is
    built only when first read, by the same worklist over
    ``list(set(candidates))`` with the queue it has always had: every
    non-hull edge with a resident, and every touched edge that keeps one,
    so its order stays as it was.  The legal set's tuple set, also built on
    first read, is ``set(candidates)`` less the removed triangles, so it
    iterates as it always has.

    Every legal triangle turns in B, relative to A, as the hulls do.  One
    that turns the other way uses no hull edge, and its successors turn as
    it does, so such legal triangles would be a closed set of their own.
    Take their lowest, then leftmost vertex v in A and, of their edges at
    v, the one of smallest angle: its triangle lies on the side of larger
    angles, so the successor across it has an edge at v of smaller angle.
    """
    arr = candidates.array()
    gone = _prune(pair, arr.astype(np.int32), hull_edges)[0]
    keep = np.ones(len(arr), dtype=bool)
    keep[gone] = False
    rows = arr.compress(keep, axis=0) if len(gone) else arr

    def build() -> set[Tri]:
        live = set(candidates)
        for t in map(tuple, arr[gone].tolist()):
            live.discard(t)
        return live

    def log() -> list[tuple[Tri, Edge]]:
        order = list(set(candidates))
        tris = np.fromiter(chain.from_iterable(order), dtype=np.int32,
                           count=3 * len(order)).reshape(-1, 3)
        at, witness = _prune(pair, tris, hull_edges, order)
        n = len(pair)
        return [(order[p], divmod(e, n)) for p, e in zip(at.tolist(), witness.tolist())]

    return LegalSetResult(TriangleSet._of_rows(rows, build), RemovalLog(len(gone), log))


def _prune(pair: PointSetPair, tris: np.ndarray, hull_edges: frozenset[Edge],
           order: Optional[list[Tri]] = None) -> tuple[np.ndarray, np.ndarray]:
    """The worklist of ``legal_set`` over candidate rows ``tris`` ([m, 3]
    int32 canonical triples): the positions in ``tris`` of the removed
    candidates and the ids of their witness edges, in deletion order.

    The worklist pops its front and moves the last entry there; edges
    start queued by id.  Hull edges are marked queued from the start and
    never popped, so none is ever processed.  An edge dooms the residents
    whose opposite count is zero, in order of their code's first
    appearance on the edge, and per code in row order, or, when ``order``
    gives the rows' tuples, in the order the per-edge sets of the old
    dict-and-set worklist gave them (see below).

    Edge (i, j) has the id i * n + j, so ids sort as the label pairs do.
    Each edge counts its live residents per (side A, side B) apex sign
    pair, coded 2 * (A > 0) + (B > 0), so the opposite of code c is 3 - c.
    A resident is doomed iff its code's opposite count is zero, so an edge
    dooms a resident iff some count is nonzero and its opposite's is zero.
    A popped edge whose counts doom nothing is passed over in O(1).

    The two runs queue differently.  The log run (``order`` given) keeps
    the queue the log's pinned order comes from: it starts with every
    non-hull edge that has a resident, and after each removal queues every
    touched edge that still has one.  Its pops of edges that doom nothing
    move entries of ``pending``, so they are part of that order.

    The verdict run (``order`` None) first removes, in one array wave
    (``_wave``), every triangle doomed at the start: one with an incidence
    on a non-hull edge whose opposite count is zero.  Each keeps as witness
    the first such edge of its three, in the order (i, j), (j, k), (i, k),
    and the wave's removals come first, in row order.  One in-place
    decrement per removed incidence brings the counts to the survivors'.
    Then it queues only edges that
    can doom: the non-hull edges on which some code has a live count and
    its opposite none, and, after a decrement of ``cnt[key]`` in the loop,
    edge ``key >> 2`` iff it is not queued, ``cnt[key]`` is now zero and
    ``cnt[key ^ 3]`` is not.  When that first queue is empty the wave's
    removals are the result, and the loop's tables (``by_edge``,
    ``offsets``, ``cnt``) are never built.

    The verdict run reaches the log run's fixpoint.  After the wave, a code
    c with a live count on a non-hull edge had, before it, a nonzero
    opposite count, or its every triangle was doomed there and went: so c
    is doomable (its count nonzero, its opposite's zero) only where the
    wave zeroed its opposite count, and the first queue holds every such
    edge.  Counts only fall, so later c becomes doomable only at the
    decrement that zeroes its opposite count, which queues the edge unless
    it is queued already.  Popping an edge removes every triangle then
    doomed on it.  So at exit no live triangle is doomed on any non-hull
    edge: the live set is closed under the successor condition.  Every
    removed triangle had, when removed, no partner on its witness edge
    among the live triangles (the wave's, among all candidates), which by
    induction hold every closed subset of the candidates, so it is in
    none.  The result is the greatest closed subset, the unique fixpoint.

    The worklist reads memoryviews of int32 arrays, not lists, so it holds
    no Python int per entry: ``keys_l``, each incidence's count index,
    ``by_edge``, the live incidences grouped by edge, ``bounds``, each
    edge's slice of ``by_edge``, and ``removed_at`` and ``witness_at``, the
    result.  The counts ``cnt`` stay a list, as they change on every
    removal.
    """
    n = len(pair)
    m = len(tris)
    # int32 is exact throughout: keys are below 4 n^2 and incidence
    # positions below 3 |P| <= n^3 / 2, all below 2^31 for
    # n <= MAX_TENSOR_POINTS, which reading the orientation tables below
    # enforces; their word indices stay below n^2 * ceil(n / 64).
    i, j, k = tris.T
    # A candidate is nondegenerate on both sides, so its apex sign on edge q
    # is FLIPS[q] if (i, j, k) is counterclockwise there, else -FLIPS[q]:
    # one bit per candidate per side.  So its code is 2 * (A ccw) + (B ccw)
    # on the edges whose flip is 1, and the opposite on the other.
    code = (strictly_left(pair.a.signs, i, j, k) * np.int32(2)
            + strictly_left(pair.b.signs, i, j, k))
    # Incidence 3 p + q is edge q of row p, in the order (i, j), (j, k),
    # (i, k); its key is 4 * edge id + code, the index of the count it
    # belongs to.  Filled a column at a time, as numpy broadcasts over a
    # short last axis several times slower.
    keys = np.empty((m, 3), dtype=np.int32)
    for q, (u, v) in enumerate(((i, j), (j, k), (i, k))):
        keys[:, q] = (u * n + v) * 4 + (code if FLIPS[q] > 0 else 3 - code)
    counts = np.bincount(keys.reshape(-1), minlength=4 * n * n)
    hull = [a * n + b for a, b in hull_edges]
    removed_at = np.empty(m, dtype=np.int32)
    witness_at = np.empty(m, dtype=np.int32)
    dead = (_wave(keys, counts, hull, removed_at, witness_at) if order is None
            else np.zeros(m, dtype=bool))
    count = int(np.count_nonzero(dead))
    per_code = counts.reshape(-1, 4)
    # column by column, as for the keys
    totals = per_code[:, 0] + per_code[:, 1] + per_code[:, 2] + per_code[:, 3]
    if order is None:
        # Edges with a live code whose opposite is empty: those that fail
        # the balance test of the loop below.
        live = per_code > 0
        start = (live[:, 0] != live[:, 3]) | (live[:, 1] != live[:, 2])
    else:
        start = totals
    queued = bytearray(n * n)
    for e in hull:
        queued[e] = 1
    pending = [e for e in np.flatnonzero(start).tolist() if not queued[e]]
    if not pending:
        return removed_at[:count], witness_at[:count]
    for e in pending:
        queued[e] = 1
    # Edge e's live incidences in row order: by_edge[bounds[e]:bounds[e + 1]].
    # The wave's rows take the key n * n, which sorts after every edge, and
    # are cut off.  The narrowest key type that holds n * n makes the stable
    # argsort a radix sort for n < 256.
    edges = (keys >> 2).astype(np.min_scalar_type(n * n))
    edges[dead] = n * n
    # rebound, so the sort keys are freed before the positions are narrowed
    edges = np.argsort(edges.reshape(-1), kind="stable")
    offsets = np.zeros(n * n + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(totals)
    by_edge = memoryview(edges[:offsets[-1]].astype(np.int32))
    del edges
    bounds = memoryview(offsets)
    cnt = counts.tolist()
    keys_l = memoryview(keys.reshape(-1))
    alive = bytearray(~dead)
    at_l, witness_l = memoryview(removed_at), memoryview(witness_at)

    while pending:
        pending[0], pending[-1] = pending[-1], pending[0]
        e = pending.pop()
        queued[e] = 0
        c0, c1, c2, c3 = cnt[4 * e:4 * e + 4]
        if (c0 > 0) == (c3 > 0) and (c1 > 0) == (c2 > 0):
            continue
        groups: dict[int, list[int]] = {}
        for x in by_edge[bounds[e]:bounds[e + 1]]:
            key = keys_l[x]
            if cnt[key] and not cnt[key ^ 3]:
                groups.setdefault(key, []).append(x // 3)
        doomed = []
        for ps in groups.values():
            if order is not None:
                # The dict-and-set worklist kept a set per code, filled with
                # the edge's triangles in row order.  A CPython set built by
                # the same insertions in the same order iterates in the same
                # order, and discards never reorder it, so dropping the
                # triangles no longer live gives that set's order.
                at = {order[p]: p for p in ps}
                ps = [at[t] for t in set(order[p] for p in ps)]
            doomed.extend(p for p in ps if alive[p])
        for p in doomed:
            alive[p] = 0
            at_l[count] = p
            witness_l[count] = e
            count += 1
            for key in keys_l[3 * p:3 * p + 3]:
                cnt[key] -= 1
                f = key >> 2
                if queued[f]:
                    continue
                # The verdict queues f only when this decrement dooms a code
                # on it; the log run whenever f keeps a resident.
                if order is None:
                    if cnt[key] or not cnt[key ^ 3]:
                        continue
                elif not any(cnt[4 * f:4 * f + 4]):
                    continue
                pending.append(f)
                queued[f] = 1
    return removed_at[:count], witness_at[:count]


def _wave(keys: np.ndarray, counts: np.ndarray, hull: list[int],
          removed_at: np.ndarray, witness_at: np.ndarray) -> np.ndarray:
    """The verdict run's first step, over ``_prune``'s [m, 3] keys and
    their counts: removes at once every row with an incidence on a non-hull
    edge (``hull`` lists the hull edges' ids) whose opposite count is zero.
    Writes the removed rows' positions, in row order, and their witnesses,
    each the first such edge of its row in the keys' column order, to the
    front of ``removed_at`` and ``witness_at``, and decrements ``counts``
    in place to the survivors'.  Returns the [m] mask of removed rows."""
    zero = (counts == 0).reshape(-1, 4)
    zero[hull] = False
    doomed = zero.reshape(-1)[keys ^ 3]
    dead = doomed[:, 0] | doomed[:, 1] | doomed[:, 2]
    gone = np.flatnonzero(dead)
    if len(gone):
        doomed, keys = doomed[gone], keys[gone]
        removed_at[:len(gone)] = gone
        witness_at[:len(gone)] = np.where(
            doomed[:, 0], keys[:, 0], np.where(doomed[:, 1], keys[:, 1], keys[:, 2])) >> 2
        # one decrement per removed incidence, in place, so the peak holds
        # one table of counts
        np.subtract.at(counts, keys.reshape(-1), 1)
    return dead


def check_legal_nonempty(result: LegalSetResult) -> bool:
    """Condition 2: at least one legal triangle survives the pruning."""
    return len(result.legal) > 0


@dataclass(frozen=True)
class Conditions:
    """The necessary-condition chain of one pair: condition 1, then, only
    when it holds, the paired empty triangles and their legal set."""

    hull: HullCorrespondence
    candidates: Optional[TriangleSet] = None
    legal: Optional[LegalSetResult] = None

    @property
    def ok(self) -> bool:
        """Both necessary conditions hold."""
        return self.legal is not None and check_legal_nonempty(self.legal)


def necessary_conditions(pair: PointSetPair) -> Conditions:
    """Run the chain: hull correspondence, paired empty triangles, legal
    set.  Raises DegenerateInput if either side is fully collinear."""
    hull = check_hull_correspondence(pair)
    if not hull.ok:
        return Conditions(hull)
    return Conditions(hull, pair.candidates,
                      legal_set(pair, pair.candidates, hull.hull_edges))
