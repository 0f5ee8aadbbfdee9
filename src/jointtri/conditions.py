"""Necessary-condition tests for joint triangulability of paired point sets.

Condition 1 asks the two convex hulls to have identical edge label sets.
Condition 2 asks the legal triangle set to be nonempty, where the legal
set is the greatest subset of the paired empty triangles in which every
member still has a successor on each of its non-hull edges.  Successor:
a second candidate sharing the edge whose apex lies strictly on the
opposite side of that edge in *both* realizations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .geom import LabeledSet, hull_edge_set
from .triangles import FLIPS, Edge, Tri, TriangleSet, paired_empty


@dataclass(frozen=True)
class PointSetPair:
    """Two equal-size labeled point sets; the bijection is label identity."""

    a: LabeledSet
    b: LabeledSet

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError(
                f"paired sets must have equal size, got {len(self.a)} and {len(self.b)}")

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def candidates(self) -> TriangleSet:
        """The pair's paired empty triangles (``paired_empty``), computed
        once and read by the necessary-condition chain and the oracle's
        search; shared, so callers must not modify it."""
        return paired_empty(self)


@dataclass(frozen=True)
class HullCorrespondence:
    """Outcome of the hull-edge comparison (condition 1)."""

    ok: bool
    hull_edges: frozenset[Edge]
    witness: Optional[Edge] = None


@dataclass
class LegalSetResult:
    """The legal set plus an audit log of the pruning cascade.

    ``removed`` records (triangle, witness edge) in deletion order: at
    the moment of deletion the triangle had no successor on the witness
    edge among the triangles still alive.
    """

    legal: TriangleSet
    removed: list[tuple[Tri, Edge]] = field(default_factory=list)


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
              hull_edges: frozenset[Edge],
              order_seed: Optional[int] = None) -> LegalSetResult:
    """Greatest subset of the candidates in which every triangle keeps at
    least one successor on each of its non-hull edges.

    Worklist deletion: every non-hull edge of every candidate is queued;
    processing an edge deletes the resident triangles that have no
    opposite-side partner left on it, and re-queues the affected edges.
    Deletion only ever removes triangles that cannot be supported, so
    the fixpoint is unique and the processing order (shuffled via
    ``order_seed``) cannot change the result.

    Edge (i, j) has the id i * n + j, so ids sort as the label pairs do.
    Each edge counts its live residents per (side A, side B) apex sign
    pair, coded 2 * (A > 0) + (B > 0), so the opposite of code c is 3 - c.
    A resident is doomed iff its code's opposite count is zero, so an edge
    dooms a resident iff some count is nonzero and its opposite's is zero.
    """
    live = candidates.copy()
    order = list(live)
    n = len(pair)
    i, j, k = np.fromiter(chain.from_iterable(order), dtype=np.intp,
                          count=3 * len(order)).reshape(-1, 3).T
    flips = np.array(FLIPS)
    side_a = pair.a.signs[i, j, k][:, None] * flips > 0
    side_b = pair.b.signs[i, j, k][:, None] * flips > 0
    # Incidence 3 p + q is edge q of tri_edges(order[p]); its key is
    # 4 * edge id + code, the index of the count it belongs to.
    ids = np.column_stack((i * n + j, j * n + k, i * n + k)).ravel()
    keys = 4 * ids + (2 * side_a + side_b).ravel()
    counts = np.bincount(keys, minlength=4 * n * n)
    totals = counts.reshape(-1, 4).sum(axis=1)
    # Edge e's incidences in candidate order: by_edge[bounds[e]:bounds[e + 1]].
    # The narrowest key type makes the stable argsort a radix sort for n < 256.
    by_edge = np.argsort(ids.astype(np.min_scalar_type(n * n)),
                         kind="stable").tolist()
    bounds = [0] + np.cumsum(totals).tolist()
    hull = {a * n + b for a, b in hull_edges}
    pending = [e for e in np.flatnonzero(totals).tolist() if e not in hull]
    queued = bytearray(n * n)
    for e in pending:
        queued[e] = 1
    cnt = counts.tolist()
    keys_l = keys.tolist()
    rng = random.Random(order_seed) if order_seed is not None else None
    removed: list[tuple[Tri, Edge]] = []
    removed_at: list[int] = []

    while pending:
        pos = rng.randrange(len(pending)) if rng else 0
        pending[pos], pending[-1] = pending[-1], pending[pos]
        e = pending.pop()
        queued[e] = 0
        c0, c1, c2, c3 = cnt[4 * e:4 * e + 4]
        if (c0 > 0) == (c3 > 0) and (c1 > 0) == (c2 > 0):
            continue
        # Rebuild the doomed residents in the order the per-edge sets of
        # the dict-and-set worklist gave them: codes by first appearance,
        # and per code a set filled with the edge's triangles in candidate
        # order.  A CPython set built by the same insertions in the same
        # order iterates in the same order, and discards never reorder it,
        # so dropping the triangles no longer live gives that set's order.
        groups: dict[int, list[int]] = {}
        for x in by_edge[bounds[e]:bounds[e + 1]]:
            key = keys_l[x]
            if cnt[key] and not cnt[key ^ 3]:
                groups.setdefault(key, []).append(x // 3)
        doomed = []
        for ps in groups.values():
            at = {order[p]: p for p in ps}
            doomed.extend((t, at[t]) for t in set(order[p] for p in ps) if t in live)
        witness = divmod(e, n)
        for t, p in doomed:
            live.discard(t)
            removed.append((t, witness))
            removed_at.append(p)
            for key in keys_l[3 * p:3 * p + 3]:
                cnt[key] -= 1
                f = key >> 2
                if not queued[f] and f not in hull and any(cnt[4 * f:4 * f + 4]):
                    pending.append(f)
                    queued[f] = 1
    if removed_at:
        # The candidates' sorted rows minus the removed ones, found by code
        # (i * n + j) * n + k, which sorts as the triples do.
        arr = candidates.array()
        code = (arr[:, 0] * n + arr[:, 1]) * n + arr[:, 2]
        at = np.array(removed_at)
        keep = np.ones(len(arr), dtype=bool)
        keep[np.searchsorted(code, (i[at] * n + j[at]) * n + k[at])] = False
        live._seed_array(arr[keep])
    return LegalSetResult(live, removed)


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
