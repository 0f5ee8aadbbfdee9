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
from typing import Optional

from .geom import LabeledSet, convex_hull, hull_edge_set
from .triangles import FLIPS, Edge, Tri, TriangleSet, paired_empty, tri_edges


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
    hull_edges: frozenset[Edge] = frozenset()


def check_hull_correspondence(pair: PointSetPair) -> HullCorrespondence:
    """Condition 1: the hulls of both sides carry the same edge label pairs.

    On failure the witness is a label pair that is a hull edge on
    exactly one side.  Raises DegenerateInput if either side is fully
    collinear.
    """
    edges_a = hull_edge_set(convex_hull(pair.a))
    edges_b = hull_edge_set(convex_hull(pair.b))
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
    """
    live = candidates.copy()
    # Bucket triangles on each edge by their (side A, side B) apex signs;
    # a triangle is supported on an edge iff the opposite bucket is nonempty.
    da, db = pair.a.signs, pair.b.signs
    sides: dict[Tri, tuple[int, int]] = {}
    buckets: dict[Edge, dict[tuple[int, int], set[Tri]]] = {}
    for t in live:
        sa, sb = sides[t] = int(da[t]), int(db[t])
        for e, flip in zip(tri_edges(t), FLIPS):
            buckets.setdefault(e, {}).setdefault((flip * sa, flip * sb), set()).add(t)

    pending: list[Edge] = sorted(e for e in buckets if e not in hull_edges)
    pending_set = set(pending)
    rng = random.Random(order_seed) if order_seed is not None else None
    removed: list[tuple[Tri, Edge]] = []

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
    return LegalSetResult(live, removed, hull_edges)


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
    candidates = paired_empty(pair)
    return Conditions(hull, candidates,
                      legal_set(pair, candidates, hull.hull_edges))
