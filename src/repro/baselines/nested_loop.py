"""NL: the nested-loop baseline (Algorithm 1).

For every object pair the algorithm scans point pairs until it finds one
within ``r`` (then both scores are incremented and the pair is abandoned --
the paper's early ``break``).  No index, no pre-processing; O(n^2 m^2) in
the worst case, and notably *faster for larger r* because interacting pairs
are discovered earlier -- the behaviour Fig. 5 highlights.

The point-pair scan is vectorized in blocks (see
:func:`repro.core.geometry.point_sets_interact`), the honest Python
rendition of the scalar loop: early blocks exiting early preserve the
r-dependence of the work.

An optional axis-aligned bounding-box pre-check per pair is available but
**off by default**: the paper argues MBR-style filtering is ineffective for
these stringy objects, and the flag lets an ablation quantify that.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np
from repro.core.geometry import boxes_within, point_sets_interact
from repro.core.objects import ObjectCollection
from repro.core.query import MIOResult


class NestedLoopAlgorithm:
    """Algorithm 1 over a static collection."""

    def __init__(self, collection: ObjectCollection, use_bbox_filter: bool = False) -> None:
        self.collection = collection
        self.use_bbox_filter = use_bbox_filter
        self._bounds = None
        if use_bbox_filter:
            corners = [obj.bounds() for obj in collection]
            self._bounds = (
                np.array([lo for lo, _ in corners]),
                np.array([hi for _, hi in corners]),
            )

    def scores(self, r: float) -> List[int]:
        """Exact ``tau(o)`` for every object (the full pairwise pass)."""
        if r <= 0:
            raise ValueError("the distance threshold r must be positive")
        collection = self.collection
        tau = [0] * collection.n
        for i in range(collection.n):
            points_i = collection[i].points
            partners = range(i + 1, collection.n)
            if self._bounds is not None:
                # One row-vectorized box test against every later object.
                lo, hi = self._bounds
                near = boxes_within(lo[i], hi[i], lo[i + 1 :], hi[i + 1 :], r)
                partners = (np.flatnonzero(near) + i + 1).tolist()
            for j in partners:
                if point_sets_interact(points_i, collection[j].points, r):
                    tau[i] += 1
                    tau[j] += 1
        return tau

    def query(self, r: float) -> MIOResult:
        """The MIO answer, timing the full scan."""
        started = time.perf_counter()
        tau = self.scores(r)
        elapsed = time.perf_counter() - started
        winner = max(range(len(tau)), key=lambda oid: (tau[oid], -oid))
        return MIOResult(
            algorithm="nl",
            r=r,
            winner=winner,
            score=tau[winner],
            phases={"scan": elapsed},
            counters={"pairs_checked": len(tau) * (len(tau) - 1) // 2},
            memory_bytes=0,
        )

    def query_topk(self, r: float, k: int) -> MIOResult:
        """Top-k by full scoring (NL's cost is independent of k, Fig. 7)."""
        if k < 1:
            raise ValueError("k must be at least 1")
        started = time.perf_counter()
        tau = self.scores(r)
        elapsed = time.perf_counter() - started
        ranking = sorted(
            ((oid, score) for oid, score in enumerate(tau)),
            key=lambda item: (-item[1], item[0]),
        )[:k]
        winner, score = ranking[0]
        return MIOResult(
            algorithm="nl",
            r=r,
            winner=winner,
            score=score,
            topk=ranking,
            phases={"scan": elapsed},
            memory_bytes=0,
        )


def brute_force_scores(collection: ObjectCollection, r: float) -> List[int]:
    """Convenience oracle used across the test-suite and benches."""
    return NestedLoopAlgorithm(collection).scores(r)
