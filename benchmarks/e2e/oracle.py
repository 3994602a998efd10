"""Independent exact-score oracle for the end-to-end benchmark.

Only numpy and scipy's ``cKDTree`` are used -- never the package under
test -- so a defect shared by every engine path cannot also hide in the
checker.  The score of an object is Definition 1 of the paper:

    tau(o) = |{o' != o : some p in o, q in o' with ||p - q|| <= r}|

One :class:`ScoreOracle` covers one collection snapshot.  It finds every
cross-object point pair within ``r_max`` once, keeps the smallest squared
distance per object pair, and then answers ``scores(r)`` for any
``r <= r_max`` by thresholding, caching each ``r``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree


class ScoreOracle:
    """Exact ``tau`` for every object of one snapshot, for any ``r <= r_max``."""

    def __init__(self, point_arrays: Sequence[np.ndarray], r_max: float) -> None:
        if r_max <= 0:
            raise ValueError("r_max must be positive")
        self.n = len(point_arrays)
        self.r_max = float(r_max)
        points = np.concatenate([np.asarray(a, dtype=np.float64) for a in point_arrays])
        owner = np.repeat(
            np.arange(self.n, dtype=np.int64), [len(a) for a in point_arrays]
        )
        # A hair of slack so pairs at exactly r_max survive the tree's own
        # rounding; the squared-distance threshold below decides membership.
        pairs = cKDTree(points).query_pairs(
            self.r_max * (1.0 + 1e-9), output_type="ndarray"
        )
        a = owner[pairs[:, 0]]
        b = owner[pairs[:, 1]]
        cross = a != b
        first, second = pairs[cross, 0], pairs[cross, 1]
        a, b = a[cross], b[cross]
        diff = points[first] - points[second]
        squared = np.einsum("ij,ij->i", diff, diff)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * self.n + hi
        order = np.lexsort((squared, key))
        key, squared = key[order], squared[order]
        unique, first_index = np.unique(key, return_index=True)
        self._lo = unique // self.n
        self._hi = unique % self.n
        self._min_squared = squared[first_index]
        self._cache: Dict[float, np.ndarray] = {}

    def scores(self, r: float) -> np.ndarray:
        """``tau(o)`` for every object under threshold ``r``."""
        if not 0 < r <= self.r_max:
            raise ValueError(f"r={r} outside (0, {self.r_max}]")
        cached = self._cache.get(r)
        if cached is None:
            within = self._min_squared <= r * r
            cached = np.bincount(self._lo[within], minlength=self.n) + np.bincount(
                self._hi[within], minlength=self.n
            )
            self._cache[r] = cached
        return cached


def check_answer(
    tau: np.ndarray,
    winner: int,
    score: int,
    topk: Optional[List[Tuple[int, int]]] = None,
    k: int = 1,
) -> Optional[str]:
    """Why an answer disagrees with the exact scores, or None if it agrees.

    Robust to tie choice: any winner whose true score is the maximum is
    accepted.  For top-k, the listed scores must be the k largest true
    scores in order, the ids distinct, and each id's true score must equal
    its listed score.
    """
    best = int(tau.max())
    if score != best:
        return f"score {score} != max tau {best}"
    if not 0 <= winner < len(tau):
        return f"winner {winner} out of range"
    if int(tau[winner]) != score:
        return f"tau(winner {winner}) = {int(tau[winner])} != score {score}"
    if k > 1:
        if topk is None:
            return "top-k answer missing its ranking"
        expected = sorted((int(v) for v in tau), reverse=True)[: min(k, len(tau))]
        listed = [int(s) for _, s in topk]
        if listed != expected:
            return f"top-{k} scores {listed} != {expected}"
        ids = [int(oid) for oid, _ in topk]
        if len(set(ids)) != len(ids):
            return f"top-{k} ids repeat: {ids}"
        for oid, listed_score in topk:
            if not 0 <= oid < len(tau) or int(tau[oid]) != int(listed_score):
                return f"top-{k} lists {oid} with {listed_score}, true tau differs"
    return None
