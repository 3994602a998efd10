"""Distance primitives shared by the index, the baselines, and the tests.

All algorithms in the paper reduce to one predicate: do two point sets have
at least one pair within Euclidean distance ``r``?  The helpers here answer
it with vectorized numpy kernels and early exit, which is the Python
equivalent of the paper's scalar inner loops with ``break`` (Algorithm 1,
lines 7-12).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Rows of the first operand processed per vectorized block.  Small enough to
#: keep early exit effective, large enough to amortize numpy call overhead.
_BLOCK_ROWS = 64


def euclidean(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two points."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return float(np.sqrt(np.dot(diff, diff)))


def squared_distances_to(point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances from one point to each row of ``points``."""
    diff = points - point
    return np.einsum("ij,ij->i", diff, diff)


def any_within(point: np.ndarray, points: np.ndarray, r: float) -> bool:
    """Whether any row of ``points`` lies within distance ``r`` of ``point``."""
    if len(points) == 0:
        return False
    return bool(np.min(squared_distances_to(point, points)) <= r * r)


def count_within(point: np.ndarray, points: np.ndarray, r: float) -> int:
    """Number of rows of ``points`` within distance ``r`` of ``point``."""
    if len(points) == 0:
        return 0
    return int(np.count_nonzero(squared_distances_to(point, points) <= r * r))


def point_sets_interact(points_a: np.ndarray, points_b: np.ndarray, r: float) -> bool:
    """Whether the two point sets have a pair within distance ``r``.

    This is the interaction predicate of Definition 1.  Distances are
    evaluated block-by-block so a hit in an early block skips the rest,
    mirroring the early ``break`` of the nested-loop algorithm.
    """
    if len(points_a) == 0 or len(points_b) == 0:
        return False
    if len(points_a) > len(points_b):
        points_a, points_b = points_b, points_a
    r_squared = r * r
    b_norms = np.einsum("ij,ij->i", points_b, points_b)
    for start in range(0, len(points_a), _BLOCK_ROWS):
        block = points_a[start:start + _BLOCK_ROWS]
        a_norms = np.einsum("ij,ij->i", block, block)
        # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b, computed for the block.
        squared = a_norms[:, None] + b_norms[None, :] - 2.0 * (block @ points_b.T)
        if np.min(squared) <= r_squared + 1e-12:
            return True
    return False


def min_pair_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Distance of the closest pair across the two point sets."""
    if len(points_a) == 0 or len(points_b) == 0:
        return float("inf")
    if len(points_a) > len(points_b):
        points_a, points_b = points_b, points_a
    b_norms = np.einsum("ij,ij->i", points_b, points_b)
    best = np.inf
    for start in range(0, len(points_a), _BLOCK_ROWS):
        block = points_a[start:start + _BLOCK_ROWS]
        a_norms = np.einsum("ij,ij->i", block, block)
        squared = a_norms[:, None] + b_norms[None, :] - 2.0 * (block @ points_b.T)
        block_min = float(np.min(squared))
        if block_min < best:
            best = block_min
    return float(np.sqrt(max(best, 0.0)))


def bounding_box(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(min corner, max corner) of a point set."""
    if len(points) == 0:
        raise ValueError("cannot bound an empty point set")
    return points.min(axis=0), points.max(axis=0)


def _box_gaps(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Per-axis gap ``max(lo_b - hi_a, lo_a - hi_b, 0)`` between boxes."""
    return np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)


def box_gap_squared(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
) -> np.ndarray:
    """Squared gap between axis-aligned boxes, row by row.

    Boxes are ``(..., d)`` corner arrays that broadcast against each
    other.  The squared per-axis gaps are summed axis by axis, left to
    right, never by ``dot`` or ``einsum``, so one pair of boxes gets the
    same bits whether it is passed alone or as a row of a batch.  Each
    term is at most the matching term of any point pair drawn from the
    two boxes, so a point pair within ``r`` puts its boxes within ``r``.
    """
    gap = _box_gaps(lo_a, hi_a, lo_b, hi_b)
    total = gap[..., 0] * gap[..., 0]
    for axis in range(1, gap.shape[-1]):
        total = total + gap[..., axis] * gap[..., axis]
    return total


def boxes_within(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    r: Optional[float] = None,
):
    """Whether axis-aligned boxes are within gap ``r`` (overlap if None).

    A bool for one pair of ``(d,)`` corners, a bool array for ``(m, d)``
    rows; both forms compute the same bits (:func:`box_gap_squared`).
    """
    if r is None:
        within = np.all(_box_gaps(lo_a, hi_a, lo_b, hi_b) <= 0.0, axis=-1)
    else:
        within = box_gap_squared(lo_a, hi_a, lo_b, hi_b) <= r * r
    return bool(within) if within.ndim == 0 else within


def points_near_box(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray, r: float
) -> bool:
    """Whether some row of ``points`` lies within ``r`` of the box ``[lo,
    hi]``: :func:`box_gap_squared` with each point as a degenerate box, so
    a point within ``r`` of any point of the box passes."""
    return bool(box_gap_squared(points, points, lo, hi).min() <= r * r)
