"""Cell key computation and adjacency for uniform grids.

A cell key is the tuple of per-axis indices ``floor(coordinate / width)``;
cells are half-open boxes ``[k*w, (k+1)*w)``.  Two widths matter:

* **small-grid** width ``r / sqrt(d)`` (Definition 2): the cell diagonal is
  exactly ``r``, so two points sharing a small cell are certainly within
  ``r`` -- the basis of the lower bound (Lemma 1).
* **large-grid** width ``ceil(r)`` (Definition 3): any point within ``r`` of
  ``p`` lies in ``p``'s cell or one of its ``3^d - 1`` adjacent cells -- the
  basis of the upper bound (Lemma 2).  The ceiling makes the large grid
  identical for every ``r'`` with ``ceil(r') == ceil(r)``, which is what the
  label-reuse scheme of Section III-D relies on.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import InvalidQueryError

Key = Tuple[int, ...]

#: Relative guard applied to cell widths so the geometric guarantees hold
#: under float64 *computed* distances, not just exact ones.  Distance
#: computations carry a relative error of a few ulps (~1e-15); at the exact
#: ``dist == r`` boundary that error can round a mathematically-greater
#: distance down to ``r`` (or a smaller one up past it).  Widening the
#: large grid and narrowing the small grid by 1e-12 -- far above the
#: arithmetic error, far below any meaningful geometry -- restores both
#: Lemma 1 ("same small cell => computed dist <= r") and Lemma 2
#: ("computed dist <= r => adjacent large cells") for every float input.
#: Both widths remain pure functions of r / ceil(r), so the label-reuse
#: property of Section III-D is untouched.
WIDTH_GUARD = 1e-12


def small_cell_width(r: float, dimension: int) -> float:
    """Width of a small-grid cell: ``r / sqrt(d)`` (diagonal equals ``r``),
    shrunk by the float guard."""
    if not r > 0 or math.isinf(r):
        raise InvalidQueryError("the distance threshold r must be positive and finite")
    if dimension not in (2, 3):
        raise InvalidQueryError("only 2-D and 3-D grids are supported")
    return (r / math.sqrt(dimension)) * (1.0 - WIDTH_GUARD)


def large_cell_width(r: float) -> float:
    """Width of a large-grid cell: ``ceil(r)``, widened by the float guard."""
    if not r > 0 or math.isinf(r):
        raise InvalidQueryError("the distance threshold r must be positive and finite")
    return float(math.ceil(r)) * (1.0 + WIDTH_GUARD)


def key_rows(points: np.ndarray, width: float) -> np.ndarray:
    """Cell keys for every row of ``points`` as an ``int64 (points, d)`` array."""
    return np.floor(points / width).astype(np.int64)


def key_tuples(rows: np.ndarray) -> List[Key]:
    """Integer key rows as hashable :data:`Key` tuples."""
    return [tuple(row) for row in rows.tolist()]


def compute_keys(points: np.ndarray, width: float) -> List[Key]:
    """Cell keys for every row of ``points`` under the given cell width."""
    return key_tuples(key_rows(points, width))


def point_key(point: np.ndarray, width: float) -> Key:
    """Cell key of a single point."""
    return tuple(int(math.floor(float(c) / width)) for c in point)


@lru_cache(maxsize=None)
def neighbor_offsets(dimension: int, include_center: bool = False) -> Tuple[Key, ...]:
    """Offsets to the ``3^d - 1`` adjacent cells (plus the cell itself if asked)."""
    offsets = [
        offset
        for offset in itertools.product((-1, 0, 1), repeat=dimension)
        if include_center or any(offset)
    ]
    return tuple(offsets)


def adjacent_keys(key: Key) -> Iterator[Key]:
    """Keys of the cells adjacent to ``key`` (excluding ``key`` itself)."""
    for offset in neighbor_offsets(len(key)):
        yield tuple(k + o for k, o in zip(key, offset))


def cell_and_adjacent_keys(key: Key) -> Iterator[Key]:
    """``key`` followed by its adjacent cell keys (the K' of Definition 3)."""
    yield key
    yield from adjacent_keys(key)
