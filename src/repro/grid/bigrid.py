"""BIGrid: the paper's hybrid index, built online per query (Algorithm 3).

A BIGrid bundles the small-grid (lower bounds), the large-grid (upper
bounds + verification), the per-object key lists ``o_i.L`` (small-grid cells
shared with at least one other object, Lemma 1's access set) and the
per-object key grouping ``P_{i,K}`` of points by large-grid cell (used by
upper-bounding and by the parallel cost model, Eq. (3)).

Construction is a single object-major scan: every per-point operation is
O(1) amortized, so GRID-MAPPING runs in O(nm), and cells are created only
when a point maps into them (no empty cells, no replication).

``point_filter`` implements GRID-MAPPING-WITH-LABEL (Lemma 3): points whose
label has the first bit 0 are skipped entirely -- they provably contribute
to no bound and no score for any ``r'`` with ``ceil(r') == ceil(r)``.

``small_width`` / ``large_width`` overrides exist only for the Appendix A
ablation (offline grids built for a mismatched ``r'``); production callers
never pass them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Type

import numpy as np

from repro.bitset.base import Bitset
from repro.bitset.factory import bitset_class
from repro.core.objects import ObjectCollection
from repro.grid.keys import Key, compute_keys, large_cell_width, small_cell_width
from repro.grid.large_grid import LargeGrid
from repro.grid.small_grid import SmallGrid
from repro.resilience import Deadline, checkpoint

PointFilter = Callable[[int], Optional[np.ndarray]]


class BIGrid:
    """The built index for one distance threshold ``r``."""

    __slots__ = (
        "collection",
        "r",
        "small_grid",
        "large_grid",
        "key_lists",
        "object_groups",
        "mapped_points",
    )

    def __init__(
        self,
        collection: ObjectCollection,
        r: float,
        small_grid: SmallGrid,
        large_grid: LargeGrid,
        key_lists: List[Set[Key]],
        object_groups: List[Dict[Key, List[int]]],
        mapped_points: int,
    ) -> None:
        self.collection = collection
        self.r = r
        self.small_grid = small_grid
        self.large_grid = large_grid
        #: ``o_i.L`` -- small-grid keys shared with another object.
        self.key_lists = key_lists
        #: ``P_{i,K}`` -- point indices of ``o_i`` grouped by large-grid key,
        #: in first-occurrence order (the canonical point access order that
        #: label replay relies on).
        self.object_groups = object_groups
        #: Points actually mapped (equals nm unless a label filter skipped some).
        self.mapped_points = mapped_points

    # ------------------------------------------------------------------
    # Construction (Algorithm 3)
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        collection: ObjectCollection,
        r: float,
        backend: str = "ewah",
        point_filter: Optional[PointFilter] = None,
        small_width: Optional[float] = None,
        large_width: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> "BIGrid":
        """GRID-MAPPING(O, r): build both grids in one scan of the points.

        An expired ``deadline`` raises ``QueryTimeout`` between objects: a
        partially built index supports no bound, so grid mapping has no
        anytime answer to offer.
        """
        bitset_cls: Type[Bitset] = bitset_class(backend)
        dimension = collection.dimension
        s_width = small_width if small_width is not None else small_cell_width(r, dimension)
        l_width = large_width if large_width is not None else large_cell_width(r)
        small_grid = SmallGrid(s_width, dimension, bitset_cls)
        large_grid = LargeGrid(l_width, dimension, bitset_cls)
        key_lists: List[Set[Key]] = [set() for _ in range(collection.n)]
        object_groups: List[Dict[Key, List[int]]] = [{} for _ in range(collection.n)]
        mapped_points = 0

        for obj in collection:
            checkpoint(deadline, "grid_mapping")
            oid = obj.oid
            indices = _selected_indices(obj.num_points, point_filter, oid)
            if len(indices) == 0:
                continue
            mapped_points += len(indices)
            small_keys = compute_keys(obj.points[indices], s_width)
            large_keys = compute_keys(obj.points[indices], l_width)
            groups = object_groups[oid]
            for position, point_index in enumerate(indices):
                # Small grid (lines 3-13): maintain bitsets and key lists.
                small_key = small_keys[position]
                reached, first_oid = small_grid.add_point(oid, small_key)
                if reached == 2:
                    key_lists[first_oid].add(small_key)
                    key_lists[oid].add(small_key)
                elif reached is not None and reached > 2:
                    key_lists[oid].add(small_key)
                # Large grid (lines 14-21): postings + per-object grouping.
                large_key = large_keys[position]
                large_grid.add_point(oid, large_key, int(point_index))
                group = groups.get(large_key)
                if group is None:
                    groups[large_key] = [int(point_index)]
                else:
                    group.append(int(point_index))

        return cls(
            collection,
            r,
            small_grid,
            large_grid,
            key_lists,
            object_groups,
            mapped_points,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Index footprint: both grids plus the key lists and groupings."""
        key_bytes = 8 * self.collection.dimension
        keys, groups = self.index_entry_counts()
        return (
            self.small_grid.memory_bytes()
            + self.large_grid.memory_bytes()
            # One header per object's key list, plus one key per entry.
            + 16 * self.collection.n
            + key_bytes * keys
            # Group index entries reference the posting lists already
            # charged to the large grid: key plus one pointer per group.
            + 16 * self.collection.n
            + (key_bytes + 8) * groups
        )

    def index_entry_counts(self) -> Tuple[int, int]:
        """``(key-list entries, group entries)`` summed over every object."""
        return (
            sum(len(keys) for keys in self.key_lists),
            sum(len(groups) for groups in self.object_groups),
        )

    def __repr__(self) -> str:
        return (
            f"BIGrid(r={self.r}, small_cells={len(self.small_grid)}, "
            f"large_cells={len(self.large_grid)})"
        )


def _selected_indices(
    num_points: int,
    point_filter: Optional[PointFilter],
    oid: int,
) -> np.ndarray:
    """Point indices of one object that survive the (optional) label filter."""
    if point_filter is None:
        return np.arange(num_points)
    mask = point_filter(oid)
    if mask is None:
        return np.arange(num_points)
    return np.nonzero(mask)[0]
