"""The large-grid of Definition 3.

A hash table of cells with width ``ceil(r)``.  Each cell carries

* an inverted list ``I(c_K)``: one posting list per object, holding the
  indices of that object's points mapped into the cell,
* a compressed bitset ``b(c_K)`` with bit ``i`` set iff ``o_i`` has a
  posting list in the cell,
* a lazily computed union bitset ``b_adj(c_K) = OR of b(c_K')`` over the
  cell and its adjacent cells.  Algorithm 3 deliberately does *not* build
  these during grid mapping (it would touch 3^d cells per point); they are
  materialized on first use in the upper-bounding step and memoized.

Posting lists store point row indices rather than coordinates, so the
coordinates live once in the collection and verification fetches them with
one fancy-index per posting list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.bitset.base import Bitset
from repro.grid.keys import Key, cell_and_adjacent_keys


class LargeGridCell:
    """One large-grid cell: inverted list, bitset, lazy adjacent union."""

    __slots__ = (
        "bitset",
        "postings",
        "adj_int",
        "_adj_bitset",
        "last_oid",
        "_point_cache",
        "_box_cache",
        "neighbor_cells",
    )

    def __init__(self, bitset: Bitset) -> None:
        self.bitset = bitset
        self.postings: Dict[int, List[int]] = {}
        #: Big-int form of ``b_adj``; None until upper-bounding touches the
        #: cell.  The hot loops consume this; the compressed form below is
        #: materialized on demand for storage accounting and inspection.
        self.adj_int: Optional[int] = None
        self._adj_bitset: Optional[Bitset] = None
        self.last_oid = -1
        self._point_cache: Dict[int, np.ndarray] = {}
        self._box_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: Non-empty cells of the neighbourhood (self first), cached when the
        #: adjacent union is computed so verification re-walks no keys.
        self.neighbor_cells: Optional[List["LargeGridCell"]] = None

    @property
    def adj_bitset(self) -> Optional[Bitset]:
        """Compressed ``b_adj(c_K)``, or None if not yet computed."""
        if self._adj_bitset is None and self.adj_int is not None:
            self._adj_bitset = type(self.bitset).from_int(self.adj_int)
        return self._adj_bitset

    def posting_points(self, oid: int, points: np.ndarray) -> np.ndarray:
        """Coordinates of ``oid``'s posting list, cached after first fetch."""
        cached = self._point_cache.get(oid)
        if cached is None:
            cached = points[self.postings[oid]]
            self._point_cache[oid] = cached
        return cached

    def posting_box(self, oid: int, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(min corner, max corner)`` of ``oid``'s posting list, cached."""
        box = self._box_cache.get(oid)
        if box is None:
            own = points[self.postings[oid]]
            box = (own.min(axis=0), own.max(axis=0))
            self._box_cache[oid] = box
        return box


class LargeGrid:
    """Hash-table grid of :class:`LargeGridCell`."""

    __slots__ = ("width", "dimension", "bitset_cls", "cells", "_adj_count")

    def __init__(self, width: float, dimension: int, bitset_cls: Type[Bitset]) -> None:
        self.width = width
        self.dimension = dimension
        self.bitset_cls = bitset_cls
        self.cells: Dict[Key, LargeGridCell] = {}
        self._adj_count = 0

    @property
    def adj_computed(self) -> int:
        """Number of adjacent-union bitsets materialized so far (a stat the
        label experiments report)."""
        return self._adj_count

    def add_point(self, oid: int, key: Key, point_index: int) -> None:
        """Map one point into the grid (Algorithm 3, lines 15-21)."""
        cell = self.cells.get(key)
        if cell is None:
            cell = LargeGridCell(self.bitset_cls())
            self.cells[key] = cell
        if cell.last_oid != oid:
            cell.bitset.set(oid)
            cell.last_oid = oid
            cell.postings[oid] = []
        cell.postings[oid].append(point_index)

    def cell(self, key: Key) -> Optional[LargeGridCell]:
        """The cell at ``key``, or None if no point maps there."""
        return self.cells.get(key)

    def adjacent_union_int(self, key: Key) -> int:
        """``b_adj(c_K)`` as a big int: union over the cell's neighbourhood.

        Computed on first request and memoized on the cell (the ``K not in
        KeySet`` check of Algorithm 5, lines 7-9).
        """
        cell = self.cells[key]
        if cell.adj_int is None:
            union = 0
            cells = self.cells
            neighbors = []
            for neighbor_key in cell_and_adjacent_keys(key):
                neighbor = cells.get(neighbor_key)
                if neighbor is not None:
                    union |= neighbor.bitset.to_int()
                    neighbors.append(neighbor)
            cell.adj_int = union
            cell.neighbor_cells = neighbors
            self._adj_count += 1
        return cell.adj_int

    def adjacent_union(self, key: Key) -> Bitset:
        """``b_adj(c_K)`` as a (compressed) bitset; see adjacent_union_int."""
        self.adjacent_union_int(key)
        return self.cells[key].adj_bitset

    def __len__(self) -> int:
        return len(self.cells)

    def memory_bytes(self) -> int:
        """Bitsets, adjacent-union bitsets, postings, and table overhead.

        Posting entries are charged 8 bytes each (a point reference); each
        posting list and each hash entry is charged a pointer-sized header.
        The transient point-coordinate caches are measurement aids and are
        excluded, as is the collection itself.
        """
        per_entry = 8 * self.dimension + 8 + 8
        lists, entries = self.posting_counts()
        return (
            per_entry * len(self)
            + self.bitset_bytes()
            + self.adjacency_bytes()
            + 16 * lists
            + 8 * entries
        )

    # The terms of ``memory_bytes``; grids that keep their bitsets in
    # another form may compute them without building any bitset.

    def bitset_bytes(self) -> int:
        """Encoded size of every cell bitset ``b(c_K)``."""
        return sum(cell.bitset.size_in_bytes() for cell in self.cells.values())

    def adjacency_bytes(self) -> int:
        """Encoded size of every adjacent union computed so far."""
        total = 0
        for cell in self.cells.values():
            adj_bitset = cell.adj_bitset
            if adj_bitset is not None:
                total += adj_bitset.size_in_bytes()
        return total

    def posting_counts(self) -> Tuple[int, int]:
        """``(posting lists, posting entries)`` over every cell."""
        lists = entries = 0
        for cell in self.cells.values():
            lists += len(cell.postings)
            for posting in cell.postings.values():
                entries += len(posting)
        return lists, entries
