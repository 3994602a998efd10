"""The small-grid of Definition 2.

A hash table of cells with width ``r / sqrt(d)``.  Each cell carries one
compressed bitset whose bit ``i`` is set iff object ``o_i`` has a point in
the cell.  Cells are created on demand (no empty cells, no replication).

The grid also tracks, per cell, how many *distinct* objects have points in
it, which is what Algorithm 3 needs to maintain the key lists ``o_i.L``
("cells shared by at least two objects") without re-counting bits.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.bitset.base import Bitset
from repro.grid.keys import Key


class SmallGridCell:
    """One small-grid cell: its bitset plus distinct-object bookkeeping."""

    __slots__ = ("bitset", "distinct_objects", "first_oid", "last_oid")

    def __init__(self, bitset: Bitset) -> None:
        self.bitset = bitset
        self.distinct_objects = 0
        self.first_oid = -1
        self.last_oid = -1


class SmallGrid:
    """Hash-table grid of :class:`SmallGridCell`."""

    __slots__ = ("width", "dimension", "bitset_cls", "cells")

    def __init__(self, width: float, dimension: int, bitset_cls: Type[Bitset]) -> None:
        self.width = width
        self.dimension = dimension
        self.bitset_cls = bitset_cls
        self.cells: Dict[Key, SmallGridCell] = {}

    def add_point(self, oid: int, key: Key) -> Tuple[Optional[int], int]:
        """Record that object ``oid`` has a point in cell ``key``.

        Objects must arrive in non-decreasing oid order per cell, which
        Algorithm 3's object-major scan guarantees.  Returns the pair
        ``(newly_reached_distinct_count or None, first_oid)`` so the caller
        can apply the key-list updates of Algorithm 3, lines 7-10:

        * ``(2, i')``  -- the cell just became shared: add the key to both
          ``o_i.L`` and ``o_{i'}.L``;
        * ``(c > 2, _)`` -- add the key to ``o_i.L`` only;
        * ``(None, _)`` -- no change in distinct count (duplicate point of
          the same object, or a fresh single-object cell... see below).

        A fresh cell (count 1) is reported as ``(1, oid)``.
        """
        cell = self.cells.get(key)
        if cell is None:
            cell = SmallGridCell(self.bitset_cls())
            self.cells[key] = cell
            cell.bitset.set(oid)
            cell.distinct_objects = 1
            cell.first_oid = oid
            cell.last_oid = oid
            return 1, oid
        if cell.last_oid == oid:
            return None, cell.first_oid
        cell.bitset.set(oid)
        cell.distinct_objects += 1
        cell.last_oid = oid
        return cell.distinct_objects, cell.first_oid

    def cell(self, key: Key) -> Optional[SmallGridCell]:
        """The cell at ``key``, or None if no point maps there."""
        return self.cells.get(key)

    def __len__(self) -> int:
        return len(self.cells)

    def memory_bytes(self) -> int:
        """Bitset bytes plus per-entry hash table overhead.

        Each hash entry is charged the key (8 bytes per axis), one pointer,
        and the fixed cell header (counts), mirroring a compact C++ layout.
        """
        per_entry = 8 * self.dimension + 8 + 12
        return per_entry * len(self) + self.bitset_bytes()

    def bitset_bytes(self) -> int:
        """Encoded size of every cell bitset (the term ``memory_bytes``
        charges beyond the table); grids that keep their bitsets in
        another form may compute it without building them."""
        return sum(cell.bitset.size_in_bytes() for cell in self.cells.values())
