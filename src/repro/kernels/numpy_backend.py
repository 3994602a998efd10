"""The ``numpy`` kernel: vectorized hot paths over packed bitset matrices.

Where the reference backend walks points one at a time, this backend
batches whole phases into array operations while producing *bit-identical*
structures and results (the conformance suite enforces it):

* **Grid mapping** concatenates every object's points once (the label
  filter is one compare over the labels' flat buffer), floors every
  coordinate in one shot, encodes cell keys as mixed-radix ``int64``
  codes, and builds each grid from one sort of its unique
  ``code * points + scan position`` keys: cell and ``(cell, object)``
  runs are boundary flags on the sorted scan.  Out come a ``(cells,
  words)`` ``uint64`` bitset matrix filled with ``np.bitwise_or.at``,
  cell key rows, posting segments, and per-object key-list and group
  rows.  No per-cell, per-segment or per-group python object is built.
  A session's resident grid serves later queries through per-query
  views (:meth:`PackedBIGrid.view`).
* **Lower bounding** OR-reduces the packed small-grid rows of each
  object's key list and popcounts with ``np.bitwise_count``.
* **Upper bounding** computes *all* adjacent unions at once.  One
  neighbour search per grid fills an ``int32`` table of every cell's
  ``3^d`` neighbour rows: adjacency is symmetric, so each pair found
  fills both cells' slots, and one ``searchsorted`` per positive offset
  prefix (4 in 3-D, 1 in 2-D) finds them all.  ``b_adj`` is then one
  row gather per offset, and the ``3^d`` dictionary walks per cell
  disappear.  The table stays with the grid's shared tables, so the
  verifier's walks and box bounds read it instead of searching again.
  Label-producing and label-consuming passes stay on the packed rows
  too: WITH-LABEL group selection is an OR per posting segment over one
  flat mask, Labeling-1 a popcount over the cells first unioned, and
  Labeling-2's running union a segmented prefix-OR scan.
* **Verification** keeps the reference's best-first outer loop (shared
  via :func:`repro.core.verification.best_first_verification`) but scores
  the queue in blocks of candidates, owners keyed by (candidate,
  object), in two waves of groups, each one flat batch: every candidate
  point against every posting, in its group's ``3^d`` neighbourhood, of
  an owner still unconfirmed -- one coordinate gather, one einsum, one
  ``np.minimum.reduceat``; each group's neighbourhood is a row of the
  neighbour table.  Nothing replays the walk: each owner's first
  hit decides which checks the reference makes, what it confirms and
  which points it labels (:func:`first_hit_scan`), so early
  termination, Labeling-3 marks and every work counter match the oracle
  bit-for-bit.  A block starts at one candidate, at most doubles, holds
  only candidates whose upper bound beats the current threshold, and
  keeps its first-hit entries (estimated from earlier blocks) and its
  ``B x n`` confirmed matrix within ``VERIFY_BATCH_PAIRS``.  The loop
  still settles one candidate at a time, and only a settle applies
  counters, memo rows and labels: scores computed past the break are
  discarded without a trace, and clock reads stay one per dequeue plus
  one per visited group.  The loop's box-bound skips read
  ``_BatchedVerifier.bounds``: per-segment boxes (one
  ``minimum/maximum.reduceat`` over the posting coordinates) tested
  against each group's own box in flat slices, own cells first.
* **Memory accounting** sizes every cell bitset and memoized adjacent
  union from its packed row (:func:`packed_bitset_bytes`: the EWAH, plain and
  Roaring ``size_in_bytes`` formulas evaluated over whole matrices), so
  ``memory_bytes()`` never materializes a lazy cell.

The packed arrays ride on private ``SmallGrid``/``LargeGrid``/``BIGrid``
subclasses, and the vectorized phases read nothing else.  The reference
layout (cells, postings, key lists, group maps) is a view materialized
from those arrays on first read, equal to what the serial build makes;
counters and memory accounting never need it.  Downstream consumers that
read the reference layout — the pure-python phases, the schedule study,
analysis helpers, tests — therefore run unchanged on a numpy-built grid
and pay for the view only when they use it.

Requires numpy >= 2.0 (``np.bitwise_count``); the registry in
:mod:`repro.kernels` feature-detects this and falls back to the python
backend otherwise.  Inputs whose cell-index spread would overflow the
``int64`` key encoding (astronomically sparse grids) fall back per call.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bitset.ewah import EWAHBitset
from repro.bitset.factory import bitset_class
from repro.bitset.plain import PlainBitset
from repro.bitset.roaring import (
    ARRAY_LIMIT,
    BITMAP_BYTES,
    CHUNK_SIZE,
    CONTAINER_HEADER,
    RoaringBitset,
)
from repro.core.geometry import boxes_within
from repro.core.labels import GRID_BIT, UPPER_BIT
from repro.core.lower_bound import LowerBoundResult
from repro.core.upper_bound import Candidate, UpperBoundResult
from repro.core.verification import Settle, VerifyCounters, best_first_verification
from repro.grid.bigrid import BIGrid
from repro.grid.keys import (
    cell_and_adjacent_keys,
    compute_keys,
    key_rows,
    key_tuples,
    large_cell_width,
    neighbor_offsets,
    small_cell_width,
)
from repro.grid.large_grid import LargeGrid, LargeGridCell
from repro.grid.small_grid import SmallGrid, SmallGridCell
from repro.kernels.base import KernelBackend
from repro.kernels.python_backend import PYTHON_KERNEL
from repro.resilience import checkpoint

#: Rows per block of the early-exit verification distance check.  Small
#: enough that a first-block hit skips most of a long posting list, large
#: enough that the loop overhead stays invisible for short ones.
DISTANCE_CHUNK = 256

#: Distance pairs (candidate point x posting row) per verification batch.
#: A wave of groups past this is evaluated in slices of at most this many
#: pairs (~90 bytes each in flight), so a dense candidate cannot spike
#: peak memory.  The same budget sizes a verification block: its
#: first-hit entries (estimated from the entries per candidate of earlier
#: blocks) and its ``B x n`` confirmed matrix stay within it, so block
#: memory does not grow with the candidate count.
VERIFY_BATCH_PAIRS = 1 << 14

#: Size-based dispatch for LOWER-BOUNDING: below this many packed-row OR
#: operations in total, the fixed numpy dispatch overhead (``flatnonzero``,
#: ``cumsum``, ``reduceat`` setup) exceeds the work itself, and running the
#: reference algorithm -- sequential per-object big-int unions in the same
#: order -- straight over the pre-gathered words wins.  Measured on cold
#: grids (rebuilt per repetition, as the speedup bench does) over
#: ``neuron`` samples from 36 to 1067 shared rows: the sequential path won
#: every size up to ~790 rows and the two paths track within noise beyond
#: it.  ``tests/test_lower_bound.py`` pins the dispatch behavior on both
#: sides.  Module-level and read at call time so tests can monkeypatch it.
LOWER_BOUND_DISPATCH_MIN_ROWS = 768


def _row_int(words: np.ndarray) -> int:
    """One packed uint64 row -> the big-int bitset value (word i at bit 64*i)."""
    return int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
#: 64-bit words per Roaring chunk.
_ROARING_CHUNK_WORDS = CHUNK_SIZE // 64


def _ewah_bytes(words: np.ndarray) -> int:
    """Stream bytes (markers + dirty words) of every row's EWAH encoding.

    ``from_int`` opens a marker at each clean word (all zeros or all ones)
    whose predecessor differs, plus one before a dirty first word, and
    drops the trailing zero run: a row ending in a zero word has exactly
    one clean-run start in that run.  Each segment is one marker word: a
    marker only splits past 2^32 clean or 2^31 dirty words, far wider
    than any row of ``n`` bits can be.
    """
    clean = (words == 0) | (words == _ALL_ONES)
    run_starts = clean.copy()
    run_starts[:, 1:] &= words[:, 1:] != words[:, :-1]
    dirty = ~clean
    markers = (
        int(np.count_nonzero(run_starts))
        - int(np.count_nonzero(words[:, -1] == 0))
        + int(np.count_nonzero(dirty[:, 0]))
    )
    return 8 * (markers + int(np.count_nonzero(dirty)))


def _plain_bytes(words: np.ndarray) -> int:
    """Whole words up to each row's highest set bit, summed over rows."""
    nonzero = words != 0
    last = words.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return 8 * int(np.where(nonzero.any(axis=1), last, 0).sum())


def _roaring_bytes(words: np.ndarray) -> int:
    """Container bytes of every row's Roaring encoding.

    Per non-empty 1024-word chunk: the header plus the cheapest of an
    array (2 bytes per value, up to ``ARRAY_LIMIT`` values), runs (4
    bytes per maximal run of set bits, runs continuing across word
    boundaries inside the chunk) and the fixed bitmap.
    """
    width = words.shape[1]
    # A set bit starts a run unless the bit below it (within the chunk)
    # is set too; bit 0 of a word looks at bit 63 of the word before.
    below = words << np.uint64(1)
    below[:, 1:] |= words[:, :-1] >> np.uint64(63)
    below[:, ::_ROARING_CHUNK_WORDS] &= ~np.uint64(1)
    chunk_starts = np.arange(0, width, _ROARING_CHUNK_WORDS)
    cards = np.add.reduceat(
        np.bitwise_count(words), chunk_starts, axis=1, dtype=np.int64
    )
    runs = np.add.reduceat(
        np.bitwise_count(words & ~below), chunk_starts, axis=1, dtype=np.int64
    )
    payload = np.minimum(4 * runs, BITMAP_BYTES)
    payload = np.where(
        cards <= ARRAY_LIMIT, np.minimum(payload, 2 * cards), payload
    )
    return int(np.where(cards > 0, CONTAINER_HEADER + payload, 0).sum())


#: ``size_in_bytes`` of each registered bitset backend, over packed rows.
_PACKED_BYTES = {
    EWAHBitset: _ewah_bytes,
    PlainBitset: _plain_bytes,
    RoaringBitset: _roaring_bytes,
}


def packed_bitset_bytes(bitset_cls, words: np.ndarray) -> int:
    """``sum(bitset_cls.from_int(row).size_in_bytes())`` over packed rows.

    Memory accounting for numpy-built grids: the same sizes the bitset
    classes report, evaluated in bulk over a ``(rows, words)`` uint64
    matrix (word ``i`` holds bits ``64i..64i+63``) so no bitset is built.
    """
    if words.shape[0] == 0:
        return 0
    return _PACKED_BYTES[bitset_cls](words)


def encode_keys(keys: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Mixed-radix ``int64`` codes for integer key rows, or None on overflow.

    Axes are shifted to a 1-cell margin on both sides so that *neighbour*
    keys (every per-axis offset in ``{-1, 0, +1}``) also encode uniquely:
    ``code(key + offset) == code(key) + dot(offset, strides)`` for every
    key present in ``keys``.  Returns ``(codes, strides)``; None when the
    padded extent product would overflow (the caller falls back to the
    reference implementation).  Public because the shard router reuses
    the same codes to place objects on a space-filling curve.
    """
    # Per-axis column passes: numpy reduces a ``(points, d)`` array along
    # axis 0 (and multiplies int64 matrices) an order of magnitude slower.
    columns = keys.T
    mins = [int(column.min()) - 1 for column in columns]
    extents = [int(column.max()) - low + 2 for column, low in zip(columns, mins)]
    if math.prod(extents) >= 2 ** 62:
        return None
    strides = np.cumprod([1] + extents[:0:-1])[::-1].astype(np.int64)
    codes = sum(
        (column - low) * stride
        for column, low, stride in zip(columns, mins, strides.tolist())
    )
    return codes, strides


class LazyBitsetSmallCell(SmallGridCell):
    """A small-grid cell whose compressed bitset is built on first access.

    The vectorized phases never read per-cell bitsets (they reduce the
    packed matrix instead), so eagerly compressing one bitset per cell —
    or even converting its packed row to a big int — would be pure
    build-time overhead.  The cell keeps ``(bitset_cls, packed, row)``
    and the compressed form materializes lazily — any consumer (serial
    phases on a numpy-built grid, memory accounting, tests) sees the
    identical bitset it would on a serial build.
    """

    __slots__ = ("_lazy_bitset",)

    def __init__(self, bitset_cls, packed: np.ndarray, row: int) -> None:
        # Deliberately skip the parent __init__: the ``bitset`` slot stays
        # unset until first access (__getattr__ fills it).
        self._lazy_bitset = (bitset_cls, packed, row)
        self.distinct_objects = 0
        self.first_oid = -1
        self.last_oid = -1

    def __getattr__(self, name: str):
        if name == "bitset":
            bitset_cls, packed, row = self._lazy_bitset
            bitset = bitset_cls.from_int(_row_int(packed[row]))
            self.bitset = bitset
            return bitset
        raise AttributeError(name)


class _GridTables:
    """A large grid's pure derived tables, shared by every view of it.

    ``adjacency`` holds every cell's ``b_adj`` as packed rows once any
    pass needed one (:meth:`PackedLargeGrid.bulk_adjacency`), and
    ``neighbors`` every cell's ``3^d`` neighbour rows, found by the same
    pass: an ``int32`` table of ``3^d`` slots by cells, so column
    ``row`` is that cell's neighbourhood in the reference's
    ``cell_and_adjacent_keys`` walk order (the cell itself, then
    ``neighbor_offsets`` order) and -1 marks a slot with no cell.  It is
    stored slot-major because the pass fills it one offset at a time,
    and a gather of cells' columns along axis 1 is as cheap either way.
    ``verify`` holds the batched verifier's lookup tables.  All depend
    on the grid's immutable arrays alone and are lookup aids, not index
    structures, so ``memory_bytes`` charges none of them.  Whichever view
    needs one first computes it; two concurrent first computations store
    equal values, so the last store wins harmlessly.
    """

    __slots__ = ("adjacency", "neighbors", "verify")

    def __init__(self) -> None:
        self.adjacency: Optional[np.ndarray] = None
        self.neighbors: Optional[np.ndarray] = None
        self.verify: Optional[dict] = None


class _Adjacency:
    """A large grid's shared tables and its own memo, read by its cells.

    ``words`` is the shared bulk adjacency matrix (None until computed);
    ``memo[row]`` says whether the reference would have memoized that
    row's union by now (the ``K not in KeySet`` state of Algorithm 5),
    per query: each view of a resident grid owns its memo.  Cells read
    both through this holder, not through the grid: a cell -> grid
    reference would close a grid -> cells -> grid cycle and leave every
    discarded grid to the cyclic garbage collector instead of freeing it
    with its last reference.
    """

    __slots__ = ("tables", "memo")

    def __init__(self, tables: _GridTables, rows: int = 0) -> None:
        self.tables = tables
        self.memo = np.zeros(rows, dtype=bool)

    @property
    def words(self) -> Optional[np.ndarray]:
        return self.tables.adjacency


class LazyBitsetLargeCell(LargeGridCell):
    """A large-grid cell with the same lazy-bitset scheme (see above).

    The adjacent union is lazy too: ``adj_int`` resolves from the grid's
    bulk adjacency matrix (``PackedLargeGrid.adj_words``) once the row
    is memoized, so upper-bounding never pays the per-cell big-int
    conversions — only the cells verification actually touches convert
    their row.  Until then the attribute reads as None (uncached, so it
    resolves correctly later), which is exactly the base-class state of
    a union not computed yet.
    """

    __slots__ = ("_lazy_bitset", "_row")

    def __init__(
        self, bitset_cls, packed: np.ndarray, adjacency: _Adjacency, row: int
    ) -> None:
        self._lazy_bitset = (bitset_cls, packed, adjacency)
        self._row = row
        self.postings = {}
        self.last_oid = -1

    def __getattr__(self, name: str):
        if name == "bitset":
            bitset_cls, packed, _ = self._lazy_bitset
            bitset = bitset_cls.from_int(_row_int(packed[self._row]))
            self.bitset = bitset
            return bitset
        if name == "adj_int":
            adjacency = self._lazy_bitset[2]
            if adjacency.words is None or not adjacency.memo[self._row]:
                # Not cached: the row is memoized later, and a stored
                # None would mask it forever.
                return None
            value = _row_int(adjacency.words[self._row])
            self.adj_int = value
            return value
        if name in ("_point_cache", "_box_cache"):
            cache: dict = {}
            setattr(self, name, cache)
            return cache
        if name in ("_adj_bitset", "neighbor_cells"):
            # Rarely-read slots default lazily too: one attribute write per
            # cell saved at build time adds up over tens of thousands of
            # cells, and most cells are never asked for their adjacency.
            setattr(self, name, None)
            return None
        raise AttributeError(name)


class PackedSmallGrid(SmallGrid):
    """A :class:`SmallGrid` held as packed arrays; ``cells`` materializes
    on first read.

    Row ``i`` is one cell: ``packed[i]`` its bitset, ``key_rows[i]`` its
    key, ``cell_objects[i]`` its distinct-object count.  ``pair_oid``
    lists each cell's objects (cell-major, oid ascending), so a cell's
    first and last oid sit at the ends of its run.  The vectorized phases
    read only these arrays; the inherited ``cells`` slot stays unset until
    something asks for it (:meth:`__getattr__`), and then holds the
    reference build's cells, listed in ascending key order.
    """

    __slots__ = ARRAYS = ("packed", "key_rows", "cell_objects", "pair_oid")

    def __init__(self, width: float, dimension: int, bitset_cls) -> None:
        # Deliberately skip the parent __init__: ``cells`` stays unset.
        self.width = width
        self.dimension = dimension
        self.bitset_cls = bitset_cls

    def __getattr__(self, name: str):
        if name != "cells":
            raise AttributeError(name)
        cells = self._materialize_cells()
        self.cells = cells
        return cells

    def view(self) -> "PackedSmallGrid":
        """The same arrays, with cells of its own still unmaterialized."""
        view = PackedSmallGrid(self.width, self.dimension, self.bitset_cls)
        _share(self, view)
        return view

    def _materialize_cells(self) -> Dict:
        """The reference's ``cells`` dict, in row (ascending code) order."""
        packed = self.packed
        bitset_cls = self.bitset_cls
        distinct = self.cell_objects
        ends = np.cumsum(distinct)
        distinct_list = distinct.tolist()
        first_list = self.pair_oid[ends - distinct].tolist()
        last_list = self.pair_oid[ends - 1].tolist()
        cells = {}
        for row, key in enumerate(key_tuples(self.key_rows)):
            cell = LazyBitsetSmallCell(bitset_cls, packed, row)
            cell.distinct_objects = distinct_list[row]
            cell.first_oid = first_list[row]
            cell.last_oid = last_list[row]
            cells[key] = cell
        return cells

    def __len__(self) -> int:
        return self.packed.shape[0]

    def bitset_bytes(self) -> int:
        # Row ``i`` is cell ``i``'s bitset: size the rows, build nothing.
        return packed_bitset_bytes(self.bitset_cls, self.packed)


class PackedLargeGrid(LargeGrid):
    """A :class:`LargeGrid` held as packed arrays, with bulk adjacent unions.

    Row ``i`` is one cell: ``packed[i]`` its bitset, ``codes[i]`` its
    mixed-radix key code (ascending), ``key_rows[i]`` its key.  The
    ``seg_*`` arrays are the flat segment view of the postings that the
    upper-bounding passes and the batched verifier consume: segment ``s``
    is one ``(cell, oid)`` posting list, sorted cell-major/oid-ascending,
    with its point indices at ``seg_points[seg_bounds[s]:seg_bounds[s+1]]``
    and their *coordinates* at the same rows of ``seg_coords`` (posting
    order).  The bulk adjacency matrix, the neighbour table and the
    verifier's lookup tables are computed on first need into ``tables``,
    which every :meth:`view` of the grid shares.  The inherited ``cells`` slot
    (cells with their postings) stays unset until something asks for it
    (:meth:`__getattr__`).

    ``adjacent_union_int`` keeps the base-class semantics: the first
    request for a cell's union memoizes it and counts it in
    ``adj_computed``.  The values come from one bulk matrix
    (``adj_words``, computed for every cell on first need); what the
    reference would have memoized is tracked per row in ``adj_memo``,
    which ``adj_computed``, ``adjacency_bytes`` and the cells' lazy
    ``adj_int`` all read.
    """

    ARRAYS = (
        "packed",
        "codes",
        "strides",
        "key_rows",
        "seg_cell",
        "seg_oid",
        "seg_bounds",
        "seg_points",
        "seg_coords",
    )
    __slots__ = ARRAYS + ("_adjacency",)

    def __init__(self, width: float, dimension: int, bitset_cls) -> None:
        # Deliberately skip the parent __init__: ``cells`` stays unset.
        self.width = width
        self.dimension = dimension
        self.bitset_cls = bitset_cls
        self._adjacency = _Adjacency(_GridTables())

    def __getattr__(self, name: str):
        if name != "cells":
            raise AttributeError(name)
        cells = self._materialize_cells()
        self.cells = cells
        return cells

    def view(self) -> "PackedLargeGrid":
        """The same arrays and shared tables, with an adjacency memo of
        its own (nothing memoized) and cells still unmaterialized."""
        view = PackedLargeGrid(self.width, self.dimension, self.bitset_cls)
        _share(self, view)
        view._adjacency = _Adjacency(self._adjacency.tables, len(self.codes))
        return view

    @property
    def tables(self) -> _GridTables:
        """The pure derived tables every view of this grid shares."""
        return self._adjacency.tables

    def _materialize_cells(self) -> Dict:
        """The reference's ``cells`` dict with postings, in row order."""
        cells = {}
        row_cells: List[LargeGridCell] = []
        for row, key in enumerate(key_tuples(self.key_rows)):
            cell = LazyBitsetLargeCell(
                self.bitset_cls, self.packed, self._adjacency, row
            )
            cells[key] = cell
            row_cells.append(cell)
        points_list = self.seg_points.tolist()
        bounds = self.seg_bounds.tolist()
        for index, (row, oid) in enumerate(
            zip(self.seg_cell.tolist(), self.seg_oid.tolist())
        ):
            cell = row_cells[row]
            cell.postings[oid] = points_list[bounds[index] : bounds[index + 1]]
            cell.last_oid = oid  # segments arrive oid-ascending per cell
        return cells

    def __len__(self) -> int:
        return self.packed.shape[0]

    @property
    def adj_words(self) -> Optional[np.ndarray]:
        """Every cell's ``b_adj`` as packed rows, once any pass needed one."""
        return self._adjacency.words

    @property
    def adj_memo(self) -> np.ndarray:
        """Per-row flags: whose adjacent union the reference has memoized."""
        return self._adjacency.memo

    @property
    def adj_computed(self) -> int:
        return int(np.count_nonzero(self._adjacency.memo))

    def bulk_adjacency(self) -> np.ndarray:
        """``b_adj`` of every cell as packed rows, computed on first call.

        The neighbour table (``tables.neighbors``) comes first.
        Adjacency is symmetric: cell ``j`` at ``+delta`` from cell ``i``
        puts ``i`` at ``-delta`` from ``j``, so each pair found fills both
        cells' slots and only the positive offsets are searched.  The
        offsets ``(prefix, -1 | 0 | +1)`` target three consecutive codes:
        one searchsorted finds the first and each hit steps to the next
        row, and the fastest axis's ``+1`` needs no search at all (those
        neighbours are consecutive rows of the sorted codes).  Each
        cell's ``b_adj`` is then its packed row ORed with one gather of
        its neighbours' rows per offset.  Computing a row memoizes
        nothing: passes mark ``adj_memo`` for the rows the reference
        would have unioned.
        """
        adjacency = self._adjacency.words
        if adjacency is None:
            packed = self.packed
            codes = self.codes
            last = len(codes) - 1
            cells = last + 1
            offsets = neighbor_offsets(self.dimension)
            column = {offset: 1 + index for index, offset in enumerate(offsets)}
            slots = np.full((1 + len(offsets), cells), -1, dtype=np.int32)
            slots[0] = np.arange(cells, dtype=np.int32)

            def link(rows: np.ndarray, pairs: np.ndarray, offset) -> None:
                slots[column[offset]][rows] = pairs
                slots[column[tuple(-axis for axis in offset)]][pairs] = rows

            if last > 0:
                rows = np.flatnonzero(np.diff(codes) == 1)
                link(rows, rows + 1, (0,) * (self.dimension - 1) + (1,))
                for prefix in neighbor_offsets(self.dimension - 1):
                    base = int(np.dot(prefix, self.strides[:-1]))
                    if base < 0:
                        continue  # the mirror of a positive prefix
                    positions = np.searchsorted(codes, codes + (base - 1))
                    for step in (-1, 0, 1):
                        np.minimum(positions, last, out=positions)
                        hit = codes[positions] == codes + (base + step)
                        rows = np.flatnonzero(hit)
                        link(rows, positions[rows], prefix + (step,))
                        positions += hit
            # An absent neighbour (-1, all ones as uint32) gathers the zero
            # row appended past the last cell: ``take`` runs several times
            # faster on non-negative indices.
            rows_or_zero = np.concatenate(
                (packed, np.zeros((1, packed.shape[1]), dtype=packed.dtype))
            )
            adjacency = packed.copy()
            for neighbors in slots[1:]:
                adjacency |= rows_or_zero.take(
                    np.minimum(neighbors.view(np.uint32), cells), 0
                )
            # The table first: a reader that finds the adjacency finds it.
            self._adjacency.tables.neighbors = slots
            self._adjacency.tables.adjacency = adjacency
        return adjacency

    def neighbor_table(self) -> np.ndarray:
        """Every cell's ``3^d`` neighbour rows (see :class:`_GridTables`),
        found by :meth:`bulk_adjacency` on first need."""
        neighbors = self._adjacency.tables.neighbors
        if neighbors is None:
            self.bulk_adjacency()
            neighbors = self._adjacency.tables.neighbors
        return neighbors

    def row_adjacency(self, row: int) -> int:
        """Cell ``row``'s ``b_adj`` as a big int, memoizing it (the
        reference's on-demand union, minus the neighbour walk)."""
        words = self.bulk_adjacency()
        self._adjacency.memo[row] = True
        return _row_int(words[row])

    def adjacent_union_int(self, key) -> int:
        cell = self.cells[key]
        value = self.row_adjacency(cell._row)
        if cell.neighbor_cells is None:
            # The base class lists the neighbourhood as a side effect of
            # the union; the reference verifier walks it.
            cells = self.cells
            cell.neighbor_cells = [
                neighbor
                for neighbor_key in cell_and_adjacent_keys(key)
                if (neighbor := cells.get(neighbor_key)) is not None
            ]
        return value

    # Memory accounting straight from the packed rows: the base-class
    # terms, with no cell bitset or adjacent union materialized.

    def bitset_bytes(self) -> int:
        return packed_bitset_bytes(self.bitset_cls, self.packed)

    def adjacency_bytes(self) -> int:
        # The memoized unions only, as the reference sizes them.
        memo = self._adjacency.memo
        if not memo.any():
            return 0
        words = self._adjacency.words
        return packed_bitset_bytes(
            self.bitset_cls, words if memo.all() else words[memo]
        )

    def posting_counts(self) -> Tuple[int, int]:
        # One posting list per (cell, oid) segment.
        return len(self.seg_oid), int(self.seg_bounds[-1])


class PackedBIGrid(BIGrid):
    """A :class:`BIGrid` carrying row indices into the packed matrices.

    ``shared_flat`` lists each object's shared small-grid rows (its key
    list ``o_i.L``), oid-major with cells ascending, ``shared_counts[oid]``
    rows each; ``shared_words`` are those rows' packed words.
    ``group_flat`` lists each object's large-grid group rows in
    first-occurrence order, ``group_counts[oid]`` rows each, and
    ``group_segments[g]`` is group ``g``'s posting segment in the large
    grid: its points are the group's ``object_groups`` list.  The
    bounding phases and the verifier read only these arrays; the
    inherited ``key_lists`` and ``object_groups`` slots stay unset until
    something asks for them (:meth:`__getattr__`).
    """

    __slots__ = ARRAYS = (
        "shared_flat",
        "shared_counts",
        "shared_words",
        "group_flat",
        "group_counts",
        "group_segments",
    )

    def __init__(
        self,
        collection,
        r: float,
        small_grid: PackedSmallGrid,
        large_grid: PackedLargeGrid,
        mapped_points: int,
    ) -> None:
        # Deliberately skip the parent __init__: the lazy slots stay unset.
        self.collection = collection
        self.r = r
        self.small_grid = small_grid
        self.large_grid = large_grid
        self.mapped_points = mapped_points

    def __getattr__(self, name: str):
        if name == "key_lists":
            value = self._materialize_key_lists()
        elif name == "object_groups":
            value = self._materialize_object_groups()
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def view(self) -> "PackedBIGrid":
        """A per-query view: the same immutable arrays and shared tables,
        with per-query state (adjacency memo, cells, key lists, groups) of
        its own, as after a fresh build."""
        view = PackedBIGrid(
            self.collection,
            self.r,
            self.small_grid.view(),
            self.large_grid.view(),
            self.mapped_points,
        )
        _share(self, view)
        return view

    def _materialize_key_lists(self) -> List[set]:
        """``o_i.L`` per object; each set gets its keys in ascending cell
        order, as the reference's cell-major scan inserts them."""
        n = self.collection.n
        cell_keys = key_tuples(self.small_grid.key_rows)
        key_lists: List[set] = [set() for _ in range(n)]
        owners = np.repeat(np.arange(n), self.shared_counts).tolist()
        for row, oid in zip(self.shared_flat.tolist(), owners):
            key_lists[oid].add(cell_keys[row])
        return key_lists

    def _materialize_object_groups(self) -> List[Dict]:
        """``P_{i,K}`` per object, groups in first-occurrence order."""
        n = self.collection.n
        large_grid = self.large_grid
        cell_keys = key_tuples(large_grid.key_rows)
        points_list = large_grid.seg_points.tolist()
        bounds = large_grid.seg_bounds.tolist()
        object_groups: List[Dict] = [{} for _ in range(n)]
        owners = np.repeat(np.arange(n), self.group_counts).tolist()
        for oid, row, segment in zip(
            owners, self.group_flat.tolist(), self.group_segments.tolist()
        ):
            object_groups[oid][cell_keys[row]] = points_list[
                bounds[segment] : bounds[segment + 1]
            ]
        return object_groups

    def index_entry_counts(self) -> Tuple[int, int]:
        # ``len(key_lists[oid]) == shared_counts[oid]`` and
        # ``len(object_groups[oid]) == group_counts[oid]`` by construction.
        return int(self.shared_counts.sum()), int(self.group_counts.sum())


def _share(source, target) -> None:
    """Point ``target``'s array slots at ``source``'s (never copied:
    built arrays are never written after the build)."""
    for name in source.ARRAYS:
        setattr(target, name, getattr(source, name))


#: Exclusive bound of the ``code * points + scan position`` sort keys:
#: grids whose keys could reach it (int64 overflow) take the stable
#: argsort instead.  Read at call time so tests can pin both branches.
_SORT_KEY_LIMIT = 2 ** 63


def _cell_runs(codes: np.ndarray, oids: np.ndarray, words: int) -> Tuple:
    """One grid's points grouped by cell with a single sort.

    The scan is oid-major, so ordering the points by (cell code, scan
    position) orders them by (cell, oid, scan position); cell runs and
    ``(cell, oid)`` segment runs are then boundary flags on the sorted
    codes and oids.  The sort is one plain ``np.sort`` of the unique keys
    ``code * points + scan position``, which gives exactly the stable
    ``argsort``'s permutation at a fraction of its cost; only a grid
    whose keys would overflow int64 runs the stable ``argsort`` itself.
    Returns the sorted scan ``order``, the run starts ``cell_start`` and
    ``seg_start`` into it, each segment's cell row and oid (cell-major,
    oid ascending), and the ``(cells, words)`` bitset matrix with bit
    ``oid`` set in row ``cell`` for every segment.
    """
    points = len(codes)
    if (int(codes.max()) + 1) * points <= _SORT_KEY_LIMIT:
        keys = np.sort(codes * points + np.arange(points, dtype=np.int64))
        sorted_codes, order = np.divmod(keys, points)
    else:
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
    sorted_oids = oids[order]
    new_cell = np.empty(len(order), dtype=bool)
    new_cell[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=new_cell[1:])
    new_segment = new_cell.copy()
    new_segment[1:] |= sorted_oids[1:] != sorted_oids[:-1]
    cell_start = np.flatnonzero(new_cell)
    seg_start = np.flatnonzero(new_segment)
    seg_cell = np.cumsum(new_cell[seg_start]) - 1
    seg_oid = sorted_oids[seg_start]
    packed = np.zeros((len(cell_start), words), dtype=np.uint64)
    np.bitwise_or.at(
        packed,
        (seg_cell, seg_oid >> 6),
        np.left_shift(np.uint64(1), (seg_oid & 63).astype(np.uint64)),
    )
    return order, cell_start, seg_start, seg_cell, seg_oid, packed


class NumpyKernel(KernelBackend):
    """Vectorized backend (numpy >= 2.0), bit-exact with the reference."""

    name = "numpy"

    # ------------------------------------------------------------------
    # Cell keys
    # ------------------------------------------------------------------

    def cell_keys(self, points: np.ndarray, width: float) -> List[tuple]:
        # Same floor-and-truncate as the reference (shared helper), so the
        # keys agree bit-for-bit by construction.
        return compute_keys(points, width)

    # ------------------------------------------------------------------
    # GRID-MAPPING (Algorithm 3), batched
    # ------------------------------------------------------------------

    def build_bigrid(
        self,
        collection,
        r: float,
        backend: str = "ewah",
        labels=None,
        deadline=None,
    ) -> BIGrid:
        bitset_cls = bitset_class(backend)
        dimension = collection.dimension
        s_width = small_cell_width(r, dimension)
        l_width = large_cell_width(r)
        n = collection.n

        # Every object's points, concatenated once in oid-major scan order,
        # with each point's oid and index within its object.
        checkpoint(deadline, "grid_mapping")
        blocks = [obj.points for obj in collection]
        sizes = np.fromiter(map(len, blocks), np.int64, n)
        points = np.concatenate(blocks)
        oids = np.repeat(np.arange(n, dtype=np.int64), sizes)
        point_idx = np.arange(len(oids), dtype=np.int64) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        if labels is not None:
            # The label filter (Lemma 3): the labels' flat buffer has the
            # concatenation's layout, so one compare masks every point.
            keep = labels.flat_mask(GRID_BIT)
            points = points.compress(keep, 0)
            oids, point_idx = oids.compress(keep), point_idx.compress(keep)
        mapped_points = len(oids)

        small_grid = PackedSmallGrid(s_width, dimension, bitset_cls)
        large_grid = PackedLargeGrid(l_width, dimension, bitset_cls)
        bigrid = PackedBIGrid(
            collection, r, small_grid, large_grid, mapped_points
        )
        words = (n + 63) // 64 if n else 1

        if mapped_points == 0:
            empty = np.empty(0, dtype=np.int64)
            no_rows = np.zeros((0, words), dtype=np.uint64)
            no_keys = np.empty((0, dimension), dtype=np.int64)
            small_grid.packed = no_rows
            small_grid.key_rows = no_keys
            small_grid.cell_objects = empty
            small_grid.pair_oid = empty
            bigrid.shared_flat = empty
            bigrid.shared_counts = np.zeros(n, dtype=np.int64)
            bigrid.shared_words = no_rows
            large_grid.packed = no_rows
            large_grid.codes = empty
            large_grid.strides = np.ones(dimension, dtype=np.int64)
            large_grid.key_rows = no_keys
            large_grid.seg_cell = empty
            large_grid.seg_oid = empty
            large_grid.seg_bounds = np.zeros(1, dtype=np.int64)
            large_grid.seg_points = empty
            large_grid.seg_coords = np.empty((0, dimension))
            bigrid.group_flat = empty
            bigrid.group_counts = np.zeros(n, dtype=np.int64)
            bigrid.group_segments = empty
            return bigrid

        small_keys = key_rows(points, s_width)
        large_keys = key_rows(points, l_width)

        encoded_small = encode_keys(small_keys)
        encoded_large = encode_keys(large_keys)
        if encoded_small is None or encoded_large is None:
            # Cell-index spread too wide for int64 codes: astronomically
            # sparse input, not worth a second encoding scheme.
            return PYTHON_KERNEL.build_bigrid(
                collection,
                r,
                backend=backend,
                labels=labels,
                deadline=deadline,
            )

        checkpoint(deadline, "grid_mapping")
        self._populate_small(bigrid, small_keys, encoded_small[0], oids, n, words)
        checkpoint(deadline, "grid_mapping")
        self._populate_large(
            bigrid, large_keys, encoded_large, oids, point_idx, points, n, words
        )
        return bigrid

    def grid_view(self, bigrid):
        # A build that fell back to the reference layout (int64 key
        # overflow) has no packed arrays to share.
        return bigrid.view() if isinstance(bigrid, PackedBIGrid) else None

    @staticmethod
    def _populate_small(
        bigrid: PackedBIGrid,
        small_keys: np.ndarray,
        codes: np.ndarray,
        oids: np.ndarray,
        n: int,
        words: int,
    ) -> None:
        """Pack the small grid and the key-list rows from the (cell, oid)
        runs; cells and key lists materialize from them on read."""
        small_grid = bigrid.small_grid
        # Segments are the distinct (cell, oid) pairs: cell-major, oid
        # ascending -- exactly the per-cell object order of the serial scan.
        order, cell_start, _, pair_cell, pair_oid, packed = _cell_runs(
            codes, oids, words
        )
        distinct = np.bincount(pair_cell, minlength=len(cell_start))
        small_grid.packed = packed
        small_grid.key_rows = small_keys.take(order[cell_start], 0)
        small_grid.cell_objects = distinct
        small_grid.pair_oid = pair_oid

        # Key lists (o_i.L): every object present in a cell shared by >= 2
        # distinct objects records that cell's key (Algorithm 3, lines 7-10).
        shared_pair = (distinct >= 2)[pair_cell]
        shared_cells = pair_cell[shared_pair]
        shared_oids = pair_oid[shared_pair]
        # Flat oid-major row groups (cells ascending within each object):
        # LOWER-BOUNDING reduces over this array directly, so the per-call
        # cost is one fancy index + one reduceat, no gather loop.
        order = np.argsort(shared_oids, kind="stable")
        flat = shared_cells[order]
        bigrid.shared_flat = flat
        bigrid.shared_counts = np.bincount(shared_oids, minlength=n).astype(
            np.int64
        )
        # The packed words of those rows, gathered once at build time --
        # LOWER-BOUNDING reads them straight off, paying no cold fancy
        # index on its own clock.
        bigrid.shared_words = packed.take(flat, 0)

    @staticmethod
    def _populate_large(
        bigrid: PackedBIGrid,
        large_keys: np.ndarray,
        encoded: Tuple[np.ndarray, np.ndarray],
        oids: np.ndarray,
        point_idx: np.ndarray,
        points: np.ndarray,
        n: int,
        words: int,
    ) -> None:
        """Pack the large grid's (cell, oid) posting segments and the
        per-object group rows; point order inside each posting list is the
        scan order (the stable sort preserves it).  Cells, postings and
        object groups materialize from these arrays on read."""
        large_grid = bigrid.large_grid
        codes, strides = encoded
        order, cell_start, starts, segment_cell, segment_oid, packed = _cell_runs(
            codes, oids, words
        )
        first = order[cell_start]  # each cell's first scan position
        large_grid.packed = packed
        large_grid.codes = codes[first]
        large_grid.strides = strides
        large_grid.key_rows = large_keys.take(first, 0)
        large_grid.seg_cell = segment_cell
        large_grid.seg_oid = segment_oid
        large_grid.seg_bounds = np.append(starts, len(order))
        large_grid.seg_points = point_idx[order]
        large_grid._adjacency.memo = np.zeros(len(cell_start), dtype=bool)
        #: Posting-order coordinates: segment s's rows are its posting
        #: list's points, exactly what ``posting_points`` would gather.
        large_grid.seg_coords = points.take(order, 0)

        # Per-object groups in first-occurrence scan order.  Scan positions
        # are oid-major, so ordering segments by their first point's scan
        # position orders them by (oid, first occurrence) too.
        group_order = np.argsort(order[starts])
        bigrid.group_flat = segment_cell[group_order]
        bigrid.group_counts = np.bincount(segment_oid, minlength=n).astype(
            np.int64
        )
        bigrid.group_segments = group_order

    # ------------------------------------------------------------------
    # LOWER-BOUNDING (Algorithm 4), packed
    # ------------------------------------------------------------------

    def lower_bounds(self, bigrid, keep_bitsets=False, stats=None, deadline=None):
        if not isinstance(bigrid, PackedBIGrid):
            return PYTHON_KERNEL.lower_bounds(
                bigrid, keep_bitsets=keep_bitsets, stats=stats, deadline=deadline
            )
        n = bigrid.collection.n
        counts = bigrid.shared_counts
        words_matrix = bigrid.shared_words
        total_rows = int(words_matrix.shape[0])
        bitset_cls = bigrid.small_grid.bitset_cls
        one_word = words_matrix.shape[1] == 1

        # Both paths are bit-identical (tests/test_lower_bound.py pins
        # them).  Multi-word grids stay on the reduceat path -- the
        # sequential gather requires one-word rows.
        if total_rows == 0 or (
            one_word and total_rows < LOWER_BOUND_DISPATCH_MIN_ROWS
        ):
            # Tiny grids: fixed numpy dispatch overhead (flatnonzero,
            # cumsum, reduceat) exceeds the work.  Run the reference
            # algorithm -- sequential per-object int unions in the same
            # order -- directly over the pre-gathered packed words; this
            # is bit-identical and skips the lazy per-cell bitset
            # materialization that delegating to the python kernel would
            # trigger on a packed grid.
            return self._lower_bounds_seq(
                bigrid, counts, words_matrix, keep_bitsets, stats, deadline
            )

        # One reduceat over every object's rows at once: OR-unions and
        # popcounts for all n objects in two array passes.
        nonzero = np.flatnonzero(counts)
        offsets = np.zeros(len(nonzero), dtype=np.int64)
        offsets[1:] = np.cumsum(counts[nonzero])[:-1]
        unions = np.bitwise_or.reduceat(words_matrix, offsets, axis=0)
        cards = np.bitwise_count(unions).sum(axis=1).astype(np.int64).tolist()

        values: List[int] = []
        bitsets: Optional[List] = [] if keep_bitsets else None
        tau_max = 0
        position = 0
        counts_list = counts.tolist()
        for oid in range(n):
            checkpoint(deadline, "lower_bounding")
            if counts_list[oid] == 0:
                values.append(0)
                if bitsets is not None:
                    bitsets.append(None)
                continue
            cardinality = cards[position]
            lower = cardinality - 1 if cardinality else 0
            values.append(lower)
            if lower > tau_max:
                tau_max = lower
            if bitsets is not None:
                bitsets.append(
                    bitset_cls.from_int(_row_int(unions[position]))
                    if cardinality
                    else None
                )
            position += 1

        if stats is not None:
            stats.set_count("lower_or_operations", total_rows)
            stats.set_count("tau_max_low", tau_max)
        return LowerBoundResult(
            values=values, tau_max=tau_max, bitsets=bitsets,
            path="numpy-reduceat",
        )

    @staticmethod
    def _lower_bounds_seq(
        bigrid, counts, words_matrix, keep_bitsets, stats, deadline
    ):
        """Reference-order lower bounds over the packed rows (tiny grids).

        Same sequential per-object union the python backend performs,
        expressed as big-int ORs over the build-time word gather -- no
        per-call numpy dispatch, no lazy cell materialization.  Only used
        when every bitset fits one word (or there are no shared rows at
        all), so each row *is* its big-int value.
        """
        n = bigrid.collection.n
        bitset_cls = bigrid.small_grid.bitset_cls
        row_vals = words_matrix[:, 0].tolist() if words_matrix.size else []
        counts_list = counts.tolist()
        values: List[int] = []
        bitsets: Optional[List] = [] if keep_bitsets else None
        tau_max = 0
        position = 0
        for oid in range(n):
            checkpoint(deadline, "lower_bounding")
            count = counts_list[oid]
            if count == 0:
                values.append(0)
                if bitsets is not None:
                    bitsets.append(None)
                continue
            union = 0
            for value in row_vals[position : position + count]:
                union |= value
            position += count
            cardinality = union.bit_count()
            lower = cardinality - 1 if cardinality else 0
            values.append(lower)
            if lower > tau_max:
                tau_max = lower
            if bitsets is not None:
                bitsets.append(
                    bitset_cls.from_int(union) if cardinality else None
                )
        if stats is not None:
            stats.set_count("lower_or_operations", len(row_vals))
            stats.set_count("tau_max_low", tau_max)
        return LowerBoundResult(
            values=values, tau_max=tau_max, bitsets=bitsets, path="numpy-seq",
        )

    # ------------------------------------------------------------------
    # UPPER-BOUNDING (Algorithm 5), bulk adjacent unions
    # ------------------------------------------------------------------

    def upper_bounds(
        self, bigrid, tau_max_low, labels=None, labeler=None, stats=None,
        deadline=None,
    ):
        if not isinstance(bigrid, PackedBIGrid):
            # A build that fell back to the reference (int64 key overflow)
            # has no packed matrices to reduce over.
            return PYTHON_KERNEL.upper_bounds(
                bigrid,
                tau_max_low,
                labels=labels,
                labeler=labeler,
                stats=stats,
                deadline=deadline,
            )
        large_grid = bigrid.large_grid
        n = bigrid.collection.n
        checkpoint(deadline, "upper_bounding")

        # b_adj for every cell at once.  The matrix stays on the grid;
        # per-cell ``adj_int`` big ints resolve lazily from its rows only
        # if verification actually reads them.
        adjacency = large_grid.bulk_adjacency()
        memo = large_grid.adj_memo
        if labels is None and labeler is None:
            # Every group is processed, so the reference pass unions every
            # cell it has not already memoized (each holds a posting).
            fresh_unions = len(memo) - int(np.count_nonzero(memo))
            memo[:] = True
            flat = bigrid.group_flat
            counts = bigrid.group_counts
            group_words = adjacency[flat]
        else:
            flat, counts, group_words, fresh_unions = _labeled_upper_pass(
                bigrid, adjacency, labels, labeler
            )

        groups_processed = int(flat.shape[0])
        nonzero = np.flatnonzero(counts)
        cards: List[int] = []
        if len(nonzero):
            offsets = np.zeros(len(nonzero), dtype=np.int64)
            offsets[1:] = np.cumsum(counts[nonzero])[:-1]
            unions = np.bitwise_or.reduceat(group_words, offsets, axis=0)
            cards = np.bitwise_count(unions).sum(axis=1).astype(np.int64).tolist()

        values: List[int] = []
        candidates: List[Candidate] = []
        position = 0
        counts_list = counts.tolist()
        for oid in range(n):
            checkpoint(deadline, "upper_bounding")
            if counts_list[oid] == 0:
                upper = 0
            else:
                cardinality = cards[position]
                upper = cardinality - 1 if cardinality else 0
                position += 1
            values.append(upper)
            if upper >= tau_max_low:
                candidates.append((upper, oid))

        candidates.sort(key=lambda entry: (-entry[0], entry[1]))
        if stats is not None:
            stats.set_count("upper_groups_processed", groups_processed)
            stats.set_count("adj_unions_computed", fresh_unions)
            stats.set_count("candidates", len(candidates))
            stats.set_count("pruned_objects", bigrid.collection.n - len(candidates))
        return UpperBoundResult(candidates=candidates, values=values)

    # ------------------------------------------------------------------
    # VERIFICATION (Algorithm 6), scored in blocks of candidates
    # ------------------------------------------------------------------

    def verify_candidates(
        self,
        bigrid,
        candidates,
        r,
        k=1,
        initial_bitsets=None,
        verify_masks=None,
        labeler=None,
        stats=None,
        deadline=None,
    ):
        if not isinstance(bigrid, PackedBIGrid):
            return PYTHON_KERNEL.verify_candidates(
                bigrid,
                candidates,
                r,
                k=k,
                initial_bitsets=initial_bitsets,
                verify_masks=verify_masks,
                labeler=labeler,
                stats=stats,
                deadline=deadline,
            )
        counters = VerifyCounters()
        scorer = _BatchedVerifier(
            bigrid, r, initial_bitsets, verify_masks, labeler, counters, deadline
        )
        return best_first_verification(
            candidates,
            k,
            scorer,
            counters,
            stats=stats,
            deadline=deadline,
            path="numpy-batch",
        )

    # ------------------------------------------------------------------
    # Verification distance primitive, early-exit chunked (Corollary 1)
    # ------------------------------------------------------------------

    def any_within(
        self, candidate_points: np.ndarray, point: np.ndarray, r_squared: float
    ) -> bool:
        total = candidate_points.shape[0]
        if total <= DISTANCE_CHUNK:
            diff = candidate_points - point
            return bool(np.einsum("ij,ij->i", diff, diff).min() <= r_squared)
        for start in range(0, total, DISTANCE_CHUNK):
            block = candidate_points[start : start + DISTANCE_CHUNK] - point
            if np.einsum("ij,ij->i", block, block).min() <= r_squared:
                return True
        return False


def _labeled_upper_pass(bigrid, adjacency, labels, labeler):
    """Group selection and Labeling-1/2 of one upper-bounding pass.

    The reference (:func:`repro.core.upper_bound.compute_upper_bounds`)
    walks each object's groups in order; every effect it has is
    order-free except Labeling-2's running union, which a segmented
    prefix-OR reproduces:

    * ``labels``: a group is processed iff any of its points is
      selected (``label(p) = 11*``) -- an OR per ``(cell, oid)`` posting
      segment over one flat mask;
    * memoization: the cells of processed groups; those not memoized
      before this pass are its fresh unions;
    * Labeling-1: fresh cells whose ``b_adj`` holds one object clear
      ``GRID_BIT`` on every posting in the cell;
    * Labeling-2: a processed group whose ``b_adj`` adds nothing to the
      union of its object's earlier processed groups clears
      ``UPPER_BIT`` on all its points, any other on all but the first.

    Returns ``(rows, counts, group_words, fresh_unions)``: the cell rows
    of the processed groups in group order, processed groups per object,
    their adjacency rows, and the number of unions memoized fresh.
    """
    large_grid = bigrid.large_grid
    n = bigrid.collection.n
    seg_bounds = large_grid.seg_bounds
    seg_starts = seg_bounds[:-1]
    seg_lengths = np.diff(seg_bounds)
    segments = bigrid.group_segments
    rows = bigrid.group_flat
    counts = bigrid.group_counts

    # Flat label index of every mapped point in posting order: point p
    # of object oid sits at ``offsets[oid] + p`` (PointLabels' layout,
    # shared by the labels read and the labels written).
    offsets = (labels if labels is not None else labeler).offsets
    point_flat = (
        np.repeat(offsets[:-1][large_grid.seg_oid], seg_lengths)
        + large_grid.seg_points
    )

    if labels is not None and len(segments):
        masks = labels.flat_mask(GRID_BIT | UPPER_BIT)
        selected = np.logical_or.reduceat(masks[point_flat], seg_starts)[segments]
        segments = segments[selected]
        rows = rows[selected]
        counts = np.bincount(large_grid.seg_oid[segments], minlength=n)
    group_words = adjacency[rows]

    memo = large_grid.adj_memo
    visited = np.zeros(len(memo), dtype=bool)
    visited[rows] = True
    fresh = visited & ~memo
    memo |= visited

    if labeler is not None:
        fresh_rows = np.flatnonzero(fresh)
        lone = fresh_rows[np.bitwise_count(adjacency[fresh_rows]).sum(axis=1) == 1]
        if len(lone):
            lone_cells = np.zeros(len(memo), dtype=bool)
            lone_cells[lone] = True
            labeler.clear_flat(
                GRID_BIT,
                point_flat[np.repeat(lone_cells[large_grid.seg_cell], seg_lengths)],
            )
        changed = _extends_prefix(group_words, counts)
        cleared = np.zeros(len(seg_starts), dtype=bool)
        cleared[segments] = True
        cleared = np.repeat(cleared, seg_lengths)
        cleared[seg_starts[segments[changed]]] = False
        labeler.clear_flat(UPPER_BIT, point_flat[cleared])
    return rows, counts, group_words, int(np.count_nonzero(fresh))


def _extends_prefix(group_words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Whether each row adds a bit to the OR of the rows before it.

    Rows are grouped into runs of ``counts[i]`` consecutive rows, and
    "before" stops at the run start.  A log-step (Hillis-Steele)
    segmented scan builds every row's inclusive prefix-OR in
    ``ceil(log2(max(counts)))`` array passes.
    """
    total = group_words.shape[0]
    run_starts = np.cumsum(counts) - counts
    position = np.arange(total) - np.repeat(run_starts, counts)
    zero = np.uint64(0)
    prefix = group_words.copy()
    step = 1
    longest = int(counts.max()) if len(counts) else 0
    while step < longest:
        reach = (position[step:] >= step)[:, None]
        prefix[step:] |= np.where(reach, prefix[:-step], zero)
        step *= 2
    novel = group_words.copy()
    novel[1:] &= ~np.where((position[1:] > 0)[:, None], prefix[:-1], zero)
    return novel.any(axis=1)


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])`` for all
    ``i``, without a python loop.  ``counts`` may hold zeros but not be
    empty."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)


def first_hit_scan(
    point_group,
    group_candidate,
    col_bounds,
    col_owner,
    confirmed,
    hit_of,
    split=None,
    marks=True,
):
    """Algorithm 6's per-point walk over a block of candidates, from
    first-hit keys.

    The block's candidates list their groups one after another: group
    ``g`` belongs to candidate ``group_candidate[g]`` (non-decreasing).
    The points to visit are listed group-major in visit order
    (``point_group``, ascending); each group's neighbourhood posting
    segments, "columns", are ``col_bounds[g]:col_bounds[g+1]`` in the
    reference's cell walk order, owned by ``col_owner``.  Owners are keyed
    by (candidate, object) -- candidate ``c``'s object ``o`` at ``c * n +
    o`` -- so no owner spans two candidates, and ``confirmed`` (bool per
    key) holds every candidate's own confirmed set.  Key the entries
    ``(point, column)`` by (group, point, column).  The reference checks
    an owner's column exactly while the owner is unconfirmed and confirms
    it at its first hit, so with owners unique per cell:

    * an entry is checked iff its key is <= its owner's first-hit key;
    * an owner with a first hit is confirmed;
    * a point is Labeling-3 skippable iff every owner still pending in its
      group has its first hit at an earlier point.

    Hits are asked in two waves, by ``hit_of(entry_point, entry_col)``:
    first the entries of each candidate ``c``'s groups before
    ``split[c]`` (a block-wide group index; negative, or ``split=None``:
    up to and including ``c``'s first group with a point and a pending
    owner), then those of the rest whose owner the first wave left
    unconfirmed.  An entry left out is never checked: its owner's first
    hit comes earlier.  Entries are laid out wave 1 first, so every
    candidate's entries stay in key order and each wave is one slice.
    ``confirmed`` is updated in place.  Returns ``(checked_point,
    checked_col, skippable, entries)``: the checked entries (each
    candidate's in key order), if ``marks`` a flag per point (else None),
    and how many entries there were -- pairs of a point and a column of
    an owner pending at the start.
    """
    # Every point against each column of an owner pending at the start.
    live = ~confirmed.take(col_owner)
    live_before = np.zeros(len(live) + 1, dtype=np.int64)
    live.cumsum(out=live_before[1:])
    group_live = live_before.take(col_bounds)
    counts = (group_live[1:] - group_live[:-1]).take(point_group)
    skippable = counts == 0 if marks else None
    points = counts.nonzero()[0]
    if not len(points):
        return points, points, skippable, 0

    # A candidate's live points form one run, led by its first live point.
    live_group = point_group.take(points)
    live_candidate = group_candidate.take(live_group)
    wave_end = live_group.take(live_candidate.searchsorted(live_candidate)) + 1
    if split is not None:
        own = split.take(live_candidate)
        wave_end = np.where(own >= 0, own, wave_end)
    first_wave = live_group < wave_end
    order = np.argsort(~first_wave, kind="stable")
    points = points.take(order)
    live_group = live_group.take(order)
    counts = counts.take(points)
    entry_ends = counts.cumsum()
    wave_points = int(np.count_nonzero(first_wave))
    cut = int(entry_ends[wave_points - 1]) if wave_points else 0
    entry_point = points.repeat(counts)
    entry_col = live.nonzero()[0].take(
        _ragged_arange(group_live.take(live_group), counts)
    )
    owner = col_owner.take(entry_col)

    hit = np.zeros(len(entry_col), dtype=bool)
    if cut:
        hit[:cut] = hit_of(entry_point[:cut], entry_col[:cut])
        confirmed[owner[:cut][hit[:cut]]] = True
    rest = (~confirmed.take(owner[cut:])).nonzero()[0] + cut
    if len(rest):
        hit[rest] = hit_of(entry_point.take(rest), entry_col.take(rest))

    hit_keys = hit.nonzero()[0]
    hit_owners = owner.take(hit_keys)
    first_hit = np.full(len(confirmed), len(hit))
    np.minimum.at(first_hit, hit_owners, hit_keys)
    confirmed[hit_owners] = True
    entry_first_hit = first_hit.take(owner)
    if marks:
        # The point of each entry's owner's first hit; past every point
        # if it has none.
        hit_point = np.append(entry_point, len(point_group)).take(entry_first_hit)
        skippable[points] = ~np.logical_or.reduceat(
            hit_point >= entry_point, entry_ends - counts
        )
    counted = entry_first_hit >= np.arange(len(hit))
    return entry_point[counted], entry_col[counted], skippable, len(hit)


class _BatchedVerifier:
    """Exact block scorer over a packed BIGrid: first-hit keys, no replay.

    ``block(oids)`` scores several candidates at once and returns one
    settle per candidate, for the best-first loop
    (:func:`repro.core.verification.best_first_verification`) to apply in
    queue order.  A settled candidate reproduces
    :func:`repro.core.verification._exact_score` bit-for-bit -- score,
    work counters, Labeling-3 marks, ``adj_memo`` -- without walking
    points one at a time.  The block lists its candidates' groups, their
    points and their ``3^d`` neighbourhoods' posting segments as flat
    arrays, keys owners by (candidate, object), and derives the walks'
    effects from each owner's first hit (:func:`first_hit_scan`).  Only
    postings of owners unconfirmed when a wave starts are batched.  A
    batch is one coordinate gather, one einsum and one
    ``np.minimum.reduceat`` per at most ``VERIFY_BATCH_PAIRS`` (point,
    posting row) pairs, with the reference's subtract/square/sum/min
    element order, so every hit boolean is the one the reference
    computes.

    Nothing lands before a settle: a candidate scored past the loop's
    break leaves no counter, memo row or label behind.  A settle applies
    its candidate's effects in bulk; under a deadline it applies them
    group by group after each group's ``checkpoint``, so clock reads and
    the counters left behind by a ``QueryTimeout`` match the reference's.

    ``capacity()`` keeps a block's first-hit entries within
    ``VERIFY_BATCH_PAIRS``, estimated from the entries per candidate of
    the blocks scored so far, and its ``B x n`` confirmed matrix within
    the same budget.

    ``bounds(oids)`` gives the loop its box bounds, vectorized over a
    batch of up to ``bound_capacity()`` candidates and without side
    effects.
    """

    __slots__ = (
        "bigrid",
        "collection",
        "large_grid",
        "r",
        "r_squared",
        "initial_bitsets",
        "verify_masks",
        "labeler",
        "counters",
        "deadline",
        "tables",
        "neighbors",
        "memo",
        "scored",
        "entries",
        "key_base",
    )

    def __init__(
        self,
        bigrid: PackedBIGrid,
        r: float,
        initial_bitsets,
        verify_masks,
        labeler,
        counters: VerifyCounters,
        deadline,
    ) -> None:
        self.bigrid = bigrid
        self.collection = bigrid.collection
        self.large_grid = bigrid.large_grid
        self.r = r
        self.r_squared = r * r
        self.initial_bitsets = initial_bitsets
        self.verify_masks = verify_masks
        self.labeler = labeler
        self.counters = counters
        self.deadline = deadline
        # Rows the upper-bounding pass left unmemoized (a masked pass skips
        # groups, or none ran) are memoized by the first read here, as the
        # reference's on-demand ``adjacent_union_int`` would; None once all
        # are.  Memoized rows are sized from the bulk matrix.
        memo = self.large_grid.adj_memo
        self.memo = None if memo.all() else memo
        if self.memo is not None:
            self.large_grid.bulk_adjacency()
        self.neighbors = self.large_grid.neighbor_table()
        self.tables = self._grid_tables()
        # Candidates scored so far and their first-hit entries.
        self.scored = 0
        self.entries = 0
        # Slot ``c``'s first owner key, ``c * n``, for every slot a block
        # may hold.
        n = self.collection.n
        self.key_base = np.arange(max(1, VERIFY_BATCH_PAIRS // n)) * n

    def _grid_tables(self) -> dict:
        grid = self.large_grid
        tables = grid.tables.verify
        if tables is None:
            group_bounds = np.zeros(self.collection.n + 1, dtype=np.int64)
            np.cumsum(self.bigrid.group_counts, out=group_bounds[1:])
            tables = {
                # Cell ``row``'s segments: ``cell_segs[row]:cell_segs[row+1]``.
                "cell_segs": np.searchsorted(
                    grid.seg_cell, np.arange(self.neighbors.shape[1] + 1)
                ),
                "seg_lengths": np.diff(grid.seg_bounds),
                "group_bounds": group_bounds,
            }
            grid.tables.verify = tables
        return tables

    def _columns(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The posting segments of each row's ``3^d`` neighbourhood, in the
        reference's ``neighbor_cells`` walk order (self cell first, then
        ``neighbor_offsets`` product order; oid-ascending per cell), as a
        flat array with per-row bounds.  The neighbourhoods are the rows'
        slices of the grid's neighbour table, gathered: nothing is
        searched."""
        cell_segs = self.tables["cell_segs"]
        slots = self.neighbors.take(rows, axis=1).T
        valid = slots >= 0
        neighbors = slots[valid]
        # Every cell holds at least one segment.
        starts = cell_segs.take(neighbors)
        sizes = cell_segs.take(neighbors + 1) - starts
        seg_before = np.zeros(len(neighbors) + 1, dtype=np.int64)
        sizes.cumsum(out=seg_before[1:])
        cell_bounds = np.zeros(len(rows) + 1, dtype=np.int64)
        valid.sum(axis=1).cumsum(out=cell_bounds[1:])
        return _ragged_arange(starts, sizes), seg_before.take(cell_bounds)

    def _hits(self, coords, entry_point, entry_seg) -> np.ndarray:
        """Whether point ``coords[entry_point[e]]`` lies within ``r`` of a
        row of posting segment ``entry_seg[e]``, for every entry ``e``."""
        grid = self.large_grid
        lengths = self.tables["seg_lengths"].take(entry_seg)
        starts = grid.seg_bounds.take(entry_seg)
        ends = lengths.cumsum()
        hits = np.empty(len(ends), dtype=bool)
        low = 0
        while low < len(ends):
            base = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(ends.searchsorted(base + VERIFY_BATCH_PAIRS, side="right")),
            )
            sizes = lengths[low:high]
            # The reference's ``candidate_points - point``, one pair per
            # row (``take``: row gathers far cheaper than fancy indexing).
            diff = grid.seg_coords.take(
                _ragged_arange(starts[low:high], sizes), axis=0
            )
            diff -= coords.take(np.repeat(entry_point[low:high], sizes), axis=0)
            squared = np.einsum("ij,ij->i", diff, diff)
            hits[low:high] = (
                np.minimum.reduceat(squared, ends[low:high] - sizes - base)
                <= self.r_squared
            )
            low = high
        return hits

    def _boxes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(min corner, max corner)`` rows of every posting segment,
        computed on first need and cached with the grid tables."""
        tables = self.tables
        if "boxes" not in tables:
            grid = self.large_grid
            starts = grid.seg_bounds[:-1]
            tables["boxes"] = (
                np.minimum.reduceat(grid.seg_coords, starts, axis=0),
                np.maximum.reduceat(grid.seg_coords, starts, axis=0),
            )
        return tables["boxes"]

    def bounds(self, oids: List[int]) -> List[int]:
        """Each candidate's box bound, equal to
        :func:`repro.core.verification.box_bound` bit for bit.

        Owners are keyed by (candidate, object) as in :meth:`block`.
        Neighbour cells whose bitset holds no owner outside the
        candidate's seed are dropped; of the rest, every group's own cell
        is tested first, then the rest of its ``3^d`` neighbourhood, in
        slices that skip the owners found so far -- most owners near a
        candidate share one of its cells.  Candidates are taken in runs whose ``groups x 3^d`` cell pairs
        stay within ``VERIFY_BATCH_PAIRS``.  Reads the packed arrays
        only: no memo row, label, counter or clock read."""
        oid_array = np.array(oids, dtype=np.int64)
        found = self._seeded(oids, oid_array)
        tables = self.tables
        group_starts = tables["group_bounds"].take(oid_array)
        group_counts = tables["group_bounds"].take(oid_array + 1) - group_starts
        ends = (group_counts * len(self.neighbors)).cumsum()
        low = 0
        while low < len(oids):
            top = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(ends.searchsorted(top + VERIFY_BATCH_PAIRS, side="right")),
            )
            self._mark_run(
                found.reshape(-1),
                np.arange(low, high).repeat(group_counts[low:high]),
                _ragged_arange(group_starts[low:high], group_counts[low:high]),
            )
            low = high
        return (found.sum(axis=1) - 1).tolist()

    def _mark_run(self, found, slot, group_index) -> None:
        """Set ``found`` for every owner with a posting segment within
        ``r`` of one of groups ``group_index`` (of candidate slots
        ``slot``), in its ``3^d`` neighbourhood.

        Box pairs are listed neighbour-major, so every group's own cell
        comes first, and tested in slices whose gathered corner rows
        (four per pair) stay within ``VERIFY_BATCH_PAIRS``; each slice
        tests only the owners no earlier slice found.  The
        neighbourhoods come from the grid's neighbour table."""
        if not len(group_index):
            return
        seg_lo, seg_hi = self._boxes()
        grid = self.large_grid
        cell_segs = self.tables["cell_segs"]
        n = self.collection.n
        words = grid.packed.shape[1]
        slots = self.neighbors.take(
            self.bigrid.group_flat.take(group_index), axis=1
        ).ravel()
        own = self.bigrid.group_segments.take(group_index)
        own_lo, own_hi = seg_lo.take(own, axis=0), seg_hi.take(own, axis=0)
        base = self.key_base.take(slot)
        keep = (slots >= 0).nonzero()[0]
        cells = slots.take(keep)
        group = keep % len(group_index)
        # Drop the cells whose bitset holds no owner outside the slot's
        # found row (its seed and itself).
        found_words = np.zeros((len(found) // n, words * 8), dtype=np.uint8)
        found_words[:, : (n + 7) // 8] = np.packbits(
            found.reshape(-1, n), axis=1, bitorder="little"
        )
        live = (
            grid.packed.take(cells, axis=0)
            & ~found_words.view("<u8").take(slot.take(group), axis=0)
        ).any(axis=1)
        cells, group = cells[live], group[live]
        starts = cell_segs.take(cells)
        sizes = cell_segs.take(cells + 1) - starts
        ends = sizes.cumsum()
        low = 0
        while low < len(ends):
            top = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(ends.searchsorted(top + VERIFY_BATCH_PAIRS // 4, side="right")),
            )
            segments = _ragged_arange(starts[low:high], sizes[low:high])
            groups = group[low:high].repeat(sizes[low:high])
            low = high
            keys = base.take(groups) + grid.seg_oid.take(segments)
            pending = (~found.take(keys)).nonzero()[0]
            segments, keys = segments.take(pending), keys.take(pending)
            mine = groups.take(pending)
            within = boxes_within(
                own_lo.take(mine, axis=0),
                own_hi.take(mine, axis=0),
                seg_lo.take(segments, axis=0),
                seg_hi.take(segments, axis=0),
                self.r,
            )
            found[keys[within]] = True

    def bound_capacity(self) -> int:
        """The most candidates one :meth:`bounds` call may hold: its
        ``B x n`` found matrix within ``VERIFY_BATCH_PAIRS`` (box pairs
        are sliced to the same budget)."""
        return len(self.key_base)

    def capacity(self) -> int:
        """The most candidates the next block may hold: its estimated
        first-hit entries and its ``B x n`` confirmed matrix each within
        ``VERIFY_BATCH_PAIRS``."""
        limit = len(self.key_base)
        if self.entries:
            by_entries = VERIFY_BATCH_PAIRS * self.scored // self.entries
            limit = max(1, min(limit, by_entries))
        return limit

    def _seeded(self, oids: List[int], oid_array: np.ndarray) -> np.ndarray:
        """The ``(B, n)`` confirmed matrix at the start: each candidate's
        seed set plus the candidate itself."""
        n = self.collection.n
        confirmed = np.zeros((len(oids), n), dtype=bool)
        if self.initial_bitsets is not None:
            for slot, oid in enumerate(oids):
                seed = self.initial_bitsets(oid)
                if seed is not None:
                    confirmed[slot] = np.unpackbits(
                        np.frombuffer(
                            seed.to_int().to_bytes((n + 7) // 8, "little"),
                            np.uint8,
                        ),
                        count=n,
                        bitorder="little",
                    ).view(bool)
        confirmed.reshape(-1)[self.key_base[: len(oids)] + oid_array] = True
        return confirmed

    def block(self, oids: List[int]) -> List[Settle]:
        """Score ``oids`` as one block; one settle per candidate, in order.

        Each settle applies its candidate's counters, memo rows and
        Labeling-3 marks and returns ``tau(o_i)``, matching
        ``_exact_score`` bit-for-bit."""
        count = len(oids)
        self.scored += count
        oid_array = np.array(oids, dtype=np.int64)
        confirmed = self._seeded(oids, oid_array)
        bounds = self.tables["group_bounds"]
        group_starts = bounds.take(oid_array)
        group_counts = bounds.take(oid_array + 1) - group_starts
        group_index = _ragged_arange(group_starts, group_counts)
        groups = len(group_index)
        if not groups:
            scores = confirmed.sum(axis=1).tolist()
            return [partial(int, score - 1) for score in scores]

        grid = self.large_grid
        seg_lengths = self.tables["seg_lengths"]
        group_candidate = np.arange(count).repeat(group_counts)
        rows = self.bigrid.group_flat.take(group_index)
        # Each group's points are its posting segment, in visit order.
        segments = self.bigrid.group_segments.take(group_index)
        sizes = seg_lengths.take(segments)
        point_rows = _ragged_arange(grid.seg_bounds.take(segments), sizes)
        point_group = np.arange(groups).repeat(sizes)
        point_index = grid.seg_points.take(point_rows)
        masked = None
        if self.verify_masks is not None:
            masks = [self.verify_masks(oid) for oid in oids]
            mask_starts = np.zeros(count, dtype=np.int64)
            np.cumsum([len(mask) for mask in masks[:-1]], out=mask_starts[1:])
            keep = np.concatenate(masks).take(
                mask_starts.take(group_candidate.take(point_group)) + point_index
            )
            point_rows = point_rows[keep]
            point_group = point_group[keep]
            point_index = point_index[keep]
            masked = sizes - np.bincount(point_group, minlength=groups)
        coords = grid.seg_coords.take(point_rows, axis=0)

        col_seg, col_bounds = self._columns(rows)
        col_owner = grid.seg_oid.take(col_seg)
        if count > 1:
            # Owner keys: candidate ``c``'s object ``o`` is ``c * n + o``.
            col_owner += self.key_base.take(group_candidate).repeat(
                col_bounds[1:] - col_bounds[:-1]
            )
        labeler = self.labeler
        checked_point, checked_col, skippable, entries = first_hit_scan(
            point_group,
            group_candidate,
            col_bounds,
            col_owner,
            confirmed.reshape(-1),
            lambda entry_point, entry_col: self._hits(
                coords, entry_point, col_seg.take(entry_col)
            ),
            marks=labeler is not None,
        )
        self.entries += entries
        scores = confirmed.sum(axis=1).tolist()

        # Work totals per candidate, or per group behind each group's
        # checkpoint under a deadline.
        deadline = self.deadline
        unit = point_group.take(checked_point)
        if deadline is None:
            unit, units = group_candidate.take(unit), count
        else:
            units = groups
        checks = np.bincount(unit, minlength=units).tolist()
        distance_rows = np.bincount(
            unit, weights=seg_lengths.take(col_seg.take(checked_col)), minlength=units
        ).tolist()
        skipped = visited = None
        if masked is not None:
            skipped = masked
            if deadline is None:
                skipped = np.bincount(group_candidate, weights=masked, minlength=units)
            skipped = skipped.tolist()
            # The reference memoizes the union of each group it visits a
            # point of.
            visited = masked < sizes
        group_bounds = [0, *accumulate(group_counts.tolist())]
        point_bounds = None
        if labeler is not None or deadline is not None:
            point_bounds = point_group.searchsorted(np.arange(groups + 1)).tolist()
        counters = self.counters
        memo = self.memo

        def settle(slot: int) -> int:
            oid = oids[slot]
            low, high = group_bounds[slot], group_bounds[slot + 1]
            if deadline is None:
                counters.posting_checks += checks[slot]
                counters.distance_rows += int(distance_rows[slot])
                if skipped is not None:
                    counters.points_skipped += int(skipped[slot])
                if memo is not None:
                    own = rows[low:high]
                    memo[own if visited is None else own[visited[low:high]]] = True
                if labeler is not None:
                    first, last = point_bounds[low], point_bounds[high]
                    labeler.mark_verify_skippable(
                        oid, point_index[first:last][skippable[first:last]]
                    )
                return scores[slot] - 1
            # Group by group behind each checkpoint, as the reference walks.
            for group in range(low, high):
                checkpoint(deadline, "verification")
                if skipped is not None:
                    counters.points_skipped += skipped[group]
                first, last = point_bounds[group], point_bounds[group + 1]
                if first == last:
                    continue
                if memo is not None:
                    memo[rows[group]] = True
                counters.posting_checks += checks[group]
                counters.distance_rows += int(distance_rows[group])
                if labeler is not None:
                    labeler.mark_verify_skippable(
                        oid, point_index[first:last][skippable[first:last]]
                    )
            return scores[slot] - 1

        return [partial(settle, slot) for slot in range(count)]


#: The shared vectorized instance.
NUMPY_KERNEL = NumpyKernel()
