"""The ``numpy`` kernel: vectorized hot paths over packed bitset matrices.

Where the reference backend walks points one at a time, this backend
batches whole phases into array operations while producing *bit-identical*
structures and results (the conformance suite enforces it):

* **Grid mapping** floors every coordinate in one shot (or takes a
  session's cached large-key rows as they are), encodes cell keys as
  mixed-radix ``int64`` codes, and builds both grids as packed arrays
  from sorted ``(cell, object)`` pair groups: a ``(cells, words)``
  ``uint64`` bitset matrix filled with ``np.bitwise_or.at``, cell key
  rows, posting segments, and per-object key-list and group rows.  No
  per-cell, per-segment or per-group python object is built.
* **Lower bounding** OR-reduces the packed small-grid rows of each
  object's key list and popcounts with ``np.bitwise_count``.
* **Upper bounding** computes *all* adjacent unions at once: one
  ``searchsorted`` per neighbour offset aligns every cell with its
  neighbour's packed row, so the ``3^d`` dictionary walks per cell
  disappear.  Label-producing and label-consuming passes stay on the
  packed rows too: ``upper_masks`` group selection is an OR per posting
  segment, Labeling-1 a popcount over the cells first unioned, and
  Labeling-2's running union a segmented prefix-OR scan.
* **Verification** keeps the reference's best-first outer loop (shared
  via :func:`repro.core.verification.best_first_verification`) but scores
  each candidate in two waves of groups, each one flat batch: every
  candidate point against every posting, in its group's ``3^d``
  neighbourhood, of an owner still unconfirmed -- one coordinate gather,
  one einsum, one ``np.minimum.reduceat``.  Nothing replays the walk:
  each owner's first hit decides which checks the reference makes, what
  it confirms and which points it labels (:func:`first_hit_scan`), so
  early termination, Labeling-3 marks and every work counter match the
  oracle bit-for-bit.
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
from repro.core.labels import GRID_BIT, UPPER_BIT
from repro.core.lower_bound import LowerBoundResult
from repro.core.upper_bound import Candidate, UpperBoundResult
from repro.core.verification import VerifyCounters, best_first_verification
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
#: peak memory.
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
    mins = keys.min(axis=0) - 1
    shifted = keys - mins
    extents = shifted.max(axis=0) + 2
    total = 1
    for extent in extents.tolist():
        total *= int(extent)
        if total >= 2 ** 62:
            return None
    strides = np.empty(keys.shape[1], dtype=np.int64)
    accumulated = 1
    for axis in range(keys.shape[1] - 1, -1, -1):
        strides[axis] = accumulated
        accumulated *= int(extents[axis])
    return shifted @ strides, strides


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


class _Adjacency:
    """A large grid's bulk adjacency matrix and memo, shared with its cells.

    ``words`` holds every cell's ``b_adj`` once any pass needed one;
    ``memo[row]`` says whether the reference would have memoized that
    row's union by now (the ``K not in KeySet`` state of Algorithm 5).
    Cells read both through this holder, not through the grid: a cell ->
    grid reference would close a grid -> cells -> grid cycle and leave
    every discarded grid to the cyclic garbage collector instead of
    freeing it with its last reference.
    """

    __slots__ = ("words", "memo")

    def __init__(self) -> None:
        self.words: Optional[np.ndarray] = None
        self.memo = np.zeros(0, dtype=bool)


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
        if name == "_point_cache":
            cache: dict = {}
            self._point_cache = cache
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

    __slots__ = ("packed", "key_rows", "cell_objects", "pair_oid")

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
    order).  ``verify_tables`` caches the verifier's per-grid lookup
    tables.  The inherited ``cells`` slot (cells with their postings)
    stays unset until something asks for it (:meth:`__getattr__`).

    ``adjacent_union_int`` keeps the base-class semantics: the first
    request for a cell's union memoizes it and counts it in
    ``adj_computed``.  The values come from one bulk matrix
    (``adj_words``, computed for every cell on first need); what the
    reference would have memoized is tracked per row in ``adj_memo``,
    which ``adj_computed``, ``adjacency_bytes`` and the cells' lazy
    ``adj_int`` all read.
    """

    __slots__ = (
        "packed",
        "codes",
        "strides",
        "key_rows",
        "_adjacency",
        "seg_cell",
        "seg_oid",
        "seg_bounds",
        "seg_points",
        "seg_coords",
        "verify_tables",
    )

    def __init__(self, width: float, dimension: int, bitset_cls) -> None:
        # Deliberately skip the parent __init__: ``cells`` stays unset.
        self.width = width
        self.dimension = dimension
        self.bitset_cls = bitset_cls
        self._adjacency = _Adjacency()
        self.verify_tables = None

    def __getattr__(self, name: str):
        if name != "cells":
            raise AttributeError(name)
        cells = self._materialize_cells()
        self.cells = cells
        return cells

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

        One searchsorted per neighbour offset aligns each cell with that
        neighbour's packed row.  Computing a row memoizes nothing: passes
        mark ``adj_memo`` for the rows the reference would have unioned.
        """
        adjacency = self._adjacency.words
        if adjacency is None:
            packed = self.packed
            codes = self.codes
            cell_count = len(codes)
            adjacency = packed.copy()
            if cell_count:
                for offset in neighbor_offsets(self.dimension):
                    delta = int(np.asarray(offset, dtype=np.int64) @ self.strides)
                    targets = codes + delta
                    positions = np.searchsorted(codes, targets)
                    positions[positions == cell_count] = 0
                    hit = codes[positions] == targets
                    if hit.any():
                        adjacency[hit] |= packed[positions[hit]]
            self._adjacency.words = adjacency
        return adjacency

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

    __slots__ = (
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
        point_filter=None,
        deadline=None,
        large_keys_provider=None,
    ) -> BIGrid:
        bitset_cls = bitset_class(backend)
        dimension = collection.dimension
        s_width = small_cell_width(r, dimension)
        l_width = large_cell_width(r)
        n = collection.n

        point_blocks: List[np.ndarray] = []
        index_blocks: List[np.ndarray] = []
        oid_blocks: List[np.ndarray] = []
        provided: Optional[List[np.ndarray]] = (
            [] if large_keys_provider is not None else None
        )
        mapped_points = 0
        for obj in collection:
            checkpoint(deadline, "grid_mapping")
            oid = obj.oid
            indices = _selected(obj.num_points, point_filter, oid)
            if len(indices) == 0:
                continue
            mapped_points += len(indices)
            point_blocks.append(obj.points[indices])
            index_blocks.append(indices.astype(np.int64))
            oid_blocks.append(np.full(len(indices), oid, dtype=np.int64))
            if provided is not None:
                # The session's LargeKeyCache must see the same per-object
                # calls (and hit/miss accounting) as the serial build.
                provided.append(large_keys_provider(oid, indices))

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

        points = np.concatenate(point_blocks)
        point_idx = np.concatenate(index_blocks)
        oids = np.concatenate(oid_blocks)
        small_keys = key_rows(points, s_width)
        large_keys = (
            np.concatenate(provided)
            if provided is not None
            else key_rows(points, l_width)
        )

        encoded_small = encode_keys(small_keys)
        encoded_large = encode_keys(large_keys)
        if encoded_small is None or encoded_large is None:
            # Cell-index spread too wide for int64 codes: astronomically
            # sparse input, not worth a second encoding scheme.
            return PYTHON_KERNEL.build_bigrid(
                collection,
                r,
                backend=backend,
                point_filter=point_filter,
                deadline=deadline,
                large_keys_provider=large_keys_provider,
            )

        checkpoint(deadline, "grid_mapping")
        self._populate_small(bigrid, small_keys, encoded_small[0], oids, n, words)
        checkpoint(deadline, "grid_mapping")
        self._populate_large(
            bigrid, large_keys, encoded_large, oids, point_idx, points, n, words
        )
        return bigrid

    @staticmethod
    def _populate_small(
        bigrid: PackedBIGrid,
        small_keys: np.ndarray,
        codes: np.ndarray,
        oids: np.ndarray,
        n: int,
        words: int,
    ) -> None:
        """Pack the small grid and the key-list rows from sorted (cell,
        oid) pairs; cells and key lists materialize from them on read."""
        small_grid = bigrid.small_grid
        uniq_codes, first_pos, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        cell_count = len(uniq_codes)

        # Distinct (cell, oid) pairs, sorted: cell-major, oid ascending —
        # exactly the per-cell object order of the serial scan.
        pair_codes = np.unique(inverse.astype(np.int64) * n + oids)
        pair_cell = pair_codes // n
        pair_oid = pair_codes % n

        packed = np.zeros((cell_count, words), dtype=np.uint64)
        np.bitwise_or.at(
            packed,
            (pair_cell, pair_oid >> 6),
            np.left_shift(np.uint64(1), (pair_oid & 63).astype(np.uint64)),
        )
        distinct = np.bincount(pair_cell, minlength=cell_count)
        small_grid.packed = packed
        small_grid.key_rows = small_keys[first_pos]
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
        bigrid.shared_words = packed[flat]

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
        uniq_codes, first_pos, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        cell_count = len(uniq_codes)

        pair_codes = inverse.astype(np.int64) * n + oids
        order = np.argsort(pair_codes, kind="stable")
        sorted_pairs = pair_codes[order]
        sorted_points = point_idx[order]
        boundaries = np.flatnonzero(np.diff(sorted_pairs)) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        segment_pair = sorted_pairs[starts]
        segment_cell = segment_pair // n
        segment_oid = segment_pair % n
        #: Scan position of each (cell, oid) segment's first point — the
        #: first-occurrence order object_groups must present groups in.
        segment_first = order[starts]

        packed = np.zeros((cell_count, words), dtype=np.uint64)
        np.bitwise_or.at(
            packed,
            (segment_cell, segment_oid >> 6),
            np.left_shift(np.uint64(1), (segment_oid & 63).astype(np.uint64)),
        )

        large_grid.packed = packed
        large_grid.codes = uniq_codes
        large_grid.strides = strides
        large_grid.key_rows = large_keys[first_pos]
        large_grid.seg_cell = segment_cell
        large_grid.seg_oid = segment_oid
        large_grid.seg_bounds = np.concatenate(
            (starts, np.asarray([len(sorted_points)], dtype=np.int64))
        )
        large_grid.seg_points = sorted_points
        large_grid._adjacency.memo = np.zeros(cell_count, dtype=bool)
        #: Posting-order coordinates: segment s's rows are its posting
        #: list's points, exactly what ``posting_points`` would gather.
        large_grid.seg_coords = points[order]

        # Per-object groups in first-occurrence scan order: one lexsort
        # (oid-major, then first scan position) replaces n per-object sorts.
        order2 = np.lexsort((segment_first, segment_oid))
        bigrid.group_flat = segment_cell[order2]
        bigrid.group_counts = np.bincount(segment_oid, minlength=n).astype(
            np.int64
        )
        bigrid.group_segments = order2

    # ------------------------------------------------------------------
    # LOWER-BOUNDING (Algorithm 4), packed
    # ------------------------------------------------------------------

    def lower_bounds(
        self, bigrid, keep_bitsets=False, stats=None, deadline=None,
        dispatch="auto",
    ):
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
        # them); ``dispatch`` only moves the size threshold to 0 or
        # infinity.  Forcing "seq" on a multi-word grid stays on the
        # reduceat path -- the sequential gather requires one-word rows.
        if total_rows == 0 or (
            one_word
            and dispatch != "vectorized"
            and (
                dispatch == "seq"
                or total_rows < LOWER_BOUND_DISPATCH_MIN_ROWS
            )
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
        self, bigrid, tau_max_low, upper_masks=None, labeler=None, stats=None,
        deadline=None,
    ):
        if not isinstance(bigrid, PackedBIGrid):
            # A build that fell back to the reference (int64 key overflow)
            # has no packed matrices to reduce over.
            return PYTHON_KERNEL.upper_bounds(
                bigrid,
                tau_max_low,
                upper_masks=upper_masks,
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
        if upper_masks is None and labeler is None:
            # Every group is processed, so the reference pass unions every
            # cell it has not already memoized (each holds a posting).
            fresh_unions = len(memo) - int(np.count_nonzero(memo))
            memo[:] = True
            flat = bigrid.group_flat
            counts = bigrid.group_counts
            group_words = adjacency[flat]
        else:
            flat, counts, group_words, fresh_unions = _labeled_upper_pass(
                bigrid, adjacency, upper_masks, labeler
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
    # VERIFICATION (Algorithm 6), batched per candidate
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
            scorer.score,
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


def _labeled_upper_pass(bigrid, adjacency, upper_masks, labeler):
    """Group selection and Labeling-1/2 of one upper-bounding pass.

    The reference (:func:`repro.core.upper_bound.compute_upper_bounds`)
    walks each object's groups in order; every effect it has is
    order-free except Labeling-2's running union, which a segmented
    prefix-OR reproduces:

    * ``upper_masks``: a group is processed iff any of its points is
      selected -- an OR per ``(cell, oid)`` posting segment;
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
    collection = bigrid.collection
    n = collection.n
    seg_bounds = large_grid.seg_bounds
    seg_starts = seg_bounds[:-1]
    seg_lengths = np.diff(seg_bounds)
    segments = bigrid.group_segments
    rows = bigrid.group_flat
    counts = bigrid.group_counts

    # Flat label index of every mapped point in posting order: point p
    # of object oid sits at ``offsets[oid] + p`` (PointLabels' layout).
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((obj.num_points for obj in collection), np.int64, n),
        out=offsets[1:],
    )
    point_flat = (
        np.repeat(offsets[:-1][large_grid.seg_oid], seg_lengths)
        + large_grid.seg_points
    )

    if upper_masks is not None and len(segments):
        masks = np.concatenate([upper_masks(oid) for oid in range(n)])
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
    ``i``, without a python loop.  Every ``counts[i]`` must be >= 1."""
    ends = counts.cumsum()
    out = np.ones(int(ends[-1]), dtype=np.int64)
    out[0] = starts[0]
    if len(starts) > 1:
        out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return out.cumsum()


def first_hit_scan(
    point_group, col_bounds, col_owner, confirmed, hit_of, split=None, marks=True
):
    """Algorithm 6's per-point walk over one candidate, from first-hit keys.

    The candidate's points to visit are listed group-major in visit order
    (``point_group``, ascending); each group's neighbourhood posting
    segments, "columns", are ``col_bounds[g]:col_bounds[g+1]`` in the
    reference's cell walk order, owned by ``col_owner``.  Key the
    entries ``(point, column)`` by (group, point, column).  The reference
    checks an owner's column exactly while the owner is unconfirmed and
    confirms it at its first hit, so with owners unique per cell:

    * an entry is checked iff its key is <= its owner's first-hit key;
    * an owner with a first hit is confirmed;
    * a point is Labeling-3 skippable iff every owner still pending in its
      group has its first hit at an earlier point.

    Hits are asked in two waves, by ``hit_of(entry_point, entry_col)``:
    first the entries of groups ``[0, split)``, then those of the rest
    whose owner the first wave left unconfirmed.  An entry left out is
    never checked: its owner's first hit comes earlier.  ``split=None``
    ends the first wave after the first group with a point and a pending
    owner.  ``confirmed`` (bool per object) is updated in place.
    Returns ``(checked_point, checked_col, skippable)``: the checked
    entries in key order and, if ``marks``, a flag per point (else None).
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
        return points, points, skippable
    counts = counts.take(points)
    entry_point = points.repeat(counts)
    entry_col = live.nonzero()[0].take(
        _ragged_arange(group_live.take(point_group.take(points)), counts)
    )
    owner = col_owner.take(entry_col)

    if split is None:
        split = point_group[points[0]] + 1
    cut = int(entry_point.searchsorted(point_group.searchsorted(split)))
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
            hit_point >= entry_point, counts.cumsum() - counts
        )
    counted = entry_first_hit >= np.arange(len(hit))
    return entry_point[counted], entry_col[counted], skippable


class _BatchedVerifier:
    """Exact scorer over a packed BIGrid: first-hit keys, no replay.

    ``score(oid)`` reproduces :func:`repro.core.verification._exact_score`
    bit-for-bit -- score, work counters, Labeling-3 marks, ``adj_memo``
    -- without walking points one at a time.  It lists the candidate's
    groups, their points and their ``3^d`` neighbourhoods' posting
    segments as flat arrays and derives the walk's effects from each
    owner's first hit (:func:`first_hit_scan`).  Only postings of owners
    unconfirmed when a wave starts are batched.  A batch is one
    coordinate gather, one einsum and one ``np.minimum.reduceat`` per at
    most ``VERIFY_BATCH_PAIRS`` (point, posting row) pairs, with the
    reference's subtract/square/sum/min element order, so every hit
    boolean is the one the reference computes.

    The effects land in bulk; under a deadline they land group by group
    after each group's ``checkpoint``, so clock reads and the counters
    left behind by a ``QueryTimeout`` match the reference's.
    """

    __slots__ = (
        "bigrid",
        "collection",
        "large_grid",
        "r_squared",
        "initial_bitsets",
        "verify_masks",
        "labeler",
        "counters",
        "deadline",
        "tables",
        "memo",
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
        self.r_squared = r * r
        self.initial_bitsets = initial_bitsets
        self.verify_masks = verify_masks
        self.labeler = labeler
        self.counters = counters
        self.deadline = deadline
        self.tables = self._grid_tables()
        # Rows the upper-bounding pass left unmemoized (a masked pass skips
        # groups, or none ran) are memoized by the first read here, as the
        # reference's on-demand ``adjacent_union_int`` would; None once all
        # are.  Memoized rows are sized from the bulk matrix.
        memo = self.large_grid.adj_memo
        self.memo = None if memo.all() else memo
        if self.memo is not None:
            self.large_grid.bulk_adjacency()

    def _grid_tables(self) -> dict:
        grid = self.large_grid
        tables = grid.verify_tables
        if tables is None:
            offsets = neighbor_offsets(grid.dimension)
            deltas = np.zeros(1 + len(offsets), dtype=np.int64)
            for index, offset in enumerate(offsets):
                deltas[1 + index] = int(
                    np.asarray(offset, dtype=np.int64) @ grid.strides
                )
            group_bounds = np.zeros(self.collection.n + 1, dtype=np.int64)
            np.cumsum(self.bigrid.group_counts, out=group_bounds[1:])
            tables = {
                # Self first, then ``neighbor_offsets`` product order —
                # the reference's ``cell_and_adjacent_keys`` walk.
                "deltas": deltas,
                # Cell ``row``'s segments: ``cell_segs[row]:cell_segs[row+1]``.
                "cell_segs": np.searchsorted(
                    grid.seg_cell, np.arange(len(grid.codes) + 1)
                ),
                "seg_lengths": np.diff(grid.seg_bounds),
                "group_bounds": group_bounds.tolist(),
            }
            grid.verify_tables = tables
        return tables

    def _columns(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The posting segments of each row's ``3^d`` neighbourhood, in the
        reference's ``neighbor_cells`` walk order (self cell first, then
        ``neighbor_offsets`` product order; oid-ascending per cell), as a
        flat array with per-row bounds."""
        tables = self.tables
        codes = self.large_grid.codes
        targets = (codes.take(rows)[:, None] + tables["deltas"][None, :]).ravel()
        positions = codes.searchsorted(targets)
        np.minimum(positions, len(codes) - 1, out=positions)
        valid = codes.take(positions) == targets
        neighbors = positions[valid]
        # Every cell holds at least one segment.
        starts = tables["cell_segs"].take(neighbors)
        sizes = tables["cell_segs"].take(neighbors + 1) - starts
        seg_before = np.zeros(len(neighbors) + 1, dtype=np.int64)
        sizes.cumsum(out=seg_before[1:])
        cell_bounds = np.zeros(len(rows) + 1, dtype=np.int64)
        valid.reshape(len(rows), -1).sum(axis=1).cumsum(out=cell_bounds[1:])
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

    def score(self, oid: int) -> int:
        """``tau(o_i)`` exactly, matching ``_exact_score`` bit-for-bit."""
        grid = self.large_grid
        tables = self.tables
        counters = self.counters
        n = self.collection.n

        confirmed = np.zeros(n, dtype=bool)
        if self.initial_bitsets is not None:
            seed = self.initial_bitsets(oid)
            if seed is not None:
                confirmed = np.unpackbits(
                    np.frombuffer(
                        seed.to_int().to_bytes((n + 7) // 8, "little"), np.uint8
                    ),
                    count=n,
                    bitorder="little",
                ).view(bool)
        confirmed[oid] = True

        low = tables["group_bounds"][oid]
        high = tables["group_bounds"][oid + 1]
        groups = high - low
        if not groups:
            return int(np.count_nonzero(confirmed)) - 1
        rows = self.bigrid.group_flat[low:high]
        segments = self.bigrid.group_segments[low:high]
        seg_lengths = tables["seg_lengths"]
        # Each group's points are its posting segment, in visit order.
        sizes = seg_lengths.take(segments)
        point_index = grid.seg_points.take(
            _ragged_arange(grid.seg_bounds.take(segments), sizes)
        )
        point_group = np.arange(groups).repeat(sizes)
        masked = None
        if self.verify_masks is not None:
            keep = self.verify_masks(oid).take(point_index)
            point_index = point_index[keep]
            point_group = point_group[keep]
            masked = sizes - np.bincount(point_group, minlength=groups)

        col_seg, col_bounds = self._columns(rows)
        coords = self.collection[oid].points.take(point_index, axis=0)
        labeler = self.labeler
        checked_point, checked_col, skippable = first_hit_scan(
            point_group,
            col_bounds,
            grid.seg_oid.take(col_seg),
            confirmed,
            lambda entry_point, entry_col: self._hits(
                coords, entry_point, col_seg.take(entry_col)
            ),
            marks=labeler is not None,
        )
        checked_rows = seg_lengths.take(col_seg.take(checked_col))

        deadline = self.deadline
        memo = self.memo
        if deadline is None:
            counters.posting_checks += len(checked_col)
            counters.distance_rows += int(checked_rows.sum())
            if masked is not None:
                counters.points_skipped += int(masked.sum())
                rows = rows[masked < sizes]
            if memo is not None:
                memo[rows] = True
            if labeler is not None:
                labeler.mark_verify_skippable(oid, point_index[skippable])
            return int(np.count_nonzero(confirmed)) - 1

        # Group by group behind each checkpoint, as the reference walks.
        checked_group = point_group.take(checked_point)
        checks = np.bincount(checked_group, minlength=groups).tolist()
        row_sums = np.bincount(
            checked_group, weights=checked_rows, minlength=groups
        ).astype(np.int64).tolist()
        point_bounds = point_group.searchsorted(np.arange(groups + 1)).tolist()
        masked_list = masked.tolist() if masked is not None else [0] * groups
        rows_list = rows.tolist()
        for group in range(groups):
            checkpoint(deadline, "verification")
            counters.points_skipped += masked_list[group]
            first, last = point_bounds[group], point_bounds[group + 1]
            if first == last:
                continue
            if memo is not None:
                memo[rows_list[group]] = True
            counters.posting_checks += checks[group]
            counters.distance_rows += row_sums[group]
            if labeler is not None:
                labeler.mark_verify_skippable(
                    oid, point_index[first:last][skippable[first:last]]
                )
        return int(np.count_nonzero(confirmed)) - 1


#: The packed arrays a label-free scorer reads, as ``(owner, name)``:
#: owner ``"grid"`` is the large grid, ``"bigrid"`` the BIGrid itself.
SCORER_ARRAYS = (
    ("grid", "codes"),
    ("grid", "strides"),
    ("grid", "seg_cell"),
    ("grid", "seg_oid"),
    ("grid", "seg_bounds"),
    ("grid", "seg_points"),
    ("grid", "seg_coords"),
    ("bigrid", "group_flat"),
    ("bigrid", "group_counts"),
    ("bigrid", "group_segments"),
)


def scorer_arrays(bigrid) -> Optional[Dict[str, np.ndarray]]:
    """The arrays :func:`label_free_scorer` reads, by name.

    None unless ``bigrid`` is packed and its upper-bounding pass memoized
    every adjacency row (a label-free query's does), so scoring over the
    arrays alone changes no grid state the serial scorer would change.
    """
    if not isinstance(bigrid, PackedBIGrid) or not bigrid.large_grid.adj_memo.all():
        return None
    owners = {"grid": bigrid.large_grid, "bigrid": bigrid}
    return {name: getattr(owners[owner], name) for owner, name in SCORER_ARRAYS}


def scorer_grid(collection, r: float, arrays: Dict[str, np.ndarray]) -> PackedBIGrid:
    """A packed BIGrid shell over :func:`scorer_arrays` output: enough to
    score label-free, with every adjacency row marked memoized."""
    large_grid = PackedLargeGrid(large_cell_width(r), collection.dimension, None)
    bigrid = PackedBIGrid(collection, r, None, large_grid, 0)
    owners = {"grid": large_grid, "bigrid": bigrid}
    for owner, name in SCORER_ARRAYS:
        setattr(owners[owner], name, arrays[name])
    large_grid._adjacency.memo = np.ones(len(arrays["codes"]), dtype=bool)
    return bigrid


def label_free_scorer(bigrid: PackedBIGrid, r: float, deadline=None):
    """``oid -> (score, posting_checks, distance_rows)`` for one candidate.

    The serial scorer's numbers for a grid :func:`scorer_arrays` accepts:
    without labels a score depends only on the grid and the oid, so
    candidates may be scored in any order, by any process.  A deadline
    expiring mid-candidate raises :class:`QueryTimeout`.
    """
    counters = VerifyCounters()
    verifier = _BatchedVerifier(bigrid, r, None, None, None, counters, deadline)

    def score(oid: int) -> Tuple[int, int, int]:
        checks, rows = counters.posting_checks, counters.distance_rows
        value = verifier.score(oid)
        return (
            value,
            counters.posting_checks - checks,
            counters.distance_rows - rows,
        )

    return score


def _selected(num_points: int, point_filter, oid: int) -> np.ndarray:
    """Point indices surviving the label filter (Lemma 3), as in the
    reference build."""
    if point_filter is None:
        return np.arange(num_points)
    mask = point_filter(oid)
    if mask is None:
        return np.arange(num_points)
    return np.nonzero(mask)[0]


#: The shared vectorized instance.
NUMPY_KERNEL = NumpyKernel()
