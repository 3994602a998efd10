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
  one per visited group.  The loop's skips read
  ``_BatchedVerifier.bounds``: per-segment boxes (one
  ``minimum/maximum.reduceat`` over the posting coordinates) tested
  against each group's own box in flat slices, own cells first, then,
  for the candidates the boxes do not skip, point-to-box tests on the
  box-near pairs.  On a resident grid, each candidate's score and the
  work it leaves behind are recorded once per seeds object, ``r`` and
  masks (:class:`_ResidentMemo`): a later block settles its recorded
  candidates from their records and scores only the rest.
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
from repro.core.geometry import box_gap_squared, boxes_within
from repro.core.labels import GRID_BIT, UPPER_BIT, VERIFY_BIT, PointLabels
from repro.core.lower_bound import LowerBoundResult, PackedSeeds
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


def _counter(per_row: bool):
    """``count_nonzero`` over a whole 2-D mask, or per row."""
    return partial(np.count_nonzero, axis=1) if per_row else np.count_nonzero


def _ewah_bytes(words: np.ndarray, per_row: bool = False):
    """Stream bytes (markers + dirty words) of every row's EWAH encoding.

    ``from_int`` opens a marker at each clean word (all zeros or all ones)
    whose predecessor differs, plus one before a dirty first word, and
    drops the trailing zero run: a row ending in a zero word has exactly
    one clean-run start in that run.  Each segment is one marker word: a
    marker only splits past 2^32 clean or 2^31 dirty words, far wider
    than any row of ``n`` bits can be.
    """
    count = _counter(per_row)
    clean = (words == 0) | (words == _ALL_ONES)
    run_starts = clean.copy()
    run_starts[:, 1:] &= words[:, 1:] != words[:, :-1]
    dirty = ~clean
    markers = (
        count(run_starts) - count(words[:, -1:] == 0) + count(dirty[:, :1])
    )
    sizes = 8 * (markers + count(dirty))
    return sizes if per_row else int(sizes)


def _plain_bytes(words: np.ndarray, per_row: bool = False):
    """Whole words up to each row's highest set bit."""
    nonzero = words != 0
    last = words.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    sizes = 8 * np.where(nonzero.any(axis=1), last, 0)
    return sizes if per_row else int(sizes.sum())


def _roaring_bytes(words: np.ndarray, per_row: bool = False):
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
    sizes = np.where(cards > 0, CONTAINER_HEADER + payload, 0)
    return sizes.sum(axis=1) if per_row else int(sizes.sum())


#: ``size_in_bytes`` of each registered bitset backend, over packed rows.
_PACKED_BYTES = {
    EWAHBitset: _ewah_bytes,
    PlainBitset: _plain_bytes,
    RoaringBitset: _roaring_bytes,
}


def packed_bitset_bytes(bitset_cls, words: np.ndarray, per_row: bool = False):
    """``sum(bitset_cls.from_int(row).size_in_bytes())`` over packed rows.

    Memory accounting for numpy-built grids: the same sizes the bitset
    classes report, evaluated in bulk over a ``(rows, words)`` uint64
    matrix (word ``i`` holds bits ``64i..64i+63``) so no bitset is built.
    With ``per_row`` the result is each row's size, an int64 array (about
    ten times slower than the total on narrow rows: the resident memo
    sizes each adjacency row once, the total path sizes whole matrices).
    """
    if words.shape[0] == 0:
        return np.zeros(0, dtype=np.int64) if per_row else 0
    return _PACKED_BYTES[bitset_cls](words, per_row)


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
    equal values, so the last store wins harmlessly.  ``memo`` is the
    resident grid's :class:`_ResidentMemo`, made by the first
    :meth:`PackedBIGrid.view`: a grid that is never viewed memoizes
    nothing.
    """

    __slots__ = ("adjacency", "neighbors", "verify", "memo")

    def __init__(self) -> None:
        self.adjacency: Optional[np.ndarray] = None
        self.neighbors: Optional[np.ndarray] = None
        self.verify: Optional[dict] = None
        self.memo: Optional[_ResidentMemo] = None


class _ResidentMemo:
    """What a query on a resident grid computes but cannot change.

    * ``upper``: the last :class:`_UpperPass`, valid for the label
      object it was run under;
    * ``bounds``: ``(seeds, r, box, refined)``, each candidate's box-only
      and refined skip bound (int64 per oid, -1 until first computed),
      valid for that seeds object and ``r``;
    * ``small_bytes`` / ``large_bytes``: the encoded size of every cell
      bitset of each grid;
    * ``adj_total``: the encoded size of every adjacency row together,
      for views that memoized every row (a label-free or labeling pass);
    * ``adj_bytes``: each adjacency row's encoded size (-1 until a view
      that memoized only some rows first sizes it);
    * ``scores``: ``(seeds, r, labels, method, records)``, each scored
      candidate's score record ``(block scores, slot)`` by oid, valid for
      that seeds object, ``r`` and masks (``labels`` and ``method`` are
      the :class:`PointLabels` object and mask method, or both None for
      no masks).  A record holds the candidate's score, first-hit entries
      and per group its counters, adjacency row and whether it had an
      unmasked point: everything a fresh block's settle applies
      (:class:`_BlockScores`).  Queries whose masks come from another
      provider neither read nor fill it.

    A query that arms a labeler fills ``upper`` and ``scores`` but never
    reads them: its Labeling marks are effects, while its pass values,
    counters, scores and per-group work do not depend on them.

    Every value is a pure function of the grid and its key, so whichever
    view computes one first stores it.  Arrays and record tables are
    replaced, never written in place: concurrent stores are equal, and
    the last one wins.  The memo lives and dies with the grid, under the
    resident tier's LRU.
    """

    __slots__ = (
        "upper",
        "bounds",
        "small_bytes",
        "large_bytes",
        "adj_total",
        "adj_bytes",
        "scores",
    )

    def __init__(self) -> None:
        self.upper: Optional[_UpperPass] = None
        self.bounds: Optional[Tuple] = None
        self.scores: Optional[Tuple] = None
        self.small_bytes: Optional[int] = None
        self.large_bytes: Optional[int] = None
        self.adj_total: Optional[int] = None
        self.adj_bytes: Optional[np.ndarray] = None


class _UpperPass:
    """One upper-bounding pass, kept for replay by queries that arm no
    labeler.

    ``values`` are the per-object upper bounds, ``visited`` the rows the
    pass memoizes (None: every row) and ``groups`` the groups it
    processed.  ``ranked`` lists every ``(upper, oid)`` in candidate
    order, built on the first replay: a pass is re-filtered per query,
    since the pruning threshold depends on ``k``.
    """

    __slots__ = ("labels", "values", "visited", "groups", "ranked")

    def __init__(self, labels, values, visited, groups) -> None:
        self.labels = labels
        self.values = values
        self.visited = visited
        self.groups = groups
        self.ranked: Optional[Tuple[np.ndarray, List[Candidate]]] = None

    def candidates(self, threshold: int) -> List[Candidate]:
        """The candidates at this pruning threshold, in queue order."""
        ranked = self.ranked
        if ranked is None:
            negated = -np.array(self.values, dtype=np.int64)
            order = np.argsort(negated, kind="stable")
            negated = negated[order]
            ranked = (negated, list(zip((-negated).tolist(), order.tolist())))
            self.ranked = ranked
        negated, entries = ranked
        return entries[: int(negated.searchsorted(-threshold, side="right"))]


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
    reference build's cells, listed in ascending key order.  A view of a
    resident grid reads its bitset bytes from the grid's ``memo``.
    """

    ARRAYS = ("packed", "key_rows", "cell_objects", "pair_oid")
    __slots__ = ARRAYS + ("memo",)

    def __init__(self, width: float, dimension: int, bitset_cls) -> None:
        # Deliberately skip the parent __init__: ``cells`` stays unset.
        self.width = width
        self.dimension = dimension
        self.bitset_cls = bitset_cls
        self.memo: Optional[_ResidentMemo] = None

    def __getattr__(self, name: str):
        if name != "cells":
            raise AttributeError(name)
        cells = self._materialize_cells()
        self.cells = cells
        return cells

    def view(self, memo: "_ResidentMemo") -> "PackedSmallGrid":
        """The same arrays and resident ``memo``, with cells of its own
        still unmaterialized."""
        view = PackedSmallGrid(self.width, self.dimension, self.bitset_cls)
        _share(self, view)
        view.memo = memo
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
        memo = self.memo
        if memo is None:
            return packed_bitset_bytes(self.bitset_cls, self.packed)
        if memo.small_bytes is None:
            memo.small_bytes = packed_bitset_bytes(self.bitset_cls, self.packed)
        return memo.small_bytes


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
        resident = self.tables.memo
        if resident is None:
            return packed_bitset_bytes(self.bitset_cls, self.packed)
        if resident.large_bytes is None:
            resident.large_bytes = packed_bitset_bytes(self.bitset_cls, self.packed)
        return resident.large_bytes

    def adjacency_bytes(self) -> int:
        # The memoized unions only, as the reference sizes them.
        memo = self._adjacency.memo
        if not memo.any():
            return 0
        words = self._adjacency.words
        resident = self.tables.memo
        every_row = memo.all()
        if resident is None:
            return packed_bitset_bytes(
                self.bitset_cls, words if every_row else words[memo]
            )
        # A resident grid sizes its rows once, for every view: all of
        # them at once (the cheap whole-matrix total), or row by row.
        if every_row:
            if resident.adj_total is None:
                resident.adj_total = packed_bitset_bytes(self.bitset_cls, words)
            return resident.adj_total
        sizes = resident.adj_bytes
        if sizes is None:
            sizes = np.full(len(memo), -1, dtype=np.int64)
        missing = memo & (sizes < 0)
        if missing.any():
            sizes = sizes.copy()
            sizes[missing] = packed_bitset_bytes(
                self.bitset_cls, words[missing], per_row=True
            )
            resident.adj_bytes = sizes
        return int(sizes[memo].sum())

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
        its own, as after a fresh build.  The first view gives the grid
        its :class:`_ResidentMemo`."""
        tables = self.large_grid.tables
        if tables.memo is None:
            tables.memo = _ResidentMemo()
        view = PackedBIGrid(
            self.collection,
            self.r,
            self.small_grid.view(tables.memo),
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
        sizes = collection.point_counts
        points = np.concatenate([obj.points for obj in collection])
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

    def lower_bounds(self, bigrid, stats=None, deadline=None):
        if not isinstance(bigrid, PackedBIGrid):
            return PYTHON_KERNEL.lower_bounds(bigrid, stats=stats, deadline=deadline)
        n = bigrid.collection.n
        counts = bigrid.shared_counts
        words_matrix = bigrid.shared_words
        total_rows = int(words_matrix.shape[0])
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
                bigrid, counts, words_matrix, stats, deadline
            )

        # One reduceat over every object's rows at once: OR-unions and
        # popcounts for all n objects in two array passes.  The union
        # rows are the seeds, indexed by oid.
        nonzero = np.flatnonzero(counts)
        offsets = np.zeros(len(nonzero), dtype=np.int64)
        offsets[1:] = np.cumsum(counts[nonzero])[:-1]
        unions = np.bitwise_or.reduceat(words_matrix, offsets, axis=0)
        cards = np.bitwise_count(unions).sum(axis=1).astype(np.int64).tolist()
        index = np.full(n, -1, dtype=np.int64)
        index[nonzero] = np.arange(len(nonzero))

        values: List[int] = []
        tau_max = 0
        position = 0
        counts_list = counts.tolist()
        for oid in range(n):
            checkpoint(deadline, "lower_bounding")
            if counts_list[oid] == 0:
                values.append(0)
                continue
            cardinality = cards[position]
            lower = cardinality - 1 if cardinality else 0
            values.append(lower)
            if lower > tau_max:
                tau_max = lower
            position += 1

        if stats is not None:
            stats.set_count("lower_or_operations", total_rows)
            stats.set_count("tau_max_low", tau_max)
        return LowerBoundResult(
            values=values, tau_max=tau_max, seeds=PackedSeeds(unions, index),
            path="numpy-reduceat",
        )

    @staticmethod
    def _lower_bounds_seq(bigrid, counts, words_matrix, stats, deadline):
        """Reference-order lower bounds over the packed rows (tiny grids).

        Same sequential per-object union the python backend performs,
        expressed as big-int ORs over the build-time word gather -- no
        per-call numpy dispatch, no lazy cell materialization.  Only used
        when every bitset fits one word (or there are no shared rows at
        all), so each row *is* its big-int value, and the unions pack
        back into one-word seed rows in a single array call.
        """
        n = bigrid.collection.n
        row_vals = words_matrix[:, 0].tolist() if words_matrix.size else []
        counts_list = counts.tolist()
        values: List[int] = []
        unions: List[int] = []
        index: List[int] = []
        tau_max = 0
        position = 0
        for oid in range(n):
            checkpoint(deadline, "lower_bounding")
            count = counts_list[oid]
            if count == 0:
                values.append(0)
                index.append(-1)
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
            index.append(len(unions))
            unions.append(union)
        if stats is not None:
            stats.set_count("lower_or_operations", len(row_vals))
            stats.set_count("tau_max_low", tau_max)
        rows = np.array(unions, dtype=np.uint64).reshape(
            len(unions), words_matrix.shape[1]
        )
        return LowerBoundResult(
            values=values,
            tau_max=tau_max,
            seeds=PackedSeeds(rows, np.array(index, dtype=np.int64)),
            path="numpy-seq",
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
        resident = large_grid.tables.memo
        if resident is not None and labeler is None:
            replay = resident.upper
            if replay is not None and replay.labels is labels:
                return _replay_upper_pass(
                    replay, large_grid.adj_memo, n, tau_max_low, stats, deadline
                )

        # b_adj for every cell at once.  The matrix stays on the grid;
        # per-cell ``adj_int`` big ints resolve lazily from its rows only
        # if verification actually reads them.
        adjacency = large_grid.bulk_adjacency()
        if labels is None and labeler is None:
            # Every group is processed, so the reference pass unions every
            # cell (each holds a posting).
            visited = None
            flat = bigrid.group_flat
            counts = bigrid.group_counts
            group_words = adjacency[flat]
        else:
            flat, counts, group_words, visited = _labeled_upper_pass(
                bigrid, adjacency, labels, labeler
            )
        fresh_unions = _memoize_rows(large_grid.adj_memo, visited)

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
        if resident is not None:
            # A labeling pass without labels processes every group, as a
            # label-free pass does: it fills the label-free memo (its
            # marks are this query's effects and are never replayed).
            resident.upper = _UpperPass(
                labels, tuple(values), None if labels is None else visited,
                groups_processed,
            )
        _upper_counts(stats, groups_processed, fresh_unions, len(candidates), n)
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
        seeds=None,
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
                seeds=seeds,
                verify_masks=verify_masks,
                labeler=labeler,
                stats=stats,
                deadline=deadline,
            )
        counters = VerifyCounters()
        scorer = _BatchedVerifier(
            bigrid, r, seeds, verify_masks, labeler, counters, deadline
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


def _memoize_rows(memo: np.ndarray, visited: Optional[np.ndarray]) -> int:
    """Mark the rows a pass visits (None: every row) as memoized, in
    place; returns how many were not memoized before: the pass's fresh
    unions."""
    if visited is None:
        fresh = len(memo) - int(np.count_nonzero(memo))
        memo[:] = True
    else:
        fresh = int(np.count_nonzero(visited & ~memo))
        memo |= visited
    return fresh


def _upper_counts(stats, groups: int, fresh: int, candidates: int, n: int) -> None:
    if stats is not None:
        stats.set_count("upper_groups_processed", groups)
        stats.set_count("adj_unions_computed", fresh)
        stats.set_count("candidates", candidates)
        stats.set_count("pruned_objects", n - candidates)


def _replay_upper_pass(replay, memo, n, tau_max_low, stats, deadline):
    """An upper-bounding pass on a resident grid, from its memo.

    The pass's effects on this view, in the pass's order: its rows
    memoized, then one clock read per object under a deadline, then
    its counters; the candidates are re-filtered for ``tau_max_low``.
    """
    fresh = _memoize_rows(memo, replay.visited)
    if deadline is not None:
        for _ in range(n):
            checkpoint(deadline, "upper_bounding")
    candidates = replay.candidates(tau_max_low)
    _upper_counts(stats, replay.groups, fresh, len(candidates), n)
    return UpperBoundResult(candidates=candidates, values=list(replay.values))


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

    Returns ``(rows, counts, group_words, visited)``: the cell rows of
    the processed groups in group order, processed groups per object,
    their adjacency rows, and a flag per cell row: whether a processed
    group lies in it.  The caller memoizes the visited rows; Labeling-1
    reads the rows the view had not memoized yet.
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

    if labeler is not None:
        fresh_rows = np.flatnonzero(visited & ~memo)
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
    return rows, counts, group_words, visited


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


def _above(bound: np.ndarray, oid_array: np.ndarray, floor) -> np.ndarray:
    """Whether each candidate's ``(bound, -oid)`` is not below the heap
    floor ``floor = (score, -oid)``: the candidates whose skip bound is
    the refined one."""
    score, neg_oid = floor
    return (bound > score) | ((bound == score) & (-oid_array >= neg_oid))


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
    and each group's columns of an owner pending at the start: the
    group's entries are these times its points.
    """
    # Every point against each column of an owner pending at the start.
    live = ~confirmed.take(col_owner)
    live_before = np.zeros(len(live) + 1, dtype=np.int64)
    live.cumsum(out=live_before[1:])
    group_live = live_before.take(col_bounds)
    live_cols = group_live[1:] - group_live[:-1]
    counts = live_cols.take(point_group)
    skippable = counts == 0 if marks else None
    points = counts.nonzero()[0]
    if not len(points):
        return points, points, skippable, live_cols

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
    return entry_point[counted], entry_col[counted], skippable, live_cols


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
    A scored block is one :class:`_BlockScores`, and a settle applies
    its candidate's slice of it.  On a resident grid, a query with a
    ``score_key`` (masks absent or a :class:`PointLabels` mask method)
    keeps each candidate's slice as its score record in the grid's
    :class:`_ResidentMemo`, and later blocks of queries that arm no
    labeler settle recorded candidates from their records without
    scoring them again.

    ``capacity()`` keeps a block's first-hit entries within
    ``VERIFY_BATCH_PAIRS``, estimated from the entries per candidate of
    the blocks scored so far, and its ``B x n`` confirmed matrix within
    the same budget.

    ``bounds(oids, floor)`` gives the loop its skip bounds, box-only or
    refined, vectorized over a batch of up to ``bound_capacity()``
    candidates and without side effects.
    """

    __slots__ = (
        "bigrid",
        "collection",
        "large_grid",
        "r",
        "r_squared",
        "seeds",
        "verify_masks",
        "flat_mask",
        "mask_key",
        "score_key",
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
        seeds,
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
        self.seeds = seeds
        self.verify_masks = verify_masks
        self.flat_mask: Optional[np.ndarray] = None
        labels = getattr(verify_masks, "__self__", None)
        method = getattr(verify_masks, "__func__", None)
        self.mask_key = None
        if method in _FLAT_MASKS and isinstance(labels, PointLabels):
            self.mask_key = (labels, method)
        # Exact scores are memoized on a resident grid, keyed by the seeds,
        # ``r`` and the masks, unless the masks come from another provider.
        # A query that arms a labeler fills the records but never reads
        # them: its Labeling-3 marks are effects.
        self.score_key = None
        if self.large_grid.tables.memo is not None and (
            verify_masks is None or self.mask_key is not None
        ):
            self.score_key = (seeds, r, *(self.mask_key or (None, None)))
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

    def _segment_rows(self, segs):
        """The posting rows of segments ``segs``, one after another, in
        slices of whole segments with at most ``VERIFY_BATCH_PAIRS`` rows
        (or one segment): yields ``(low, high, coords, sizes, offsets)``
        for entries ``low:high``, their gathered coordinate rows, each
        entry's row count and first row within the slice."""
        grid = self.large_grid
        lengths = self.tables["seg_lengths"].take(segs)
        starts = grid.seg_bounds.take(segs)
        ends = lengths.cumsum()
        low = 0
        while low < len(ends):
            base = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(ends.searchsorted(base + VERIFY_BATCH_PAIRS, side="right")),
            )
            sizes = lengths[low:high]
            # Row gathers with ``take``: far cheaper than fancy indexing.
            coords = grid.seg_coords.take(
                _ragged_arange(starts[low:high], sizes), axis=0
            )
            yield low, high, coords, sizes, ends[low:high] - sizes - base
            low = high

    def _hits(self, coords, entry_point, entry_seg) -> np.ndarray:
        """Whether point ``coords[entry_point[e]]`` lies within ``r`` of a
        row of posting segment ``entry_seg[e]``, for every entry ``e``."""
        hits = np.empty(len(entry_seg), dtype=bool)
        for low, high, diff, sizes, offsets in self._segment_rows(entry_seg):
            # The reference's ``candidate_points - point``, one pair per row.
            diff -= coords.take(np.repeat(entry_point[low:high], sizes), axis=0)
            squared = np.einsum("ij,ij->i", diff, diff)
            hits[low:high] = np.minimum.reduceat(squared, offsets) <= self.r_squared
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

    def bounds(self, oids: List[int], floor=None) -> List[int]:
        """Each candidate's skip bound: the box-only bound if ``floor``
        is None; otherwise the box-only bound of a candidate it already
        puts below the heap floor ``floor = (score, -oid)`` and the
        refined bound of any other (the floor only rises, so a candidate
        below it is skipped at every later dequeue too).  Each equals
        :func:`repro.core.verification.box_bound` (``refine=False`` and
        ``refine=True``) bit for bit.  On a resident grid both bounds
        are read from its memo once some query computed them for these
        seeds (:meth:`_memo_bounds`).  Reads the packed arrays only: no
        memo row, label, counter or clock read."""
        oid_array = np.array(oids, dtype=np.int64)
        resident = self.large_grid.tables.memo
        if resident is None:
            box, refined = self._bounds(oid_array, floor)
        else:
            box, refined = self._memo_bounds(resident, oid_array, floor)
        if floor is None:
            return box.tolist()
        return np.where(_above(box, oid_array, floor), refined, box).tolist()

    def _memo_bounds(self, resident, oid_array, floor) -> Tuple:
        """:meth:`_bounds` through the resident memo: only candidates
        whose box bound, or (above ``floor``) refined bound, no query has
        computed yet for these seeds and ``r`` are bounded here."""
        memo = resident.bounds
        if memo is None or memo[0] is not self.seeds or memo[1] != self.r:
            # Nothing is known for these seeds and ``r`` yet.
            box, refined = self._bounds(oid_array, floor)
            box_memo = np.full(self.collection.n, -1, dtype=np.int64)
            box_memo[oid_array] = box
            refined_memo = np.full(self.collection.n, -1, dtype=np.int64)
            if refined is not None:
                refined_memo[oid_array] = refined
            resident.bounds = (self.seeds, self.r, box_memo, refined_memo)
            return box, refined
        box_memo, refined_memo = memo[2], memo[3]
        box = box_memo.take(oid_array)
        refined = refined_memo.take(oid_array)
        missing = box < 0
        if floor is not None:
            missing |= (refined < 0) & _above(box, oid_array, floor)
        if missing.any():
            rows = missing.nonzero()[0]
            fill = oid_array.take(rows)
            fill_box, fill_refined = self._bounds(fill, floor)
            box[rows] = fill_box
            box_memo = box_memo.copy()
            box_memo[fill] = fill_box
            if fill_refined is not None:
                done = (fill_refined >= 0).nonzero()[0]
                refined[rows.take(done)] = fill_refined.take(done)
                refined_memo = refined_memo.copy()
                refined_memo[fill.take(done)] = fill_refined.take(done)
            resident.bounds = (self.seeds, self.r, box_memo, refined_memo)
        return box, refined

    def _bounds(self, oid_array, floor) -> Tuple:
        """``(box, refined)``: each candidate's box-only bound and, if
        ``floor`` is not None, its refined bound where the box bound does
        not put it below the floor (-1 elsewhere; None without a floor).

        Owners are keyed by (candidate, object) as in :meth:`block`.
        The box pass (:meth:`_mark_run`) takes candidates in runs whose
        ``groups x 3^d`` cell pairs stay within ``VERIFY_BATCH_PAIRS`` and
        returns the box-near pairs it tests.  The point-to-box tests then
        run on those pairs of the candidates left to refine.  The box
        pass stops testing an owner once one slice finds it near, so an
        owner whose returned pairs all fail has its other pairs listed
        and tested too (:meth:`_owner_pairs`)."""
        n = self.collection.n
        count = len(oid_array)
        found = self._seeded(oid_array)
        refined = None if floor is None else found.copy()
        group_bounds = self.tables["group_bounds"]
        group_starts = group_bounds.take(oid_array)
        group_counts = group_bounds.take(oid_array + 1) - group_starts
        ends = (group_counts * len(self.neighbors)).cumsum()
        near = None if floor is None else []
        low = 0
        while low < count:
            top = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(ends.searchsorted(top + VERIFY_BATCH_PAIRS, side="right")),
            )
            self._mark_run(
                found.reshape(-1),
                np.arange(low, high).repeat(group_counts[low:high]),
                _ragged_arange(group_starts[low:high], group_counts[low:high]),
                near,
            )
            low = high
        bound = found.sum(axis=1) - 1
        if floor is None:
            return bound, None
        refine = _above(bound, oid_array, floor)
        if not (near and refine.any()):
            # With no near pair, nothing was found beyond the seeds: the
            # refined bound is the box bound.
            return bound, np.where(refine, bound, -1)
        own, seg, key = (np.concatenate(column) for column in zip(*near))
        keep = refine.take(key // n).nonzero()[0]
        self._refine(refined, own.take(keep), seg.take(keep), key.take(keep))
        doubtful = (found & ~refined & refine[:, None]).nonzero()
        if len(doubtful[0]):
            self._refine(refined, *self._owner_pairs(oid_array, *doubtful))
        return bound, np.where(refine, refined.sum(axis=1) - 1, -1)

    def _refine(self, refined, own, seg, key) -> None:
        """Set ``refined`` for the owner key of every pair where some
        point of group segment ``own[e]`` lies within ``r`` of segment
        ``seg[e]``'s box and some point of ``seg[e]`` within ``r`` of
        ``own[e]``'s box."""
        near = self._points_near(
            np.concatenate((own, seg)), np.concatenate((seg, own))
        ).reshape(2, -1)
        refined.reshape(-1)[key[near[0] & near[1]]] = True

    def _owner_pairs(self, oid_array, slot, owner) -> Tuple:
        """``(own segment, segment, owner key)`` of every pair of a group
        of candidate slot ``slot[i]`` and a segment of object
        ``owner[i]`` in the group's ``3^d`` neighbourhood whose boxes lie
        within ``r``, for runs of ``(slot, owner)`` whose ``groups x
        3^d`` lookups stay within ``VERIFY_BATCH_PAIRS``.  Object ``q``
        reaches group ``g`` iff bit ``q`` of ``b_adj(g)`` is set, and has
        a segment in cell ``c`` iff bit ``q`` of ``c``'s packed row is
        set: ``c``'s first segment plus the set bits of the row below
        ``q``."""
        n = self.collection.n
        grid = self.large_grid
        tables = self.tables
        words = grid.packed.shape[1]
        if "word_rank" not in tables:
            # Set bits of cell ``row``'s packed row before word ``w``, at
            # ``row * words + w``.
            counts = np.bitwise_count(grid.packed).astype(np.int64)
            tables["word_rank"] = (counts.cumsum(axis=1) - counts).ravel()
        adjacency, packed = grid.bulk_adjacency().reshape(-1), grid.packed.reshape(-1)
        seg_lo, seg_hi = self._boxes()
        group_bounds = tables["group_bounds"]
        oids = oid_array.take(slot)
        starts = group_bounds.take(oids)
        counts = group_bounds.take(oids + 1) - starts
        ends = (counts * len(self.neighbors)).cumsum()
        out = []
        low = 0
        while low < len(slot):
            top = int(ends[low - 1]) if low else 0
            high = max(
                low + 1,
                int(ends.searchsorted(top + VERIFY_BATCH_PAIRS, side="right")),
            )
            sizes = counts[low:high]
            group = _ragged_arange(starts[low:high], sizes)
            objects = owner[low:high].repeat(sizes)
            keys = (slot[low:high] * n + owner[low:high]).repeat(sizes)
            low = high
            rows = self.bigrid.group_flat.take(group)
            word, bit = objects >> 6, (objects & 63).astype(np.uint64)
            reach = (
                (adjacency.take(rows * words + word) >> bit) & np.uint64(1)
            ).nonzero()[0]
            cells = self.neighbors.take(rows.take(reach), axis=1).ravel()
            entry = (cells >= 0).nonzero()[0]
            cell = cells.take(entry)
            entry = reach.take(entry % max(1, len(reach)))
            at = cell * words + word.take(entry)
            value = packed.take(at)
            bit = bit.take(entry)
            hit = ((value >> bit) & np.uint64(1)).nonzero()[0]
            entry, cell, at = entry.take(hit), cell.take(hit), at.take(hit)
            segments = (
                tables["cell_segs"].take(cell)
                + tables["word_rank"].take(at)
                + np.bitwise_count(
                    value.take(hit) & ((np.uint64(1) << bit.take(hit)) - np.uint64(1))
                )
            )
            own = self.bigrid.group_segments.take(group.take(entry))
            within = boxes_within(
                seg_lo.take(own, axis=0),
                seg_hi.take(own, axis=0),
                seg_lo.take(segments, axis=0),
                seg_hi.take(segments, axis=0),
                self.r,
            )
            out.append((own[within], segments[within], keys.take(entry)[within]))
        return tuple(np.concatenate(column) for column in zip(*out))

    def _points_near(self, point_segs, box_segs) -> np.ndarray:
        """Whether some point of segment ``point_segs[e]`` lies within
        ``r`` of segment ``box_segs[e]``'s box, for every entry ``e``
        (:func:`repro.core.geometry.points_near_box`, row for row)."""
        seg_lo, seg_hi = self._boxes()
        near = np.empty(len(point_segs), dtype=bool)
        for low, high, coords, sizes, offsets in self._segment_rows(point_segs):
            boxes = box_segs[low:high].repeat(sizes)
            gap = box_gap_squared(
                coords, coords, seg_lo.take(boxes, axis=0), seg_hi.take(boxes, axis=0)
            )
            near[low:high] = np.minimum.reduceat(gap, offsets) <= self.r_squared
        return near

    def _mark_run(self, found, slot, group_index, near=None) -> None:
        """Set ``found`` for every owner with a posting segment within
        ``r`` of one of groups ``group_index`` (of candidate slots
        ``slot``), in its ``3^d`` neighbourhood.  If ``near`` is a list,
        append to it the ``(own segment, segment, owner key)`` arrays of
        the near pairs tested, one triple per slice.

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
            if near is not None:
                near.append((own.take(mine[within]), segments[within], keys[within]))

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

    def _seeded(self, oid_array: np.ndarray) -> np.ndarray:
        """The ``(B, n)`` confirmed matrix at the start: each candidate's
        seed set plus the candidate itself."""
        n = self.collection.n
        count = len(oid_array)
        if self.seeds is not None:
            confirmed = self.seeds.confirmed(oid_array, n)
        else:
            confirmed = np.zeros((count, n), dtype=bool)
        confirmed.reshape(-1)[self.key_base[:count] + oid_array] = True
        return confirmed

    def _masks(self, oid_array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat, starts)``: the candidates' masks in one flat array
        and each candidate's first point in it.  A mask method of
        :class:`PointLabels` (``mask_key``) reads one flat mask of every
        point, made on the first block and indexed through
        ``PointLabels.offsets``; any other provider is called per
        candidate."""
        if self.mask_key is None:
            provider = self.verify_masks
            masks = [provider(oid) for oid in oid_array.tolist()]
            starts = np.zeros(len(masks), dtype=np.int64)
            np.cumsum([len(mask) for mask in masks[:-1]], out=starts[1:])
            return np.concatenate(masks), starts
        labels, method = self.mask_key
        if self.flat_mask is None:
            self.flat_mask = labels.flat_mask(_FLAT_MASKS[method])
        return self.flat_mask, labels.offsets.take(oid_array)

    def block(self, oids: List[int]) -> List[Settle]:
        """Score ``oids`` as one block; one settle per candidate, in order.

        Each settle applies its candidate's counters, memo rows and
        Labeling-3 marks and returns ``tau(o_i)``, matching
        ``_exact_score`` bit-for-bit.  Through the resident memo
        (:meth:`_memo_scores`), only candidates it holds no score record
        of are scored."""
        if self.score_key is None:
            scored = self._score(oids)
            records = [(scored, slot) for slot in range(len(oids))]
        else:
            records = self._memo_scores(oids)
        self.scored += len(oids)
        self.entries += sum(scored.totals[slot][0] for scored, slot in records)
        return [
            partial(self._settle, oid, scored, slot)
            for oid, (scored, slot) in zip(oids, records)
        ]

    def _memo_scores(self, oids: List[int]) -> List[Tuple]:
        """Each candidate's score record, ``(block scores, slot)``, from
        the resident memo under ``score_key``.  The candidates no query
        has recorded under that key (under a labeler: every candidate)
        are scored here as one block, and their records stored."""
        resident = self.large_grid.tables.memo
        seeds, r, labels, method = self.score_key
        stored = resident.scores
        if stored is None or not (
            stored[0] is seeds
            and stored[1] == r
            and stored[2] is labels
            and stored[3] is method
        ):
            stored = (seeds, r, labels, method, {})
        known = stored[4]
        if self.labeler is None:
            misses = [oid for oid in oids if oid not in known]
        else:
            misses = oids
        if misses:
            scored = self._score(misses)
            known = dict(known)
            known.update((oid, (scored, slot)) for slot, oid in enumerate(misses))
            resident.scores = (seeds, r, labels, method, known)
        return [known[oid] for oid in oids]

    def _score(self, oids: List[int]) -> "_BlockScores":
        """Score ``oids`` as one block, with no effect on the query."""
        count = len(oids)
        oid_array = np.array(oids, dtype=np.int64)
        confirmed = self._seeded(oid_array)
        bounds = self.tables["group_bounds"]
        group_starts = bounds.take(oid_array)
        group_counts = bounds.take(oid_array + 1) - group_starts
        group_index = _ragged_arange(group_starts, group_counts)
        groups = len(group_index)
        # Per group: entries, posting checks, distance rows, points skipped.
        work = np.zeros((groups, 4), dtype=np.int64)
        visited = np.ones(groups, dtype=bool)
        if not groups:
            return _BlockScores(
                confirmed.sum(axis=1) - 1, group_counts, group_index, visited, work
            )

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
        if self.verify_masks is not None:
            flat, starts = self._masks(oid_array)
            keep = flat.take(
                starts.take(group_candidate.take(point_group)) + point_index
            )
            point_rows = point_rows[keep]
            point_group = point_group[keep]
            point_index = point_index[keep]
            work[:, 3] = sizes - np.bincount(point_group, minlength=groups)
            # The reference memoizes the union of each group it visits a
            # point of.
            visited = work[:, 3] < sizes
        coords = grid.seg_coords.take(point_rows, axis=0)

        col_seg, col_bounds = self._columns(rows)
        col_owner = grid.seg_oid.take(col_seg)
        if count > 1:
            # Owner keys: candidate ``c``'s object ``o`` is ``c * n + o``.
            col_owner += self.key_base.take(group_candidate).repeat(
                col_bounds[1:] - col_bounds[:-1]
            )
        labeler = self.labeler
        checked_point, checked_col, skippable, live_cols = first_hit_scan(
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
        # Entries: each visited point against its group's pending columns.
        work[:, 0] = live_cols * (sizes - work[:, 3])
        unit = point_group.take(checked_point)
        work[:, 1] = np.bincount(unit, minlength=groups)
        work[:, 2] = np.bincount(
            unit, weights=seg_lengths.take(col_seg.take(checked_col)), minlength=groups
        )
        marks = None
        if labeler is not None:
            point_bounds = point_group.searchsorted(np.arange(groups + 1)).tolist()
            marks = (point_index, skippable, point_bounds)
        return _BlockScores(
            confirmed.sum(axis=1) - 1, group_counts, rows, visited, work, marks
        )

    def _settle(self, oid: int, scored: "_BlockScores", slot: int) -> int:
        """Apply the effects of candidate ``slot`` of ``scored`` to this
        query and return its score: in bulk, or under a deadline group
        by group behind each group's ``checkpoint``, as the reference
        walks."""
        counters = self.counters
        memo = self.memo
        labeler = self.labeler
        low, high = scored.bounds[slot], scored.bounds[slot + 1]
        deadline = self.deadline
        if deadline is None:
            _, checks, distance_rows, skipped = scored.totals[slot]
            counters.posting_checks += checks
            counters.distance_rows += distance_rows
            counters.points_skipped += skipped
            if memo is not None:
                memo[scored.rows[low:high][scored.visited[low:high]]] = True
            if labeler is not None:
                labeler.mark_verify_skippable(oid, scored.skippable(low, high))
            return scored.scores[slot]
        rows = scored.rows[low:high].tolist()
        visited = scored.visited[low:high].tolist()
        work = scored.work[low:high].tolist()
        for group in range(high - low):
            checkpoint(deadline, "verification")
            _, checks, distance_rows, skipped = work[group]
            counters.points_skipped += skipped
            if not visited[group]:
                continue
            if memo is not None:
                memo[rows[group]] = True
            counters.posting_checks += checks
            counters.distance_rows += distance_rows
            if labeler is not None:
                own = low + group
                labeler.mark_verify_skippable(oid, scored.skippable(own, own + 1))
        return scored.scores[slot]


class _BlockScores:
    """One scored block: what each of its candidates' settles applies.

    Candidate ``slot`` scores ``scores[slot]``; its groups are
    ``bounds[slot]:bounds[slot + 1]``, each with its adjacency row
    (``rows``) and whether it has an unmasked point (``visited``).
    ``work[g]`` and ``totals[slot]`` are ``[entries, posting_checks,
    distance_rows, points_skipped]`` of a group and of a candidate;
    ``work`` stays an array, read per group only by a settle under a
    deadline.  ``marks`` holds the Labeling-3 inputs ``(point_index,
    skippable, point_bounds)`` if a labeler was armed, else None.  Never
    written after it is built, so a resident memo's score records share
    it.
    """

    __slots__ = ("scores", "bounds", "rows", "visited", "work", "totals", "marks")

    def __init__(self, scores, group_counts, rows, visited, work, marks=None):
        counts = group_counts.tolist()
        bounds = [0, *accumulate(counts)]
        if len(work) and 0 not in counts:
            totals = np.add.reduceat(work, bounds[:-1]).tolist()
        else:
            totals = [
                work[low:high].sum(axis=0).tolist()
                for low, high in zip(bounds, bounds[1:])
            ]
        self.scores = scores.tolist()
        self.bounds = bounds
        self.rows = rows
        self.visited = visited
        self.work = work
        self.totals = totals
        self.marks = marks

    def skippable(self, low: int, high: int) -> np.ndarray:
        """The Labeling-3 skippable points of groups ``low:high``."""
        point_index, skippable, point_bounds = self.marks
        first, last = point_bounds[low], point_bounds[high]
        return point_index[first:last][skippable[first:last]]


#: The :class:`PointLabels` mask methods a verifier reads as one flat
#: mask: each one's ``flat_mask`` bits.
_FLAT_MASKS = {
    PointLabels.upper_mask: GRID_BIT | UPPER_BIT,
    PointLabels.verify_mask: GRID_BIT | VERIFY_BIT,
}

#: The shared vectorized instance.
NUMPY_KERNEL = NumpyKernel()
