"""Lower-bounding (Algorithm 4, Lemma 1).

Two points in the same small-grid cell are certainly within ``r`` (the cell
diagonal is ``r``), so OR-ing the bitsets of every small cell in ``o_i.L``
yields a set of objects guaranteed to interact with ``o_i``; its cardinality
minus one (for ``o_i``'s own bit) lower-bounds ``tau(o_i)``.  No distance is
computed.

``o_i.L`` only lists cells shared by at least two objects -- single-object
cells cannot contribute to the bound, and Algorithm 3 never put them in the
key lists -- so objects in sparse space touch no cell at all here.

The unions themselves are kept (:class:`UnionSeeds`): every verification
starts a candidate's confirmed set from its union, so the objects lower
bounding already proved are never distance-checked again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.query import PhaseStats
from repro.grid.bigrid import BIGrid
from repro.obs.recorders import observe_cache, observe_cache_invalidation
from repro.resilience import Deadline, checkpoint


class UnionSeeds:
    """Every object's lower-bounding union ``b(o_i)``, bit ``i`` included.

    Its members certainly interact with ``o_i`` (Lemma 1), so
    verification starts each candidate's confirmed set from it and
    distance-checks only the rest.  A kernel keeps the unions in the
    form it computed them in; both forms answer the same reads:

    * :meth:`to_int` -- one object's union as a big int (0 for an object
      that shares no small cell), for the per-candidate reference walk;
    * :meth:`confirmed` -- a block of objects' unions as a ``(B, n)``
      bool matrix, for the batched scorer.

    Seeds are immutable once computed, so a cached result's seeds serve
    every later hit as they are.
    """

    __slots__ = ()

    def __len__(self) -> int:
        raise NotImplementedError

    def to_int(self, oid: int) -> int:
        raise NotImplementedError

    def confirmed(self, oids: np.ndarray, n: int) -> np.ndarray:
        """A fresh ``(len(oids), n)`` bool matrix: row ``j`` holds the union
        of ``oids[j]``."""
        width = (n + 7) // 8
        rows = b"".join(
            self.to_int(oid).to_bytes(width, "little") for oid in oids.tolist()
        )
        packed = np.frombuffer(rows, dtype=np.uint8).reshape(len(oids), width)
        return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


class IntSeeds(UnionSeeds):
    """Unions held as one big int per object (the reference kernel's form)."""

    __slots__ = ("ints",)

    def __init__(self, ints: List[int]) -> None:
        self.ints = ints

    def __len__(self) -> int:
        return len(self.ints)

    def to_int(self, oid: int) -> int:
        return self.ints[oid]


class PackedSeeds(UnionSeeds):
    """Unions held as packed rows: ``rows`` is a ``(m, words)`` uint64
    matrix (word ``w`` holds bits ``64w..64w+63``) and ``index[oid]`` is
    the row of ``oid``'s union, or -1 for an object that shares no small
    cell.  :meth:`confirmed` gathers a block's rows and unpacks them in
    one call each; no per-object big int or bitset is built."""

    __slots__ = ("rows", "index")

    def __init__(self, rows: np.ndarray, index: np.ndarray) -> None:
        self.rows = rows
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def to_int(self, oid: int) -> int:
        row = int(self.index[oid])
        if row < 0:
            return 0
        return int.from_bytes(
            self.rows[row].astype("<u8", copy=False).tobytes(), "little"
        )

    def confirmed(self, oids: np.ndarray, n: int) -> np.ndarray:
        index = self.index.take(oids)
        present = index >= 0
        if present.all():
            words = self.rows.take(index, axis=0)
        else:
            words = np.zeros((len(oids), self.rows.shape[1]), dtype=np.uint64)
            words[present] = self.rows.take(index[present], axis=0)
        return np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8),
            axis=1,
            count=n,
            bitorder="little",
        ).view(bool)


@dataclass
class LowerBoundResult:
    """Per-object lower bounds, their maximum ``tau_max_low`` and the
    unions behind them."""

    values: List[int]
    tau_max: int
    #: The union ``b(o_i)`` of every object, which seeds verification.
    seeds: UnionSeeds
    #: Which implementation produced the bounds (``reference``, or a
    #: kernel-specific label such as ``numpy-seq`` / ``numpy-reduceat``).
    #: Purely observational -- every path is bit-identical.
    path: str = "reference"


class LowerBoundCache:
    """Per-exact-``r`` cache of complete lower-bounding results.

    The small grid's cell width is a function of the *exact* threshold
    (``r / sqrt(d)``), so unlike labels and large-grid keys this state can
    only be reused when a later query repeats the same ``r`` -- the common
    case in monitoring workloads that poll a fixed threshold.  Reuse is
    sound across label-free and with-label runs of the same collection
    because Labeling-1 points never enter any shared small cell (Lemma 3:
    their large-cell neighborhood holds no other object, hence neither does
    any contained small cell), leaving every key-list union unchanged.

    An entry keeps the result's :class:`UnionSeeds` as computed (packed
    rows or big ints, never bitsets of one backend), and a hit returns
    that same object: seeds are immutable, and a mid-session backend
    degradation cannot poison them.  Entries are complete results only:
    the engine stores after lower bounding returns, never on a timeout.
    An LRU cap bounds memory across long threshold sweeps.

    The cache is thread-safe: the concurrent query service shares one
    instance across worker threads.  The LRU order mutates on every
    lookup (``move_to_end``), so reads lock too.
    """

    __slots__ = ("max_entries", "_entries", "_lock", "hits", "misses")

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        #: ``r -> (values, tau_max, seeds, path)`` in LRU order.
        self._entries: "OrderedDict[float, tuple]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, r: float) -> Optional[LowerBoundResult]:
        with self._lock:
            entry = self._entries.get(r)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(r)
        if entry is None:
            observe_cache("lower_bounds", hit=False)
            return None
        observe_cache("lower_bounds", hit=True)
        values, tau_max, seeds, path = entry
        return LowerBoundResult(
            values=list(values),
            tau_max=tau_max,
            seeds=seeds,
            # A hit reports the implementation that produced the entry.
            path=path,
        )

    def put(self, r: float, result: LowerBoundResult) -> None:
        with self._lock:
            self._entries[r] = (
                list(result.values), result.tau_max, result.seeds, result.path
            )
            self._entries.move_to_end(r)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        observe_cache_invalidation("lower_bounds")
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        return {"lower_cache_hits": self.hits, "lower_cache_misses": self.misses}


def compute_lower_bounds(
    bigrid: BIGrid,
    stats: Optional[PhaseStats] = None,
    deadline: Optional[Deadline] = None,
) -> LowerBoundResult:
    """LOWER-BOUNDING(O, r): one bitwise-OR pass over the key lists.

    The unions are kept as big ints (:class:`IntSeeds`) to seed
    verification.  An expired ``deadline`` raises ``QueryTimeout``
    between objects (bounds for a prefix of the collection prune nothing
    soundly on their own).
    """
    small_grid = bigrid.small_grid
    values: List[int] = []
    unions: List[int] = []
    tau_max = 0
    or_operations = 0

    cells = small_grid.cells
    for oid in range(bigrid.collection.n):
        checkpoint(deadline, "lower_bounding")
        keys = bigrid.key_lists[oid]
        # The ORs run on the cells' cached big-int forms (C-speed word ops,
        # the Python analogue of EWAH's word-aligned merge).
        union = 0
        for key in keys:
            union |= cells[key].bitset.to_int()
            or_operations += 1
        cardinality = union.bit_count()
        # The object's own bit is set whenever the union is non-empty.
        lower = cardinality - 1 if cardinality else 0
        values.append(lower)
        if lower > tau_max:
            tau_max = lower
        unions.append(union)

    if stats is not None:
        stats.set_count("lower_or_operations", or_operations)
        stats.set_count("tau_max_low", tau_max)
    return LowerBoundResult(values=values, tau_max=tau_max, seeds=IntSeeds(unions))
