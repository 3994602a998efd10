"""Lower-bounding (Algorithm 4, Lemma 1).

Two points in the same small-grid cell are certainly within ``r`` (the cell
diagonal is ``r``), so OR-ing the bitsets of every small cell in ``o_i.L``
yields a set of objects guaranteed to interact with ``o_i``; its cardinality
minus one (for ``o_i``'s own bit) lower-bounds ``tau(o_i)``.  No distance is
computed.

``o_i.L`` only lists cells shared by at least two objects -- single-object
cells cannot contribute to the bound, and Algorithm 3 never put them in the
key lists -- so objects in sparse space touch no cell at all here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.bitset.base import Bitset
from repro.core.query import PhaseStats
from repro.grid.bigrid import BIGrid
from repro.obs.recorders import observe_cache, observe_cache_invalidation
from repro.resilience import Deadline, checkpoint


@dataclass
class LowerBoundResult:
    """Per-object lower bounds and their maximum ``tau_max_low``."""

    values: List[int]
    tau_max: int
    #: The union bitsets ``b(o_i)`` (bit ``i`` included), kept only when the
    #: caller needs them to seed verification in with-label mode.  On a
    #: cache hit, a :class:`CachedSeeds` that builds each on first read.
    bitsets: Optional[Sequence]
    #: Which implementation produced the bounds (``reference``, or a
    #: kernel-specific label such as ``numpy-seq`` / ``numpy-reduceat``).
    #: Purely observational -- every path is bit-identical.
    path: str = "reference"


class CachedSeeds(Sequence):
    """A cache hit's union bitsets, each built on its first read.

    ``seeds[oid]`` is what the miss computed for ``oid`` (None for an
    empty union), rebuilt from the entry's big int with the querying
    backend's class.  Verification reads the seeds of the candidates it
    bounds or scores only, so the other objects' bitsets are never built.
    One instance serves one query.
    """

    __slots__ = ("_ints", "_bitset_cls", "_built")

    def __init__(self, bitset_ints: List[int], bitset_cls: Type[Bitset]) -> None:
        self._ints = bitset_ints
        self._bitset_cls = bitset_cls
        self._built: Dict[int, Optional[Bitset]] = {}

    def __len__(self) -> int:
        return len(self._ints)

    def __getitem__(self, oid: int) -> Optional[Bitset]:
        try:
            return self._built[oid]
        except KeyError:
            value = self._ints[oid]
            bitset = self._bitset_cls.from_int(value) if value else None
            self._built[oid] = bitset
            return bitset


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

    Bitsets are stored as backend-agnostic big ints and rebuilt with the
    querying backend's class, so a mid-session backend degradation cannot
    poison the cache.  A hit rebuilds only the seeds verification reads
    (:class:`CachedSeeds`): one per candidate it bounds or scores, not
    one per object.  Entries are complete results only: the engine stores
    after ``compute_lower_bounds`` returns, never on a timeout.  An LRU cap
    bounds memory across long threshold sweeps.

    The cache is thread-safe: the concurrent query service shares one
    instance across worker threads.  The LRU order mutates on every
    lookup (``move_to_end``), so reads lock too; the per-object bitset
    rebuild happens outside the lock on an immutable entry tuple.
    """

    __slots__ = ("max_entries", "_entries", "_lock", "hits", "misses")

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        #: ``r -> (values, tau_max, bitset_ints, path)`` in LRU order.
        self._entries: "OrderedDict[float, tuple]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, r: float, bitset_cls: Type[Bitset]) -> Optional[LowerBoundResult]:
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
        values, tau_max, bitset_ints, path = entry
        return LowerBoundResult(
            values=list(values),
            tau_max=tau_max,
            bitsets=CachedSeeds(bitset_ints, bitset_cls),
            # A hit reports the implementation that produced the entry.
            path=path,
        )

    def put(self, r: float, result: LowerBoundResult) -> None:
        if result.bitsets is None:
            # Without the union bitsets a cached entry could not seed
            # verification; only complete keep-bitsets results are stored.
            return
        bitset_ints = [
            bitset.to_int() if bitset is not None else 0 for bitset in result.bitsets
        ]
        with self._lock:
            self._entries[r] = (
                list(result.values), result.tau_max, bitset_ints, result.path
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
    keep_bitsets: bool = False,
    stats: Optional[PhaseStats] = None,
    deadline: Optional[Deadline] = None,
) -> LowerBoundResult:
    """LOWER-BOUNDING(O, r): one bitwise-OR pass over the key lists.

    An expired ``deadline`` raises ``QueryTimeout`` between objects (bounds
    for a prefix of the collection prune nothing soundly on their own).
    """
    small_grid = bigrid.small_grid
    bitset_cls = small_grid.bitset_cls
    values: List[int] = []
    bitsets: Optional[List[Optional[Bitset]]] = [] if keep_bitsets else None
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
        if bitsets is not None:
            bitsets.append(bitset_cls.from_int(union) if cardinality else None)

    if stats is not None:
        stats.set_count("lower_or_operations", or_operations)
        stats.set_count("tau_max_low", tau_max)
    return LowerBoundResult(values=values, tau_max=tau_max, bitsets=bitsets)
