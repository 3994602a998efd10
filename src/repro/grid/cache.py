"""The session's resident-grid tier: built BIGrids kept per exact ``r``.

A BIGrid (Algorithm 3) is a pure function of the collection, the exact
threshold ``r`` (small width ``r / sqrt(d)``, large width ``ceil(r)``),
the bitset backend and the label filter of grid mapping (Lemma 3).  A
warm session that repeats an ``r`` under the same labels would rebuild
the identical index, so :class:`ResidentGridCache` keeps the built grid
instead -- the "build once, serve many queries" half of Section III-D's
reuse argument.

An entry holds the grid, the resolved bitset backend it was built with
and the :class:`~repro.core.labels.PointLabels` object whose filter it
was built under (a strong reference: identity is the validity check).
:meth:`ResidentGridCache.get` returns the grid only for the same ``r``
and backend, the same collection, and ``labels is entry.labels``; any
other entry for that ``r`` is stale and dropped.  There is one entry per
``r``, and an LRU cap bounds the tier.

Resident grids are *never queried directly*.  Each query takes a view
(:meth:`~repro.kernels.base.KernelBackend.grid_view`) that shares the
grid's immutable arrays and its lazily computed pure tables while owning
its per-query state, so answers, counters and ``memory_bytes`` equal a
fresh build's, and concurrent queries sharing one entry cannot disturb
each other.  The first view also gives the grid a memo of what its
queries compute but cannot change (the numpy kernel's upper-bounding
pass, skip bounds, score records and encoded row sizes): later views
replay it with the same effects on their own state, except that a query
arming a labeler fills it without reading it.  The memo lives and dies
with its entry under this tier's LRU.  The pipeline stores a grid only
once its build completed and only when the kernel can view it.  A
labeling query's grid is stored under no labels: the repeats of its
threshold run label-free on it (:class:`~repro.core.pipeline.
LabelInputStage` routes them without a lookup here, so each query counts
one hit or miss).

Like every session tier the cache is positional (object ids) and must be
cleared whenever the collection changes; :class:`~repro.session.
QuerySession` owns that lifecycle.  It is thread-safe: the concurrent
query service shares one instance across worker threads, and a lock
guards the entries and the counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Tuple

from repro.obs.recorders import observe_cache, observe_cache_invalidation

#: The tier's label in ``repro_cache_requests_total`` and
#: ``repro_cache_invalidations_total``.
TIER = "grids"


class ResidentGridCache:
    """Per-exact-``r`` LRU of built BIGrids, validated by label identity.

    ``hits`` counts queries that took a view of a resident grid and
    ``misses`` queries that built one (stats keys ``grid_key_cache_hits``
    and ``grid_key_cache_misses``, names kept from the large-key cache
    this tier replaced).
    """

    __slots__ = ("max_entries", "_entries", "_lock", "hits", "misses")

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        #: ``r -> (grid, backend, labels)`` in LRU order.
        self._entries: "OrderedDict[float, Tuple[object, str, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, collection, r: float, backend: str, labels):
        """The resident grid for this query, or None (the query builds)."""
        grid = None
        with self._lock:
            entry = self._entries.get(r)
            if entry is not None:
                if (
                    entry[2] is labels
                    and entry[1] == backend
                    and entry[0].collection is collection
                ):
                    grid = entry[0]
                    self._entries.move_to_end(r)
                else:
                    # Built under other labels or for another snapshot (a
                    # label-free query still running on the previous
                    # snapshot may store after an invalidation): never
                    # valid again, so it does not stay beside the new grid.
                    del self._entries[r]
            if grid is None:
                self.misses += 1
            else:
                self.hits += 1
        observe_cache(TIER, hit=grid is not None)
        return grid

    def put(self, r: float, backend: str, labels, grid) -> None:
        """Keep a completely built grid for later queries of this ``r``."""
        with self._lock:
            self._entries[r] = (grid, backend, labels)
            self._entries.move_to_end(r)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every resident grid (required on any collection mutation)."""
        observe_cache_invalidation(TIER)
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        return {"grid_key_cache_hits": self.hits, "grid_key_cache_misses": self.misses}

