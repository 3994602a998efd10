"""Cross-query grid state caches.

The large grid (Definition 3) is a pure function of ``ceil(r)``: its cell
width is ``ceil(r)`` (float-guarded, see :mod:`repro.grid.keys`), so the
mapping from every point to its large-grid cell key is *identical* for all
thresholds sharing one ceiling.  A single query still has to hash every
point into that grid, but across a batched workload the key computation --
``floor(point / width)`` over all ``nm`` points -- is repeated work that a
session can cache once per ceiling.

:class:`LargeKeyCache` holds, per ``(ceil(r), oid)``, the full per-point
large-grid key rows of one object -- one read-only ``int64 (points, d)``
array -- and hands :meth:`provider` callables to the kernels' grid
mapping.  A with-label query maps only a filtered subset of points; the
provider therefore returns the cached rows of the surviving point
indices, which keeps one cache entry valid for label-free and with-label
runs alike.  The numpy build consumes the rows as they are; the
reference build turns them into key tuples.

The cache is keyed by *position* (object ids), exactly like point labels;
it must be cleared whenever the collection changes.  :class:`~repro.session.
QuerySession` owns that lifecycle.

The cache is thread-safe: the concurrent query service shares one
instance across worker threads.  Dictionary accesses are guarded by a
lock, while ``compute_keys`` runs outside it -- two threads missing the
same ``(ceil_r, oid)`` may both compute the entry, but the computation is
deterministic, so last-write-wins is harmless.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.objects import ObjectCollection
from repro.grid.keys import key_rows, large_cell_width
from repro.obs.recorders import cache_request_counter, observe_cache_invalidation

#: ``provider(oid, selected_indices) -> key rows`` for the selected points.
LargeKeysProvider = Callable[[int, np.ndarray], np.ndarray]


class LargeKeyCache:
    """Per-``ceil(r)`` cache of every object's large-grid cell keys."""

    __slots__ = ("_keys", "_lock", "hits", "misses")

    def __init__(self) -> None:
        #: ``(ceil_r, oid) -> per-point key rows`` (all points of the object).
        self._keys: Dict[Tuple[int, int], np.ndarray] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def provider(
        self, collection: ObjectCollection, ceil_r: int
    ) -> LargeKeysProvider:
        """A ``BIGrid.build``-compatible key provider for one ceiling.

        ``large_cell_width`` depends only on ``ceil(r)``, so computing it
        from the ceiling itself yields the exact width every ``r`` in the
        bucket uses.
        """
        width = large_cell_width(float(ceil_r))
        # Bound registry counters: the per-object hot path below pays one
        # dict-slot float add per lookup, not a metric-name resolution.
        hit_metric = cache_request_counter("grid_keys", hit=True)
        miss_metric = cache_request_counter("grid_keys", hit=False)

        def provide(oid: int, indices: np.ndarray) -> np.ndarray:
            with self._lock:
                entry = self._keys.get((ceil_r, oid))
            if entry is None:
                # Computed outside the lock: a concurrent miss on the same
                # key recomputes the identical deterministic entry.
                entry = key_rows(collection[oid].points, width)
                # Shared by every later query of this ceiling.
                entry.flags.writeable = False
                with self._lock:
                    self.misses += 1
                    self._keys[(ceil_r, oid)] = entry
                miss_metric.inc()
            else:
                with self._lock:
                    self.hits += 1
                hit_metric.inc()
            if len(indices) == len(entry):
                return entry
            return entry[indices]

        return provide

    def __len__(self) -> int:
        return len(self._keys)

    def clear(self) -> None:
        """Drop all cached keys (required on any collection mutation)."""
        observe_cache_invalidation("grid_keys")
        with self._lock:
            self._keys.clear()

    def counters(self) -> Dict[str, int]:
        return {"grid_key_cache_hits": self.hits, "grid_key_cache_misses": self.misses}
