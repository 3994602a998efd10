"""Dynamic object collections: insert/remove between queries.

The paper assumes a static, memory-resident collection (Section II-A),
which matches its simulation workloads; production trajectory stores
grow.  :class:`DynamicMIO` wraps the static machinery with the minimal
bookkeeping that keeps every paper guarantee intact:

* objects get stable external handles, independent of the dense internal
  ids the bitsets use;
* every mutation invalidates the compiled collection and the label store
  (labels are positional, so reusing them across a re-compaction would be
  unsound — this is the cracking-style trade-off the related work
  discusses: reuse helps only while the data holds still);
* queries lazily re-compact and then run the unmodified exact engine --
  and therefore the shared phase orchestrator
  (:data:`~repro.core.pipeline.SERIAL_PIPELINE`) every other variant
  uses -- so answers are always exact for the current contents.

This is deliberately a thin adoption layer, not an incremental index:
maintaining BIGrid incrementally is pointless because the index is built
per query anyway (Appendix A); what must be dynamic is the collection
and the label-reuse lifecycle.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.objects import ObjectCollection
from repro.core.query import MIOResult
from repro.obs import metrics as obs_metrics


class DynamicMIO:
    """An updatable collection with exact MIO queries.

    Handles returned by :meth:`add_object` are stable across removals;
    query results are translated back to handles.  A lock orders
    mutations and snapshots, so a snapshot taken while another thread
    mutates is one whole version, and :meth:`versioned_snapshot` names
    that version.
    """

    def __init__(self, backend: str = "ewah", use_labels: bool = True) -> None:
        self.backend = backend
        self.use_labels = use_labels
        self._points: Dict[int, np.ndarray] = {}
        self._timestamps: Dict[int, Optional[np.ndarray]] = {}
        self._next_handle = 0
        self._engine: Optional[MIOEngine] = None
        self._handle_of_position: List[int] = []
        #: Monotone mutation counter.  Sessions watch it to drop *their own*
        #: positional caches (labels, grid keys, lower bounds) on mutation:
        #: after a remove+add of same-shaped objects the re-compacted
        #: collection can alias positions, so shape checks alone
        #: (``labels_match_collection``) cannot detect the staleness.
        self.version = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_object(
        self, points: np.ndarray, timestamps: Optional[np.ndarray] = None
    ) -> int:
        """Insert an object; returns its stable handle."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("an object must be a non-empty (m, d) array")
        if timestamps is not None:
            timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._points[handle] = points
            self._timestamps[handle] = timestamps
            self._invalidate()
        obs_metrics.counter(
            "repro_mutations_total", "DynamicMIO collection mutations"
        ).inc(op="add")
        return handle

    def remove_object(self, handle: int) -> None:
        """Remove an object by handle; raises ``KeyError`` if absent."""
        with self._lock:
            del self._points[handle]
            del self._timestamps[handle]
            self._invalidate()
        obs_metrics.counter(
            "repro_mutations_total", "DynamicMIO collection mutations"
        ).inc(op="remove")

    def _invalidate(self) -> None:
        # Labels are positional; any mutation makes stored labels unsound.
        self._engine = None
        self._handle_of_position = []
        self.version += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._points)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, handle: int) -> bool:
        return handle in self._points

    def get_points(self, handle: int) -> np.ndarray:
        return self._points[handle]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def snapshot(self) -> Tuple[ObjectCollection, List[int]]:
        """The current contents compiled to a static collection.

        Returns ``(collection, handle_of_position)``; positions in the
        collection map back to stable handles through the second element.
        Sessions pair it with its version (:meth:`versioned_snapshot`) to
        know when a snapshot (and every positional cache derived from it)
        has gone stale.
        """
        collection, handles, _ = self.versioned_snapshot()
        return collection, handles

    def versioned_snapshot(self) -> Tuple[ObjectCollection, List[int], int]:
        """:meth:`snapshot` plus the :attr:`version` it compiles."""
        with self._lock:
            if len(self._points) < 2:
                raise ValueError("MIO queries need at least two objects")
            handles = sorted(self._points)
            arrays = [self._points[handle] for handle in handles]
            version = self.version
        return ObjectCollection.from_point_arrays(arrays), handles, version

    def _compile(self) -> MIOEngine:
        if self._engine is None:
            collection, handles = self.snapshot()
            self._handle_of_position = handles
            store = LabelStore() if self.use_labels else None
            self._engine = MIOEngine(collection, backend=self.backend, label_store=store)
        return self._engine

    def query(self, r: float) -> Tuple[int, MIOResult]:
        """Exact MIO over the current contents: ``(winner_handle, result)``.

        Repeated queries between mutations share one compiled collection
        and one label store, so same-ceiling sweeps get the Section III-D
        speedup automatically; any mutation resets both.
        """
        engine = self._compile()
        result = engine.query(r)
        return self._handle_of_position[result.winner], result

    def query_topk(self, r: float, k: int) -> List[Tuple[int, int]]:
        """Top-k as ``(handle, score)`` pairs, best first."""
        engine = self._compile()
        result = engine.query_topk(r, k)
        return [
            (self._handle_of_position[oid], score) for oid, score in result.topk
        ]
