"""Point labels (Definition 4) and the persistent label store (Section III-D).

Each point carries three bits, initialized to ``111``:

* bit 2 (``GRID``, "Labeling-1"):  cleared when the point's large-grid cell
  has ``|b_adj| == 1`` -- no other object anywhere near, so the point can be
  skipped even during grid mapping (Lemma 3).
* bit 1 (``UPPER``, "Labeling-2"): cleared when OR-ing the point's
  ``b_adj`` into ``b(o_i)`` during upper-bounding changed nothing.
* bit 0 (``VERIFY``, "Labeling-3"): cleared when, during verification,
  ``b_adj(c_K) - b(o_i)`` was already empty at this point's turn.

Labels produced by a query with threshold ``r`` apply to any future query
``r'`` with ``ceil(r') == ceil(r)`` because the large grid is identical for
all such thresholds.  Our correctness analysis (DESIGN.md §3) shows
Labeling-1/2 reuse is exact for every such ``r'``, and Labeling-3 reuse is
exact when ``r' == r`` but may under-count for ``r' != r``; the store
therefore records the generating ``r`` and the engine's default
``label_reuse="safe"`` mode applies Labeling-3 only on an exact match
(``label_reuse="paper"`` reproduces the paper's behaviour verbatim).

The paper keeps labels in external memory ("labels should be resident in
external memory"); :class:`LabelStore` persists them as one ``.npz`` file
per ``ceil(r)`` and the engine reports the load time as the "Label-Input"
row of Table II.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.errors import CorruptDataError

from repro.core.objects import ObjectCollection
from repro.obs.recorders import observe_cache, observe_cache_invalidation

#: Bit masks within a label byte.
GRID_BIT = 0b100
UPPER_BIT = 0b010
VERIFY_BIT = 0b001
ALL_BITS = GRID_BIT | UPPER_BIT | VERIFY_BIT


class PointLabels:
    """Per-point three-bit labels for one ``ceil(r)`` bucket.

    Every label lives in one flat ``uint8`` buffer, object after object;
    ``arrays[oid]`` is a view of object ``oid``'s slice, starting at flat
    index ``offsets[oid]``.  Per-object marks and bulk :meth:`clear_flat`
    writes therefore land in the same storage.
    """

    __slots__ = ("r", "arrays", "offsets", "_flat")

    def __init__(self, point_counts: Sequence[int], r: float) -> None:
        counts = np.asarray(point_counts, dtype=np.int64)
        self._adopt(np.full(int(counts.sum()), ALL_BITS, dtype=np.uint8), counts, r)

    @classmethod
    def for_collection(cls, collection: ObjectCollection, r: float) -> "PointLabels":
        return cls(collection.point_counts, r)

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray], r: float) -> "PointLabels":
        """Labels holding a copy of per-object label arrays (a store load)."""
        labels = cls.__new__(cls)
        counts = np.asarray([len(array) for array in arrays], dtype=np.int64)
        flat = (
            np.concatenate(arrays).astype(np.uint8, copy=False)
            if len(arrays)
            else np.empty(0, dtype=np.uint8)
        )
        labels._adopt(flat, counts, r)
        return labels

    def _adopt(self, flat: np.ndarray, counts: np.ndarray, r: float) -> None:
        self.r = float(r)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.offsets = offsets
        self._flat = flat
        bounds = offsets.tolist()
        self.arrays = [
            flat[bounds[oid] : bounds[oid + 1]] for oid in range(len(counts))
        ]

    # ------------------------------------------------------------------
    # Labeling (clearing bits during a labeling run)
    # ------------------------------------------------------------------

    def mark_grid_useless(self, oid: int, point_indices: Iterable[int]) -> None:
        """Labeling-1: ``label(p) = 0**``."""
        self.arrays[oid][list(point_indices)] &= ~GRID_BIT & 0xFF

    def mark_upper_skippable(self, oid: int, point_indices: Iterable[int]) -> None:
        """Labeling-2: ``label(p) = 10*`` (second bit cleared)."""
        self.arrays[oid][list(point_indices)] &= ~UPPER_BIT & 0xFF

    def mark_verify_skippable(self, oid: int, point_indices: Iterable[int]) -> None:
        """Labeling-3: ``label(p) = 1*0`` (third bit cleared)."""
        self.arrays[oid][list(point_indices)] &= ~VERIFY_BIT & 0xFF

    def clear_flat(self, bit: int, flat_indices: np.ndarray) -> None:
        """Clear ``bit`` on many points of any objects at once.

        ``flat_indices`` index the flat buffer: point ``p`` of object
        ``oid`` is ``offsets[oid] + p``.  The bulk form of the three
        ``mark_*`` methods, for kernels that label whole phases at once.
        """
        self._flat[flat_indices] &= ~bit & 0xFF

    # ------------------------------------------------------------------
    # Masks (which points to process during a with-label run)
    # ------------------------------------------------------------------

    def grid_mask(self, oid: int) -> np.ndarray:
        """Points to map into the BIGrid: first bit set."""
        return (self.arrays[oid] & GRID_BIT) != 0

    def upper_mask(self, oid: int) -> np.ndarray:
        """Points to process in upper-bounding: ``label(p) = 11*``."""
        wanted = GRID_BIT | UPPER_BIT
        return (self.arrays[oid] & wanted) == wanted

    def verify_mask(self, oid: int) -> np.ndarray:
        """Points to process in verification: ``label(p) = 1*1``."""
        wanted = GRID_BIT | VERIFY_BIT
        return (self.arrays[oid] & wanted) == wanted

    def flat_mask(self, wanted: int) -> np.ndarray:
        """Every object's mask at once: the points whose label has every
        bit of ``wanted`` set, over the flat buffer (object ``oid``'s at
        ``offsets[oid]:offsets[oid + 1]``).  ``flat_mask(GRID_BIT)``
        concatenates :meth:`grid_mask` and ``flat_mask(GRID_BIT |
        UPPER_BIT)`` :meth:`upper_mask` over all objects, in one compare."""
        return (self._flat & wanted) == wanted

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def count_cleared(self) -> Dict[str, int]:
        """How many points each labeling pruned (reported by experiments)."""
        # One pass: a histogram of the 8 label values, then per bit the
        # sum over the values that have it cleared.
        histogram = np.bincount(self._flat, minlength=ALL_BITS + 1)
        values = np.arange(ALL_BITS + 1)
        return {
            kind: int(histogram[(values & bit) == 0].sum())
            for kind, bit in (
                ("grid", GRID_BIT), ("upper", UPPER_BIT), ("verify", VERIFY_BIT)
            )
        }

    def total_points(self) -> int:
        return len(self._flat)

    def size_in_bytes(self) -> int:
        """One byte per point: the O(nm) label space cost."""
        return self.total_points()


def labels_match_collection(labels: "PointLabels", collection: ObjectCollection) -> bool:
    """Whether label arrays align with the collection's objects and points.

    Labels are positional, so a store from a different (or mutated)
    collection must never be consumed; both engines check this on load.
    One array compare: each object's label count is the step between its
    offsets.
    """
    return np.array_equal(np.diff(labels.offsets), collection.point_counts)


class LabelStore:
    """Persistent label storage keyed by ``ceil(r)``.

    ``directory=None`` keeps labels in memory only, which is convenient for
    tests; with a directory, labels survive process restarts and loading
    them models the O(nm / B) label I/O of the paper.

    The store is thread-safe: the concurrent query service shares one
    instance across worker threads, each query *reading* published
    :class:`PointLabels` (mask lookups) while at most one labeling run
    *publishes* a freshly built object via :meth:`put`.  Published label
    arrays are never mutated in place -- a labeling run writes into its
    own private ``PointLabels`` and publishes it whole -- so readers need
    no lock once :meth:`get` has returned; the store's lock only guards
    the cache dictionary and disk I/O.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._cache: Dict[int, PointLabels] = {}
        self._lock = threading.RLock()
        #: Lookup accounting for session stats: a hit is a :meth:`get` that
        #: found labels (memory or disk), a miss one that found none.
        self.hits = 0
        self.misses = 0

    def _path(self, ceil_r: int) -> Path:
        assert self.directory is not None
        return self.directory / f"labels_ceil_{ceil_r}.npz"

    def has(self, ceil_r: int) -> bool:
        """Whether labels exist for this ``ceil(r)`` (the O(1) hash check)."""
        with self._lock:
            if ceil_r in self._cache:
                return True
        return self.directory is not None and self._path(ceil_r).exists()

    def get(self, ceil_r: int) -> Optional[PointLabels]:
        """Load labels for ``ceil(r)``, or None if no query produced them yet."""
        with self._lock:
            labels = self._load(ceil_r)
            if labels is None:
                self.misses += 1
            else:
                self.hits += 1
        observe_cache("labels", hit=labels is not None)
        return labels

    def peek(self, ceil_r: int) -> Optional[PointLabels]:
        """:meth:`get` without the lookup accounting: for a caller that
        only asks at which ``r`` the ceiling's labels were produced."""
        with self._lock:
            return self._load(ceil_r)

    def _load(self, ceil_r: int) -> Optional[PointLabels]:
        """The ceiling's labels from memory, else from disk into memory."""
        cached = self._cache.get(ceil_r)
        if cached is not None or self.directory is None:
            return cached
        path = self._path(ceil_r)
        if not path.exists():
            return None
        try:
            with np.load(path) as archive:
                count = int(archive["count"])
                labels = PointLabels.from_arrays(
                    [archive[f"o{i}"] for i in range(count)],
                    float(archive["r"]),
                )
        except Exception as exc:
            raise CorruptDataError(
                f"{path}: not a valid label archive ({exc})"
            ) from exc
        self._cache[ceil_r] = labels
        return labels

    def ceilings(self) -> list:
        """Sorted ``ceil(r)`` values with labels available (memory or disk).

        Batch planners use this to decide which ceiling groups still need a
        labeling run; the check itself is the O(1)-per-bucket hash lookup
        the paper assumes for "labels exist?".
        """
        with self._lock:
            available = set(self._cache)
        if self.directory is not None:
            for path in self.directory.glob("labels_ceil_*.npz"):
                try:
                    available.add(int(path.stem.rsplit("_", 1)[1]))
                except ValueError:
                    continue
        return sorted(available)

    def put(self, ceil_r: int, labels: PointLabels) -> None:
        """Persist labels produced by a labeling run (post-processing).

        ``labels`` must not be mutated after publication: concurrent
        readers consume it lock-free (see the class docstring).
        """
        with self._lock:
            self._cache[ceil_r] = labels
            if self.directory is None:
                return
            payload = {f"o{i}": arr for i, arr in enumerate(labels.arrays)}
            payload["r"] = np.float64(labels.r)
            payload["count"] = np.int64(len(labels.arrays))
            np.savez(self._path(ceil_r), **payload)

    def clear(self) -> None:
        """Drop all stored labels (memory and disk)."""
        observe_cache_invalidation("labels")
        with self._lock:
            self._cache.clear()
            if self.directory is not None:
                for path in self.directory.glob("labels_ceil_*.npz"):
                    path.unlink()
