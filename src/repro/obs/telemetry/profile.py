"""Per-query profiles: the bounded in-process store and the JSONL sink.

A *profile* is one flat JSON-friendly dict per finished query -- the
telemetry pipeline's unit of record.  The schema (every field is always
present so downstream aggregation never branches on missing keys):

=================  =====================================================
field              meaning
=================  =====================================================
``trace_id``       correlation id (shared with spans, logs, and the
                   service's response envelopes)
``ts``             unix seconds at capture
``engine``         pipeline label (``serial``/``parallel``/``temporal``/
                   ``session``)
``algorithm``      the result's algorithm name (``bigrid``,
                   ``bigrid-label``, ...)
``r`` / ``k``      the query
``ceil_r``         the label-reuse ceiling
``n``              collection size at query time
``seconds``        end-to-end time (sum of phase times)
``exact``          False for anytime/degraded answers
``sampled``        True when the query carried a full span tree
``phases``         per-phase seconds (Table II decomposition)
``counters``       pruning-funnel and cache counts (small ints)
``notes``          degradation + dispatch notes (``verification_path``,
                   ``lower_bound_path``, ``degraded_*``)
``memory_bytes``   index size
=================  =====================================================

:class:`ProfileStore` keeps the most recent ``capacity`` profiles in a
ring buffer (old entries fall off; totals keep counting), so a running
service can always answer "what did the last N queries look like"
without unbounded memory.  :class:`ProfileSink` appends each profile as
one JSON line to a file and rotates by size, giving ``repro report`` a
durable feed that survives the process.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Dict, List, Optional


class ProfileStore:
    """Bounded ring buffer of recent query profiles (thread-safe)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("profile store capacity must be at least 1")
        self.capacity = capacity
        self._entries: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Lifetime tallies (the ring only keeps the newest ``capacity``).
        self.recorded = 0
        self.sampled = 0
        self.degraded = 0

    def record(self, profile: Dict[str, object]) -> None:
        with self._lock:
            self._entries.append(profile)
            self.recorded += 1
            if profile.get("sampled"):
                self.sampled += 1
            if not profile.get("exact", True):
                self.degraded += 1

    def snapshot(self) -> List[Dict[str, object]]:
        """The retained profiles, oldest first (copies the ring)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def totals(self) -> Dict[str, int]:
        with self._lock:
            return {
                "recorded": self.recorded,
                "sampled": self.sampled,
                "degraded": self.degraded,
                "retained": len(self._entries),
            }


class ProfileSink:
    """Append-only JSONL profile log with size-based rotation.

    One JSON object per line.  When the current file would exceed
    ``max_bytes`` the sink rotates: ``path`` -> ``path.1`` ->
    ``path.2`` ... up to ``backups`` generations (the oldest is
    dropped), then keeps appending to a fresh ``path``.  Write failures
    disable the sink rather than poisoning the query path -- telemetry
    must never fail a query.
    """

    def __init__(self, path: str, max_bytes: int = 8 * 1024 * 1024, backups: int = 2) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.path = str(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        self._handle = None
        self._bytes = 0
        self.written = 0
        self.rotations = 0
        self.errors = 0

    def _open(self) -> None:
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = os.path.getsize(self.path)

    def _rotate_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for generation in range(self.backups - 1, 0, -1):
                source = f"{self.path}.{generation}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{generation + 1}")
            os.replace(self.path, f"{self.path}.1")
        self.rotations += 1

    def write(self, profile: Dict[str, object]) -> None:
        line = json.dumps(profile, sort_keys=True, default=str) + "\n"
        encoded = len(line.encode("utf-8"))
        with self._lock:
            try:
                if self._handle is None:
                    self._open()
                if self._bytes and self._bytes + encoded > self.max_bytes:
                    self._rotate_locked()
                    self._open()
                self._handle.write(line)
                self._handle.flush()
                self._bytes += encoded
                self.written += 1
            except OSError:
                # A full disk or revoked path must not fail queries; drop
                # the sink and keep the in-process ring as the record.
                self.errors += 1
                if self._handle is not None:
                    try:
                        self._handle.close()
                    except OSError:
                        pass
                    self._handle = None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "ProfileSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_profile(
    result,
    *,
    engine: str,
    trace_id: str,
    ts: float,
    r: float,
    k: int,
    ceil_r: int,
    n: int,
    sampled: bool,
) -> Dict[str, object]:
    """One profile dict from a duck-typed result (see module schema).

    ``result`` needs ``algorithm`` / ``phases`` / ``counters`` /
    ``notes`` / ``exact`` / ``total_time`` / ``memory_bytes`` -- the
    same duck contract :func:`repro.obs.recorders.observe_query` uses,
    so this module never imports the query machinery it observes.
    """
    return {
        "trace_id": trace_id,
        "ts": round(ts, 6),
        "engine": engine,
        "algorithm": result.algorithm,
        "r": r,
        "k": k,
        "ceil_r": ceil_r,
        "n": n,
        "seconds": result.total_time,
        "exact": bool(result.exact),
        "sampled": bool(sampled),
        "phases": dict(result.phases),
        "counters": dict(result.counters),
        "notes": dict(result.notes),
        "memory_bytes": int(result.memory_bytes or 0),
    }
