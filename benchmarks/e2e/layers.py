"""The traced pass: spans around layer calls, and the per-layer metrics.

Nothing here edits the program.  :func:`instrument` wraps a handful of
public layer functions from the outside for the traced half of a run
(the wrapper records one span per call and restores the original on
exit); every other per-layer number is read from what results already
return (``phases``, ``counters``, ``notes``, ``memory_bytes``) or from a
public call timed directly after the window (:func:`probe_plan_ms`).

The untraced pass never installs a wrapper, so a later change that makes
one of these calls cheaper (or moves it off the query path) shows up in
the end-to-end numbers.

Per-op metrics are means over the traced half's read operations, because
the window is time-bounded: totals would grow with throughput.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from stats import mean, percentile

PHASES = (
    "grid_mapping",
    "lower_bounding",
    "upper_bounding",
    "verification",
    "label_input",
    "label_output",
    "planning",
)
SHARD_PHASES = ("shard_route", "shard_execute", "shard_merge")
VERIFY_PATHS = ("reference", "numpy-batch", "numpy-fused", "mixed")
LOWER_BOUND_PATHS = ("reference", "numpy-seq", "numpy-reduceat", "mixed")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: The operation that caused the call: the closed-loop op index, or
    #: the service trace id bound to the handling thread.
    parent: Any = None
    value: Any = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class SpanLog:
    """In-memory span store shared by the runner and the wrappers."""

    spans: List[Span] = field(default_factory=list)
    #: Closed-loop runners set this before each op.
    current_op: Any = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        with self._lock:
            return [span for span in self.spans if span.name == name]


def _trace_id() -> Optional[str]:
    from repro.obs.telemetry import current_trace_id

    return current_trace_id()


@contextmanager
def instrument(log: SpanLog, targets: Sequence[Tuple[object, str, str, bool]]) -> Iterator[None]:
    """Wrap ``owner.attr`` for each target, recording one span per call.

    ``targets`` holds ``(owner, attribute, span name, keep_value)``; with
    ``keep_value`` the call's return value rides on the span (the service
    workload reads query results that never cross the wire this way).
    Originals are restored on exit, even on error.  Garbage-collector
    pauses are recorded too, as ``runtime.gc`` spans valued with their
    generation.
    """
    saved = []
    started: Dict[str, float] = {}

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        # Collections run one at a time under the interpreter lock.
        if phase == "start":
            started["at"] = time.perf_counter()
        elif "at" in started:
            parent = _trace_id()
            log.add(Span("runtime.gc", started.pop("at"), time.perf_counter(),
                         log.current_op if parent is None else parent,
                         info["generation"]))

    gc.callbacks.append(on_gc)
    try:
        for owner, attr, name, keep in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapped(log, original, name, keep))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        gc.callbacks.remove(on_gc)


def _wrapped(log: SpanLog, original, name: str, keep: bool):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        # ServiceApp.handle binds the request's trace id only inside the
        # call, so its span takes the id from the argument instead.
        parent = kwargs.get("trace_id") or _trace_id()
        if parent is None:
            parent = log.current_op
        start = time.perf_counter()
        value = None
        try:
            value = original(*args, **kwargs)
            return value
        finally:
            log.add(Span(name, start, time.perf_counter(), parent, value if keep else None))

    return wrapper


def layer_targets() -> List[Tuple[object, str, str, bool]]:
    """The public layer calls the traced pass times in place."""
    from repro.dynamic import DynamicMIO
    from repro.grid.bigrid import BIGrid
    from repro.service.app import Response, ServiceApp
    from repro.session import QuerySession

    return [
        (BIGrid, "memory_bytes", "grid.memory_bytes", False),
        (DynamicMIO, "snapshot", "dynamic.snapshot", False),
        (ServiceApp, "handle", "service.handle", False),
        (Response, "body_bytes", "service.encode", False),
        (QuerySession, "query", "session.query", True),
        (QuerySession, "topk", "session.topk", True),
    ]


def probe_plan_ms(collections: Sequence[object], r_values: Sequence[float], shards: int) -> List[float]:
    """Time ``plan_shards`` directly for every (collection, r) pair.

    The engine caches plans per ceiling, so after the first pass the
    window itself never calls the router; a direct call measures it.
    """
    from repro.shard.router import plan_shards

    samples = []
    for collection in collections:
        for r in r_values:
            start = time.perf_counter()
            plan_shards(collection, r, shards)
            samples.append((time.perf_counter() - start) * 1000.0)
    return samples


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    names: Sequence[str],
    reads: Sequence[Any],
    untraced_reads: Sequence[Any],
    log: SpanLog,
    window_ops: int,
    writes: int,
    session_delta: Optional[Dict[str, int]],
    service_delta: Optional[Dict[str, int]],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from the traced half of one run.

    ``names`` is the catalog (BENCHMARK.json's per_layer); a metric whose
    layer the workload never reaches reads 0.  ``reads`` are the traced
    half's read ops (each carries ``wall_s``, ``n`` and a ``result`` with
    ``phases``/``counters``/``notes``/``memory_bytes``); ``extra`` carries
    the numbers measured outside the window (oracle time, plan probes,
    serial replay, child RSS).
    """
    values: Dict[str, float] = dict.fromkeys(names, 0.0)
    results = [op.result for op in reads if op.result is not None]
    walls_ms = [op.wall_s * 1000.0 for op in reads]

    for phase in PHASES:
        values[f"pipeline.{phase}_ms"] = mean(
            [res.phases.get(phase, 0.0) * 1000.0 for res in results]
        )
    unaccounted = [
        op.wall_s * 1000.0 - sum(op.result.phases.values()) * 1000.0
        for op in reads
        if op.result is not None
    ]
    values["pipeline.unaccounted_ms"] = mean(unaccounted)
    values["pipeline.unaccounted_share"] = _ratio(sum(unaccounted), sum(walls_ms))

    values["grid.memory_accounting_ms"] = _ratio(
        sum(span.ms for span in log.named("grid.memory_bytes")), len(reads)
    )
    values["grid.index_bytes_p50"] = percentile([res.memory_bytes for res in results], 0.5)
    for counter in ("small_cells", "large_cells", "adj_unions_computed"):
        values[f"grid.{counter}"] = mean([res.counters.get(counter, 0) for res in results])

    for counter in ("distance_rows", "posting_checks", "verified_objects", "candidates"):
        values[f"kernels.{counter}"] = mean([res.counters.get(counter, 0) for res in results])
    values["kernels.early_terminated"] = mean(
        [min(1, res.counters.get("early_terminated", 0)) for res in results]
    )
    counted = [op for op in reads if op.result is not None and "candidates" in op.result.counters]
    values["kernels.prune_ratio"] = _ratio(
        sum(op.n - op.result.counters["candidates"] for op in counted),
        sum(op.n for op in counted),
    )
    values["kernels.verify_yield"] = _ratio(
        sum(op.result.counters.get("verified_objects", 0) for op in counted),
        sum(op.result.counters["candidates"] for op in counted),
    )
    for note, prefix, paths in (
        ("verification_path", "kernels.verify_path", VERIFY_PATHS),
        ("lower_bound_path", "kernels.lower_bound_path", LOWER_BOUND_PATHS),
    ):
        for path in paths:
            values[f"{prefix}.{path}"] = mean(
                [1.0 if res.notes.get(note) == path else 0.0 for res in results]
            )

    for phase in SHARD_PHASES:
        values[f"shard.{phase[len('shard_'):]}_ms"] = mean(
            [res.phases.get(phase, 0.0) * 1000.0 for res in results]
        )
    sharded = [op for op in reads if op.result is not None and "shard_execute" in op.result.phases]
    values["shard.dispatch_unaccounted_ms"] = mean(
        [
            op.wall_s * 1000.0
            - sum(op.result.phases.get(phase, 0.0) for phase in SHARD_PHASES) * 1000.0
            for op in sharded
        ]
    )
    values["shard.serial_fallbacks"] = float(
        sum(1 for res in results if res.counters.get("serial_fallback"))
    )

    if session_delta is not None:
        values["session.label_hit_rate"] = _ratio(
            session_delta["label_hits"],
            session_delta["label_hits"] + session_delta["label_misses"],
        )
        values["session.key_cache_hit_rate"] = _ratio(
            session_delta["grid_key_cache_hits"],
            session_delta["grid_key_cache_hits"] + session_delta["grid_key_cache_misses"],
        )
        values["session.lower_cache_hit_rate"] = _ratio(
            session_delta["lower_cache_hits"],
            session_delta["lower_cache_hits"] + session_delta["lower_cache_misses"],
        )
        values["session.invalidations"] = float(session_delta["invalidations"])

    values["dynamic.snapshot_ms_p50"] = percentile(
        [span.ms for span in log.named("dynamic.snapshot")], 0.5
    )
    values["dynamic.writes"] = float(writes)

    served = [op for op in reads if op.trace_id is not None]
    if served:
        handle_ms = {span.parent: span.ms for span in log.named("service.handle")}
        waits = [op.queue_wait_ms for op in served]
        values["service.queue_wait_ms_p50"] = percentile(waits, 0.5)
        values["service.queue_wait_ms_p90"] = percentile(waits, 0.9)
        values["service.handle_ms_p50"] = percentile(
            [handle_ms[op.trace_id] for op in served if op.trace_id in handle_ms], 0.5
        )
        values["service.http_ms_p50"] = percentile(
            [
                (op.end - op.sent) * 1000.0 - handle_ms[op.trace_id]
                for op in served
                if op.trace_id in handle_ms
            ],
            0.5,
        )
        values["service.encode_ms_p50"] = percentile(
            [span.ms for span in log.named("service.encode")], 0.5
        )
        values["loadgen.lag_ms_p90"] = percentile(
            [(op.sent - op.start) * 1000.0 for op in served], 0.9
        )
    if service_delta is not None:
        values["service.shed"] = float(service_delta["shed"])
        values["service.degraded"] = float(service_delta["degraded"])

    collections = log.named("runtime.gc")
    values["runtime.gc_ms"] = _ratio(sum(span.ms for span in collections), len(reads))
    values["runtime.gc_gen2"] = _ratio(
        sum(1 for span in collections if span.value == 2), len(reads)
    )

    values["loadgen.ops"] = float(window_ops)
    values["loadgen.traced_wall_ms"] = mean(walls_ms)
    values["loadgen.untraced_wall_ms"] = mean([op.wall_s * 1000.0 for op in untraced_reads])
    values["loadgen.trace_overhead_ratio"] = _ratio(
        values["loadgen.traced_wall_ms"], values["loadgen.untraced_wall_ms"]
    )
    values.update(extra)
    return values
