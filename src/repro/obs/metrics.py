"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

The registry is the one place every subsystem reports operational events
to: the engines (queries, per-phase latencies, pruning funnels), the
three cross-query cache tiers (label store, large-grid keys, lower
bounds), the resilience layer (deadline expirations, degradations, serial
fallbacks), fault injection, and :class:`~repro.dynamic.DynamicMIO`
mutations.  Exporters (:mod:`repro.obs.export`) render a registry in
Prometheus text format or JSON.

Metric names follow the Prometheus conventions (``repro_`` prefix,
``_total`` suffix on counters, base-unit ``_seconds``/``_bytes``) and are
a stable interface: DESIGN.md records the rename policy, and
``docs/observability.md`` carries the catalog.

Instruments are label-aware: one instrument holds a series per label
combination (``repro_cache_requests_total{tier="labels", outcome="hit"}``).
Hot call sites bind a label combination once with :meth:`Counter.labels`
and pay one float add per event afterwards.

Histograms use *fixed log-scale buckets* (default: half-decade steps from
1µs to 10s) so latency distributions from different runs are always
mergeable -- no per-run adaptive bucketing.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Half-decade log-scale latency buckets: 1µs .. 10s (upper bounds, seconds).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 2.0), 12) for exponent in range(-12, 3)
)

LabelKey = Tuple[Tuple[str, str], ...]


class _Instrument:
    """Shared bookkeeping: name, help text, and per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._series: Dict[LabelKey, object] = {}
        self._lock = threading.Lock()
        #: Each label-name tuple used so far, in call order, mapped to its
        #: names sorted: a tuple is validated once, on its first use.
        self._sorted_names: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        """The series key of ``labels``: ``(name, str(value))`` pairs
        sorted by name."""
        names = tuple(labels)
        ordered = self._sorted_names.get(names)
        if ordered is None:
            for name in names:
                if not _LABEL_NAME_RE.match(name):
                    raise ValueError(f"invalid label name {name!r}")
            ordered = self._sorted_names[names] = tuple(sorted(names))
        return tuple([(name, str(labels[name])) for name in ordered])

    def label_sets(self) -> List[LabelKey]:
        return list(self._series)


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def labels(self, **labels: object) -> "_BoundCounter":
        """Bind one label combination for cheap repeated increments."""
        return _BoundCounter(self, self._key(labels))

    def value(self, **labels: object) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class _BoundCounter:
    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        series = self._counter._series
        series[self._key] = series.get(self._key, 0.0) + amount


class Gauge(_Instrument):
    """A value that goes up and down (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, buckets: int) -> None:
        self.bucket_counts = [0] * (buckets + 1)  # trailing slot = +Inf
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """An observation distribution over fixed, ascending buckets.

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is ``>= value`` (Prometheus ``le`` semantics), with an
    implicit ``+Inf`` bucket at the end.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = [float(bound) for bound in buckets]
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly ascending")
        self.buckets: Tuple[float, ...] = tuple(bounds)

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.bucket_counts[bisect_left(self.buckets, value)] += 1
            series.total += value
            series.count += 1

    def snapshot(self, **labels: object) -> Dict[str, object]:
        """Cumulative bucket counts plus sum/count for one label set."""
        series = self._series.get(self._key(labels))
        if series is None:
            return {"buckets": {}, "sum": 0.0, "count": 0}
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.buckets, series.bucket_counts):
            running += bucket_count
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = running + series.bucket_counts[-1]
        return {"buckets": cumulative, "sum": series.total, "count": series.count}


class MetricsRegistry:
    """Named instruments, created on first use and shared afterwards."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, _Instrument]" = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help_text, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def collect(self) -> Iterable[_Instrument]:
        """Instruments in registration order (the exporters' input)."""
        return list(self._metrics.values())

    def get(self, name: str) -> Optional[_Instrument]:
        return self._metrics.get(name)

    def snapshot(self, prefix: str = "") -> Dict[str, Dict[str, object]]:
        """A plain-dict view (the JSON exporter and ``batch --stats`` use it)."""
        payload: Dict[str, Dict[str, object]] = {}
        for metric in self.collect():
            if prefix and not metric.name.startswith(prefix):
                continue
            series: Dict[str, object] = {}
            for key in metric.label_sets():
                label_text = ",".join(f'{name}="{value}"' for name, value in key)
                if isinstance(metric, Histogram):
                    series[label_text] = metric.snapshot(**dict(key))
                else:
                    series[label_text] = metric._series[key]
            payload[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "series": series,
            }
        return payload

    def reset(self) -> None:
        """Drop every instrument (tests only)."""
        with self._lock:
            self._metrics.clear()


# ----------------------------------------------------------------------
# The process-wide default registry
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The registry all built-in instrumentation reports to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def counter(name: str, help_text: str = "") -> Counter:
    """Get-or-create a counter on the process registry."""
    return _REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    """Get-or-create a gauge on the process registry."""
    return _REGISTRY.gauge(name, help_text)


def histogram(
    name: str, help_text: str = "", buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
) -> Histogram:
    """Get-or-create a histogram on the process registry."""
    return _REGISTRY.histogram(name, help_text, buckets=buckets)


def merge_histogram_snapshots(
    snapshots: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Merge :meth:`Histogram.snapshot` dicts from separate runs.

    This is the payoff of the fixed log-scale buckets: snapshots taken by
    different processes (or CI runs) share bucket bounds by construction,
    so merging is element-wise addition of the cumulative counts plus the
    sums and counts.  Snapshots with *different* bucket bounds are
    rejected -- adaptive per-run bucketing would make distributions
    incomparable, which is exactly what the fixed-bucket invariant
    forbids.  Empty snapshots (``count == 0`` with no buckets, as
    ``snapshot()`` returns for a never-observed label set) merge as
    identity.
    """
    merged_buckets: Optional[Dict[str, int]] = None
    total = 0.0
    count = 0
    for snap in snapshots:
        buckets = dict(snap.get("buckets") or {})
        if not buckets and not snap.get("count"):
            continue
        if merged_buckets is None:
            merged_buckets = {bound: 0 for bound in buckets}
        elif list(buckets) != list(merged_buckets):
            raise ValueError(
                "cannot merge histogram snapshots with different bucket "
                f"bounds: {list(merged_buckets)} vs {list(buckets)}"
            )
        for bound, cumulative in buckets.items():
            merged_buckets[bound] += cumulative
        total += float(snap.get("sum", 0.0))
        count += int(snap.get("count", 0))
    if merged_buckets is None:
        return {"buckets": {}, "sum": 0.0, "count": 0}
    return {"buckets": merged_buckets, "sum": total, "count": count}
