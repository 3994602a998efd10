"""The metrics registry: counters, gauges, log-bucket histograms."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histogram_snapshots,
)


class TestCounter:
    def test_increments_accumulate_per_label_set(self):
        counter = Counter("requests_total", "test")
        counter.inc(tier="labels", outcome="hit")
        counter.inc(2.0, tier="labels", outcome="hit")
        counter.inc(tier="labels", outcome="miss")
        assert counter.value(tier="labels", outcome="hit") == 3.0
        assert counter.value(tier="labels", outcome="miss") == 1.0
        assert counter.value(tier="grids", outcome="hit") == 0.0

    def test_label_order_does_not_matter(self):
        counter = Counter("c_total", "test")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0

    def test_counters_only_go_up(self):
        counter = Counter("c_total", "test")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_bound_counter_hits_the_same_series(self):
        counter = Counter("c_total", "test")
        bound = counter.labels(tier="grids", outcome="hit")
        for _ in range(5):
            bound.inc()
        counter.inc(tier="grids", outcome="hit")
        assert counter.value(tier="grids", outcome="hit") == 6.0

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name", "test")
        counter = Counter("ok_total", "test")
        with pytest.raises(ValueError):
            counter.inc(**{"0bad": "x"})

    def test_invalid_label_names_raise_on_every_call(self):
        counter = Counter("ok_total", "test")
        histogram = Histogram("ok_seconds", "test")
        for _ in range(2):
            with pytest.raises(ValueError):
                counter.inc(tier="grids", **{"bad-name": "x"})
            with pytest.raises(ValueError):
                histogram.observe(0.1, **{"0bad": "x"})
        assert counter.label_sets() == [] and histogram.label_sets() == []

    def test_label_names_are_validated_once_per_tuple(self, monkeypatch):
        checked = []
        pattern = metrics._LABEL_NAME_RE

        class CountingPattern:
            def match(self, name):
                checked.append(name)
                return pattern.match(name)

        monkeypatch.setattr(metrics, "_LABEL_NAME_RE", CountingPattern())
        counter = Counter("once_total", "test")
        histogram = Histogram("once_seconds", "test")
        for value in range(3):
            counter.inc(tier="grids", outcome=value)
            histogram.observe(0.1, tier="grids", outcome=value)
        assert counter.value(tier="grids", outcome=0) == 1.0
        # Once per instrument.
        assert checked == ["tier", "outcome"] * 2
        del checked[:]
        # Another call order is another tuple, validated once and keyed
        # to the same series.
        counter.inc(outcome=2, tier="grids")
        counter.inc(outcome=2, tier="grids")
        assert checked == ["outcome", "tier"]
        assert counter.value(tier="grids", outcome="2") == 3.0
        assert counter.label_sets()[0] == (("outcome", "0"), ("tier", "grids"))


class TestGauge:
    def test_set_overwrites_and_inc_accumulates(self):
        gauge = Gauge("memory_bytes", "test")
        gauge.set(100.0, engine="serial")
        gauge.set(250.0, engine="serial")
        assert gauge.value(engine="serial") == 250.0
        gauge.inc(50.0, engine="serial")
        assert gauge.value(engine="serial") == 300.0


class TestHistogramBucketing:
    def test_default_buckets_are_half_decade_log_scale(self):
        assert DEFAULT_SECONDS_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_SECONDS_BUCKETS[-1] == pytest.approx(10.0)
        ratios = [
            b2 / b1
            for b1, b2 in zip(DEFAULT_SECONDS_BUCKETS, DEFAULT_SECONDS_BUCKETS[1:])
        ]
        assert all(ratio == pytest.approx(10.0 ** 0.5, rel=1e-6) for ratio in ratios)

    def test_observation_lands_in_le_bucket(self):
        histogram = Histogram("h_seconds", "test", buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.05)   # <= 0.1
        histogram.observe(0.1)    # == bound -> le semantics: the 0.1 bucket
        histogram.observe(0.5)    # <= 1.0
        histogram.observe(100.0)  # overflow -> +Inf
        snapshot = histogram.snapshot()
        assert snapshot["buckets"]["0.1"] == 2
        assert snapshot["buckets"]["1.0"] == 3
        assert snapshot["buckets"]["10.0"] == 3
        assert snapshot["buckets"]["+Inf"] == 4
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(100.65)

    def test_cumulative_counts_are_monotone(self):
        histogram = Histogram("h_seconds", "test")
        for value in (1e-7, 1e-5, 1e-3, 0.1, 0.5, 2.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        counts = list(snapshot["buckets"].values())
        assert counts == sorted(counts)
        assert counts[-1] == snapshot["count"]

    def test_buckets_must_be_ascending_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", "test", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", "test", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", "test", buckets=(2.0, 1.0))

    def test_labelled_series_are_independent(self):
        histogram = Histogram("h_seconds", "test", buckets=(1.0,))
        histogram.observe(0.5, engine="serial")
        histogram.observe(0.5, engine="parallel")
        histogram.observe(0.5, engine="parallel")
        assert histogram.snapshot(engine="serial")["count"] == 1
        assert histogram.snapshot(engine="parallel")["count"] == 2
        assert histogram.snapshot(engine="missing")["count"] == 0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("queries_total", "help one")
        second = registry.counter("queries_total", "help two")
        assert first is second
        assert first.help == "help one"  # first registration wins

    def test_kind_conflicts_are_loud(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", "test")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing_total", "test")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("thing_total", "test")

    def test_snapshot_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("repro_cache_requests_total", "test").inc(tier="labels")
        registry.counter("repro_queries_total", "test").inc()
        snapshot = registry.snapshot(prefix="repro_cache_")
        assert list(snapshot) == ["repro_cache_requests_total"]
        series = snapshot["repro_cache_requests_total"]["series"]
        assert series == {'tier="labels"': 1.0}

    def test_snapshot_carries_type_help_and_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", "latency", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        metric = snapshot["h_seconds"]
        assert metric["type"] == "histogram"
        assert metric["help"] == "latency"
        assert metric["series"][""]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "test").inc()
        registry.reset()
        assert list(registry.collect()) == []
        assert registry.get("a_total") is None


class TestHistogramMerge:
    """The fixed log-bucket invariant: snapshots from separate runs merge."""

    def test_merge_equals_observing_everything_in_one_histogram(self):
        run_a = Histogram("h_seconds", "test")
        run_b = Histogram("h_seconds", "test")
        combined = Histogram("h_seconds", "test")
        values_a = (1e-7, 1e-4, 0.02, 0.5)
        values_b = (3e-6, 0.02, 2.0, 50.0)
        for value in values_a:
            run_a.observe(value)
            combined.observe(value)
        for value in values_b:
            run_b.observe(value)
            combined.observe(value)
        merged = merge_histogram_snapshots([run_a.snapshot(), run_b.snapshot()])
        assert merged["buckets"] == combined.snapshot()["buckets"]
        assert merged["count"] == combined.snapshot()["count"]
        assert merged["sum"] == pytest.approx(combined.snapshot()["sum"])

    def test_merged_cumulative_counts_stay_monotone(self):
        runs = []
        for seed, values in enumerate(((0.001, 0.1), (1e-5, 5.0, 0.2), (30.0,))):
            histogram = Histogram("h_seconds", "test")
            for value in values:
                histogram.observe(value)
            runs.append(histogram.snapshot())
        merged = merge_histogram_snapshots(runs)
        counts = list(merged["buckets"].values())
        assert counts == sorted(counts)
        assert merged["buckets"]["+Inf"] == merged["count"] == 6

    def test_different_bucket_bounds_are_rejected(self):
        coarse = Histogram("h_seconds", "test", buckets=(0.1, 1.0))
        fine = Histogram("h_seconds", "test", buckets=(0.01, 0.1, 1.0))
        coarse.observe(0.5)
        fine.observe(0.5)
        with pytest.raises(ValueError, match="different bucket bounds"):
            merge_histogram_snapshots([coarse.snapshot(), fine.snapshot()])

    def test_empty_snapshots_merge_as_identity(self):
        histogram = Histogram("h_seconds", "test", buckets=(1.0,))
        histogram.observe(0.5)
        empty = Histogram("h_seconds", "test", buckets=(1.0,)).snapshot()
        merged = merge_histogram_snapshots([empty, histogram.snapshot(), empty])
        assert merged == histogram.snapshot()
        assert merge_histogram_snapshots([]) == {"buckets": {}, "sum": 0.0, "count": 0}

    def test_merge_is_order_independent(self):
        snapshots = []
        for values in ((0.001,), (0.5, 3.0), (1e-6, 0.02)):
            histogram = Histogram("h_seconds", "test")
            for value in values:
                histogram.observe(value)
            snapshots.append(histogram.snapshot())
        forward = merge_histogram_snapshots(snapshots)
        backward = merge_histogram_snapshots(list(reversed(snapshots)))
        assert forward["buckets"] == backward["buckets"]
        assert forward["count"] == backward["count"]
        assert forward["sum"] == pytest.approx(backward["sum"])


class TestProcessRegistryIsolation:
    def test_set_registry_swaps_the_module_shortcuts(self, fresh_registry):
        from repro.obs import metrics

        metrics.counter("isolated_total", "test").inc()
        assert fresh_registry.get("isolated_total") is not None
        assert metrics.get_registry() is fresh_registry
