"""Canonical registry feeds for query results and cache tiers.

Every engine reports each finished query through :func:`observe_query`,
and every cross-query cache tier reports lookups/invalidations through
:func:`observe_cache` / :func:`observe_cache_invalidation`, so the metric
*names* live in exactly one module and stay consistent across the serial
engine, the temporal engine, and the session (see
the catalog in ``docs/observability.md`` and the stability policy in
DESIGN.md).

``result`` is duck-typed (anything with ``algorithm`` / ``phases`` /
``counters`` / ``total_time`` / ``exact`` / ``memory_bytes``) so this
module depends only on :mod:`repro.obs.metrics` and never imports the
core layers it observes.
"""

from __future__ import annotations

from repro.obs import metrics

#: The three cross-query cache tiers (label order = report order).
CACHE_TIERS = ("labels", "grids", "lower_bounds")


def observe_query(result, engine: str) -> None:
    """Fold one finished query into the process registry."""
    metrics.counter(
        "repro_queries_total", "MIO queries answered"
    ).inc(engine=engine, algorithm=result.algorithm)
    metrics.histogram(
        "repro_query_seconds", "End-to-end query latency (sum of phase times)"
    ).observe(result.total_time, engine=engine)
    phase_seconds = metrics.histogram(
        "repro_phase_seconds", "Per-phase latency (Table II decomposition)"
    )
    for phase, seconds in result.phases.items():
        phase_seconds.observe(seconds, engine=engine, phase=phase)
    counters = result.counters
    generated = counters.get("candidates_total", counters.get("candidates"))
    settled = counters.get("candidates_settled", counters.get("verified_objects"))
    if generated is not None:
        metrics.counter(
            "repro_candidates_total",
            "Verification candidates by outcome (generated vs settled)",
        ).inc(generated, outcome="generated")
    if settled is not None:
        metrics.counter(
            "repro_candidates_total",
            "Verification candidates by outcome (generated vs settled)",
        ).inc(settled, outcome="settled")
    notes = getattr(result, "notes", None) or {}
    for op, note in (
        ("verification", "verification_path"),
        ("lower_bounding", "lower_bound_path"),
    ):
        path = notes.get(note)
        if path:
            # Kernel path dispatch (batched vs per-candidate verification,
            # dense vs sparse lower bounding, ...) observable without
            # tracing: which implementation served the traffic.
            metrics.counter(
                "repro_kernel_path_total",
                "Kernel implementation paths taken, by phase op",
            ).inc(op=op, path=path)
    if not result.exact:
        metrics.counter(
            "repro_anytime_results_total",
            "Queries degraded to a verified lower-bound (anytime) answer",
        ).inc()
    if result.memory_bytes:
        metrics.gauge(
            "repro_index_memory_bytes", "Index size of the most recent query"
        ).set(result.memory_bytes, engine=engine)


def register_cache_metrics() -> None:
    """Materialize every tier's hit/miss series at zero.

    Sessions call this on construction so ``batch --stats`` reports all
    three tiers even when a workload never exercises one of them.
    """
    requests = metrics.counter(
        "repro_cache_requests_total", "Cross-query cache lookups by tier and outcome"
    )
    for tier in CACHE_TIERS:
        for outcome in ("hit", "miss"):
            requests.inc(0.0, tier=tier, outcome=outcome)


def observe_cache(tier: str, hit: bool) -> None:
    """One cache lookup on a tier (labels / grids / lower_bounds)."""
    metrics.counter(
        "repro_cache_requests_total", "Cross-query cache lookups by tier and outcome"
    ).inc(tier=tier, outcome="hit" if hit else "miss")


def observe_cache_invalidation(tier: str) -> None:
    """A cache tier dropped its entries (mutation or explicit clear)."""
    metrics.counter(
        "repro_cache_invalidations_total", "Cache tier invalidations"
    ).inc(tier=tier)
