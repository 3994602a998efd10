"""Aggregation and regression detection over telemetry artifacts.

Two consumers share this module:

* ``repro report <profiles.jsonl>`` folds a profile log (the
  :class:`~repro.obs.telemetry.profile.ProfileSink` output) into
  per-engine, per-phase percentile summaries -- the offline view of the
  Table II decomposition plus the pruning funnel and cache hit ratios.
* ``repro report --check-bench`` re-checks the recorded ``BENCH_*.json``
  artifacts against the repo's perf floors with a noise margin,
  exiting nonzero on regression -- the same contract as the
  ``benchmarks/test_kernel_phase_floor.py`` guard, runnable in CI
  without pytest and against freshly regenerated artifacts.

Percentiles use the nearest-rank method (``ceil(q * n)``-th smallest),
so a summary over a given log is exactly reproducible -- no
interpolation, no floating-point order sensitivity.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Run-to-run jitter allowance applied to every floor when re-checking
#: artifacts (mirrors benchmarks/test_kernel_phase_floor.py).
DEFAULT_MARGIN = 0.8

#: Floors enforced per artifact schema; see check_* functions below.
KERNEL_PHASE_FLOORS = {"verification": 1.0, "lower_bounding": 1.0}
KERNEL_SAMPLED_E2E_FLOOR = 5.0
BATCH_REUSE_FLOOR = 1.2
#: Overloaded p99 may exceed the deadline (queueing), but not by more
#: than this multiple -- beyond it shedding is no longer bounding work.
SERVICE_P99_DEADLINE_MULTIPLE = 1.5
#: Every artifact must stamp how it was produced (see
#: :func:`repro.bench.harness.bench_provenance`) so floors compare like
#: with like -- a parallel speedup recorded on a one-core container is
#: noise, not a regression signal.
PROVENANCE_KEYS = ("cpu_count", "cores", "parallel_mode", "shards")

PERCENTILES = (0.50, 0.90, 0.99)


# ----------------------------------------------------------------------
# Profile-log aggregation
# ----------------------------------------------------------------------


def load_profiles(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Read a JSONL profile log; returns ``(profiles, skipped_lines)``.

    Malformed lines (a crashed writer, a truncated rotation boundary)
    are counted and skipped rather than failing the whole report.
    """
    profiles: List[Dict[str, object]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict) and "seconds" in record:
                profiles.append(record)
            else:
                skipped += 1
    return profiles, skipped


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in (0, 1])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _series_summary(values: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "p50": percentile(values, 0.50),
        "p90": percentile(values, 0.90),
        "p99": percentile(values, 0.99),
        "max": max(values),
        "mean": sum(values) / len(values),
    }


def summarize(profiles: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Per-engine percentile summary of a profile collection.

    For each engine: end-to-end and per-phase second percentiles, the
    pruning funnel (candidates settled / total), cache hit ratios
    (lower-bound cache, session label cache), kernel path dispatch
    tallies, and degraded/sampled counts.
    """
    by_engine: Dict[str, List[Dict[str, object]]] = {}
    for profile in profiles:
        by_engine.setdefault(str(profile.get("engine", "?")), []).append(profile)

    engines: Dict[str, object] = {}
    for engine, group in sorted(by_engine.items()):
        seconds = [float(p.get("seconds", 0.0)) for p in group]
        phase_values: Dict[str, List[float]] = {}
        paths: Dict[str, Dict[str, int]] = {}
        funnel_total = funnel_settled = 0
        cache_hits = {"lower_cache_hit": 0, "session_label_hit": 0}
        degraded = sampled = 0
        for p in group:
            for phase, value in (p.get("phases") or {}).items():
                phase_values.setdefault(str(phase), []).append(float(value))
            notes = p.get("notes") or {}
            for op in ("verification_path", "lower_bound_path"):
                path = notes.get(op)
                if path is not None:
                    paths.setdefault(op, {})
                    paths[op][str(path)] = paths[op].get(str(path), 0) + 1
            counters = p.get("counters") or {}
            funnel_total += int(counters.get("candidates", 0))
            funnel_settled += int(counters.get("verified_objects", 0))
            for key in cache_hits:
                cache_hits[key] += int(counters.get(key, 0))
            if not p.get("exact", True):
                degraded += 1
            if p.get("sampled"):
                sampled += 1
        engines[engine] = {
            "queries": len(group),
            "degraded": degraded,
            "sampled": sampled,
            "seconds": _series_summary(seconds),
            "phases": {
                phase: _series_summary(values)
                for phase, values in sorted(phase_values.items())
            },
            "funnel": {
                "candidates_total": funnel_total,
                "candidates_settled": funnel_settled,
                "settle_ratio": (
                    round(funnel_settled / funnel_total, 4) if funnel_total else None
                ),
            },
            "cache": {
                "lower_cache_hit_ratio": round(
                    cache_hits["lower_cache_hit"] / len(group), 4
                ),
                "session_label_hit_ratio": round(
                    cache_hits["session_label_hit"] / len(group), 4
                ),
            },
            "kernel_paths": paths,
        }
    return {"profiles": sum(len(g) for g in by_engine.values()), "engines": engines}


def render_summary(summary: Dict[str, object], skipped: int = 0) -> str:
    """Human-readable text for a :func:`summarize` result."""
    lines = [f"profiles: {summary['profiles']}" + (f" (skipped {skipped} malformed lines)" if skipped else "")]
    for engine, stats in summary["engines"].items():
        lines.append(
            f"\nengine {engine}: {stats['queries']} queries, "
            f"{stats['degraded']} degraded, {stats['sampled']} sampled"
        )
        e2e = stats["seconds"]
        lines.append(
            "  end-to-end  "
            f"p50={e2e['p50'] * 1000:.3f}ms p90={e2e['p90'] * 1000:.3f}ms "
            f"p99={e2e['p99'] * 1000:.3f}ms max={e2e['max'] * 1000:.3f}ms"
        )
        for phase, ps in stats["phases"].items():
            lines.append(
                f"  {phase:<16}"
                f"p50={ps['p50'] * 1000:.3f}ms p90={ps['p90'] * 1000:.3f}ms "
                f"p99={ps['p99'] * 1000:.3f}ms"
            )
        funnel = stats["funnel"]
        if funnel["candidates_total"]:
            lines.append(
                f"  funnel: {funnel['candidates_settled']}/"
                f"{funnel['candidates_total']} candidates settled "
                f"(ratio {funnel['settle_ratio']})"
            )
        cache = stats["cache"]
        lines.append(
            f"  cache: lower-bound hit {cache['lower_cache_hit_ratio']}, "
            f"label hit {cache['session_label_hit_ratio']}"
        )
        for op, tally in stats["kernel_paths"].items():
            pairs = ", ".join(f"{path}={count}" for path, count in sorted(tally.items()))
            lines.append(f"  {op}: {pairs}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Bench-artifact regression checks
# ----------------------------------------------------------------------


def _check_kernel_speedup(data: Dict[str, object], margin: float) -> List[str]:
    failures = []
    workloads = data.get("workloads") or []
    if not workloads:
        return ["kernel_speedup: artifact records no workloads"]
    for point in workloads:
        for phase, floor in KERNEL_PHASE_FLOORS.items():
            ratio = (point.get("phase_speedups") or {}).get(phase)
            if ratio is None:
                failures.append(
                    f"kernel_speedup[{point.get('workload')}]: missing "
                    f"phase_speedups[{phase}]"
                )
            elif ratio < floor * margin:
                failures.append(
                    f"kernel_speedup[{point.get('workload')}]: {phase} speedup "
                    f"{ratio}x < floor {floor}x (margin {margin})"
                )
        if point.get("speedup", 0.0) < 1.0 * margin:
            failures.append(
                f"kernel_speedup[{point.get('workload')}]: end-to-end speedup "
                f"{point.get('speedup')}x lost to the python reference"
            )
    best = max(point.get("speedup", 0.0) for point in workloads)
    target = float(data.get("target", 3.0))
    if best < target * margin:
        failures.append(
            f"kernel_speedup: best end-to-end speedup {best}x below the "
            f"{target}x headline target (margin {margin})"
        )
    sampled = [p for p in workloads if "s=0.5" in str(p.get("workload", ""))]
    if sampled:
        best_sampled = max(p.get("speedup", 0.0) for p in sampled)
        if best_sampled < KERNEL_SAMPLED_E2E_FLOOR * margin:
            failures.append(
                f"kernel_speedup: best s=0.5 speedup {best_sampled}x below "
                f"{KERNEL_SAMPLED_E2E_FLOOR}x floor (margin {margin})"
            )
    return failures


def _check_batch_reuse(data: Dict[str, object], margin: float) -> List[str]:
    speedup = float(data.get("speedup", 0.0))
    if speedup < BATCH_REUSE_FLOOR * margin:
        return [
            f"batch_reuse: warm-over-cold speedup {speedup}x below "
            f"{BATCH_REUSE_FLOOR}x floor (margin {margin})"
        ]
    return []


def _check_service_throughput(data: Dict[str, object], margin: float) -> List[str]:
    failures = []
    deadline_ms = float(data.get("deadline_ms", 0.0))
    for regime in ("steady", "overload"):
        stats = data.get(regime) or {}
        if not stats:
            failures.append(f"service_throughput: artifact missing {regime} regime")
            continue
        errors = int(stats.get("errors", 0))
        if errors:
            failures.append(
                f"service_throughput[{regime}]: {errors} hard errors (must be 0)"
            )
        if deadline_ms:
            bound = deadline_ms * SERVICE_P99_DEADLINE_MULTIPLE / margin
            p99 = float(stats.get("p99_ms", 0.0))
            if p99 > bound:
                failures.append(
                    f"service_throughput[{regime}]: p99 {p99}ms exceeds "
                    f"{bound:.0f}ms ({SERVICE_P99_DEADLINE_MULTIPLE}x deadline "
                    f"/ margin {margin})"
                )
    return failures


def _provenance_failures(data: Dict[str, object], name: str) -> List[str]:
    prov = data.get("provenance")
    if not isinstance(prov, dict):
        return [
            f"{name}: artifact records no provenance block "
            f"({'/'.join(PROVENANCE_KEYS)}) -- regenerate the bench"
        ]
    return [
        f"{name}: provenance missing {key}"
        for key in PROVENANCE_KEYS
        if key not in prov
    ]


def check_bench_artifact(path: str, margin: float = DEFAULT_MARGIN) -> List[str]:
    """Floor-check one recorded ``BENCH_*.json``; returns failure strings.

    The artifact schema is detected from content: the ``bench`` key
    names kernel-speedup and batch-reuse artifacts; the
    service throughput artifact predates the key and is recognized by
    its ``overload`` regime block.  Every schema must also carry the
    shared provenance stamp (:data:`PROVENANCE_KEYS`).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable artifact ({exc})"]
    bench = data.get("bench")
    if bench == "kernel_speedup":
        failures = _check_kernel_speedup(data, margin)
    elif bench == "batch_reuse":
        failures = _check_batch_reuse(data, margin)
    elif "overload" in data:
        bench = "service_throughput"
        failures = _check_service_throughput(data, margin)
    else:
        return [f"{path}: unrecognized artifact schema (bench={bench!r})"]
    failures.extend(_provenance_failures(data, bench))
    return failures


def check_bench_artifacts(
    paths: Sequence[str], margin: float = DEFAULT_MARGIN
) -> List[str]:
    """Floor-check several artifacts; the union of their failures."""
    failures: List[str] = []
    for path in paths:
        failures.extend(check_bench_artifact(path, margin))
    return failures


# ----------------------------------------------------------------------
# Profile-vs-artifact drift (opt-in)
# ----------------------------------------------------------------------


def compare_to_kernel_artifact(
    summary: Dict[str, object],
    artifact_path: str,
    max_slowdown: float = 25.0,
    engine: Optional[str] = None,
) -> List[str]:
    """Flag live per-phase p50s that dwarf the artifact's recorded times.

    Wall-clock comparisons across machines are inherently noisy, so the
    default tolerance is deliberately generous (``max_slowdown`` 25x):
    this catches "verification is suddenly 100x the recorded baseline",
    not single-digit drift -- that is what the paired floors in
    ``--check-bench`` are for.
    """
    try:
        with open(artifact_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{artifact_path}: unreadable artifact ({exc})"]
    workloads = data.get("workloads") or []
    if not workloads:
        return [f"{artifact_path}: no workloads to compare against"]
    # Best (fastest) recorded numpy time per phase across workloads.
    baseline: Dict[str, float] = {}
    for point in workloads:
        for phase, seconds in (point.get("numpy_phases") or {}).items():
            if seconds > 0 and (phase not in baseline or seconds < baseline[phase]):
                baseline[phase] = seconds
    failures = []
    engines = summary.get("engines") or {}
    selected = {engine: engines[engine]} if engine in engines else engines
    for name, stats in selected.items():
        for phase, recorded in baseline.items():
            live = (stats.get("phases") or {}).get(phase)
            if live is None:
                continue
            if live["p50"] > recorded * max_slowdown:
                failures.append(
                    f"{name}/{phase}: live p50 {live['p50'] * 1000:.3f}ms is "
                    f">{max_slowdown:.0f}x the recorded "
                    f"{recorded * 1000:.3f}ms baseline"
                )
    return failures
