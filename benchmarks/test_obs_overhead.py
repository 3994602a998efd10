"""Disabled-tracer overhead guard (observability acceptance bar).

The tracer's contract is "zero-cost-ish when disabled": with no tracer
attached, every instrumentation point in the shared
:class:`~repro.core.pipeline.PhasePipeline` orchestrator
costs one branch plus an empty context-manager enter/exit on the shared
no-op span, and the registry feeds cost one dict-slot float add each.
This bench re-threads the engine's pipeline *by hand* -- the same
BIGrid build and phase calls, none of the instrumentation -- and
asserts the instrumented engine stays within a few percent of it on a
micro-workload.

Wall-clock comparisons on shared machines are noisy (round-to-round
spread here exceeds the bound being enforced), so the guard uses a
paired estimator: each round times both pipelines back-to-back in
alternating order and the *minimum* per-round ratio is bounded.  Slow
machine drift hits both halves of a pair alike, and a real regression
(a per-object allocation, an accidental always-on span) puts a hard
floor under every ratio -- no lucky round can dip below ~1+overhead.
"""

import time

from repro import faults
from repro.bitset.factory import resolve_backend
from repro.core.engine import MIOEngine
from repro.core.lower_bound import compute_lower_bounds
from repro.core.query import MIOResult, PhaseStats
from repro.core.upper_bound import compute_upper_bounds
from repro.core.verification import verify_candidates
from repro.grid.bigrid import BIGrid
from repro.resilience import checkpoint

DATASET = "neuron"
WORKLOAD = [4.0, 6.0, 8.0]
ROUNDS = 6
#: Bound on the minimum paired engine/bare ratio (the acceptance bar's
#: "within ~5% of the pre-instrumentation path").
RATIO_BOUND = 1.05


def uninstrumented_query(collection, r, backend="ewah"):
    """The label-free pipeline exactly as the engine ran it before the
    observability layer: phase timers, fault points, and deadline
    checkpoints included (those predate the tracer); spans and registry
    feeds excluded.  This is the floor the disabled-tracer engine is
    held to.
    """
    stats = PhaseStats()
    _, resolved = resolve_backend(backend)

    faults.trip("grid_mapping")
    checkpoint(None, "grid_mapping")
    started = time.perf_counter()
    bigrid = BIGrid.build(collection, r, backend=resolved)
    stats.add_time("grid_mapping", time.perf_counter() - started)
    stats.set_count("small_cells", len(bigrid.small_grid))
    stats.set_count("large_cells", len(bigrid.large_grid))
    stats.set_count("mapped_points", bigrid.mapped_points)

    faults.trip("lower_bounding")
    checkpoint(None, "lower_bounding")
    started = time.perf_counter()
    lower = compute_lower_bounds(bigrid, stats=stats)
    stats.add_time("lower_bounding", time.perf_counter() - started)

    faults.trip("upper_bounding")
    checkpoint(None, "upper_bounding")
    started = time.perf_counter()
    upper = compute_upper_bounds(bigrid, lower.tau_max, stats=stats)
    stats.add_time("upper_bounding", time.perf_counter() - started)

    faults.trip("verification")
    started = time.perf_counter()
    verification = verify_candidates(
        bigrid, upper.candidates, r, k=1, seeds=lower.seeds, stats=stats
    )
    stats.add_time("verification", time.perf_counter() - started)

    winner, score = verification.ranking[0]
    MIOResult(
        algorithm="bigrid",
        r=r,
        winner=winner,
        score=score,
        topk=None,
        phases=stats.phases,
        counters=stats.counters,
        memory_bytes=bigrid.memory_bytes(),
        notes={},
    )
    return winner, score


def test_disabled_tracer_overhead(datasets, report):
    collection = datasets[DATASET]
    engine = MIOEngine(collection)

    def run_bare():
        started = time.perf_counter()
        answers = [uninstrumented_query(collection, r) for r in WORKLOAD]
        elapsed = time.perf_counter() - started
        return elapsed, answers

    def run_engine():
        started = time.perf_counter()
        answers = [
            (result.winner, result.score)
            for result in (engine.query(r) for r in WORKLOAD)
        ]
        elapsed = time.perf_counter() - started
        return elapsed, answers

    # Warm-up: JIT-free Python still benefits from touched caches/allocators.
    run_bare(), run_engine()

    rounds = []
    for index in range(ROUNDS):
        # Alternate which side goes first so any within-round warm-up or
        # throttling trend cancels across rounds instead of biasing one side.
        if index % 2 == 0:
            bare_seconds, bare_answers = run_bare()
            engine_seconds, engine_answers = run_engine()
        else:
            engine_seconds, engine_answers = run_engine()
            bare_seconds, bare_answers = run_bare()
        assert engine_answers == bare_answers  # instrumentation changes nothing
        rounds.append((bare_seconds, engine_seconds))

    best_ratio = min(engine / bare for bare, engine in rounds)
    lines = [
        "Disabled-tracer overhead guard (paired rounds, alternating order)",
        f"  {'round':>5} {'bare s':>8} {'engine s':>9} {'ratio':>7}",
    ]
    for index, (bare_seconds, engine_seconds) in enumerate(rounds):
        lines.append(
            f"  {index:>5} {bare_seconds:>8.3f} {engine_seconds:>9.3f}"
            f" {engine_seconds / bare_seconds:>7.3f}"
        )
    lines.append(
        f"  best ratio: {best_ratio:.3f} (bound: {RATIO_BOUND:.2f})"
    )
    report("obs_overhead", "\n".join(lines))
    assert best_ratio <= RATIO_BOUND, (
        f"disabled-tracer engine ran at {best_ratio:.3f}x the bare "
        f"pipeline in its best round (bound {RATIO_BOUND:.2f}x): every "
        "round paid for the instrumentation, so the overhead is real"
    )


#: Production sampling rate the telemetry guard runs at (the `repro
#: serve` default): 1-in-100 queries carries a full span tree.
SAMPLE_RATE = 0.01


def test_sampled_telemetry_overhead(datasets, report):
    """Telemetry *enabled* must fit the same paired-overhead budget.

    The tentpole's acceptance bar: with the hub recording a profile per
    query, feeding the slow-query log, and head-sampling at the serve
    default of 1%, the engine stays within RATIO_BOUND of a run with
    telemetry disabled.  Same paired min-ratio estimator as the
    disabled-tracer guard; the baseline here is the instrumented engine
    itself (hub off), so the ratio isolates what telemetry adds.
    """
    from repro.obs.telemetry import Telemetry, set_telemetry

    collection = datasets[DATASET]
    engine = MIOEngine(collection)

    # An isolated hub so the guard neither inherits a sink nor pollutes
    # the process hub's rings; restored unconditionally on the way out.
    hub = Telemetry(sample_rate=SAMPLE_RATE, slow_ms=250.0)
    previous = set_telemetry(hub)
    try:

        def run_with_telemetry():
            hub.enabled = True
            started = time.perf_counter()
            answers = [
                (result.winner, result.score)
                for result in (engine.query(r) for r in WORKLOAD)
            ]
            elapsed = time.perf_counter() - started
            return elapsed, answers

        def run_without_telemetry():
            hub.enabled = False
            started = time.perf_counter()
            answers = [
                (result.winner, result.score)
                for result in (engine.query(r) for r in WORKLOAD)
            ]
            elapsed = time.perf_counter() - started
            return elapsed, answers

        run_without_telemetry(), run_with_telemetry()  # warm-up

        rounds = []
        for index in range(ROUNDS):
            if index % 2 == 0:
                off_seconds, off_answers = run_without_telemetry()
                on_seconds, on_answers = run_with_telemetry()
            else:
                on_seconds, on_answers = run_with_telemetry()
                off_seconds, off_answers = run_without_telemetry()
            assert on_answers == off_answers  # telemetry changes nothing
            rounds.append((off_seconds, on_seconds))
    finally:
        set_telemetry(previous)

    best_ratio = min(on / off for off, on in rounds)
    lines = [
        f"Sampled-telemetry overhead guard (rate={SAMPLE_RATE}, paired rounds)",
        f"  {'round':>5} {'off s':>8} {'on s':>9} {'ratio':>7}",
    ]
    for index, (off_seconds, on_seconds) in enumerate(rounds):
        lines.append(
            f"  {index:>5} {off_seconds:>8.3f} {on_seconds:>9.3f}"
            f" {on_seconds / off_seconds:>7.3f}"
        )
    lines.append(f"  best ratio: {best_ratio:.3f} (bound: {RATIO_BOUND:.2f})")
    lines.append(
        f"  profiles recorded: {hub.profiles.totals()['recorded']}, "
        f"sampled: {hub.profiles.totals()['sampled']}"
    )
    report("obs_overhead_sampled", "\n".join(lines))
    assert hub.profiles.totals()["recorded"] > 0, (
        "the enabled half never recorded a profile -- the guard is not "
        "measuring telemetry"
    )
    assert best_ratio <= RATIO_BOUND, (
        f"telemetry-enabled engine ran at {best_ratio:.3f}x the "
        f"telemetry-off engine in its best round (bound {RATIO_BOUND:.2f}x): "
        "every round paid for the hub, so the overhead is real"
    )
