"""Service throughput under concurrency, steady load, and overload.

Three phases over one real HTTP server (ephemeral port, threaded
clients):

1. **capacity probe** -- serial requests establish per-query service
   time, from which the offered rates below are derived;
2. **steady phase** -- concurrent closed-loop clients at roughly the
   measured capacity: everything should be served, overwhelmingly exact;
3. **overload phase** -- at least 2x capacity of *offered* load against
   a small admission queue.  The robustness acceptance bar from the
   issue: excess load is shed with 429s, the p99 of *served* requests
   stays within 2x the request deadline, and no request ever sees a raw
   5xx.

The numbers (QPS, latency percentiles, shed/degraded rates) land in
``results/BENCH_service_throughput.json`` so later PRs can track them.
"""

import json
import threading
import time

from repro.bench.harness import bench_provenance
from repro.datasets import load_dataset
from repro.errors import ReproError, ServiceOverloadedError
from repro.service import MIOServer, ServiceApp, ServiceClient, ServiceConfig

from conftest import RESULTS_DIR

DATASET = "neuron"
R = 4.0
DEADLINE_MS = 2000.0
MAX_INFLIGHT = 4
MAX_QUEUE = 4


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_phase(server, app, clients, requests_per_client):
    """Closed-loop clients firing back-to-back queries; returns raw stats."""
    host, port = server.address
    lock = threading.Lock()
    latencies, outcomes = [], []

    def client_loop():
        client = ServiceClient(host, port, max_retries=0, timeout_s=60.0)
        for _ in range(requests_per_client):
            started = time.perf_counter()
            try:
                payload = client.query(R, timeout_ms=DEADLINE_MS)
                outcome = "exact" if payload["exact"] else "degraded"
            except ServiceOverloadedError:
                outcome = "shed"
            except ReproError as exc:  # structured failure: count, never raise
                outcome = f"error:{type(exc).__name__}"
            elapsed = time.perf_counter() - started
            with lock:
                outcomes.append(outcome)
                if outcome in ("exact", "degraded"):
                    latencies.append(elapsed)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    wall = time.perf_counter() - started

    latencies.sort()
    served = sum(1 for o in outcomes if o in ("exact", "degraded"))
    return {
        "clients": clients,
        "requests": len(outcomes),
        "wall_s": round(wall, 3),
        "qps": round(served / wall, 2) if wall else 0.0,
        "served": served,
        "shed": outcomes.count("shed"),
        "degraded": outcomes.count("degraded"),
        "errors": sum(1 for o in outcomes if o.startswith("error:")),
        "shed_rate": round(outcomes.count("shed") / len(outcomes), 4),
        "degraded_rate": round(outcomes.count("degraded") / max(1, served), 4),
        "p50_ms": round(percentile(latencies, 0.50) * 1000.0, 2),
        "p95_ms": round(percentile(latencies, 0.95) * 1000.0, 2),
        "p99_ms": round(percentile(latencies, 0.99) * 1000.0, 2),
    }


def test_service_throughput_and_overload(report):
    collection = load_dataset(DATASET)
    app = ServiceApp(
        collection,
        ServiceConfig(
            port=0, max_inflight=MAX_INFLIGHT, max_queue=MAX_QUEUE,
            default_timeout_ms=DEADLINE_MS, max_timeout_ms=DEADLINE_MS,
        ),
    )
    server = MIOServer(app).start()
    try:
        # Phase 1: capacity probe (serial, warm caches).
        host, port = server.address
        probe = ServiceClient(host, port, max_retries=0, timeout_s=60.0)
        probe.query(R, timeout_ms=DEADLINE_MS)  # warm labels and cache tiers
        times = []
        for _ in range(5):
            started = time.perf_counter()
            probe.query(R, timeout_ms=DEADLINE_MS)
            times.append(time.perf_counter() - started)
        service_time_s = sorted(times)[len(times) // 2]

        # Phase 2: steady load -- as many closed-loop clients as execution
        # slots, so offered load tracks capacity.
        steady = run_phase(server, app, clients=MAX_INFLIGHT,
                           requests_per_client=8)

        # Phase 3: overload -- 4x the execution slots with a 4-deep queue
        # sheds aggressively by construction (offered >= 2x capacity).
        overload = run_phase(server, app, clients=4 * MAX_INFLIGHT,
                             requests_per_client=8)
    finally:
        server.shutdown_gracefully()

    payload = {
        "dataset": DATASET,
        "r": R,
        "deadline_ms": DEADLINE_MS,
        "max_inflight": MAX_INFLIGHT,
        "max_queue": MAX_QUEUE,
        "serial_service_time_ms": round(service_time_s * 1000.0, 2),
        "provenance": bench_provenance(),
        "steady": steady,
        "overload": overload,
        "service": {
            key: value
            for key, value in app.snapshot().items()
            if key not in ("session",)
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_service_throughput.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    lines = [
        f"service throughput over {DATASET} (r={R}, "
        f"inflight={MAX_INFLIGHT}, queue={MAX_QUEUE})",
        f"  serial service time : {payload['serial_service_time_ms']} ms",
    ]
    for name, phase in (("steady", steady), ("overload", overload)):
        lines.append(
            f"  {name:<8}: {phase['qps']} qps served, "
            f"p50/p95/p99 = {phase['p50_ms']}/{phase['p95_ms']}/"
            f"{phase['p99_ms']} ms, shed {phase['shed']}/{phase['requests']}, "
            f"degraded {phase['degraded']}"
        )
    report("service_throughput", "\n".join(lines))

    # The robustness acceptance bar.
    assert steady["errors"] == 0 and overload["errors"] == 0
    assert steady["served"] == steady["requests"] - steady["shed"]
    # Under >= 2x overload the bounded queue sheds rather than collapsing...
    assert overload["shed"] > 0
    # ...and every non-shed request was served (nothing vanished or 500ed).
    assert overload["served"] + overload["shed"] == overload["requests"]
    # Served tail latency stays within 2x the deadline: queue wait is
    # bounded by the budget and execution by the anytime degrade.
    assert overload["p99_ms"] <= 2.0 * DEADLINE_MS
