"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``   build a named synthetic dataset and save it as ``.npz``
``stats``      print Table-I style statistics for a dataset file
``query``      run an MIO / top-k / temporal query over a dataset file
``compare``    run all algorithms on one query and print a comparison
``batch``      run a JSON workload through one QuerySession (label reuse)
``explain``    trace one query: span tree plus the pruning funnel
``serve``      run the hardened concurrent HTTP query service (docs/service.md)
``report``     aggregate a telemetry profile log and/or floor-check bench artifacts

Observability flags: ``query --trace`` prints the span tree under the
answer, ``query``/``batch --metrics-out PATH`` dump the metrics registry
(Prometheus text format, or JSON when the path ends in ``.json``),
``batch --trace-out PATH`` writes the batch's span trees as JSON, and
``batch --log-json PATH`` streams one structured log line per request
with ``batch_id``/``query_id`` correlation ids.  Telemetry flags
(``--telemetry-out``, ``--sample-rate``, ``--slow-ms`` on ``query``,
``batch``, and ``serve``; ``batch --slowlog-out``) feed the always-on
telemetry hub -- see ``docs/observability.md``.

Example session::

    python -m repro generate bird-2 --scale 0.5 -o birds.npz
    python -m repro stats birds.npz
    python -m repro query birds.npz -r 4 --topk 5
    python -m repro compare birds.npz -r 4
    python -m repro batch workload.json --stats

A workload file names its dataset and lists requests (bare numbers are
thresholds; objects may set ``k`` and a per-request ``timeout_ms``)::

    {"dataset": "birds.npz",
     "queries": [4.9, 4.1, {"r": 4.5, "k": 3}, {"r": 8.2, "timeout_ms": 500}]}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import faults
from repro.bench.harness import run_algorithm
from repro.bench.reporting import format_table
from repro.core.engine import MIOEngine
from repro.core.temporal import TemporalMIOEngine
from repro.obs import logging as obs_logging
from repro.obs.explain import (
    funnel_stages,
    render_funnel,
    render_span_tree,
)
from repro.obs.export import metrics_json, prometheus_text, trace_json
from repro.obs.metrics import get_registry
from repro.obs.telemetry import ProfileSink, get_telemetry
from repro.obs.telemetry.report import (
    check_bench_artifacts,
    compare_to_kernel_artifact,
    load_profiles,
    render_summary,
    summarize,
)
from repro.obs.trace import Tracer
from repro.datasets import (
    DATASET_NAMES,
    describe,
    load_collection,
    load_dataset,
    sample_collection,
    save_collection,
)
from repro.errors import CorruptDataError, InvalidQueryError, ReproError
from repro.kernels import KERNEL_NAMES
from repro.parallel import ParallelMIOEngine
from repro.session import QuerySession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIO queries over spatial object databases (BIGrid, ICDE 2019)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="build a synthetic dataset")
    generate.add_argument("dataset", choices=DATASET_NAMES)
    generate.add_argument("--scale", type=float, default=1.0, help="object-count multiplier")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("-o", "--output", required=True, help="output .npz path")

    stats = commands.add_parser("stats", help="describe a dataset file")
    stats.add_argument("path", help=".npz dataset file")

    query = commands.add_parser("query", help="run an MIO query")
    query.add_argument("path", help=".npz dataset file")
    query.add_argument("-r", type=float, required=True, help="distance threshold")
    query.add_argument("--topk", type=int, default=1, help="return the k best objects")
    query.add_argument("--delta", type=float, default=None,
                       help="temporal threshold (needs timestamps)")
    query.add_argument("--backend", default="ewah", choices=("ewah", "plain"))
    query.add_argument("--kernel", default="auto", choices=KERNEL_NAMES,
                       help="compute kernel for the query phases; auto "
                            "feature-detects numpy (default: auto)")
    query.add_argument("--sample", type=float, default=1.0,
                       help="object sampling rate in (0, 1]")
    query.add_argument("--timeout-ms", type=float, default=None,
                       help="query deadline in milliseconds; expiring during "
                            "verification yields an anytime (inexact) answer")
    query.add_argument("--retries", type=int, default=2,
                       help="per-task retry budget (parallel engine)")
    query.add_argument("--cores", type=int, default=1,
                       help="worker processes; >1 uses the parallel engine")
    query.add_argument("--shards", type=int, default=None,
                       help="verifiers per parallel query (default: one per core)")
    query.add_argument("--trace", action="store_true",
                       help="print the query's span tree under the answer")
    query.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics registry after the query "
                            "(Prometheus text, or JSON if PATH ends in .json)")
    _add_telemetry_flags(query)

    compare = commands.add_parser("compare", help="run all algorithms on one query")
    compare.add_argument("path", help=".npz dataset file")
    compare.add_argument("-r", type=float, required=True)
    compare.add_argument("--algorithms", nargs="+",
                         default=["nl", "sg", "bigrid"],
                         help="subset of: nl nl-kdtree sg bigrid theoretical")
    compare.add_argument("--kernel", default="auto", choices=KERNEL_NAMES,
                         help="compute kernel for the BIGrid algorithms")

    batch = commands.add_parser(
        "batch", help="run a JSON workload through one query session"
    )
    batch.add_argument("workload", help="JSON workload file (see module docstring)")
    batch.add_argument("--stats", action="store_true",
                       help="emit per-request results and session counters as JSON")
    batch.add_argument("--backend", default=None,
                       choices=("ewah", "plain", "roaring"),
                       help="bitset backend (overrides the workload file)")
    batch.add_argument("--kernel", default="auto", choices=KERNEL_NAMES,
                       help="compute kernel for the query phases; auto "
                            "feature-detects numpy (default: auto)")
    batch.add_argument("--cores", type=int, default=1,
                       help="worker processes; >1 fans with-label queries out")
    batch.add_argument("--shards", type=int, default=None,
                       help="verifiers per parallel query (default: one per core)")
    batch.add_argument("--retries", type=int, default=2,
                       help="per-task retry budget (parallel engine)")
    batch.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the batch's span trees as JSON")
    batch.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics registry after the batch "
                            "(Prometheus text, or JSON if PATH ends in .json)")
    batch.add_argument("--log-json", default=None, metavar="PATH",
                       help="stream one structured JSON log line per request "
                            "(batch_id/query_id correlation ids)")
    _add_telemetry_flags(batch)
    batch.add_argument("--slowlog-out", default=None, metavar="PATH",
                       help="write the slow-query log captured during the "
                            "batch as JSON")

    serve = commands.add_parser(
        "serve", help="run the hardened concurrent query service over a dataset"
    )
    serve.add_argument("path", help=".npz dataset file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--backend", default="ewah",
                       choices=("ewah", "plain", "roaring"))
    serve.add_argument("--kernel", default="auto", choices=KERNEL_NAMES,
                       help="compute kernel for the primary execution path")
    serve.add_argument("--cores", type=int, default=1,
                       help="worker processes for the primary path")
    serve.add_argument("--shards", type=int, default=None,
                       help="verifiers per parallel query (default: one per core)")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="requests executing concurrently")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="admission queue depth before shedding with 429")
    serve.add_argument("--default-timeout-ms", type=float, default=1000.0,
                       help="budget for requests without a timeout_ms")
    serve.add_argument("--max-timeout-ms", type=float, default=30000.0,
                       help="cap on any requested budget (0 disables)")
    serve.add_argument("--breaker-failures", type=int, default=5,
                       help="consecutive failures that trip the circuit breaker")
    serve.add_argument("--breaker-reset-s", type=float, default=2.0,
                       help="base open interval before a half-open probe")
    serve.add_argument("--drain-s", type=float, default=5.0,
                       help="graceful-shutdown drain budget in seconds")
    serve.add_argument("--sample-rate", type=float, default=0.01,
                       help="fraction of queries carrying a full span tree "
                            "into /tracez (0 disables sampling)")
    serve.add_argument("--slow-ms", type=float, default=250.0,
                       help="latency threshold for the /slowlogz capture")
    serve.add_argument("--telemetry-out", default=None, metavar="PATH",
                       help="append one JSON profile line per query "
                            "(rotating JSONL; feed it to `repro report`)")

    explain = commands.add_parser(
        "explain", help="trace one query: span tree plus the pruning funnel"
    )
    explain.add_argument("path", help=".npz dataset file")
    explain.add_argument("-r", type=float, required=True, help="distance threshold")
    explain.add_argument("--topk", type=int, default=1, help="return the k best objects")
    explain.add_argument("--backend", default="ewah",
                         choices=("ewah", "plain", "roaring"))
    explain.add_argument("--kernel", default="auto", choices=KERNEL_NAMES,
                         help="compute kernel for the query phases")
    explain.add_argument("--cores", type=int, default=1,
                         help="worker processes; >1 uses the parallel engine")
    explain.add_argument("--shards", type=int, default=None,
                         help="verifiers per parallel query (default: one per core)")

    report = commands.add_parser(
        "report",
        help="aggregate a telemetry profile log into per-phase percentiles "
             "and/or floor-check recorded BENCH_*.json artifacts",
    )
    report.add_argument("profiles", nargs="?", default=None,
                        help="JSONL profile log written by --telemetry-out")
    report.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of text")
    report.add_argument("--check-bench", nargs="+", default=None, metavar="PATH",
                        help="BENCH_*.json artifacts to hold to their perf "
                             "floors; any regression exits nonzero")
    report.add_argument("--margin", type=float, default=0.8,
                        help="noise margin applied to every floor "
                             "(default 0.8: a floor F passes at F*0.8)")
    report.add_argument("--against", default=None, metavar="PATH",
                        help="BENCH_kernel_speedup.json to compare the "
                             "profile log's per-phase p50s against")
    report.add_argument("--max-slowdown", type=float, default=25.0,
                        help="tolerated live-over-recorded phase ratio for "
                             "--against (generous: machines differ)")

    return parser


def _add_telemetry_flags(command: argparse.ArgumentParser) -> None:
    """The telemetry knobs shared by ``query`` and ``batch``."""
    command.add_argument("--telemetry-out", default=None, metavar="PATH",
                         help="append one JSON profile line per query "
                              "(rotating JSONL; feed it to `repro report`)")
    command.add_argument("--sample-rate", type=float, default=None,
                         help="fraction of queries traced with full span "
                              "trees (deterministic systematic sampling)")
    command.add_argument("--slow-ms", type=float, default=None,
                         help="latency threshold for slow-query capture")


class _CliTelemetry:
    """Apply a command's telemetry flags to the process hub, then undo.

    The hub is process-global; restoring the previous dials keeps
    repeated in-process ``main()`` calls (tests, notebooks) independent.
    """

    def __init__(self) -> None:
        self._hub = get_telemetry()
        self._sink: Optional[ProfileSink] = None
        self._prev_rate = self._hub.sampler.rate
        self._prev_slow = self._hub.slowlog.threshold_ms

    def __enter__(self) -> "_CliTelemetry":
        return self

    def apply(self, args: argparse.Namespace) -> None:
        if getattr(args, "telemetry_out", None):
            self._sink = ProfileSink(args.telemetry_out)
            self._hub.reconfigure(sink=self._sink)
        if getattr(args, "sample_rate", None) is not None:
            self._hub.reconfigure(sample_rate=args.sample_rate)
        if getattr(args, "slow_ms", None) is not None:
            self._hub.reconfigure(slow_ms=args.slow_ms)

    def __exit__(self, *exc_info) -> None:
        if self._sink is not None:
            self._hub.reconfigure(sink=None)
        self._hub.reconfigure(
            sample_rate=self._prev_rate, slow_ms=self._prev_slow
        )


def _write_metrics(path: str) -> None:
    """Dump the process registry: Prometheus text, or JSON for ``*.json``."""
    text = metrics_json() if path.endswith(".json") else prometheus_text()
    Path(path).write_text(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    collection = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_collection(args.output, collection)
    print(f"wrote {collection} to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    collection = load_collection(args.path)
    info = describe(collection)
    rows = [[key, value] for key, value in info.items()]
    rows.append(["timestamps", "yes" if collection.has_timestamps() else "no"])
    print(format_table(["statistic", "value"], rows, title=args.path))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _CliTelemetry() as telemetry:
        telemetry.apply(args)
        return _run_query(args)


def _run_query(args: argparse.Namespace) -> int:
    collection = load_collection(args.path)
    if args.sample < 1.0:
        collection = sample_collection(collection, args.sample)
    tracer = Tracer() if args.trace else None
    if args.delta is not None:
        if args.topk != 1:
            print("error: --topk is not supported together with --delta", file=sys.stderr)
            return 2
        if args.timeout_ms is not None:
            print("warning: --timeout-ms is ignored for temporal queries",
                  file=sys.stderr)
        result = TemporalMIOEngine(collection).query(args.r, args.delta)
        if tracer is not None:
            # The temporal engine is untraced internally; reconstruct its
            # span tree from the reported phase breakdown.
            with tracer.span("query", engine="temporal", r=args.r,
                             delta=args.delta) as root:
                for phase, seconds in result.phases.items():
                    tracer.record(phase, seconds)
                root.set_attributes(winner=result.winner, score=result.score)
            root.set_duration(result.total_time)
    else:
        if args.cores != 1:
            engine = ParallelMIOEngine(
                collection, cores=args.cores, backend=args.backend,
                retries=args.retries, tracer=tracer, kernel=args.kernel,
                shards=args.shards,
            )
        else:
            engine = MIOEngine(
                collection, backend=args.backend, tracer=tracer, kernel=args.kernel
            )
        try:
            if args.topk > 1:
                result = engine.query_topk(
                    args.r, args.topk, timeout_ms=args.timeout_ms
                )
            else:
                result = engine.query(args.r, timeout_ms=args.timeout_ms)
        finally:
            if isinstance(engine, ParallelMIOEngine):
                engine.close()
    print(f"algorithm : {result.algorithm}")
    print(f"winner    : o_{result.winner}")
    print(f"score     : {result.score} of {collection.n - 1} objects")
    if not result.exact:
        print("answer    : inexact (deadline) -- score is a verified lower bound")
    for key, note in sorted(result.notes.items()):
        print(f"note      : {key}: {note}")
    if result.topk:
        for rank, (oid, score) in enumerate(result.topk, start=1):
            print(f"  #{rank}: o_{oid} (tau = {score})")
    print(f"time      : {result.total_time:.4f} s")
    for phase, seconds in result.phases.items():
        print(f"  {phase:<16} {seconds:.4f} s")
    if tracer is not None and tracer.root is not None:
        print("\ntrace:")
        print(render_span_tree(tracer.root, indent="  "))
    if args.metrics_out:
        _write_metrics(args.metrics_out)
        print(f"\nwrote metrics to {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    collection = load_collection(args.path)
    tracer = Tracer()
    if args.cores != 1:
        engine = ParallelMIOEngine(
            collection, cores=args.cores, backend=args.backend, tracer=tracer,
            kernel=args.kernel, shards=args.shards,
        )
    else:
        engine = MIOEngine(
            collection, backend=args.backend, tracer=tracer, kernel=args.kernel
        )
    try:
        if args.topk > 1:
            result = engine.query_topk(args.r, args.topk)
        else:
            result = engine.query(args.r)
    finally:
        if isinstance(engine, ParallelMIOEngine):
            engine.close()
    print(f"{result.algorithm} over {args.path} at r={args.r}")
    print(f"winner    : o_{result.winner} (tau = {result.score} "
          f"of {collection.n - 1} objects)")
    if "shards" in result.counters:
        print(f"verifiers : {result.counters['shards']} "
              f"across {result.counters.get('cores', args.cores)} core(s), "
              f"{result.extra.get('speculative_scores', 0)} speculative "
              "score(s)")
    if result.topk:
        for rank, (oid, score) in enumerate(result.topk, start=1):
            print(f"  #{rank}: o_{oid} (tau = {score})")
    for key, note in sorted(result.notes.items()):
        print(f"note      : {key}: {note}")
    print(f"time      : {result.total_time:.4f} s")
    print("\nspan tree:")
    print(render_span_tree(tracer.root, indent="  "))
    print("\npruning funnel:")
    print(render_funnel(funnel_stages(result, collection.n)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    collection = load_collection(args.path)
    rows = []
    for name in args.algorithms:
        record = run_algorithm(name, collection, args.r, kernel=args.kernel)
        rows.append(
            [name, f"o_{record.winner}", record.score,
             round(record.seconds, 4), round(record.memory_kib, 1)]
        )
    print(
        format_table(
            ["algorithm", "winner", "score", "time [s]", "index [KiB]"],
            rows,
            title=f"{args.path} at r={args.r}",
        )
    )
    scores = {row[2] for row in rows}
    if len(scores) != 1:
        print("error: algorithms disagree on the max score!", file=sys.stderr)
        return 1
    return 0


def _load_workload(path: str):
    """Parse a workload file into ``(dataset_path, backend, queries)``.

    The dataset path resolves relative to the workload file's directory,
    so a workload directory stays relocatable.
    """
    workload_path = Path(path)
    try:
        document = json.loads(workload_path.read_text())
    except OSError as exc:
        raise CorruptDataError(f"{path}: cannot read workload ({exc})") from exc
    except json.JSONDecodeError as exc:
        # Malformed *input* is the caller's bug (exit 11 / HTTP 400), not
        # corrupt on-disk state; only an unreadable file is CorruptDataError.
        raise InvalidQueryError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict) or "dataset" not in document:
        raise InvalidQueryError(
            f'{path}: workload must be an object with a "dataset" key'
        )
    queries = document.get("queries")
    if not isinstance(queries, list) or not queries:
        raise InvalidQueryError(f'{path}: workload needs a non-empty "queries" list')
    dataset = Path(document["dataset"])
    if not dataset.is_absolute():
        dataset = workload_path.parent / dataset
    return str(dataset), document.get("backend"), queries


def _cmd_batch(args: argparse.Namespace) -> int:
    with _CliTelemetry() as telemetry:
        telemetry.apply(args)
        code = _run_batch(args)
    if args.slowlog_out:
        slowlog = get_telemetry().slowlog
        Path(args.slowlog_out).write_text(
            json.dumps(
                {
                    "threshold_ms": slowlog.threshold_ms,
                    "captured": slowlog.captured,
                    "entries": slowlog.snapshot(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    return code


def _run_batch(args: argparse.Namespace) -> int:
    dataset_path, workload_backend, queries = _load_workload(args.workload)
    backend = args.backend or workload_backend or "ewah"
    collection = load_collection(dataset_path)
    tracer = Tracer() if args.trace_out else None
    session = QuerySession(
        collection, backend=backend, cores=args.cores, retries=args.retries,
        tracer=tracer, kernel=args.kernel, shards=args.shards,
    )
    log_stream = None
    try:
        if args.log_json:
            log_stream = open(args.log_json, "w")
            obs_logging.configure(log_stream)
        results = session.query_many(queries)
    finally:
        session.close()
        if log_stream is not None:
            obs_logging.configure(None)
            log_stream.close()
    if tracer is not None:
        Path(args.trace_out).write_text(trace_json(tracer.roots))
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    if args.stats:
        payload = {
            "workload": args.workload,
            "dataset": dataset_path,
            "backend": backend,
            "metrics": get_registry().snapshot(prefix="repro_cache_"),
            "results": [
                {
                    "r": result.r,
                    "algorithm": result.algorithm,
                    "winner": result.winner,
                    "score": result.score,
                    "exact": result.exact,
                    "seconds": round(result.total_time, 6),
                    "topk": result.topk,
                    "notes": result.notes,
                }
                for result in results
            ],
            "session": session.stats(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for result in results:
        rows.append(
            [
                result.r,
                result.algorithm,
                "-" if result.winner < 0 else f"o_{result.winner}",
                result.score,
                "yes" if result.exact else "no",
                round(result.total_time, 4),
            ]
        )
    print(
        format_table(
            ["r", "algorithm", "winner", "score", "exact", "time [s]"],
            rows,
            title=f"{args.workload} over {dataset_path} ({backend})",
        )
    )
    stats = session.stats()
    print(
        f"session   : {stats['queries']} queries, "
        f"{stats['label_hits']} with-label, "
        f"{stats['points_skipped_by_labels']} points skipped via labels, "
        f"{stats['timeouts']} timeouts"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: none of the other commands need the service stack.
    from repro.service import MIOServer, ServiceApp, ServiceConfig

    collection = load_collection(args.path)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_timeout_ms=args.default_timeout_ms,
        max_timeout_ms=args.max_timeout_ms,
        breaker_failures=args.breaker_failures,
        breaker_reset_s=args.breaker_reset_s,
        drain_s=args.drain_s,
        sample_rate=args.sample_rate,
        slow_query_ms=args.slow_ms,
        cores=args.cores,
        shards=args.shards,
    )
    app = ServiceApp(collection, config, backend=args.backend, kernel=args.kernel)
    if args.telemetry_out:
        get_telemetry().reconfigure(sink=ProfileSink(args.telemetry_out))
    server = MIOServer(app)
    host, port = server.address
    print(f"serving {args.path} ({collection.n} objects) on http://{host}:{port}",
          file=sys.stderr)
    print(f"endpoints: /query /topk /batch /healthz /readyz /metrics "
          f"/statusz /tracez /slowlogz",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining in-flight requests ...", file=sys.stderr)
        drained = server.shutdown_gracefully()
        snapshot = app.snapshot()
        print(
            f"served {snapshot['served']} requests "
            f"({snapshot['degraded']} degraded, {snapshot['shed']} shed); "
            f"drain {'completed' if drained else 'timed out'}",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Aggregate profiles / floor-check artifacts; nonzero on regression."""
    if not args.profiles and not args.check_bench:
        raise InvalidQueryError(
            "repro report needs a profile log and/or --check-bench artifacts"
        )
    failures: List[str] = []
    if args.profiles:
        profiles, skipped = load_profiles(args.profiles)
        if not profiles:
            raise CorruptDataError(
                f"{args.profiles}: no valid profile lines "
                f"({skipped} malformed lines skipped)"
            )
        summary = summarize(profiles)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary, skipped))
        if args.against:
            failures.extend(
                compare_to_kernel_artifact(
                    summary, args.against, max_slowdown=args.max_slowdown
                )
            )
    if args.check_bench:
        failures.extend(check_bench_artifacts(args.check_bench, margin=args.margin))
    if failures:
        print(f"\nREGRESSION: {len(failures)} floor(s) violated", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if args.check_bench:
        print(
            f"checked {len(args.check_bench)} bench artifact(s): "
            f"all floors hold (margin {args.margin})"
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "explain": _cmd_explain,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Every :class:`~repro.errors.ReproError` subclass carries a distinct
    ``exit_code`` (10-16), so scripts can tell a timeout from corrupt data
    from a bad query without parsing stderr.  ``REPRO_FAULTS`` in the
    environment installs the deterministic fault injector for chaos runs.
    """
    args = build_parser().parse_args(argv)
    injector = None
    try:
        injector = faults.from_env(os.environ.get("REPRO_FAULTS"))
        if injector is not None:
            faults.install(injector)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if injector is not None:
            faults.install(None)


if __name__ == "__main__":
    sys.exit(main())
