"""End-to-end benchmark of the MIO query engine: one entry point.

Run one workload (the window defaults to BENCHMARK.json's run_seconds)::

    python3 benchmarks/e2e/run.py --workload cold-sweep --seed 1 --trace 0

Run every workload, each in its own fresh process, appending the results
to a file (``--trace 1`` adds the traced pass)::

    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --out .e2e/run.json

Compare two result files with the bounds in BENCHMARK.json::

    python3 benchmarks/e2e/run.py compare .e2e/parent.json .e2e/change.json

Every operation is timed at the caller's side of the public API and its
answer checked against an independent oracle after the window.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass (the
window's first half runs untraced, for the tracing-overhead ratio).  The
metric names, units and directions are BENCHMARK.json's.  End-to-end
times are scaled to a reference host speed by a probe timed between
operations (``hostspeed.py``); the record keeps the raw times too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Timed set-ups per run; setup_s is their median.
SETUP_REPS = 3
SMOKE_SECONDS = 1.0
#: Per-process cap in all-workloads mode.
CHILD_TIMEOUT_S = 300


def load_benchmark() -> Dict[str, Any]:
    """BENCHMARK.json: the metric catalog, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_program() -> None:
    """Exit nonzero unless the package sources sit beside the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def _closed_window(workload, seconds: float, trace: bool, log, marks: Dict[str, Any]):
    """Ops back to back, one host-speed probe after each; (ops, probes)."""
    from hostspeed import probe
    from layers import instrument, layer_targets

    ops, samples = [], []
    with ExitStack() as stack:
        start = time.perf_counter()
        half, end = start + seconds / 2.0, start + seconds
        traced_from = None
        while True:
            if ops and len(ops) % workload.block == 0:
                # Windows end, and tracing starts, on the block boundary
                # nearest the deadline, so every run asks the same mix and
                # the window averages ``seconds``.  A traced window keeps at
                # least one block on each side of the switch.
                now = time.perf_counter()
                reach = now + (now - start) * workload.block / len(ops) / 2.0
                if trace and traced_from is None:
                    if reach >= half:
                        marks["session"] = workload.session_stats()
                        stack.enter_context(instrument(log, layer_targets()))
                        traced_from = len(ops)
                elif reach >= end:
                    break
            op = workload.next_op()
            op.traced = traced_from is not None
            log.current_op = len(ops)
            op.start = time.perf_counter()
            try:
                workload.execute(op)
            except Exception as exc:  # noqa: BLE001 -- a failed op is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            op.end = time.perf_counter()
            ops.append(op)
            samples.append((time.perf_counter(), probe()))
        marks["session_end"] = workload.session_stats()
    return ops, samples


def _open_window(workload, seconds: float, trace: bool, log, marks: Dict[str, Any]):
    """The schedule sent by the load process; (ops, probes)."""
    from layers import instrument, layer_targets

    ops = workload.schedule(seconds)
    with ExitStack() as stack:

        def on_half() -> None:
            if not trace:
                return
            marks["session"] = workload.session_stats()
            marks["service"] = workload.service_stats()
            stack.enter_context(instrument(log, layer_targets()))
            marks["toggle"] = time.monotonic()

        samples = workload.drive(ops, on_half)
        marks["session_end"] = workload.session_stats()
        marks["service_end"] = workload.service_stats()
    if trace:
        captured = {
            span.parent: span.value
            for span in log.named("session.query") + log.named("session.topk")
        }
        for op in ops:
            op.traced = op.sent >= marks["toggle"]
            if op.trace_id in captured:
                op.result = captured[op.trace_id]
    return ops, samples


def _check(workload, ops) -> Tuple[int, float]:
    """Oracle-check every op after the window; returns (failed, seconds)."""
    from oracle import ScoreOracle, check_answer
    from workloads import R_MAX

    start = time.perf_counter()
    oracles: Dict[Any, ScoreOracle] = {}
    failed = 0
    for op in ops:
        if op.error is None and op.kind != "write":
            if not op.exact:
                op.error = "inexact answer"
            else:
                oracle = oracles.get(op.snapshot)
                if oracle is None:
                    oracle = ScoreOracle(workload.snapshots[op.snapshot], R_MAX)
                    oracles[op.snapshot] = oracle
                op.error = check_answer(oracle.scores(op.r), op.winner, op.score, op.topk, op.k)
        if op.error is not None:
            failed += 1
    return failed, time.perf_counter() - start


def _delta(before: Optional[Dict[str, Any]], after: Optional[Dict[str, Any]]):
    if before is None or after is None:
        return None
    return {key: after[key] - before.get(key, 0) for key, value in after.items()
            if isinstance(value, (int, float))}


def _catalog_metrics(catalog: Sequence[Dict[str, Any]], values: Dict[str, float]):
    """``values`` as result-line metrics, in catalog order with catalog units."""
    names = [metric["name"] for metric in catalog]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in catalog}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Set up, run one window, check every answer, and measure."""
    from hostspeed import SPAN, HostSpeed, probe
    from layers import SpanLog, per_layer_metrics
    from stats import percentile
    from workloads import WORKLOADS

    bench = load_benchmark()
    setup_s: List[float] = []
    setup_raw_s: List[float] = []
    workload = None
    # The first set-up of a process also pays its imports and first calls
    # (about twice a later one), so it runs untimed.
    for rep in range(1 + SETUP_REPS):
        if workload is not None:
            workload.teardown()
        workload = WORKLOADS[name](seed, smoke)
        # Every set-up, and the window, starts from a collected heap.
        gc.collect()
        # Probes on both sides of a timed set-up give its host speed.
        around = [(time.perf_counter(), probe()) for _ in range(SPAN // 2 + 1)] if rep else []
        start = time.perf_counter()
        workload.setup()
        if rep:
            end = time.perf_counter()
            around += [(time.perf_counter(), probe()) for _ in range(SPAN // 2 + 1)]
            setup_raw_s.append(end - start)
            setup_s.append((end - start) * HostSpeed(around).scale((start + end) / 2.0))

    log = SpanLog()
    marks: Dict[str, Any] = {}
    window = _closed_window if workload.closed_loop else _open_window
    gc.collect()
    try:
        ops, samples = window(workload, seconds, trace, log, marks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.teardown()
    # A server busy through most gaps between requests (or a smoke window)
    # leaves too few probes; the rest are taken right after the window.
    samples += [(time.perf_counter(), probe()) for _ in range(SPAN - len(samples))]
    speed = HostSpeed(samples)
    failed, check_s = _check(workload, ops)
    attempted = len(ops)
    window_s = max(op.end for op in ops) - min(op.start for op in ops)
    latencies = [op.wall_s * 1000.0 for op in ops]
    scaled = [ms * speed.scale(op.start) for ms, op in zip(latencies, ops)]
    if workload.closed_loop:
        # One caller: ops per second of its (scaled) time, probes excluded.
        throughput = (attempted - failed) / (sum(scaled) / 1000.0)
    else:
        # The schedule fixes the offered rate: completions per second of it.
        throughput = (attempted - failed) / window_s

    if trace:
        extra = {
            "loadgen.check_s": check_s,
            "host.probe_ms_p50": percentile([ms for _, ms in samples], 0.5),
        }
        extra.update(workload.probes(ops))
        if name == "sharded-sweep":
            extra["shard.worker_peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            )
        reads = [op for op in ops if op.kind != "write"]
        values = per_layer_metrics(
            names=[metric["name"] for metric in bench["per_layer"]],
            reads=[op for op in reads if op.traced],
            untraced_reads=[op for op in reads if not op.traced],
            log=log,
            window_ops=attempted,
            writes=sum(1 for op in ops if op.kind == "write" and op.traced),
            session_delta=_delta(marks.get("session"), marks.get("session_end")),
            service_delta=_delta(marks.get("service"), marks.get("service_end")),
            extra=extra,
        )
        metrics = _catalog_metrics(bench["per_layer"], values)
    else:
        metrics = _catalog_metrics(bench["end_to_end"], {
            "setup_s": percentile(setup_s, 0.5),
            "latency_p50_ms": percentile(scaled, 0.5),
            "latency_p90_ms": percentile(scaled, 0.9),
            "throughput_ops": throughput,
            "peak_rss_mb": peak_rss_mb,
        })
    origin = min((span.start for span in log.spans), default=0.0)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        # [name, start ms from the first span, duration ms, parent op or trace id]
        "spans": [
            [span.name, round((span.start - origin) * 1000.0, 3), round(span.ms, 3),
             span.parent]
            for span in log.spans
        ],
        "seconds": seconds,
        "window_s": window_s,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "latencies_ms": [round(value, 3) for value in latencies],
        "scaled_latencies_ms": [round(value, 3) for value in scaled],
        # [seconds from the window's first op, probe ms]
        "host_probes": [[round(when - ops[0].start, 4), round(ms, 4)] for when, ms in samples],
        "setup_runs_s": setup_s,
        "setup_raw_runs_s": setup_raw_s,
        "check_s": check_s,
        "failures": [op.error for op in ops if op.error is not None][:5],
        "params": workload.params(),
        "metrics": metrics,
        "provenance": provenance(seed),
    }


def _child_pids() -> List[int]:
    pids: List[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in path.read_text().split()]
        except OSError:
            pass
    return pids


def _stop_children() -> None:
    """Stop and reap every process this one started, on every way out.

    Workloads close what they start, so normally this only stops the
    multiprocessing resource tracker: the sharded engine's shared-memory
    block starts it, and by design it outlives its parent unless stopped.
    Anything else still running (a set-up or window that raised) is
    killed first, because forked workers hold the tracker's pipe open.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in _child_pids():
        if pid == tracker._pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


# ----------------------------------------------------------------------
# Provenance and result files
# ----------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    # The ceiling keeps git from reporting an enclosing repository when
    # the benchmark runs from an exported tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(seed: int) -> Dict[str, Any]:
    """Everything needed to say whether two results can be compared."""
    import numpy
    import scipy

    from repro.kernels import resolve_kernel
    from workloads import SERVE_RATE

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit.strip() if commit else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel": resolve_kernel("auto").name,
        "seed": seed,
        "serve_rate_per_s": SERVE_RATE,
    }


def append_runs(path: Path, runs: Sequence[Dict[str, Any]]) -> None:
    """Add runs to a result file (``{"runs": [...]}``), creating it if absent."""
    document = {"runs": []}
    if path.exists():
        document = json.loads(path.read_text())
    document["runs"].extend(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def _summary_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def _print_record(record: Dict[str, Any]) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"ops={record['attempted']} failed={record['failed']} "
        f"error_rate={record['error_rate']:.4f} window={record['window_s']:.2f}s "
        f"check={record['check_s']:.2f}s kernel={record['provenance']['kernel']} "
        f"commit={record['provenance']['commit'][:12]}"
    )
    for failure in record["failures"]:
        print(f"#   failed: {failure}")
    for key, metric in record["metrics"].items():
        print(f"{record['workload']:>14}  {key:<36} {metric['value']:>14.4f} {metric['unit']}")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def _run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", str(args.out)]
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"error: {name} produced no result (exit {done.returncode})", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], load_benchmark())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1, help="drives every input (default 1)")
    parser.add_argument(
        "--seconds", type=float,
        help="timed window per workload (default: BENCHMARK.json run_seconds; "
        "compare refuses runs whose windows differ)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and a 1 s window")
    parser.add_argument("--out", type=Path, help="append the run records to this JSON file")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _require_program()
    from workloads import WORKLOADS

    if args.workload is None:
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    # A terminated run unwinds like a failed one, so it stops its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    finally:
        _stop_children()
    if args.out:
        append_runs(args.out, [record])
    _print_record(record)
    print(_summary_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
