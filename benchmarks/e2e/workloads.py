"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, exposes the public
calls it times, and records every operation as an :class:`Op` that the
oracle later checks.  Scales are chosen so every workload completes at
least 100 operations in a 28 s window on a 2-CPU host; the Table-I
shapes (n : m ratio, dimension, skew) are kept, only ``n`` shrinks.

Seeds.  Every dataset is generated from one fixed generator seed; the run
seed drives every op stream: the order of the queries, which objects the
writes move and how far, the request schedule.  At these scales the
generator seed alone moves the cost of one cold-sweep pass by up to 19%
(median pass time over six seeds, interleaved on one host), and
relabeling and translating one fixed shape by up to 8%: either would hide
a 10% regression behind a seed change.  Op streams are stratified
(shuffled decks, a fixed top-k slot per block) so every seed asks the
same mix.

Why each workload exists (README.md has the full catalog):

* ``cold-sweep`` -- the four paper phases, kernels and result
  finalization, with every cache bypassed (a fresh engine per query).
* ``sharded-sweep`` -- the identical query list through warm sharded
  engines: a shard-only change moves it and leaves ``cold-sweep`` alone.
* ``session-churn`` -- the session cache tiers and the labeling pass
  under invalidation: writes beside reads.
* ``serve-open`` -- the only path through admission, HTTP, JSON and the
  telemetry hub, driven open loop from a separate load process.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Generator seed of every dataset (the registry's default).
DATASET_SEED = 7

#: The five Table-I analogues and the paper's Fig. 5 r sweep.
SWEEP_DATASETS = ("neuron", "neuron-2", "bird", "bird-2", "syn")
SWEEP_R = (4.0, 6.0, 8.0, 10.0)
SWEEP_SCALE = 0.4
SWEEP_CORES = 2
#: cold-sweep keeps nothing between queries, so its warm-up only has to
#: run the 3-D and the 2-D code paths once.
SWEEP_WARMUP = ("neuron", "bird-2")

CHURN_DATASET = "neuron-2"
CHURN_SCALE = 0.3
#: Fine-grained thresholds: 4.0, 4.5, ..., 10.0.
CHURN_R = tuple(4.0 + 0.5 * step for step in range(13))
#: Ops per churn block: a write, then five reads.
CHURN_BLOCK = 6
#: Per-axis standard deviation of a rewritten object's translation.
CHURN_SHIFT = 2.0

SERVE_DATASET = "bird-2"
SERVE_SCALE = 0.2
#: Integer thresholds, so the session's 8-entry lower-bound cache holds
#: every r after warm-up and the caches stay read-only in the window.
SERVE_R = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
#: A sixth of the single-client capacity at SERVE_SCALE when the host runs
#: fast (~30 req/s, 34 ms per request), a third when it runs slow (~60 ms
#: per request).  Queueing turns a slower host into more than
#: proportionally slower requests: at 7.5 req/s one run in ten saturated
#: the server in a slow stretch (p50 1.5x the others).  At half capacity
#: queueing doubled the run-to-run spread of p90 (17% against 9.5%).
SERVE_RATE = 5.0
SERVE_THREADS = 2
SERVE_TIMEOUT_MS = 5000.0
#: Where in each gap between requests the server process probes the host.
PROBE_AT = 0.75

#: One read in every TOPK_BLOCK asks for the top k.
TOPK_BLOCK = 5
TOPK_K = 5
#: Every r any workload asks stays at or below this (the oracle's reach).
R_MAX = 10.0
#: --smoke multiplies every dataset scale by this.
SMOKE_SCALE = 0.25


@dataclass
class Op:
    """One operation of a window, as the caller saw it."""

    kind: str  # "query" | "topk" | "write"
    r: float = 0.0
    k: int = 1
    #: Oracle key of the collection state the op ran against.
    snapshot: Any = None
    n: int = 0
    #: When the op was due (open loop) or started (closed loop), and done.
    start: float = 0.0
    end: float = 0.0
    traced: bool = False
    #: The in-process result (phases, counters, notes, memory_bytes).
    result: Any = None
    winner: int = -1
    score: int = 0
    topk: Optional[List[Tuple[int, int]]] = None
    exact: bool = True
    error: Optional[str] = None
    # -- open loop only ------------------------------------------------
    sent: float = 0.0
    trace_id: Optional[str] = None
    queue_wait_ms: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def take(self, result) -> None:
        """Copy an in-process result's answer onto the op.

        Only a traced op keeps the whole result (the per-layer metrics
        read it); an untraced window holds no more than the answer.
        """
        self.result = result if self.traced else None
        self.winner, self.score = result.winner, result.score
        self.topk = [tuple(pair) for pair in result.topk] if result.topk else None
        self.exact = result.exact


def dataset(name: str, scale: float):
    """A Table-I analogue at ``scale``, from the fixed generator seed."""
    from repro import load_dataset

    return load_dataset(name, scale=scale, seed=DATASET_SEED)


def deck(values: Sequence[Any], rng: random.Random) -> Iterator[Any]:
    """Endless draws that use every value once per shuffled round."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


class Workload:
    """Shared shape: seeded inputs, set-up/tear-down, oracle snapshots."""

    name = ""
    closed_loop = True
    #: A closed-loop window ends on a block boundary, so every run asks
    #: the same mix whatever its op count.
    block = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.scale_factor = SMOKE_SCALE if smoke else 1.0
        #: Oracle key -> the collection's point arrays in object-id order.
        self.snapshots: Dict[Any, List[Any]] = {}

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def session_stats(self) -> Optional[Dict[str, int]]:
        return None

    def service_stats(self) -> Optional[Dict[str, int]]:
        return None

    def probes(self, ops: Sequence[Op]) -> Dict[str, float]:
        """Per-layer numbers measured after the window (traced pass only)."""
        return {}


class ColdSweep(Workload):
    name = "cold-sweep"
    block = len(SWEEP_DATASETS) * len(SWEEP_R)

    def params(self) -> Dict[str, Any]:
        return {
            "datasets": list(SWEEP_DATASETS),
            "scale": SWEEP_SCALE * self.scale_factor,
            "dataset_seed": DATASET_SEED,
            "r": list(SWEEP_R),
            "order": "whole passes over datasets x r, each shuffled by the seed",
            "engine": "MIOEngine(kernel='auto', backend='ewah'), fresh per query",
            "loop": "closed, 1 caller",
        }

    def _load(self) -> None:
        scale = SWEEP_SCALE * self.scale_factor
        self.data = {name: dataset(name, scale) for name in SWEEP_DATASETS}
        for name, collection in self.data.items():
            self.snapshots[name] = [obj.points for obj in collection]
        grid = [(name, r) for name in SWEEP_DATASETS for r in SWEEP_R]
        self._stream = deck(grid, random.Random(f"sweep:{self.seed}"))

    def setup(self) -> None:
        self._load()
        for name in SWEEP_WARMUP:
            self._run(name, SWEEP_R[0])

    def _run(self, name: str, r: float):
        from repro import MIOEngine

        return MIOEngine(self.data[name], kernel="auto", backend="ewah").query(r)

    def next_op(self) -> Op:
        name, r = next(self._stream)
        return Op("query", r=r, snapshot=name, n=self.data[name].n)

    def execute(self, op: Op) -> None:
        op.take(self._run(op.snapshot, op.r))


class ShardedSweep(ColdSweep):
    name = "sharded-sweep"

    def params(self) -> Dict[str, Any]:
        params = super().params()
        params["engine"] = (
            f"ParallelMIOEngine(cores={SWEEP_CORES}, mode='sharded', kernel='auto', "
            "backend='ewah'), one warm engine per dataset"
        )
        return params

    def setup(self) -> None:
        from repro import ParallelMIOEngine

        self._load()
        self.engines = {}
        for name, collection in self.data.items():
            engine = ParallelMIOEngine(
                collection, cores=SWEEP_CORES, mode="sharded", kernel="auto", backend="ewah"
            )
            self.engines[name] = engine
            engine.query(SWEEP_R[0])  # forks the pool

    def teardown(self) -> None:
        for engine in getattr(self, "engines", {}).values():
            engine.close()
        self.engines = {}

    def execute(self, op: Op) -> None:
        op.take(self.engines[op.snapshot].query(op.r))

    def probes(self, ops: Sequence[Op]) -> Dict[str, float]:
        """Router cost timed directly, and a serial replay for the speedup.

        The replay runs each distinct (dataset, r) of the window through a
        fresh serial engine -- the cold-sweep op -- so the speedup compares
        the identical query list, and both bases are reported.
        """
        from layers import probe_plan_ms
        from stats import mean, percentile

        plan_ms = probe_plan_ms(list(self.data.values()), SWEEP_R, SWEEP_CORES)
        sharded: Dict[Tuple[str, float], List[float]] = {}
        for op in ops:
            if op.error is None:
                sharded.setdefault((op.snapshot, op.r), []).append(op.wall_s)
        serial_ms, sharded_ms = [], []
        for (name, r), walls in sorted(sharded.items()):
            start = time.perf_counter()
            self._run(name, r)
            serial_ms.append((time.perf_counter() - start) * 1000.0)
            sharded_ms.append(mean(walls) * 1000.0)
        serial, parallel = mean(serial_ms), mean(sharded_ms)
        return {
            "shard.plan_ms_p50": percentile(plan_ms, 0.5),
            "shard.serial_wall_ms": serial,
            "shard.sharded_wall_ms": parallel,
            "shard.speedup_vs_serial": serial / parallel if parallel else 0.0,
        }


class SessionChurn(Workload):
    """Blocks of one write then five reads against one dynamic session.

    The first read after a write rebuilds the snapshot and misses every
    cache; one later read per block repeats an r asked since the write
    (an exact lower-bound cache hit); one read per block asks for top-k.
    """

    name = "session-churn"
    block = CHURN_BLOCK

    def params(self) -> Dict[str, Any]:
        return {
            "dataset": CHURN_DATASET,
            "scale": CHURN_SCALE * self.scale_factor,
            "dataset_seed": DATASET_SEED,
            "r": list(CHURN_R),
            "block": "write, then 5 reads: 1 repeats an r since the write, 1 is top-k",
            "k": TOPK_K,
            "write": f"remove a random object, add it back shifted by N(0, {CHURN_SHIFT}) per axis",
            "engine": "QuerySession(DynamicMIO, kernel='auto', cores=1)",
            "loop": "closed, 1 caller",
        }

    def setup(self) -> None:
        from repro import DynamicMIO, QuerySession

        collection = dataset(CHURN_DATASET, CHURN_SCALE * self.scale_factor)
        self.dynamic = DynamicMIO()
        self.handles = [self.dynamic.add_object(obj.points) for obj in collection]
        self.session = QuerySession(self.dynamic, kernel="auto", cores=1)
        self.rng = random.Random(f"churn:{self.seed}")
        self.fresh_r = deck(CHURN_R, self.rng)
        self.count = 0
        self._record_snapshot()
        self.session.query(CHURN_R[0])

    def _record_snapshot(self) -> None:
        # DynamicMIO.snapshot() orders objects by handle; handles only grow.
        self.snapshots[self.dynamic.version] = [
            self.dynamic.get_points(handle) for handle in self.handles
        ]

    def session_stats(self) -> Dict[str, int]:
        return self.session.stats()

    def next_op(self) -> Op:
        slot = self.count % CHURN_BLOCK
        self.count += 1
        if slot == 0:
            # Slots 2..5 of the block: which one repeats, which one is top-k.
            self.repeat_slot = self.rng.randrange(2, CHURN_BLOCK)
            self.topk_slot = self.rng.randrange(1, CHURN_BLOCK)
            self.asked: List[float] = []
            return Op("write", n=len(self.handles))
        r = self.rng.choice(self.asked) if slot == self.repeat_slot else next(self.fresh_r)
        self.asked.append(r)
        topk = slot == self.topk_slot
        return Op(
            "topk" if topk else "query",
            r=r,
            k=TOPK_K if topk else 1,
            snapshot=self.dynamic.version,
            n=len(self.handles),
        )

    def execute(self, op: Op) -> None:
        if op.kind == "write":
            self._write()
        elif op.kind == "topk":
            op.take(self.session.topk(op.r, op.k))
        else:
            op.take(self.session.query(op.r))

    def _write(self) -> None:
        import numpy as np

        handle = self.handles.pop(self.rng.randrange(len(self.handles)))
        points = self.dynamic.get_points(handle)
        shift = np.array([self.rng.gauss(0.0, CHURN_SHIFT) for _ in range(points.shape[1])])
        self.dynamic.remove_object(handle)
        self.handles.append(self.dynamic.add_object(points + shift))
        self._record_snapshot()


class ServeOpen(Workload):
    name = "serve-open"
    closed_loop = False

    def params(self) -> Dict[str, Any]:
        return {
            "dataset": SERVE_DATASET,
            "scale": SERVE_SCALE * self.scale_factor,
            "dataset_seed": DATASET_SEED,
            "r": list(SERVE_R),
            "mix": f"1 request in {TOPK_BLOCK} is /topk (k={TOPK_K}), the rest /query",
            "rate_per_s": SERVE_RATE,
            "sender_threads": SERVE_THREADS,
            "timeout_ms": SERVE_TIMEOUT_MS,
            "server": "MIOServer(ServiceApp(ServiceConfig(port=0))): kernel auto, cores 1, "
            "static planner, sample_rate 0.01",
            "client": "ServiceClient(max_retries=0) per sender thread, in a separate load process",
            "loop": "open, fixed-interval schedule, latency from each request's due time",
        }

    def setup(self) -> None:
        from repro.service import MIOServer, ServiceApp, ServiceClient, ServiceConfig

        self.collection = dataset(SERVE_DATASET, SERVE_SCALE * self.scale_factor)
        self.snapshots[SERVE_DATASET] = [obj.points for obj in self.collection]
        self.app = ServiceApp(self.collection, ServiceConfig(port=0))
        self.server = MIOServer(self.app).start()
        client = ServiceClient(*self.server.address, max_retries=0)
        for r in SERVE_R:
            client.query(r, timeout_ms=SERVE_TIMEOUT_MS)
            client.topk(r, TOPK_K, timeout_ms=SERVE_TIMEOUT_MS)

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown_gracefully()
            self.server = None

    def session_stats(self) -> Dict[str, int]:
        return self.app.primary.stats()

    def service_stats(self) -> Dict[str, int]:
        return self.app.snapshot()

    def schedule(self, seconds: float) -> List[Op]:
        rng = random.Random(f"serve:{self.seed}")
        thresholds = deck(SERVE_R, rng)
        ops = []
        topk_slot = 0
        for index in range(max(1, round(SERVE_RATE * seconds))):
            if index % TOPK_BLOCK == 0:
                topk_slot = index + rng.randrange(TOPK_BLOCK)
            topk = index == topk_slot
            ops.append(
                Op(
                    "topk" if topk else "query",
                    r=next(thresholds),
                    k=TOPK_K if topk else 1,
                    snapshot=SERVE_DATASET,
                    n=self.collection.n,
                )
            )
        return ops

    def drive(self, ops: List[Op], on_half) -> List[Tuple[float, float]]:
        """Send ``ops`` open loop from a separate load process.

        Meanwhile this process, the server's, probes the host speed late
        in each gap between requests, when no query is executing, and calls
        ``on_half()`` once, before the second half of the schedule is due
        (the traced pass installs its wrappers then).  Returns the probes.
        """
        from hostspeed import probe

        host, port = self.server.address
        samples: List[Tuple[float, float]] = []
        process = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            if process.stdout.readline().strip() != "ready":
                raise RuntimeError("load process failed to start")
            t0 = time.monotonic() + 0.05
            plan = {
                "host": host,
                "port": port,
                "t0": t0,
                "interval_s": 1.0 / SERVE_RATE,
                "threads": SERVE_THREADS,
                "timeout_ms": SERVE_TIMEOUT_MS,
                "requests": [[op.kind, op.r, op.k] for op in ops],
            }
            process.stdin.write(json.dumps(plan) + "\n")
            process.stdin.flush()
            for index in range(len(ops)):
                if index == len(ops) // 2:
                    on_half()
                # Most answers are back by then, and the ~3 ms probe ends
                # long before the next request is due.
                at = t0 + (index + PROBE_AT) * plan["interval_s"]
                time.sleep(max(0.0, at - time.monotonic()))
                if self.app.admission.snapshot()["inflight"] == 0:
                    samples.append((time.monotonic(), probe()))
            output, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        records = json.loads(output.strip().splitlines()[-1])
        for index, (op, record) in enumerate(zip(ops, records)):
            if record is None:
                op.start = op.sent = op.end = t0 + index * plan["interval_s"]
                op.error = "never sent (sender thread died)"
                continue
            op.start, op.sent, op.end = record["due"], record["sent"], record["done"]
            op.error = record.get("error")
            payload = record.get("payload") or {}
            if op.error is None:
                op.winner, op.score = payload["winner"], payload["score"]
                op.exact = payload["exact"]
                op.topk = [tuple(pair) for pair in payload["topk"]] if "topk" in payload else None
                op.trace_id = payload.get("trace_id")
                op.queue_wait_ms = payload.get("queue_wait_ms", 0.0)
        return samples


WORKLOADS = {
    cls.name: cls for cls in (ColdSweep, ShardedSweep, SessionChurn, ServeOpen)
}
