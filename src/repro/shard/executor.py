"""Real shard-parallel execution over shared-memory coordinates.

This is the process layer behind the sharded parallel engine: a small,
persistent pool of ``multiprocessing`` workers, each attached to one
shared-memory block holding the collection's concatenated ``(P, d)``
coordinate matrix.  Workers rebuild zero-copy :class:`ObjectCollection`
views over that block once, then serve shard tasks for the engine's
whole lifetime — per query, only shard id lists and scalar parameters
cross the pipe, never coordinates.

Each task runs the full vectorized phase chain for one shard
(:func:`run_shard_task`): build the shard BIGrid over ``owned + halo``,
lower-bound, prune with the local top-k threshold, and verify the owned
candidates best-first — with a cooperative :class:`Deadline` rebuilt
from the coordinator's remaining budget, so end-to-end timeouts behave
like the serial pipeline's (pre-verification expiry raises
:class:`QueryTimeout`; mid-verification expiry degrades to an anytime
prefix).

Failure semantics: the coordinator trips the ``shard_task`` fault point
before each dispatch, a dead or failing worker is respawned and its task
retried, and exhausted retries raise :class:`PartitionTaskError` (with the
shard index as ``task_index``) — which the sharded pipeline's fallback
hook turns into a serial re-run.  ``repro_shard_tasks_total{outcome}``
counts every task landing (``ok`` / ``retried`` / ``failed`` /
``timeout``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.core.objects import ObjectCollection
from repro.core.pipeline import kth_largest
from repro.errors import InjectedFault, PartitionTaskError, QueryTimeout
from repro.kernels import resolve_kernel
from repro.obs import metrics as obs_metrics
from repro.resilience import Deadline, checkpoint

#: Set to ``1`` to force in-process task execution even for multi-worker
#: engines (debugging aid; conformance runs both paths explicitly).
INLINE_ENV = "REPRO_SHARD_INLINE"

#: Seconds a graceful worker shutdown waits before escalating to kill.
JOIN_TIMEOUT = 2.0


def _tasks_metric():
    return obs_metrics.counter(
        "repro_shard_tasks_total",
        "Shard task executions by outcome (ok/retried/failed/timeout)",
    )


# ----------------------------------------------------------------------
# The per-shard phase chain (runs inside workers, and inline)
# ----------------------------------------------------------------------


@dataclass
class ShardOutcome:
    """One shard's query answer, in *global* object ids.

    A shard reports enough to let the coordinator *replay* the serial
    best-first loop exactly: every owned candidate's upper bound (local
    bounds equal global bounds for owned objects), and the exact score of
    every candidate the shard settled.  The shard's locally-settled set
    provably covers everything the serial loop would verify among its
    owned objects (the local pruning threshold is never above the global
    one), so the replay reproduces the serial answer bit-for-bit —
    including the tie selection its early termination induces.
    """

    shard: int
    #: ``(global_oid, exact_score)`` — the shard's local top-k over its
    #: owned objects, sorted by ``(-score, oid)``.
    ranking: List[Tuple[int, int]]
    #: All owned candidates as ``(upper_bound, global_oid)``, descending.
    owned_candidates: List[Tuple[int, int]]
    #: Every locally settled ``(global_oid, exact_score)``.
    settled: List[Tuple[int, int]]
    #: Best Lemma-1 lower bound over owned objects: ``(value, global_oid)``.
    best_lb: Tuple[int, int]
    candidates: int
    verified: int
    early_terminated: bool
    #: Deadline expired mid-verification: ``ranking`` is a settled prefix.
    timed_out: bool
    seconds: float
    phases: Dict[str, float] = field(default_factory=dict)
    memory_bytes: int = 0
    owned_objects: int = 0
    halo_objects: int = 0
    verification_path: str = "reference"
    lower_bound_path: str = "reference"


def run_shard_task(
    collection: ObjectCollection,
    shard: int,
    owned: Sequence[int],
    halo: Sequence[int],
    r: float,
    k: int,
    backend: str,
    kernel: str,
    timeout_ms: Optional[float] = None,
) -> ShardOutcome:
    """Run the four query phases for one shard; exact for owned objects.

    The sub-collection is ``owned + halo`` with both halves sorted by
    global id, so local ids are monotone in global ids and every
    id-based tie-break (candidate order, the best-first heap) matches
    the serial engine's.  Owned objects occupy local ids
    ``0..len(owned)-1``; candidates outside that range are halo-only and
    are dropped before verification (they are owned — and exact — in
    their own shard).
    """
    started = time.perf_counter()
    kernel_backend = resolve_kernel(kernel)
    deadline = Deadline.from_timeout_ms(timeout_ms)
    n_owned = len(owned)
    local_to_global = list(owned) + list(halo)
    local = collection.subset(local_to_global)
    phases: Dict[str, float] = {}

    checkpoint(deadline, "grid_mapping")
    t0 = time.perf_counter()
    bigrid = kernel_backend.build_bigrid(local, r, backend=backend, deadline=deadline)
    phases["grid_mapping"] = time.perf_counter() - t0

    checkpoint(deadline, "lower_bounding")
    t0 = time.perf_counter()
    lower = kernel_backend.lower_bounds(bigrid, deadline=deadline)
    phases["lower_bounding"] = time.perf_counter() - t0
    owned_values = list(lower.values[:n_owned])
    threshold = kth_largest(owned_values, k)

    checkpoint(deadline, "upper_bounding")
    t0 = time.perf_counter()
    upper = kernel_backend.upper_bounds(bigrid, threshold, deadline=deadline)
    phases["upper_bounding"] = time.perf_counter() - t0
    candidates = [entry for entry in upper.candidates if entry[1] < n_owned]

    # No boundary checkpoint before verification: like the serial
    # pipeline, an expiry from here on degrades to an anytime prefix.
    t0 = time.perf_counter()
    verification = kernel_backend.verify_candidates(
        bigrid, candidates, r, k=k, deadline=deadline
    )
    phases["verification"] = time.perf_counter() - t0

    best_local = max(
        range(n_owned), key=lambda oid: (owned_values[oid], -oid)
    )
    return ShardOutcome(
        shard=shard,
        ranking=[
            (int(local_to_global[oid]), int(score))
            for oid, score in verification.ranking
        ],
        owned_candidates=[
            (int(upper), int(local_to_global[oid])) for upper, oid in candidates
        ],
        settled=[
            (int(local_to_global[oid]), int(score))
            for oid, score in (verification.settled or [])
        ],
        best_lb=(int(owned_values[best_local]), int(local_to_global[best_local])),
        candidates=len(candidates),
        verified=verification.verified,
        early_terminated=verification.early_terminated,
        timed_out=verification.timed_out,
        seconds=time.perf_counter() - started,
        phases=phases,
        memory_bytes=bigrid.memory_bytes(),
        owned_objects=n_owned,
        halo_objects=len(halo),
        verification_path=verification.path,
        lower_bound_path=lower.path,
    )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _attach_collection(shm_name: str, shape, counts) -> Tuple[object, ObjectCollection]:
    """Attach the coordinate block and rebuild zero-copy object views."""
    # Attaching registers the segment with the resource tracker on 3.11
    # (bpo-39959); under fork the tracker process is *shared* with the
    # parent — who owns the segment's lifetime — so a worker-side
    # (un)register corrupts the parent's ledger.  Suppress registration
    # for the attach instead.
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    coords = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    views = [coords[offsets[i] : offsets[i + 1]] for i in range(len(counts))]
    return shm, ObjectCollection.from_point_arrays(views)


def _worker_main(conn, shm_name: str, shape, counts) -> None:
    """Worker loop: attach once, then serve tagged shard tasks forever."""
    shm, collection = _attach_collection(shm_name, shape, counts)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "quit":
                break
            _, tag, payload = message
            try:
                outcome = run_shard_task(collection, **payload)
                conn.send(("ok", tag, outcome))
            except QueryTimeout as exc:
                conn.send(("timeout", tag, exc.phase or "shard_task"))
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                conn.send(("error", tag, f"{type(exc).__name__}: {exc}"))
    finally:
        try:
            conn.close()
        finally:
            shm.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class ShardTimeout(Exception):
    """Internal: a worker reported a pre-verification deadline expiry."""

    def __init__(self, phase: str) -> None:
        super().__init__(phase)
        self.phase = phase


class ShardExecutor:
    """A persistent pool of shard workers over one collection snapshot.

    ``workers=0`` (or :data:`INLINE_ENV`) selects inline execution: the
    same task chain and failure semantics without processes — used for
    single-core engines and as a deterministic debugging mode.  The pool
    is lazy: processes and the shared-memory block exist only after the
    first :meth:`run_query`, and :meth:`close` releases both.
    """

    def __init__(
        self,
        collection: ObjectCollection,
        workers: int,
        retries: int = 2,
    ) -> None:
        self.collection = collection
        self.inline = workers <= 1 or os.environ.get(INLINE_ENV) == "1"
        self.workers = max(1, workers)
        self.retries = retries
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._procs: List[Optional[multiprocessing.Process]] = []
        self._conns: List[Optional[mp_connection.Connection]] = []
        self._epoch = 0
        self._started = False
        #: Worker deaths observed and recovered (exposed for tests).
        self.respawns = 0

    # -- pool lifecycle -------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started or self.inline:
            return
        arrays = [obj.points for obj in self.collection]
        counts = [a.shape[0] for a in arrays]
        stacked = np.concatenate(arrays, axis=0)
        self._shm = shared_memory.SharedMemory(create=True, size=stacked.nbytes)
        shared = np.ndarray(stacked.shape, dtype=np.float64, buffer=self._shm.buf)
        shared[:] = stacked
        self._shape = stacked.shape
        self._counts = counts
        self._procs = [None] * self.workers
        self._conns = [None] * self.workers
        for index in range(self.workers):
            self._spawn(index)
        self._started = True

    def _spawn(self, index: int) -> None:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shm.name, self._shape, self._counts),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        self._conns[index] = parent_conn

    def close(self) -> None:
        """Stop workers and release the shared-memory block (idempotent)."""
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.send(("quit",))
                except (OSError, BrokenPipeError):
                    pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=JOIN_TIMEOUT)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.kill()
                    proc.join(timeout=JOIN_TIMEOUT)
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._procs = []
        self._conns = []
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._shm = None
        self._started = False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- query execution ------------------------------------------------

    def run_query(
        self,
        payloads: List[dict],
        retries: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[ShardOutcome]:
        """Run one query's shard tasks; outcomes ordered by shard index.

        ``payloads`` are :func:`run_shard_task` keyword dicts minus the
        collection.  Retries, fault trips, respawns, and the
        ``repro_shard_tasks_total`` ledger are applied here so the inline
        and process paths share one failure contract.
        """
        budget = self.retries if retries is None else retries
        if self.inline or not payloads:
            return [
                self._run_guarded_inline(payload, budget) for payload in payloads
            ]
        self._ensure_started()
        return self._run_pool(payloads, budget, deadline)

    # The inline path: same trip/retry ledger, no processes.
    def _run_guarded_inline(self, payload: dict, budget: int) -> ShardOutcome:
        metric = _tasks_metric()
        attempts = 0
        while True:
            attempts += 1
            try:
                faults.trip("shard_task", detail=(payload["shard"],))
                outcome = run_shard_task(self.collection, **payload)
                metric.inc(outcome="ok")
                return outcome
            except QueryTimeout:
                metric.inc(outcome="timeout")
                raise
            except Exception as exc:
                if attempts > budget:
                    metric.inc(outcome="failed")
                    raise PartitionTaskError(
                        f"shard task {payload['shard']} failed after "
                        f"{attempts} attempts: {exc}",
                        task_index=payload["shard"],
                        attempts=attempts,
                    ) from exc
                metric.inc(outcome="retried")

    # The pool path.
    def _run_pool(
        self,
        payloads: List[dict],
        budget: int,
        deadline: Optional[Deadline],
    ) -> List[ShardOutcome]:
        metric = _tasks_metric()
        self._epoch += 1
        epoch = self._epoch
        outcomes: List[Optional[ShardOutcome]] = [None] * len(payloads)
        attempts = [0] * len(payloads)
        #: task index -> assigned worker; static round-robin start, tasks
        #: re-enter the queue of the (respawned) worker on failure.
        queues: List[List[int]] = [[] for _ in range(self.workers)]
        for task, payload in enumerate(payloads):
            queues[task % self.workers].append(task)
        inflight: List[Optional[int]] = [None] * self.workers
        remaining = len(payloads)

        def dispatch(worker: int) -> None:
            while queues[worker]:
                task = queues[worker][0]
                attempts[task] += 1
                if attempts[task] > budget + 1:
                    # Guard against a worker dying between spawn and send
                    # in a tight loop: the attempt ledger still rules.
                    queues[worker].pop(0)
                    metric.inc(outcome="failed")
                    raise PartitionTaskError(
                        f"shard task {task} exhausted {attempts[task]} attempts",
                        task_index=task,
                        attempts=attempts[task],
                    )
                try:
                    faults.trip("shard_task", detail=(payloads[task]["shard"],))
                except InjectedFault as exc:
                    queues[worker].pop(0)
                    self._record_failure(
                        task, attempts, budget, queues, worker, metric, exc
                    )
                    continue
                payload = dict(payloads[task])
                if deadline is not None:
                    payload["timeout_ms"] = deadline.remaining_ms()
                queues[worker].pop(0)
                inflight[worker] = task
                try:
                    self._conns[worker].send(("task", (epoch, task), payload))
                except (OSError, BrokenPipeError):
                    self._on_worker_death(worker, inflight, queues, attempts)
                    continue
                return

        for worker in range(self.workers):
            dispatch(worker)

        while remaining:
            checkpoint(deadline, "shard_execute")
            active = {
                self._conns[w]: w
                for w in range(self.workers)
                if inflight[w] is not None
            }
            if not active:
                # Every unfinished task is queued on a worker with nothing
                # in flight -- only possible transiently; redispatch.
                for worker in range(self.workers):
                    if inflight[worker] is None and queues[worker]:
                        dispatch(worker)
                if not any(inflight[w] is not None for w in range(self.workers)):
                    raise PartitionTaskError(
                        "shard executor stalled with tasks outstanding",
                        attempts=max(attempts) if attempts else 1,
                    )
                continue
            ready = mp_connection.wait(list(active), timeout=0.1)
            for conn in ready:
                worker = active[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(worker, inflight, queues, attempts)
                    self._record_retry_or_fail(
                        inflight, queues, attempts, budget, worker, metric
                    )
                    dispatch(worker)
                    continue
                kind, (msg_epoch, task), body = message
                if msg_epoch != epoch:
                    continue  # stale answer from an abandoned query
                inflight[worker] = None
                if kind == "ok":
                    outcomes[task] = body
                    metric.inc(outcome="ok")
                elif kind == "timeout":
                    metric.inc(outcome="timeout")
                    raise ShardTimeout(body)
                else:  # "error"
                    self._record_failure(
                        task, attempts, budget, queues, worker, metric,
                        RuntimeError(body),
                    )
                dispatch(worker)
            # A completed task may have freed a worker whose queue holds
            # retried tasks; keep everyone busy.
            for worker in range(self.workers):
                if inflight[worker] is None and queues[worker]:
                    dispatch(worker)
            remaining = sum(1 for outcome in outcomes if outcome is None)

        return outcomes  # type: ignore[return-value]

    def _on_worker_death(self, worker, inflight, queues, attempts) -> None:
        """Respawn a dead worker; its in-flight task goes back on its queue."""
        proc = self._procs[worker]
        if proc is not None:
            proc.join(timeout=JOIN_TIMEOUT)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        self.respawns += 1
        obs_metrics.counter(
            "repro_shard_worker_respawns_total",
            "Shard worker processes respawned after unexpected death",
        ).inc()
        self._spawn(worker)
        task = inflight[worker]
        inflight[worker] = None
        if task is not None:
            queues[worker].insert(0, task)

    def _record_retry_or_fail(
        self, inflight, queues, attempts, budget, worker, metric
    ) -> None:
        """After a death, decide whether the re-queued task may retry."""
        if not queues[worker]:
            return
        task = queues[worker][0]
        if attempts[task] > budget:
            queues[worker].pop(0)
            metric.inc(outcome="failed")
            raise PartitionTaskError(
                f"shard task {task} lost its worker {attempts[task]} time(s)",
                task_index=task,
                attempts=attempts[task],
            )
        metric.inc(outcome="retried")

    def _record_failure(
        self, task, attempts, budget, queues, worker, metric, cause
    ) -> None:
        """A task attempt failed in-band; retry on the same worker or give up."""
        if attempts[task] > budget:
            metric.inc(outcome="failed")
            raise PartitionTaskError(
                f"shard task {task} failed after {attempts[task]} attempts: {cause}",
                task_index=task,
                attempts=attempts[task],
            ) from cause
        metric.inc(outcome="retried")
        queues[worker].append(task)
