"""Parallel verification over shared memory: the sharded engine's process layer.

A persistent pool of ``cores - 1`` worker processes serves the parallel
engine.  Each worker attaches once to a shared-memory block holding the
collection's concatenated ``(P, d)`` coordinates and rebuilds zero-copy
:class:`ObjectCollection` views over it.  The coordinator runs grid
mapping and both bounds itself (the serial stages), then
:meth:`ShardExecutor.verify` runs the serial best-first loop
(:func:`~repro.core.verification.best_first_verification`) over a
pool-backed scorer:

* **publish** -- the packed arrays the label-free scorer reads
  (:data:`~repro.kernels.numpy_backend.SCORER_ARRAYS`) and the candidate
  oids are copied into one shared-memory segment per query; workers
  attach it next to the coordinate block and score over a zero-copy grid
  shell (:func:`~repro.kernels.numpy_backend.scorer_grid`);
* **one queue** -- every verifier, coordinator included, takes the next
  candidate index in upper-bound order from one shared counter tagged
  with the query's epoch, and workers stream back ``(index, score,
  posting_checks, distance_rows)`` after each candidate;
* **the scorer** -- ``scorer(oid)`` returns the candidate's reply if it
  has landed, else scores the next untaken candidate itself, else waits,
  bounded by the deadline (expiry raises :class:`QueryTimeout`, so the
  loop returns the settled prefix).  A label-free score depends only
  on the grid and the oid, so out-of-order and speculative scoring is
  exact; work counters are added only for candidates the loop consumes;
* **box-bound skips** -- the coordinator computes the candidates' box
  bounds itself (:func:`~repro.kernels.numpy_backend.label_free_bounds`),
  so the loop skips exactly the candidates the serial engine skips;
  ``scorer(oid)`` moves past the skipped queue indices, and worker
  replies for them count as speculative;
* **end of query** -- the counter is exhausted and the segment unlinked;
  replies still in flight are dropped by epoch, and a worker never takes
  a candidate from a later query's queue.

Threshold updates, early termination, tie selection, top-k and the
anytime prefix therefore all come from the loop the serial engine
uses.  Without packed arrays (the python kernel, or a grid that fell back
to the reference layout), inline, or with a single candidate, the
coordinator verifies alone through the kernel's own ``verify_candidates``.

Failure semantics: the ``shard_task`` fault point trips once per
verifier hand-off (``detail=(slot,)``, slot 0 the coordinator) before
any candidate is taken; a failing hand-off is retried up to the budget,
then raises :class:`PartitionTaskError` with the slot as ``task_index``
-- which the sharded pipeline's fallback hook turns into a serial
re-run.  A worker that dies mid-query has the candidates it took but
never reported rescored by the coordinator, and is respawned.
``repro_shard_tasks_total{outcome}`` counts hand-off attempts (``ok`` /
``retried`` / ``failed``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import faults
from repro.core.objects import ObjectCollection
from repro.core.verification import (
    PerCandidateScorer,
    VerificationResult,
    VerifyCounters,
    best_first_verification,
)
from repro.errors import InjectedFault, PartitionTaskError, QueryTimeout
from repro.kernels.numpy_backend import (
    label_free_bounds,
    label_free_scorer,
    scorer_arrays,
    scorer_grid,
)
from repro.obs import metrics as obs_metrics
from repro.resilience import Deadline

#: Set to ``1`` to force in-process execution even for multi-worker
#: engines (debugging aid; conformance runs both paths explicitly).
INLINE_ENV = "REPRO_SHARD_INLINE"

#: Seconds a graceful worker shutdown waits before escalating to kill.
JOIN_TIMEOUT = 2.0

#: Seconds between deadline checks while the coordinator waits for a reply.
POLL_SECONDS = 0.05

#: Seconds the coordinator waits for the queue lock before checking
#: whether a dead worker holds it.
LOCK_SECONDS = 0.05

#: The coordinator's id in the queue's taker column (workers count from 1).
COORDINATOR = 0

#: Slots of the queue's shared state: ``[epoch, next index, candidates]``.
_EPOCH, _NEXT, _COUNT = 0, 1, 2


def _tasks_metric():
    return obs_metrics.counter(
        "repro_shard_tasks_total",
        "Verifier hand-offs by outcome (ok/retried/failed)",
    )


@dataclass
class VerifierReport:
    """One verifier's share of a query's verification."""

    #: 0 is the coordinator, ``w + 1`` worker process ``w``.
    slot: int
    #: Candidates it scored whose score landed before the query ended.
    scored: int
    #: Seconds it spent scoring them.
    busy: float
    #: Of those, candidates the best-first loop never consumed.
    speculative: int


# ----------------------------------------------------------------------
# Shared memory
# ----------------------------------------------------------------------


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach a segment the coordinator owns, without tracking it here."""
    # Attaching registers the segment with the resource tracker on 3.11
    # (bpo-39959); under fork the tracker process is *shared* with the
    # parent -- who owns the segment's lifetime -- so a worker-side
    # (un)register corrupts the parent's ledger.  Suppress registration
    # for the attach instead.
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_collection(shm_name: str, shape, counts) -> Tuple[object, ObjectCollection]:
    """Attach the coordinate block and rebuild zero-copy object views."""
    shm = _attach(shm_name)
    coords = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    views = [coords[offsets[i] : offsets[i + 1]] for i in range(len(counts))]
    return shm, ObjectCollection.from_point_arrays(views)


def _publish(arrays: Dict[str, np.ndarray]):
    """Copy ``arrays`` into one new segment; returns it and its layout."""
    layout = []
    size = 0
    for name, array in arrays.items():
        layout.append((name, array.dtype.str, array.shape, size))
        size += -(-array.nbytes // 8) * 8
    shm = shared_memory.SharedMemory(create=True, size=max(size, 8))
    for (_, dtype, shape, offset), array in zip(layout, arrays.values()):
        np.ndarray(shape, dtype, buffer=shm.buf, offset=offset)[...] = array
    return shm, layout


def _views(shm, layout) -> Dict[str, np.ndarray]:
    """Read-only arrays over a published segment."""
    views = {}
    for name, dtype, shape, offset in layout:
        view = np.ndarray(shape, dtype, buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views[name] = view
    return views


# ----------------------------------------------------------------------
# The candidate queue
# ----------------------------------------------------------------------


class _Queue:
    """One query's candidate indices behind one lock, shared by every
    verifier: ``state = [epoch, next, count]`` and the taker of each
    index.  Made before the first fork, so every worker inherits it."""

    def __init__(self, ctx, capacity: int) -> None:
        self.lock = ctx.Lock()
        self.state = ctx.RawArray("q", 3)
        self.taken = ctx.RawArray("q", max(capacity, 1))

    def take(self, epoch: int, taker: int, on_stall=None) -> Optional[int]:
        """The next untaken index of ``epoch``'s queue, or None when it is
        empty or a different query owns the queue.

        The taker is written before the counter moves, so a process dying
        inside the lock never leaves a taken index without its taker.
        """
        self._acquire(on_stall)
        try:
            state = self.state
            index = state[_NEXT]
            if state[_EPOCH] != epoch or index >= state[_COUNT]:
                return None
            self.taken[index] = taker
            state[_NEXT] = index + 1
            return index
        finally:
            self.lock.release()

    def reset(self, epoch: int, count: int, on_stall) -> None:
        self._acquire(on_stall)
        self.state[_EPOCH], self.state[_NEXT], self.state[_COUNT] = epoch, 0, count
        self.lock.release()

    def exhaust(self, on_stall) -> None:
        self._acquire(on_stall)
        self.state[_NEXT] = self.state[_COUNT]
        self.lock.release()

    def _acquire(self, on_stall) -> None:
        if on_stall is None:
            self.lock.acquire()
            return
        while not self.lock.acquire(timeout=LOCK_SECONDS):
            on_stall()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(conn, shm_name: str, shape, counts, queue: _Queue, taker: int) -> None:
    """Worker loop: attach once, then score candidates of each query."""
    shm, collection = _attach_collection(shm_name, shape, counts)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "quit":
                break
            _serve(conn, collection, queue, taker, *message[1:])
    finally:
        try:
            conn.close()
        finally:
            shm.close()


def _serve(conn, collection, queue, taker, epoch, segment, layout, r, timeout_ms) -> None:
    """Score one query's candidates until its queue runs dry."""
    if queue.state[_EPOCH] != epoch:
        return  # a later query owns the queue already
    try:
        shm = _attach(segment)
    except FileNotFoundError:
        return  # the query ended before this worker got to it
    try:
        _score_queue(
            conn, collection, queue, taker, epoch, _views(shm, layout), r, timeout_ms
        )
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view outlived the loop
            pass


def _score_queue(conn, collection, queue, taker, epoch, arrays, r, timeout_ms) -> None:
    oids = arrays.pop("candidates")
    score = label_free_scorer(
        scorer_grid(collection, r, arrays), r, Deadline.from_timeout_ms(timeout_ms)
    )
    while True:
        index = queue.take(epoch, taker)
        if index is None:
            return
        started = time.perf_counter()
        try:
            value, checks, rows = score(int(oids[index]))
        except QueryTimeout:
            return
        except Exception as exc:  # noqa: BLE001 - report, don't die
            conn.send(("error", epoch, index, f"{type(exc).__name__}: {exc}"))
            return
        busy = time.perf_counter() - started
        conn.send(("score", epoch, index, (value, checks, rows, busy)))


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class _Query:
    """The coordinator's state for one pooled verification."""

    def __init__(self, epoch, oids, message, local, deadline, helpers) -> None:
        self.epoch = epoch
        self.oids = oids
        #: The hand-off message, re-sent to a worker respawned mid-query.
        self.message = message
        self.local = local
        self.deadline = deadline
        #: index -> (score, posting_checks, distance_rows, slot)
        self.replies: Dict[int, Tuple[int, int, int, int]] = {}
        #: Indices a worker failed to score: the coordinator rescores them.
        self.failed: Set[int] = set()
        #: Indices the loop skipped on their box bound.
        self.skipped: Set[int] = set()
        #: Takers whose process died during this query.
        self.dead: Set[int] = set()
        self.consumed = 0
        self.counters = VerifyCounters()
        #: slot -> [scored, busy seconds]
        self.work: Dict[int, List[float]] = {
            slot: [0, 0.0] for slot in range(helpers + 1)
        }


class ShardExecutor:
    """A persistent pool of verifier processes over one collection snapshot.

    ``workers=0`` (or :data:`INLINE_ENV`) selects inline execution: the
    coordinator verifies alone under the same hand-off contract -- used
    for single-core engines and as a deterministic debugging mode.  The
    pool is lazy: processes and the coordinate block exist only after
    the first :meth:`verify`, and :meth:`close` releases both along with
    any grid segment still published.
    """

    def __init__(
        self,
        collection: ObjectCollection,
        workers: int,
        retries: int = 2,
    ) -> None:
        self.collection = collection
        self.inline = workers < 1 or os.environ.get(INLINE_ENV) == "1"
        self.workers = max(1, workers)
        self.retries = retries
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._procs: List[Optional[multiprocessing.Process]] = []
        self._conns: List[Optional[mp_connection.Connection]] = []
        #: The taker id of each worker's current process.
        self._takers: List[int] = []
        self._next_taker = COORDINATOR + 1
        self._queue: Optional[_Queue] = None
        self._query: Optional[_Query] = None
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.Lock()
        self._epoch = 0
        self._started = False
        #: Worker deaths observed and recovered (exposed for tests).
        self.respawns = 0

    # -- pool lifecycle -------------------------------------------------

    def _context(self):
        return multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )

    def _ensure_started(self) -> None:
        if self._started:
            return
        arrays = [obj.points for obj in self.collection]
        counts = [a.shape[0] for a in arrays]
        stacked = np.concatenate(arrays, axis=0)
        self._shm = shared_memory.SharedMemory(create=True, size=stacked.nbytes)
        shared = np.ndarray(stacked.shape, dtype=np.float64, buffer=self._shm.buf)
        shared[:] = stacked
        self._shape = stacked.shape
        self._counts = counts
        self._queue = _Queue(self._context(), self.collection.n)
        self._procs = [None] * self.workers
        self._conns = [None] * self.workers
        self._takers = [0] * self.workers
        for index in range(self.workers):
            self._spawn(index)
        self._started = True

    def _spawn(self, index: int) -> None:
        ctx = self._context()
        taker = self._next_taker
        self._next_taker += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shm.name, self._shape, self._counts,
                  self._queue, taker),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        self._conns[index] = parent_conn
        self._takers[index] = taker

    def close(self) -> None:
        """Stop workers, release the coordinate block and every grid
        segment still published (idempotent)."""
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
        for name in list(self._segments):
            self._release(name)
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._shm = None
        self._queue = None
        self._started = False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _release(self, name: str) -> None:
        shm = self._segments.pop(name)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    # -- query execution ------------------------------------------------

    def verify(
        self,
        kernel,
        bigrid,
        candidates: Sequence[Tuple[int, int]],
        r: float,
        k: int,
        verifiers: int,
        deadline: Optional[Deadline] = None,
        stats=None,
    ) -> Tuple[VerificationResult, List[VerifierReport]]:
        """Best-first verification of ``candidates`` by up to ``verifiers``
        verifiers sharing one queue; also reports each verifier's share.

        Every one of the ``verifiers`` hand-offs trips ``shard_task``
        first; verifiers beyond the pool's processes (all but the
        coordinator, when verifying alone) take no candidates.
        """
        for slot in range(verifiers):
            self._hand_off(slot)
        helpers = min(verifiers - 1, self.workers)
        with self._lock:  # one query at a time owns the pool
            if not self.inline:
                self._ensure_started()
                self._reap()
                arrays = scorer_arrays(bigrid)
                if arrays is not None and helpers >= 1 and len(candidates) > 1:
                    return self._verify_pooled(
                        bigrid, candidates, arrays, r, k, helpers, deadline, stats
                    )
        started = time.perf_counter()
        result = kernel.verify_candidates(
            bigrid, list(candidates), r, k=k, stats=stats, deadline=deadline
        )
        busy = time.perf_counter() - started
        scored = result.verified + result.speculative
        return result, [
            VerifierReport(COORDINATOR, scored, busy, result.speculative)
        ]

    def _hand_off(self, slot: int) -> None:
        """Trip ``shard_task`` for one verifier, retrying up to ``retries``."""
        metric = _tasks_metric()
        attempts = 0
        while True:
            attempts += 1
            try:
                faults.trip("shard_task", detail=(slot,))
            except InjectedFault as exc:
                if attempts > self.retries:
                    metric.inc(outcome="failed")
                    raise PartitionTaskError(
                        f"verifier {slot} hand-off failed after {attempts} "
                        f"attempts: {exc}",
                        task_index=slot,
                        attempts=attempts,
                    ) from exc
                metric.inc(outcome="retried")
                continue
            metric.inc(outcome="ok")
            return

    def _verify_pooled(self, bigrid, candidates, arrays, r, k, helpers, deadline, stats):
        oids = np.fromiter((oid for _, oid in candidates), np.int64, len(candidates))
        shm, layout = _publish(dict(arrays, candidates=oids))
        self._segments[shm.name] = shm
        self._epoch += 1
        message = (
            "verify", self._epoch, shm.name, layout, r,
            deadline.remaining_ms() if deadline is not None else None,
        )
        query = _Query(
            self._epoch,
            oids.tolist(),
            message,
            label_free_scorer(bigrid, r, deadline),
            deadline,
            helpers,
        )
        self._query = query
        try:
            self._queue.reset(query.epoch, len(oids), self._reap)
            for worker in range(helpers):
                self._send(worker, message)
            result = best_first_verification(
                list(candidates),
                k,
                PerCandidateScorer(self._score, *label_free_bounds(bigrid, r)),
                query.counters,
                stats=stats,
                deadline=deadline,
                path="numpy-batch",
            )
            self._collect(0.0)
        finally:
            self._queue.exhaust(self._reap)
            self._query = None
            self._release(shm.name)
        reports = []
        for slot, (scored, busy) in query.work.items():
            speculative = sum(
                1
                for index, reply in query.replies.items()
                if reply[3] == slot
                and (index >= query.consumed or index in query.skipped)
            )
            reports.append(VerifierReport(slot, int(scored), busy, speculative))
        return result, reports

    def _score(self, oid: int) -> int:
        """The best-first loop's scorer: the next candidate's exact score.

        The loop consumes candidates in queue order, skipping some on
        their box bound: the indices before ``oid``'s are skipped."""
        query = self._query
        index = query.consumed
        while query.oids[index] != oid:
            query.skipped.add(index)
            index += 1
        query.consumed = index
        replies = query.replies
        while index not in replies:
            self._collect(0.0)
            if index in replies:
                break
            own = self._next_own(index)
            if own is not None:
                started = time.perf_counter()
                value, checks, rows = query.local(query.oids[own])
                replies[own] = (value, checks, rows, COORDINATOR)
                work = query.work[COORDINATOR]
                work[0] += 1
                work[1] += time.perf_counter() - started
                continue
            if query.deadline is not None and query.deadline.expired():
                raise QueryTimeout(
                    "deadline expired during verification", phase="verification"
                )
            self._collect(POLL_SECONDS)
        value, checks, rows, _ = replies[index]
        query.consumed += 1
        query.counters.posting_checks += checks
        query.counters.distance_rows += rows
        return value

    def _next_own(self, index: int) -> Optional[int]:
        """What the coordinator scores next while ``index`` has no reply:
        ``index`` itself if its taker died or failed it, else the next
        untaken candidate (None when a live worker holds every one)."""
        query = self._query
        queue = self._queue
        if index < queue.state[_NEXT] and (
            queue.taken[index] in query.dead or index in query.failed
        ):
            query.failed.discard(index)
            return index
        return queue.take(query.epoch, COORDINATOR, on_stall=self._reap)

    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (OSError, BrokenPipeError):
            self._on_death(worker)

    def _collect(self, timeout: float) -> None:
        """Fold in every reply that has landed, waiting up to ``timeout``
        for the first; a closed pipe is a dead worker."""
        live = {conn: worker for worker, conn in enumerate(self._conns) if conn is not None}
        if not live:
            return
        for conn in mp_connection.wait(list(live), timeout):
            worker = live[conn]
            if not self._drain(worker):
                self._on_death(worker)

    def _drain(self, worker: int) -> bool:
        """Read every queued message from one worker; False on EOF."""
        conn = self._conns[worker]
        query = self._query
        try:
            while conn.poll():
                kind, epoch, index, body = conn.recv()
                if query is None or epoch != query.epoch:
                    continue  # a reply from an earlier query
                if kind == "error":
                    query.failed.add(index)
                    continue
                value, checks, rows, busy = body
                # Counted even if the index already has a score: the work
                # was done, and a second score means the queue lost a take.
                work = query.work.setdefault(worker + 1, [0, 0.0])
                work[0] += 1
                work[1] += busy
                query.replies.setdefault(index, (value, checks, rows, worker + 1))
        except (EOFError, OSError):
            return False
        return True

    def _on_death(self, worker: int) -> None:
        """Respawn a dead worker.  What it took and never reported is
        rescored by the coordinator when the loop asks for it; a
        running query is handed to the new process."""
        self._drain(worker)
        proc = self._procs[worker]
        if proc is not None:
            proc.join(timeout=JOIN_TIMEOUT)
        # It may have died holding the queue lock: take the lock if it is
        # free, and either way release it.
        self._queue.lock.acquire(timeout=LOCK_SECONDS)
        self._queue.lock.release()
        try:
            self._conns[worker].close()
        except OSError:
            pass
        self.respawns += 1
        obs_metrics.counter(
            "repro_shard_worker_respawns_total",
            "Shard worker processes respawned after unexpected death",
        ).inc()
        query = self._query
        if query is not None:
            query.dead.add(self._takers[worker])
        self._spawn(worker)
        if query is not None and worker + 1 in query.work:
            self._send(worker, query.message)

    def _reap(self) -> None:
        """Respawn every worker that died; also run while the queue lock
        stays taken, since its holder may be a dead worker."""
        for worker, proc in enumerate(self._procs):
            if proc is not None and not proc.is_alive():
                self._on_death(worker)
