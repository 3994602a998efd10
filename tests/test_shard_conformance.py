"""Sharded execution conformance: bit-exact parity with the serial engine.

``mode="sharded"`` is purely an execution strategy: for every
collection, backend, kernel, dimension, and verifier count, the parallel
engine returns *bit-identical* answers to the serial engine -- same
winner, same score, same top-k order (including tie-breaks) -- and the
serial engine's work counters and index memory, because the coordinator
builds the serial grid and one best-first loop consumes every score.
This suite pins that contract plus the failure half:

* parity across the full configuration matrix on the deterministic
  inline path, and again through a real process pool;
* routing invariants of the halo router the end-to-end benchmark still
  probes -- ownership is a partition, halos are exactly the Lemma-2
  dilation (checked against brute force);
* failure semantics -- ``shard_task`` faults retry then fall back to
  the serial engine (answers unchanged), expired deadlines raise
  :class:`~repro.errors.QueryTimeout` before verification and degrade
  to a sound anytime answer during it, and a worker killed between or
  during queries is respawned without failing the query;
* shared-memory hygiene -- ``close()`` unlinks every segment the
  engine created.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest
from conftest import oracle_scores, random_collection

import repro.shard.executor as executor_module
from repro import faults
from repro.core.engine import MIOEngine
from repro.errors import PartitionTaskError, QueryTimeout
from repro.faults import FaultInjector, FaultSpec
from repro.kernels import numpy_kernel_available
from repro.obs.trace import Tracer
from repro.parallel.engine import ParallelMIOEngine
from repro.resilience import Deadline, ManualClock
from repro.shard.router import plan_shards

BACKENDS = ("ewah", "plain", "roaring")
KERNELS = ("python",) + (("numpy",) if numpy_kernel_available() else ())
POOL = pytest.param("pool", marks=pytest.mark.process_pool)
needs_numpy = pytest.mark.skipif(
    not numpy_kernel_available(), reason="workers verify numpy grids only"
)


@pytest.fixture(autouse=True)
def inline_executor(request, monkeypatch):
    """Force the deterministic inline path except where a test opts out.

    Tests marked ``process_pool`` exercise the real fork workers; the
    rest of the matrix runs inline so the suite stays fast on one core.
    """
    if "process_pool" not in request.keywords:
        monkeypatch.setenv("REPRO_SHARD_INLINE", "1")
    else:
        monkeypatch.delenv("REPRO_SHARD_INLINE", raising=False)


@pytest.fixture(scope="module")
def flat_collection():
    return random_collection(n=40, mean_points=8, seed=4242)


@pytest.fixture(scope="module")
def cube_collection():
    return random_collection(n=30, mean_points=6, dimension=3, seed=77)


#: Counters the sharded engine reports exactly as the serial one does.
SERIAL_COUNTERS = (
    "candidates",
    "verified_objects",
    "posting_checks",
    "distance_rows",
    "early_terminated",
)


def assert_parity(serial_result, sharded_result):
    assert (sharded_result.winner, sharded_result.score) == (
        serial_result.winner, serial_result.score,
    )
    assert sharded_result.topk == serial_result.topk
    assert sharded_result.exact
    for name in SERIAL_COUNTERS:
        assert sharded_result.counters[name] == serial_result.counters[name], name
    assert sharded_result.memory_bytes == serial_result.memory_bytes


# ----------------------------------------------------------------------
# Parity matrix (inline path)
# ----------------------------------------------------------------------


class TestShardedParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shards", (1, 2, 5))
    def test_flat_matrix(self, flat_collection, backend, kernel, shards):
        serial = MIOEngine(flat_collection, backend=backend, kernel=kernel)
        engine = ParallelMIOEngine(
            flat_collection, cores=2, backend=backend, kernel=kernel,
            shards=shards,
        )
        for r in (2.0, 3.5, 5.0):
            assert_parity(
                serial.query_topk(r, k=4), engine.query_topk(r, k=4)
            )
        result = engine.query(3.5)
        assert result.algorithm == "bigrid-sharded"
        assert result.counters["shards"] == min(shards, len(flat_collection))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shards", (2, 4))
    def test_three_dimensional(self, cube_collection, kernel, shards):
        serial = MIOEngine(cube_collection, kernel=kernel)
        engine = ParallelMIOEngine(
            cube_collection, cores=2, kernel=kernel, shards=shards
        )
        for r in (1.5, 4.0):
            assert_parity(
                serial.query_topk(r, k=3), engine.query_topk(r, k=3)
            )

    @pytest.mark.parametrize("seed", (901, 902, 903))
    def test_oracle_differential(self, seed):
        collection = random_collection(n=25, mean_points=6, seed=seed)
        tau = oracle_scores(collection, 3.0)
        result = ParallelMIOEngine(collection, cores=2, shards=3).query(3.0)
        assert result.score == max(tau)
        assert tau[result.winner] == max(tau)

    def test_tracing_is_answer_neutral_and_phases_derive(self, flat_collection):
        tracer = Tracer()
        plain = ParallelMIOEngine(flat_collection, cores=2, shards=2).query(2.0)
        traced = ParallelMIOEngine(
            flat_collection, cores=2, shards=2, tracer=tracer
        ).query(2.0)
        assert (traced.winner, traced.score) == (plain.winner, plain.score)
        names = [child.name for child in tracer.root.children]
        assert names == [
            "grid_mapping", "lower_bounding", "upper_bounding", "verification",
        ]
        # Inline, the coordinator is the only verifier that takes work.
        (verifier,) = tracer.root.children[3].children
        assert verifier.name == "verifier-0"
        assert verifier.attributes == {
            "candidates": traced.counters["verified_objects"],
            "speculative": 0,
        }
        assert set(traced.phases) == {
            "grid_mapping", "lower_bounding", "upper_bounding", "verification",
        }


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------


class TestShardPlans:
    @pytest.mark.parametrize("shards", (1, 3, 7))
    def test_ownership_is_a_partition(self, flat_collection, shards):
        plan = plan_shards(flat_collection, 3.5, shards)
        owned = np.concatenate(plan.owned)
        assert sorted(owned.tolist()) == list(range(len(flat_collection)))
        for shard in range(plan.shards):
            assert np.all(np.diff(plan.owned[shard]) > 0)
            assert np.all(np.diff(plan.halo[shard]) > 0)
            assert not set(plan.owned[shard]) & set(plan.halo[shard])

    def test_halo_is_the_exact_lemma2_dilation(self, flat_collection):
        # Brute force: a non-owned object belongs to the halo iff one of
        # its points lands in a large cell adjacent-or-equal (Chebyshev
        # distance <= 1) to a cell containing an owned object's point.
        r = 3.5
        plan = plan_shards(flat_collection, r, 4)
        width = float(np.ceil(r))
        cells = [
            {tuple(key) for key in np.floor(obj.points / width).astype(np.int64).tolist()}
            for obj in flat_collection
        ]
        for shard in range(plan.shards):
            owned = set(plan.owned[shard].tolist())
            owned_cells = set().union(*(cells[oid] for oid in owned))
            expected = {
                oid
                for oid in range(len(flat_collection))
                if oid not in owned
                and any(
                    max(abs(a - b) for a, b in zip(cell, target)) <= 1
                    for cell in cells[oid]
                    for target in owned_cells
                )
            }
            assert set(plan.halo[shard].tolist()) == expected

    def test_shards_never_exceed_objects(self):
        tiny = random_collection(n=3, mean_points=4, seed=5)
        plan = plan_shards(tiny, 2.0, 16)
        assert plan.shards == 3


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------


class TestShardFaults:
    def test_fault_falls_back_to_serial_with_identical_answer(self, flat_collection):
        expected = MIOEngine(flat_collection).query(2.0)
        engine = ParallelMIOEngine(flat_collection, cores=2, retries=0)
        with faults.injected(FaultInjector([FaultSpec("shard_task")])):
            result = engine.query(2.0)
        assert result.counters.get("serial_fallback") == 1
        assert "serial_fallback" in result.notes
        assert (result.winner, result.score) == (expected.winner, expected.score)
        assert result.exact

    def test_retry_budget_absorbs_a_transient_fault(self, flat_collection):
        engine = ParallelMIOEngine(flat_collection, cores=2, shards=2, retries=2)
        spec = FaultSpec("shard_task", max_triggers=1)
        with faults.injected(FaultInjector([spec])) as injector:
            result = engine.query(2.0)
        assert injector.fired["shard_task"] == 1
        assert result.algorithm == "bigrid-sharded"  # no fallback needed
        assert "serial_fallback" not in result.notes

    def test_fallback_disabled_raises_partition_task_error(self, flat_collection):
        engine = ParallelMIOEngine(
            flat_collection, cores=2, retries=0, serial_fallback=False
        )
        with faults.injected(FaultInjector([FaultSpec("shard_task")])):
            with pytest.raises(PartitionTaskError) as info:
                engine.query(2.0)
        assert info.value.attempts == 1

    def test_expired_deadline_raises_query_timeout(self, flat_collection):
        engine = ParallelMIOEngine(flat_collection, cores=2, shards=2)
        deadline = Deadline(1.0, clock=ManualClock(step=1.0))
        with pytest.raises(QueryTimeout) as info:
            engine.query(3.5, deadline=deadline)
        assert info.value.phase

    @pytest.mark.parametrize("executor", ("inline", POOL))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_deadline_during_verification_is_sound(
        self, flat_collection, executor, kernel
    ):
        # Each clock read advances one tick.  The filter phases read the
        # clock the same number of times on every run, so a budget just
        # past them expires inside verification.
        r, k = 3.5, 4
        tau = oracle_scores(flat_collection, r)
        serial = MIOEngine(flat_collection, kernel=kernel)
        engine = ParallelMIOEngine(flat_collection, cores=3, kernel=kernel)

        def run(budget):
            clock = ManualClock(step=1.0)
            return engine.query_topk(r, k, deadline=Deadline(float(budget), clock))

        try:
            low, high = 1, 1 << 20  # run(low) raises, run(high) answers
            while high - low > 1:
                middle = (low + high) // 2
                try:
                    run(middle)
                    high = middle
                except QueryTimeout:
                    low = middle
            inexact = 0
            for budget in range(high, high + 400, 10):
                result = run(budget)
                if result.exact:
                    assert_parity(serial.query_topk(r, k), result)
                    continue
                inexact += 1
                assert result.notes["degraded_deadline"] == "verification"
                # The winner's score is exact when it was settled, else
                # its Lemma-1 lower bound; either way a sound answer.
                assert result.score <= tau[result.winner]
                for oid, score in result.topk or []:
                    assert score == tau[oid]
            assert inexact
            # No reply of a cut-short query leaks into the next one.
            for _ in range(2):
                assert_parity(serial.query_topk(r, k), engine.query_topk(r, k))
        finally:
            engine.close()


# ----------------------------------------------------------------------
# The real process pool
# ----------------------------------------------------------------------


@pytest.mark.process_pool
class TestProcessPool:
    def test_pool_parity_and_reuse(self, flat_collection):
        serial = MIOEngine(flat_collection)
        engine = ParallelMIOEngine(flat_collection, cores=2, shards=2)
        try:
            assert not engine.shard_executor.inline
            for r in (2.0, 3.5, 5.0, 3.2):
                assert_parity(
                    serial.query_topk(r, k=4), engine.query_topk(r, k=4)
                )
        finally:
            engine.close()

    def test_killed_worker_is_respawned(self, flat_collection):
        engine = ParallelMIOEngine(flat_collection, cores=2, shards=2)
        try:
            expected = engine.query(3.5)
            executor = engine.shard_executor
            victim = executor._procs[0]
            victim.kill()
            victim.join(timeout=10.0)
            result = engine.query(3.5)
            assert (result.winner, result.score) == (expected.winner, expected.score)
            assert executor.respawns >= 1
        finally:
            engine.close()

    # cores=4: more verifier processes than a 2-CPU machine has CPUs.
    @pytest.mark.parametrize("cores", (2, 4))
    def test_numpy_pool_parity_counters_and_verifier_spans(
        self, flat_collection, cores
    ):
        serial = MIOEngine(flat_collection, kernel="numpy")
        tracer = Tracer()
        engine = ParallelMIOEngine(
            flat_collection, cores=cores, kernel="numpy", tracer=tracer
        )
        try:
            for r in (2.0, 3.5, 5.0):
                for k in (1, 4, len(flat_collection)):
                    # A hang would fail here as an inexact answer.
                    result = engine.query_topk(r, k, timeout_ms=60_000.0)
                    assert_parity(serial.query_topk(r, k), result)
                    assert result.counters["shards"] == cores
                    verification = tracer.roots[-1].children[-1]
                    assert verification.name == "verification"
                    spans = verification.children
                    assert spans[0].name == "verifier-0"
                    scored = sum(span.attributes["candidates"] for span in spans)
                    speculative = sum(
                        span.attributes["speculative"] for span in spans
                    )
                    assert speculative == result.extra["speculative_scores"]
                    # Every landed score is counted: a candidate taken
                    # twice (a lost update of the shared queue) breaks this.
                    assert scored == (
                        result.counters["verified_objects"] + speculative
                    )
        finally:
            engine.close()

    @needs_numpy
    def test_worker_killed_during_verification_is_rescored(
        self, flat_collection, monkeypatch
    ):
        # Slow every scorer (workers inherit the patch when the pool
        # forks) and ask for every object, so verification outlasts the
        # kill by a wide margin and no candidate is pruned.
        real = executor_module.label_free_scorer

        def slow_scorer(bigrid, r, deadline=None):
            score = real(bigrid, r, deadline)

            def slowed(oid):
                time.sleep(0.02)
                return score(oid)

            return slowed

        monkeypatch.setattr(executor_module, "label_free_scorer", slow_scorer)
        r, k = 3.5, len(flat_collection)
        expected = MIOEngine(flat_collection, kernel="numpy").query_topk(r, k)
        engine = ParallelMIOEngine(flat_collection, cores=2, kernel="numpy")
        try:
            engine.query(r)  # forks the pool
            executor = engine.shard_executor
            killer = threading.Timer(0.2, executor._procs[0].kill)
            killer.start()
            result = engine.query_topk(r, k)
            killer.join(timeout=10.0)
            assert not killer.is_alive()
            assert executor.respawns == 1
            assert_parity(expected, result)
            assert_parity(expected, engine.query_topk(r, k))
        finally:
            engine.close()

    def test_close_unlinks_every_grid_segment(self, flat_collection, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("needs a listable shared-memory directory")
        published = []
        real = executor_module._publish

        def recording(arrays):
            shm, layout = real(arrays)
            published.append(shm.name.lstrip("/"))
            return shm, layout

        monkeypatch.setattr(executor_module, "_publish", recording)
        before = set(os.listdir("/dev/shm"))
        engine = ParallelMIOEngine(flat_collection, cores=2, kernel="numpy")
        engine.query_topk(3.5, 4)
        with pytest.raises(QueryTimeout):
            engine.query(2.0, deadline=Deadline(1.0, clock=ManualClock(step=1.0)))
        engine.query_topk(2.0, 3, deadline=Deadline(10.0**9))
        engine.close()
        if numpy_kernel_available():
            assert len(published) == 2
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_close_releases_the_pool(self, flat_collection):
        engine = ParallelMIOEngine(flat_collection, cores=2)
        engine.query(2.0)
        procs = list(engine.shard_executor._procs)
        engine.close()
        assert all(not proc.is_alive() for proc in procs)
        # The engine lazily rebuilds a pool if queried again.
        result = engine.query(2.0)
        assert result.algorithm == "bigrid-sharded"
        engine.close()
