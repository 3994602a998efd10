"""The former multi-core name, and the shard router the benchmark probes.

``ParallelMIOEngine`` is the serial engine under its former name: for
every collection, backend, kernel, dimension and ``cores`` value it
returns *bit-identical* answers to :class:`~repro.core.engine.MIOEngine`
-- same winner, same score, same top-k order (including tie-breaks) --
and the same work counters and index memory.  This suite pins that,
plus:

* routing invariants of the halo router the end-to-end benchmark still
  probes -- ownership is a partition, halos are exactly the Lemma-2
  dilation (checked against brute force);
* deadline semantics -- expired deadlines raise
  :class:`~repro.errors.QueryTimeout` before verification and degrade
  to a sound anytime answer during it.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import oracle_scores, random_collection

from repro.core.engine import MIOEngine
from repro.errors import QueryTimeout
from repro.kernels import numpy_kernel_available
from repro.obs.trace import Tracer
from repro.parallel.engine import ParallelMIOEngine
from repro.resilience import Deadline, ManualClock
from repro.shard.router import plan_shards

BACKENDS = ("ewah", "plain", "roaring")
KERNELS = ("python",) + (("numpy",) if numpy_kernel_available() else ())


@pytest.fixture(scope="module")
def flat_collection():
    return random_collection(n=40, mean_points=8, seed=4242)


@pytest.fixture(scope="module")
def cube_collection():
    return random_collection(n=30, mean_points=6, dimension=3, seed=77)


#: Counters the former multi-core name reports exactly as the serial
#: engine does.
SERIAL_COUNTERS = (
    "candidates",
    "verified_objects",
    "box_skipped",
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
# Parity matrix
# ----------------------------------------------------------------------


class TestShardedParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("cores", (1, 2, 5))
    def test_flat_matrix(self, flat_collection, backend, kernel, cores):
        serial = MIOEngine(flat_collection, backend=backend, kernel=kernel)
        engine = ParallelMIOEngine(
            flat_collection, cores=cores, backend=backend, kernel=kernel
        )
        for r in (2.0, 3.5, 5.0):
            assert_parity(
                serial.query_topk(r, k=4), engine.query_topk(r, k=4)
            )
        assert engine.query(3.5).algorithm == "bigrid"

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("cores", (2, 4))
    def test_three_dimensional(self, cube_collection, kernel, cores):
        serial = MIOEngine(cube_collection, kernel=kernel)
        engine = ParallelMIOEngine(cube_collection, cores=cores, kernel=kernel)
        for r in (1.5, 4.0):
            assert_parity(
                serial.query_topk(r, k=3), engine.query_topk(r, k=3)
            )

    @pytest.mark.parametrize("seed", (901, 902, 903))
    def test_oracle_differential(self, seed):
        collection = random_collection(n=25, mean_points=6, seed=seed)
        tau = oracle_scores(collection, 3.0)
        for kernel in KERNELS:
            result = ParallelMIOEngine(collection, cores=2, kernel=kernel).query(3.0)
            assert result.score == max(tau), kernel
            assert tau[result.winner] == max(tau), kernel

    def test_tracing_is_answer_neutral_and_phases_derive(self, flat_collection):
        tracer = Tracer()
        plain = ParallelMIOEngine(flat_collection, cores=2).query(2.0)
        traced = ParallelMIOEngine(flat_collection, cores=2, tracer=tracer).query(2.0)
        assert (traced.winner, traced.score) == (plain.winner, plain.score)
        names = [child.name for child in tracer.root.children]
        assert names == [
            "grid_mapping", "lower_bounding", "upper_bounding", "verification",
        ]
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
# Deadlines
# ----------------------------------------------------------------------


class TestShardFaults:
    def test_expired_deadline_raises_query_timeout(self, flat_collection):
        engine = ParallelMIOEngine(flat_collection, cores=2)
        deadline = Deadline(1.0, clock=ManualClock(step=1.0))
        with pytest.raises(QueryTimeout) as info:
            engine.query(3.5, deadline=deadline)
        assert info.value.phase

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_deadline_during_verification_is_sound(self, flat_collection, kernel):
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
        for _ in range(2):
            assert_parity(serial.query_topk(r, k), engine.query_topk(r, k))
