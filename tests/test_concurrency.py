"""Concurrent regression tests for the shared cache tiers and session.

Satellite: the three cross-query cache tiers (LabelStore, LargeKeyCache,
LowerBoundCache) are hammered from many threads and must neither corrupt
state nor change answers.  The closing tests drive one shared
QuerySession -- the service's deployment shape -- from a thread pool and
check every answer against a serial reference.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.bitset.plain import PlainBitset
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore, PointLabels
from repro.core.lower_bound import LowerBoundCache, LowerBoundResult
from repro.grid.cache import LargeKeyCache
from repro.grid.keys import compute_keys, large_cell_width
from repro.session import QuerySession

from conftest import random_collection

WORKERS = 8


def hammer(worker, rounds=50):
    """Run ``worker(thread_index, round_index)`` from WORKERS threads."""
    errors = []

    def loop(index):
        try:
            for round_index in range(rounds):
                worker(index, round_index)
        except Exception as exc:  # noqa: BLE001 -- surfaced via the list
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert errors == [], f"worker raised: {errors[:3]}"


class TestLargeKeyCacheConcurrency:
    def test_concurrent_providers_agree_with_direct_computation(self):
        collection = random_collection(10, 6, seed=31)
        cache = LargeKeyCache()
        ceilings = [3, 4, 5]
        expected = {
            (ceil_r, oid): compute_keys(
                collection[oid].points, large_cell_width(float(ceil_r))
            )
            for ceil_r in ceilings
            for oid in range(collection.n)
        }

        def worker(index, round_index):
            ceil_r = ceilings[round_index % len(ceilings)]
            provide = cache.provider(collection, ceil_r)
            oid = (index + round_index) % collection.n
            indices = np.arange(collection[oid].num_points)
            # The provider hands back int64 key rows; as key tuples they
            # are exactly compute_keys' output.
            rows = provide(oid, indices)
            assert [tuple(row) for row in rows.tolist()] == expected[(ceil_r, oid)]

        hammer(worker)
        # Every (ceiling, oid) pair is cached; accounting stayed coherent
        # under contention (concurrent same-key misses may double-count,
        # but hits + misses covers every lookup).
        assert len(cache) == len(expected)
        assert cache.hits + cache.misses == WORKERS * 50

    def test_concurrent_clear_is_safe(self):
        collection = random_collection(6, 5, seed=37)
        cache = LargeKeyCache()

        def worker(index, round_index):
            if index == 0 and round_index % 10 == 0:
                cache.clear()
            provide = cache.provider(collection, 4)
            oid = round_index % collection.n
            provide(oid, np.arange(collection[oid].num_points))

        hammer(worker)


class TestLowerBoundCacheConcurrency:
    @staticmethod
    def _result(slot):
        bitset = PlainBitset()
        for member in range(slot, slot + 10):
            bitset.set(member)
        return LowerBoundResult(
            values=[slot] * 4, tau_max=slot, bitsets=[bitset, None]
        )

    def test_concurrent_get_put_preserves_entries(self):
        cache = LowerBoundCache(max_entries=4)
        for slot in range(4):
            cache.put(float(slot), self._result(slot))

        def worker(index, round_index):
            r = float(round_index % 4)
            hit = cache.get(r, PlainBitset)
            if hit is not None:
                slot = int(r)
                assert hit.tau_max == slot
                assert hit.values == [slot] * 4
                assert list(hit.bitsets[0].iter_set_bits()) == list(
                    range(slot, slot + 10)
                )
                assert hit.bitsets[1] is None

        hammer(worker)

    def test_concurrent_put_respects_capacity(self):
        cache = LowerBoundCache(max_entries=3)

        def worker(index, round_index):
            cache.put(float(index * 100 + round_index), self._result(index))
            cache.get(float(round_index % 7), PlainBitset)

        hammer(worker)
        assert len(cache) <= 3


class TestLabelStoreConcurrency:
    def test_concurrent_put_get_roundtrips(self):
        collection = random_collection(8, 5, seed=41)
        store = LabelStore()

        def worker(index, round_index):
            ceil_r = 3 + round_index % 4
            if not store.has(ceil_r):
                store.put(
                    ceil_r, PointLabels.for_collection(collection, float(ceil_r))
                )
            fetched = store.get(ceil_r)
            if fetched is not None:
                assert fetched.r == float(ceil_r)
                assert len(fetched.arrays) == collection.n

        hammer(worker)
        assert set(store.ceilings()) <= {3, 4, 5, 6}
        assert store.hits > 0
        assert store.hits + store.misses == WORKERS * 50


class TestSharedSessionConcurrency:
    def test_concurrent_queries_match_serial_reference(self):
        collection = random_collection(30, 5, seed=23)
        thresholds = [3.5, 4.0, 4.5, 4.9, 5.2]
        reference = {r: MIOEngine(collection).query(r) for r in thresholds}
        session = QuerySession(collection)

        def run(args):
            _, r = args
            return r, session.query(r)

        jobs = [(i, thresholds[i % len(thresholds)]) for i in range(40)]
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for r, result in pool.map(run, jobs):
                assert result.exact
                assert result.score == reference[r].score
        stats = session.stats()
        assert stats["queries"] == 40

    def test_concurrent_topk_and_query_mix(self):
        collection = random_collection(25, 5, seed=29)
        session = QuerySession(collection)
        expected = MIOEngine(collection).query_topk(4.5, 3)

        def worker(index, round_index):
            if index % 2 == 0:
                result = session.topk(4.5, 3)
                assert [s for _, s in result.topk] == [s for _, s in expected.topk]
            else:
                result = session.query(4.5)
                assert result.score == expected.score

        hammer(worker, rounds=10)
