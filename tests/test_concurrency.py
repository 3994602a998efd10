"""Concurrent regression tests for the shared cache tiers and session.

Satellite: the three cross-query cache tiers (LabelStore,
ResidentGridCache, LowerBoundCache) are hammered from many threads and
must neither corrupt state nor change answers.  The closing tests drive
one shared QuerySession -- the service's deployment shape -- from a
thread pool and check every answer against a serial reference, and the
chaos test drives the service over a DynamicMIO that another thread
mutates, checking every answer against the brute-force oracle.
"""

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bitset.plain import PlainBitset
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore, PointLabels
from repro.core.lower_bound import IntSeeds, LowerBoundCache, LowerBoundResult
from repro.core.pipeline import GridMappingStage
from repro.dynamic import DynamicMIO
from repro.kernels import numpy_kernel_available
from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig
from repro.session import QuerySession

from conftest import oracle_scores, random_collection
from test_kernel_conformance import assert_results_equal

WORKERS = 8


def hammer(worker, rounds=50, workers=WORKERS):
    """Run ``worker(thread_index, round_index)`` from ``workers`` threads."""
    errors = []

    def loop(index):
        try:
            for round_index in range(rounds):
                worker(index, round_index)
        except Exception as exc:  # noqa: BLE001 -- surfaced via the list
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "a worker hung"
    assert errors == [], f"worker raised: {errors[:3]}"


def _run(session, r, k):
    return session.query(r) if k == 1 else session.topk(r, k)


def _sequential_references(collection, label_r, thresholds, label_reuse="safe"):
    """Each ``(r, k, lower_hit)`` call on a fresh numpy session run
    sequentially after the labeling run at ``label_r``, with the call's
    lower-bound entry resident or not (the only counters that state
    changes; grid residency changes none)."""

    def sequential(r, k, lower_hit):
        fresh = QuerySession(collection, kernel="numpy", label_reuse=label_reuse)
        fresh.query(label_r)
        if lower_hit:
            fresh.query(r)
        else:
            fresh.lower_cache.clear()
        return _run(fresh, r, k)

    return {
        (r, k, hit): sequential(r, k, hit)
        for r in thresholds
        for k in (1, 3)
        for hit in (False, True)
    }


def _with_fast_switching(run):
    interval = sys.getswitchinterval()
    # Switch threads often so views of one grid interleave mid-phase.
    sys.setswitchinterval(1e-5)
    try:
        run()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)
class TestResidentGridConcurrency:
    def test_shared_session_matches_references(self):
        """Four threads (the service's ``max_inflight``) repeat queries and
        top-k at a few thresholds on one numpy session whose tiers hold
        fewer thresholds than the threads use.  Every result -- winner,
        score, top-k, counters, ``memory_bytes`` -- equals the same call
        on a fresh session run sequentially (see
        ``_sequential_references``), and the grid tier never outgrows its
        capacity."""
        collection = random_collection(30, 6, seed=47)
        label_r = 3.9
        thresholds = (3.1, 3.4, 3.7, 3.9)
        capacity = 2
        reference = _sequential_references(collection, label_r, thresholds)
        session = QuerySession(
            collection, kernel="numpy", lower_cache_entries=capacity
        )
        session.query(label_r)
        sizes = []

        def worker(index, round_index):
            # Threads move through the thresholds together, so they share
            # resident grids as well as evicting them.
            r = thresholds[(round_index // 3) % len(thresholds)]
            k = 1 if (index + round_index) % 2 else 3
            result = _run(session, r, k)
            sizes.append(len(session.grid_cache))
            hit = bool(result.counters.get("lower_cache_hit"))
            assert_results_equal(result, reference[(r, k, hit)])

        _with_fast_switching(lambda: hammer(worker, rounds=24, workers=4))
        assert max(sizes) <= capacity
        assert session.stats()["grid_key_cache_hits"] > 0

    def test_cold_entry_memos_fill_concurrently(self):
        """Four threads start together on a resident entry whose memo is
        still empty, so its upper-bounding pass, skip bounds and row sizes
        are filled and read at the same time (and the lower-bound misses
        race to bring different seeds objects).  Every result equals the
        sequential reference."""
        from repro.kernels.numpy_backend import NUMPY_KERNEL

        collection = random_collection(30, 6, seed=53)
        label_r, r = 3.9, 3.6
        reference = _sequential_references(collection, label_r, (r,))
        for _ in range(4):
            session = QuerySession(collection, kernel="numpy")
            session.query(label_r)
            labels = session.label_store.get(4)
            grid = NUMPY_KERNEL.build_bigrid(collection, r, labels=labels)
            session.grid_cache.put(r, "ewah", labels, grid)
            start = threading.Barrier(4)

            def worker(index, round_index):
                if round_index == 0:
                    start.wait(timeout=30.0)
                k = 1 if (index + round_index) % 2 else 3
                result = _run(session, r, k)
                hit = bool(result.counters.get("lower_cache_hit"))
                assert_results_equal(result, reference[(r, k, hit)])

            _with_fast_switching(lambda: hammer(worker, rounds=4, workers=4))
            assert session.stats()["grid_key_cache_hits"] == 16
            memo = grid.large_grid.tables.memo
            assert memo.upper is not None and memo.bounds is not None
            assert memo.adj_bytes is not None

    def test_empty_score_memo_fills_concurrently(self):
        """Four threads start together on a resident entry whose upper
        pass and skip bounds are memoized but whose score memo is empty,
        under the bucket's labels, which ``label_reuse="paper"`` applies
        in verification too (the memo is keyed by their verify mask).
        They score, record and replay the same candidates at once; every
        result equals the sequential reference and the memo ends up
        holding records."""
        collection = random_collection(30, 6, seed=59)
        label_r, r = 3.9, 3.6
        reference = _sequential_references(
            collection, label_r, (r,), label_reuse="paper"
        )
        for _ in range(4):
            session = QuerySession(collection, kernel="numpy", label_reuse="paper")
            session.query(label_r)
            session.query(r)
            session.topk(r, 3)
            memo = session.grid_cache._entries[r][0].large_grid.tables.memo
            assert memo.upper is not None and memo.scores is not None
            memo.scores = None
            start = threading.Barrier(4)

            def worker(index, round_index):
                if round_index == 0:
                    start.wait(timeout=30.0)
                k = 1 if (index + round_index) % 2 else 3
                result = _run(session, r, k)
                hit = bool(result.counters.get("lower_cache_hit"))
                assert_results_equal(result, reference[(r, k, hit)])

            _with_fast_switching(lambda: hammer(worker, rounds=4, workers=4))
            seeds, memo_r, labels, _, records = memo.scores
            assert memo_r == r and labels is session.label_store.get(4)
            assert seeds is session.lower_cache._entries[r][2] and records

    def test_concurrent_clear_is_safe(self):
        """One of four querying threads drops every resident grid before each
        of its queries: a query whose grid is cleared away mid-run still answers
        exactly as the sequential reference, and the tier stays usable."""
        collection = random_collection(20, 5, seed=37)
        label_r = 3.8
        thresholds = (3.2, 3.8)
        reference = _sequential_references(collection, label_r, thresholds)
        session = QuerySession(collection, kernel="numpy")
        session.query(label_r)

        def worker(index, round_index):
            if index == 0:
                # Clear between this thread's own queries, so the clears
                # spread over the whole run.
                session.grid_cache.clear()
            r = thresholds[round_index % len(thresholds)]
            k = 1 if (index + round_index) % 2 else 3
            result = _run(session, r, k)
            hit = bool(result.counters.get("lower_cache_hit"))
            assert_results_equal(result, reference[(r, k, hit)])

        _with_fast_switching(lambda: hammer(worker, rounds=16, workers=4))
        assert len(session.grid_cache) <= len(thresholds)
        # After the clearing stops, a repeated threshold is served again.
        session.query(thresholds[0])
        hits = session.stats()["grid_key_cache_hits"]
        session.query(thresholds[0])
        assert session.stats()["grid_key_cache_hits"] == hits + 1


class TestLowerBoundCacheConcurrency:
    @staticmethod
    def _result(slot):
        union = sum(1 << member for member in range(slot, slot + 10))
        return LowerBoundResult(
            values=[slot] * 4, tau_max=slot, seeds=IntSeeds([union, 0])
        )

    def test_concurrent_get_put_preserves_entries(self):
        cache = LowerBoundCache(max_entries=4)
        for slot in range(4):
            cache.put(float(slot), self._result(slot))

        def worker(index, round_index):
            r = float(round_index % 4)
            hit = cache.get(r)
            if hit is not None:
                slot = int(r)
                assert hit.tau_max == slot
                assert hit.values == [slot] * 4
                assert list(
                    PlainBitset.from_int(hit.seeds.to_int(0)).iter_set_bits()
                ) == list(range(slot, slot + 10))
                assert hit.seeds.to_int(1) == 0

        hammer(worker)

    def test_concurrent_put_respects_capacity(self):
        cache = LowerBoundCache(max_entries=3)

        def worker(index, round_index):
            cache.put(float(index * 100 + round_index), self._result(index))
            cache.get(float(round_index % 7))

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


class TestDynamicServiceChaos:
    """ROADMAP item 7's chaos test: ``/query`` and ``/topk`` through
    :meth:`ServiceApp.handle` over a :class:`DynamicMIO` while another
    thread moves objects.  Every answer must be the brute-force answer of
    some collection version between that request's start and its end:
    no request may be served from a snapshot older than its start."""

    THRESHOLDS = (3.0, 2.6, 3.0, 2.2, 2.6, 3.0)

    @staticmethod
    def _matches(collection, r, k, payload) -> bool:
        scores = oracle_scores(collection, r)
        best = max(scores)
        if k == 1:
            winner = payload["winner"]
            return (
                0 <= winner < len(scores)
                and payload["score"] == best == scores[winner]
            )
        topk = payload["topk"]
        return (
            all(0 <= oid < len(scores) and scores[oid] == score for oid, score in topk)
            and len({oid for oid, _ in topk}) == len(topk)
            and [score for _, score in topk] == sorted(scores, reverse=True)[:k]
        )

    def test_answers_match_a_version_within_each_request(self, monkeypatch):
        base = random_collection(24, 5, seed=61)
        dynamic = DynamicMIO()
        handles = [dynamic.add_object(obj.points) for obj in base]
        app = ServiceApp(dynamic, ServiceConfig(port=0, default_timeout_ms=60000.0))
        versions = {dynamic.version: dynamic.snapshot()[0]}
        labeled_tables = set()
        served_from_labeling = []
        run = GridMappingStage.run

        def spying(stage, ctx, span):
            # Which resident entries a labeling query built, and which
            # later queries ran on one of them.
            run(stage, ctx, span)
            tables = getattr(ctx.bigrid.large_grid, "tables", None)
            if ctx.grid_cache is None or tables is None:
                return
            if ctx.labeler is not None:
                labeled_tables.add(id(tables))
            elif id(tables) in labeled_tables:
                served_from_labeling.append(ctx.r)

        monkeypatch.setattr(GridMappingStage, "run", spying)
        stop = threading.Event()
        rng = random.Random(61)

        def mover():
            while not stop.is_set():
                handle = handles.pop(rng.randrange(len(handles)))
                points = dynamic.get_points(handle)
                shift = np.array([rng.gauss(0.0, 1.5), rng.gauss(0.0, 1.5)])
                dynamic.remove_object(handle)
                versions[dynamic.version] = dynamic.snapshot()[0]
                handles.append(dynamic.add_object(points + shift))
                versions[dynamic.version] = dynamic.snapshot()[0]
                stop.wait(0.001)

        answers = []

        def client(index, round_index):
            r = self.THRESHOLDS[(index + round_index) % len(self.THRESHOLDS)]
            k = 3 if (index + round_index) % 3 == 0 else 1
            body = {"r": r} if k == 1 else {"r": r, "k": k}
            start = dynamic.version
            response = app.handle(
                "POST", "/query" if k == 1 else "/topk", None,
                json.dumps(body).encode(),
            )
            answers.append((r, k, start, dynamic.version, response))

        moving = threading.Thread(target=mover)
        moving.start()
        try:
            _with_fast_switching(lambda: hammer(client, rounds=30, workers=3))
        finally:
            stop.set()
            moving.join(timeout=60.0)
        assert not moving.is_alive()
        assert len(versions) > 10
        for r, k, start, end, response in answers:
            assert response.status == 200, response.payload
            assert response.payload["exact"] is True, response.payload
            assert any(
                self._matches(versions[version], r, k, response.payload)
                for version in range(start, end + 1)
            ), (r, k, start, end, response.payload)
        if numpy_kernel_available():
            assert labeled_tables and served_from_labeling
