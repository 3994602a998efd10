"""Golden-answer regression fixtures.

These pin exact outputs of the temporal engine and the progressive query
on fixed seeded inputs.  Unlike the oracle-backed property tests, a
golden test fails on *any* behavioral drift — a different tie-break, a
changed candidate order, one extra verification — even when the final
answer stays correct, which is exactly the regression signal wanted for
the paths the kernel layer now sits under.

The frozen values were produced by the current implementation and
cross-checked against ``conftest``'s brute-force oracles (the winners
below attain the oracle's maximum score).  If an *intentional* behavior
change lands (e.g. a new tie-break rule), regenerate the tuples and say
so in the commit.
"""

import pytest

from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.lower_bound import LowerBoundCache
from repro.core.temporal import TemporalMIOEngine
from repro.kernels import numpy_kernel_available
from repro.progressive import query_progressive
from repro.session import QuerySession

from conftest import oracle_scores, random_collection

KERNELS = ("python", "numpy") if numpy_kernel_available() else ("python",)
BITSET_BACKENDS = ("ewah", "plain", "roaring")

# (r, delta) -> (winner, score) on random_collection(30, 6, seed=42, ts=True)
TEMPORAL_GOLDEN = {
    (1.5, 2.0): (23, 3),
    (3.0, 5.0): (9, 8),
    (6.0, 1.0): (23, 9),
}

# r -> [(best_oid, best_score, score_upper_bound, candidates_total,
#        candidates_verified, is_final), ...] on
# random_collection(25, 6, seed=7): the full anytime state sequence.
PROGRESSIVE_GOLDEN = {
    1.2: [
        (15, 3, 8, 18, 0, False),
        (2, 4, 8, 18, 1, False),
        (4, 6, 8, 18, 2, False),
        (4, 6, 8, 18, 3, False),
        (10, 7, 8, 18, 4, False),
        (10, 7, 8, 18, 5, False),
        (10, 7, 8, 18, 6, False),
        (10, 7, 8, 18, 7, False),
        (10, 7, 8, 18, 8, False),
        (10, 7, 8, 18, 9, False),
        (24, 8, 8, 18, 10, True),
    ],
    3.0: [
        (24, 8, 8, 13, 0, True),
    ],
}


# Verification-heavy fixtures: large r on a clustered collection leaves
# most of the collection as candidates after filtering, so VERIFICATION
# dominates — exactly the regime the batched kernel verifier runs in.
# Tuples are (winner, score, candidates, verified_objects, box_skipped,
# distance_rows, posting_checks, verify_points_skipped, early_terminated),
# cross-checked against the oracle.  Verification skips the candidates
# whose per-segment box bound cannot beat the best score, so
# verified_objects + box_skipped is the number dequeued before the break.
# Every verification is seeded with the lower-bounding unions, so the
# distance work is what an engine holding a LowerBoundCache does
# (``test_cacheless_engine_verifies_as_the_lower_cache_engine``).
VERIFY_HEAVY_GOLDEN = {
    5.0: (4, 18, 19, 1, 3, 2, 2, 0, 1),
    8.0: (4, 20, 24, 1, 15, 51, 31, 0, 1),
    12.0: (4, 21, 28, 2, 23, 630, 225, 0, 1),
}

# The with-label path of an engine holding a label store (and no grid
# tier) on the same collection: repeated thresholds replay labels, so
# later queries skip labeled points (2 and 22 of ~320 points: only
# verified candidates leave Labeling-3 marks) while the answers and
# distance work stay pinned.  Tuples as above, preceded by the algorithm
# that must run.
ENGINE_LABEL_GOLDEN = [
    (12.0, "bigrid", (4, 21, 28, 2, 23, 630, 225, 0, 1)),
    (9.0, "bigrid", (4, 20, 27, 3, 10, 281, 109, 0, 1)),
    (12.0, "bigrid-label", (4, 21, 28, 2, 23, 630, 225, 2, 1)),
    (9.0, "bigrid-label", (4, 20, 27, 3, 10, 281, 109, 22, 1)),
]

# The same sequence through a session, whose grid tier runs a repeat of
# a labeling threshold label-free on the labeling query's grid: 12.0 and
# 9.0 repeat their label-free goldens.  The other thresholds of each
# bucket (11.5, 8.5) run with the labels; under ``label_reuse="safe"``
# Labeling-3 is withheld there, so no point is skipped in verification.
SESSION_LABEL_GOLDEN = [
    (12.0, "bigrid", (4, 21, 28, 2, 23, 630, 225, 0, 1)),
    (9.0, "bigrid", (4, 20, 27, 3, 10, 281, 109, 0, 1)),
    (12.0, "bigrid", (4, 21, 28, 2, 23, 630, 225, 0, 1)),
    (9.0, "bigrid", (4, 20, 27, 3, 10, 281, 109, 0, 1)),
    (11.5, "bigrid-label", (4, 21, 28, 2, 23, 712, 252, 0, 1)),
    (8.5, "bigrid-label", (4, 20, 14, 3, 10, 251, 107, 0, 1)),
]

_VERIFY_COUNTER_KEYS = (
    "candidates",
    "verified_objects",
    "box_skipped",
    "distance_rows",
    "posting_checks",
    "verify_points_skipped",
    "early_terminated",
)


@pytest.fixture(scope="module")
def verify_heavy_collection():
    return random_collection(n=40, mean_points=8, seed=77)


@pytest.fixture(scope="module")
def temporal_collection():
    return random_collection(n=30, mean_points=6, seed=42, with_timestamps=True)


@pytest.fixture(scope="module")
def progressive_collection():
    return random_collection(n=25, mean_points=6, seed=7)


class TestVerificationHeavyGolden:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("r", sorted(VERIFY_HEAVY_GOLDEN))
    def test_engine_query_matches_golden(
        self, verify_heavy_collection, r, backend, kernel
    ):
        result = MIOEngine(
            verify_heavy_collection, backend=backend, kernel=kernel
        ).query(r)
        winner, score, *counters = VERIFY_HEAVY_GOLDEN[r]
        assert result.exact
        assert (result.winner, result.score) == (winner, score)
        assert [
            result.counters[key] for key in _VERIFY_COUNTER_KEYS
        ] == counters

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    @pytest.mark.parametrize("r", sorted(VERIFY_HEAVY_GOLDEN))
    def test_cacheless_engine_verifies_as_the_lower_cache_engine(
        self, verify_heavy_collection, r, backend, kernel
    ):
        # The golden counters are not frozen numbers alone: a cache-less
        # engine seeds verification exactly as one whose lower bounds pass
        # through a LowerBoundCache, on a miss and on a hit.
        cacheless = MIOEngine(
            verify_heavy_collection, backend=backend, kernel=kernel
        ).query(r)
        cached_engine = MIOEngine(
            verify_heavy_collection, backend=backend, kernel=kernel,
            lower_cache=LowerBoundCache(),
        )
        winner, score, *counters = VERIFY_HEAVY_GOLDEN[r]
        for cached in (cached_engine.query(r), cached_engine.query(r)):
            assert (cached.winner, cached.score) == (winner, score)
            assert [cached.counters[key] for key in _VERIFY_COUNTER_KEYS] == [
                cacheless.counters[key] for key in _VERIFY_COUNTER_KEYS
            ] == counters
        assert cached.counters["lower_cache_hit"] == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    def test_session_label_sequence_matches_golden(
        self, verify_heavy_collection, backend, kernel
    ):
        session = QuerySession(
            verify_heavy_collection, backend=backend, kernel=kernel
        )
        self._check_sequence(verify_heavy_collection, session, SESSION_LABEL_GOLDEN)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend", BITSET_BACKENDS)
    def test_engine_label_sequence_matches_golden(
        self, verify_heavy_collection, backend, kernel
    ):
        engine = MIOEngine(
            verify_heavy_collection, backend=backend, kernel=kernel,
            label_store=LabelStore(),
        )
        self._check_sequence(verify_heavy_collection, engine, ENGINE_LABEL_GOLDEN)

    @staticmethod
    def _check_sequence(collection, target, sequence):
        for r, algorithm, golden in sequence:
            result = target.query(r)
            winner, score, *counters = golden
            assert result.algorithm == algorithm, r
            assert result.exact
            assert (result.winner, result.score) == (winner, score), r
            scores = oracle_scores(collection, r)
            assert score == max(scores) == scores[winner], r
            assert [
                result.counters[key] for key in _VERIFY_COUNTER_KEYS
            ] == counters, r


class TestTemporalGolden:
    @pytest.mark.parametrize("r,delta", sorted(TEMPORAL_GOLDEN))
    def test_query_matches_golden(self, temporal_collection, r, delta):
        result = TemporalMIOEngine(temporal_collection).query(r, delta)
        assert result.algorithm == "bigrid-temporal"
        assert (result.winner, result.score) == TEMPORAL_GOLDEN[(r, delta)]
        assert result.exact

    def test_tighter_delta_never_raises_score(self, temporal_collection):
        # Sanity on the fixture itself: the golden scores are monotone in
        # delta at fixed r (the temporal predicate only gets stricter).
        engine = TemporalMIOEngine(temporal_collection)
        loose = engine.query(3.0, 5.0)
        tight = engine.query(3.0, 0.5)
        assert tight.score <= loose.score


class TestProgressiveGolden:
    @pytest.mark.parametrize("r", sorted(PROGRESSIVE_GOLDEN))
    def test_state_sequence_matches_golden(self, progressive_collection, r):
        states = [
            (
                state.best_oid,
                state.best_score,
                state.score_upper_bound,
                state.candidates_total,
                state.candidates_verified,
                state.is_final,
            )
            for state in query_progressive(progressive_collection, r)
        ]
        assert states == PROGRESSIVE_GOLDEN[r]

    @pytest.mark.parametrize("r", sorted(PROGRESSIVE_GOLDEN))
    def test_truncated_stream_is_golden_prefix(self, progressive_collection, r):
        golden = PROGRESSIVE_GOLDEN[r]
        limit = max(1, len(golden) - 2)
        states = [
            (
                state.best_oid,
                state.best_score,
                state.score_upper_bound,
                state.candidates_total,
                state.candidates_verified,
                state.is_final,
            )
            for state in query_progressive(
                progressive_collection, r, max_verifications=limit - 1
            )
        ]
        assert states == golden[:limit]
