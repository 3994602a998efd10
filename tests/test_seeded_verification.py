"""Differential suite: every verification is seeded from the lower-bound unions.

Lower bounding proves that the members of ``b(o_i)`` interact with
``o_i``; every query path starts verification from those unions, so a
cache-less :class:`~repro.core.engine.MIOEngine`, an engine holding a
:class:`~repro.core.lower_bound.LowerBoundCache` (its miss and its hit)
and a :class:`~repro.session.QuerySession` must verify identically: the
same answers, work counters, settled prefixes, ``box_skipped`` and
Labeling-3 marks, on both kernels, in 2-D and 3-D, for ``k`` in ``{1, 5}``
and under a step-clock deadline.

Each variant runs the same threshold twice over its own label store: the
first query produces labels, the second runs WITH-LABEL in the engines
(and, under a cache, hits it).  A session runs that repeat label-free on
the labeling query's grid, so it is compared against a fourth variant:
an engine with a lower-bound cache and a grid tier but no label store,
whose queries are the session's but for the labeling query's marks.
Without a deadline the variants agree on both queries.  A step-clock
deadline expires after a fixed number of clock reads, and a cache hit
skips lower bounding's per-object reads, so under a deadline the
variants that read the clock alike must agree exactly, and every settled
prefix must be a prefix of the unhurried run's.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.lower_bound import LowerBoundCache
from repro.core.objects import ObjectCollection
from repro.errors import QueryTimeout
from repro.grid.cache import ResidentGridCache
from repro.kernels import numpy_kernel_available, resolve_kernel
from repro.resilience import Deadline, ManualClock
from repro.session import QuerySession

from conftest import oracle_scores

KERNELS = ("python", "numpy") if numpy_kernel_available() else ("python",)
VARIANTS = ("cacheless", "lower_cache", "session", "label_free")
COUNTER_KEYS = (
    "candidates",
    "verified_objects",
    "box_skipped",
    "distance_rows",
    "posting_checks",
    "verify_points_skipped",
    "early_terminated",
    "verification_timed_out",
)

# A small shared value pool makes shared small cells -- non-empty seeds --
# common instead of measure-zero.
_POOL = (0.0, 0.3, 1.0, 1.2, 2.5)
_coordinate = st.one_of(
    st.sampled_from(_POOL),
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False, width=32),
)


@st.composite
def collections(draw, dimension):
    arrays = []
    for _ in range(draw(st.integers(min_value=2, max_value=14))):
        count = draw(st.integers(min_value=1, max_value=6))
        points = [
            [draw(_coordinate) for _ in range(dimension)] for _ in range(count)
        ]
        arrays.append(np.array(points, dtype=np.float64))
    return ObjectCollection.from_point_arrays(arrays)


radii = st.floats(min_value=0.25, max_value=6.0, allow_nan=False, width=32)
#: How many clock reads before an unhurried query's end the deadline
#: expires (None: no deadline).  Verification is the last phase, so short
#: cuts mostly land in it and longer ones in the filter phases.
cuts = st.one_of(st.none(), st.integers(min_value=0, max_value=60))


def recording_kernel(name):
    """A fresh instance of kernel ``name`` that keeps every verification
    result it returns (the settled prefix is not part of ``MIOResult``)."""

    class Recording(type(resolve_kernel(name))):
        def __init__(self):
            self.verifications = []

        def verify_candidates(self, *args, **kwargs):
            result = super().verify_candidates(*args, **kwargs)
            self.verifications.append(result)
            return result

    return Recording()


def run_variant(variant, collection, kernel_name, r, k, budget):
    """The variant's two queries at ``r``: one observation per query, or
    ``"timeout"`` when a filter phase raised."""
    kernel = recording_kernel(kernel_name)
    if variant == "session":
        session = QuerySession(collection, kernel=kernel)
        store = session.label_store
        ask = session.query if k == 1 else (
            lambda r, deadline: session.topk(r, k, deadline=deadline)
        )
    else:
        store = None if variant == "label_free" else LabelStore()
        engine = MIOEngine(
            collection,
            label_store=store,
            lower_cache=None if variant == "cacheless" else LowerBoundCache(),
            grid_cache=ResidentGridCache() if store is None else None,
            kernel=kernel,
        )
        ask = engine.query if k == 1 else (
            lambda r, deadline: engine.query_topk(r, k, deadline=deadline)
        )
    observations = []
    for _ in range(2):
        deadline = (
            None if budget is None
            else Deadline(float(budget), clock=ManualClock(step=1.0))
        )
        try:
            result = ask(r, deadline=deadline)
        except QueryTimeout:
            observations.append("timeout")
            continue
        verification = kernel.verifications[-1]
        labels = None if store is None else store.get(math.ceil(r))
        observations.append({
            "answer": (
                result.algorithm, result.winner, result.score, result.topk,
                result.exact,
            ),
            "counters": {key: result.counters[key] for key in COUNTER_KEYS},
            "settled": verification.settled,
            "box_skipped": verification.box_skipped,
            "labels": None if labels is None
            else [array.tolist() for array in labels.arrays],
        })
    return observations


def clock_reads(collection, r, k, kernel):
    """Clock reads of an unhurried cache-less first query."""
    clock = ManualClock(step=1.0)
    deadline = Deadline(1e12, clock=clock)
    engine = MIOEngine(collection, kernel=kernel)
    if k == 1:
        engine.query(r, deadline=deadline)
    else:
        engine.query_topk(r, k, deadline=deadline)
    return int(clock.now)


def _unlabeled(observation):
    """An observation without the label store's contents."""
    if observation == "timeout":
        return observation
    return {key: value for key, value in observation.items() if key != "labels"}


def _labeled(observation):
    """Whether a completed first query stored its labels."""
    return observation != "timeout" and observation["answer"][4]


def check_variants_agree(collection, r, k, cut, kernel):
    budget = (
        None if cut is None else max(1, clock_reads(collection, r, k, kernel) - cut)
    )
    runs = {
        variant: run_variant(variant, collection, kernel, r, k, budget)
        for variant in VARIANTS
    }
    session = runs["session"]
    if budget is None:
        best = max(oracle_scores(collection, r))
        assert runs["lower_cache"] == runs["cacheless"]
        assert session[0] == runs["cacheless"][0]
        # The second query replays the first one's labels in an engine; a
        # session runs it label-free, as an engine without labels does,
        # and writes no labels.
        assert runs["cacheless"][1]["answer"][0] == "bigrid-label"
        assert session[1]["answer"][0] == "bigrid"
        assert session[1]["labels"] == session[0]["labels"]
        # The labeling query is a label-free run but for its marks.
        assert list(map(_unlabeled, session)) == list(
            map(_unlabeled, runs["label_free"])
        )
        for observations in runs.values():
            for observation in observations:
                assert observation["answer"][2] == best
                assert observation["answer"][4]
        return
    # A miss and a session's first query read the clock as a cache-less
    # query does.  A session's second query -- the label-free repeat, or
    # a labeling run if the first was cut short -- reads it as the
    # label-free engine's does: both hit the lower-bound cache, and the
    # grid tier, whenever the first query's build completed.
    assert runs["lower_cache"][0] == runs["cacheless"][0]
    assert session[0] == runs["cacheless"][0]
    assert list(map(_unlabeled, session)) == list(map(_unlabeled, runs["label_free"]))
    unhurried = run_variant("cacheless", collection, kernel, r, k, None)
    unhurried_free = run_variant("label_free", collection, kernel, r, k, None)
    for variant, observations in runs.items():
        # A first query cut short stores no labels: the second one labels.
        labeled = _labeled(observations[0])
        for query, observation in enumerate(observations):
            if observation == "timeout":
                continue
            if variant in ("session", "label_free"):
                full = unhurried_free[query]
            else:
                full = unhurried[query if labeled else 0]
            settled = observation["settled"]
            assert settled == full["settled"][: len(settled)], (variant, query)
            if observation["answer"][4]:
                assert observation["answer"][1:4] == full["answer"][1:4]


@pytest.mark.parametrize("kernel", KERNELS)
@given(
    collection=collections(dimension=2),
    r=radii,
    k=st.sampled_from((1, 5)),
    cut=cuts,
)
def test_variants_verify_alike_2d(kernel, collection, r, k, cut):
    check_variants_agree(collection, r, k, cut, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@given(
    collection=collections(dimension=3),
    r=radii,
    k=st.sampled_from((1, 5)),
    cut=cuts,
)
def test_variants_verify_alike_3d(kernel, collection, r, k, cut):
    check_variants_agree(collection, r, k, cut, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_seeding_skips_proven_owners(kernel):
    """On a collection where lower bounding proves every pair, a cache-less
    query distance-checks nothing at all."""
    # Three objects stacked in one small cell: each union holds all three.
    collection = ObjectCollection.from_point_arrays(
        [np.array([[0.0, 0.0], [9.0, 9.0]]), np.array([[0.01, 0.0]]),
         np.array([[0.0, 0.01]])]
    )
    result = MIOEngine(collection, kernel=kernel).query(1.0)
    assert (result.winner, result.score) == (0, 2)
    assert result.counters["verified_objects"] >= 1
    assert result.counters["distance_rows"] == 0
    assert result.counters["posting_checks"] == 0
