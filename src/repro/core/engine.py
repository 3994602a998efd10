"""The MIO query engine: Algorithm 2's filter-and-verification framework.

One :class:`MIOEngine` wraps a static, memory-resident collection.  Each
query builds a BIGrid online for its threshold ``r`` (Section III-A shows
offline building does not pay off), lower-bounds every object, upper-bounds
and prunes, then verifies best-first:

    GRID-MAPPING -> LOWER-BOUNDING -> UPPER-BOUNDING -> VERIFICATION

The engine itself is thin: it validates the request, snapshots its
configuration into a :class:`~repro.core.pipeline.QueryContext`, and runs
the shared :data:`~repro.core.pipeline.SERIAL_PIPELINE` -- the one
orchestrator that applies tracing spans, fault trips, deadline
checkpoints, phase timing, and metric recording uniformly across every
engine variant (see :mod:`repro.core.pipeline`).

When the engine owns a :class:`~repro.core.labels.LabelStore`, the first
query for each ``ceil(r)`` additionally produces point labels, and later
queries with the same ceiling run the WITH-LABEL variants of every phase
(Section III-D): labeled-useless points are never mapped, upper-bounding
skips ``label != 11*`` points, and verification skips ``label != 1*1``
points.  Every query, labeled or not, seeds verification with the
lower-bounding unions (objects certain to interact are never
distance-checked).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.labels import LabelStore
from repro.core.lower_bound import LowerBoundCache
from repro.core.objects import ObjectCollection
from repro.core.pipeline import SERIAL_PIPELINE, QueryContext, run_grouped_sweep
from repro.core.query import MIOResult
from repro.errors import InvalidQueryError
from repro.grid.bigrid import BIGrid
from repro.grid.cache import ResidentGridCache
from repro.kernels import resolve_kernel
from repro.obs.trace import ensure_tracer
from repro.resilience import Deadline


class MIOEngine:
    """Processes MIO (and top-k MIO) queries over one collection.

    Parameters
    ----------
    collection:
        The static object collection ``O``.
    backend:
        Bitset backend name (``"ewah"`` as in the paper, or ``"plain"``).
    label_store:
        Optional store enabling the Section III-D reuse of previous query
        results.  Without one, every query runs the label-free pipeline.
    label_reuse:
        ``"safe"`` (default) applies Labeling-3 only when the stored labels
        were produced by exactly the same ``r``; ``"paper"`` applies it for
        any ``r'`` with the same ceiling, as the paper describes (see
        DESIGN.md for why that can in principle under-count).
    grid_cache:
        Optional :class:`~repro.grid.cache.ResidentGridCache` shared by a
        :class:`~repro.session.QuerySession`: a query repeating an exact
        ``r`` under the same labels runs on a view of the grid an earlier
        query built instead of building its own.  With a tier, a query at
        the ``r`` its ceiling's labels were produced at runs label-free,
        on the labeling query's grid.
    lower_cache:
        Optional :class:`~repro.core.lower_bound.LowerBoundCache`: repeating
        an exact ``r`` skips lower-bounding entirely.  An entry keeps the
        unions that seed verification, so it serves label-free and
        with-label queries alike, and a hit verifies exactly as a miss.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When attached, every
        query records a span tree (one ``query`` span with one child per
        phase) and ``MIOResult.phases`` is derived from those spans, so
        the rendered trace and the reported times can never disagree.
        Without one, the engine runs shared no-op spans (one branch per
        instrumentation point) and times phases exactly as before.
    kernel:
        Compute-kernel backend for the hot phase loops: ``"python"``
        (default -- the reference implementation), ``"numpy"`` (vectorized,
        bit-exact with the reference), or ``"auto"`` (numpy when
        available).  See :mod:`repro.kernels`.

    All caches are positional (keyed by object ids); whoever injects them
    owns invalidation on collection change -- the engine itself never mixes
    collections.
    """

    def __init__(
        self,
        collection: ObjectCollection,
        backend: str = "ewah",
        label_store: Optional[LabelStore] = None,
        label_reuse: str = "safe",
        grid_cache: Optional[ResidentGridCache] = None,
        lower_cache: Optional[LowerBoundCache] = None,
        tracer=None,
        kernel: str = "python",
    ) -> None:
        if label_reuse not in ("safe", "paper"):
            raise InvalidQueryError('label_reuse must be "safe" or "paper"')
        resolve_kernel(kernel)  # validate the name up front
        self.collection = collection
        self.backend = backend
        self.label_store = label_store
        self.label_reuse = label_reuse
        self.grid_cache = grid_cache
        self.lower_cache = lower_cache
        self.tracer = tracer
        self.kernel = kernel
        #: The BIGrid of the most recent query (exposed for inspection).
        self.last_bigrid: Optional[BIGrid] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query(
        self,
        r: float,
        timeout_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> MIOResult:
        """Answer an MIO query: the most interactive object under ``r``.

        With a ``timeout_ms`` budget (or an explicit ``deadline``), the
        filter phases raise :class:`~repro.errors.QueryTimeout` on expiry,
        while an expiry during verification returns an anytime result
        (``exact=False``) carrying a verified lower-bound answer.
        """
        return self._run(
            r, k=1, want_ranking=False, deadline=_deadline(timeout_ms, deadline),
            tracer=tracer,
        )

    def query_topk(
        self,
        r: float,
        k: int,
        timeout_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> MIOResult:
        """Answer the top-k variant: the k most interactive objects."""
        if k < 1:
            raise InvalidQueryError("k must be at least 1")
        return self._run(
            r, k=k, want_ranking=True, deadline=_deadline(timeout_ms, deadline),
            tracer=tracer,
        )

    def query_batch(self, r_values) -> List[MIOResult]:
        """Answer a batch of MIO queries, maximizing label reuse.

        This is the workload Section III-D targets -- analysts sweeping
        fine-grained thresholds.  Queries run in the pipeline's shared
        ceil(r)-grouped sweep order (:func:`~repro.core.pipeline.
        run_grouped_sweep`, the same sweep the session's ``query_many``
        uses): grouped by ``ceil(r)``, largest ``r`` first within each
        group, so the first (most general) query of each group produces
        the labels and every other query in the group runs the WITH-LABEL
        pipeline.  Results are returned in the caller's order.  If the
        engine has no label store, one is created for the duration of the
        batch.
        """
        r_values = list(r_values)
        if not r_values:
            return []
        owned_store = self.label_store is None
        if owned_store:
            self.label_store = LabelStore()
        try:
            return run_grouped_sweep(
                r_values, lambda index: self.query(r_values[index])
            )
        finally:
            if owned_store:
                self.label_store = None

    # ------------------------------------------------------------------
    # Pipeline entry
    # ------------------------------------------------------------------

    def _run(
        self,
        r: float,
        k: int,
        want_ranking: bool,
        deadline: Optional[Deadline] = None,
        tracer=None,
    ) -> MIOResult:
        if r <= 0:
            raise InvalidQueryError("the distance threshold r must be positive")
        tracer = ensure_tracer(tracer if tracer is not None else self.tracer)
        ctx = QueryContext(
            collection=self.collection,
            r=r,
            k=k,
            want_ranking=want_ranking,
            deadline=deadline,
            tracer=tracer,
            backend=self.backend,
            label_store=self.label_store,
            label_reuse=self.label_reuse,
            grid_cache=self.grid_cache,
            lower_cache=self.lower_cache,
            engine=self,
            kernel=self.kernel,
        )
        return SERIAL_PIPELINE.run(ctx)


def _deadline(
    timeout_ms: Optional[float], deadline: Optional[Deadline]
) -> Optional[Deadline]:
    """An explicit deadline wins; otherwise budget ``timeout_ms`` from now."""
    if deadline is not None:
        return deadline
    return Deadline.from_timeout_ms(timeout_ms)
