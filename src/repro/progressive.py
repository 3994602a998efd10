"""Anytime (progressive) MIO queries.

The paper motivates MIO queries with interactive analysis: "if each MIO
query incurs a long processing time, only a limited number of trials may
be possible" (Section I-B).  The filter-and-verification framework is
naturally an *anytime* algorithm — after bounding, the best lower bound
is already a valid provisional answer, and every verified candidate
either improves it or tightens the optimality gap — so this module
exposes it that way:

* :func:`query_progressive` yields a :class:`ProgressiveState` after the
  bounding phases and then after every verified candidate.  Each state
  carries the best object so far, a certified interval
  ``[best_score, score_upper_bound]`` on the optimum, and ``is_final``.
* Consumers stop whenever the gap is good enough (or their time budget
  runs out); running to exhaustion reproduces the exact answer.

The filter phases run through the shared orchestrator's filter prefix
(:data:`~repro.core.pipeline.FILTER_PIPELINE` -- the serial engine's own
grid-mapping/bounding stages); only the one-candidate-at-a-time
verification loop is this module's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.objects import ObjectCollection
from repro.core.pipeline import FILTER_PIPELINE, QueryContext
from repro.errors import InvalidQueryError
from repro.resilience import Deadline


@dataclass
class ProgressiveState:
    """A certified intermediate answer.

    The true maximum score lies in ``[best_score, score_upper_bound]``;
    ``best_oid`` attains ``best_score``.  When ``is_final`` is True the
    interval has collapsed (or every candidate is verified) and
    ``best_oid`` is an exact MIO answer.
    """

    best_oid: int
    best_score: int
    score_upper_bound: int
    candidates_total: int
    candidates_verified: int
    is_final: bool

    @property
    def gap(self) -> int:
        """How far the provisional answer can still be beaten."""
        return self.score_upper_bound - self.best_score


def query_progressive(
    collection: ObjectCollection,
    r: float,
    backend: str = "ewah",
    max_verifications: Optional[int] = None,
    timeout_ms: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    kernel: str = "python",
) -> Iterator[ProgressiveState]:
    """Yield progressively tighter MIO answers for one query.

    The first state arrives after grid mapping + bounding (no exact
    scoring yet); subsequent states follow each verified candidate.
    ``max_verifications`` truncates the stream early (the final state
    then reports ``is_final=False`` unless the gap closed first).

    A ``timeout_ms`` budget (or explicit ``deadline``) behaves like the
    engine's: grid mapping and bounding raise ``QueryTimeout`` on expiry,
    while expiry during verification simply ends the stream — the last
    yielded state is the anytime answer, its interval still certified.
    """
    if r <= 0:
        raise InvalidQueryError("the distance threshold r must be positive")
    if deadline is None:
        deadline = Deadline.from_timeout_ms(timeout_ms)
    ctx = FILTER_PIPELINE.execute(
        QueryContext(
            collection=collection, r=r, deadline=deadline, backend=backend,
            kernel=kernel,
        )
    )
    bigrid, lower, candidates = ctx.bigrid, ctx.lower, ctx.upper.candidates

    # The best lower bound is already attained by some object; use it as
    # the provisional answer before any verification.
    best_oid = max(range(collection.n), key=lambda oid: (lower.values[oid], -oid))
    best_score = lower.values[best_oid]
    remaining_upper = candidates[0][0] if candidates else 0

    yield ProgressiveState(
        best_oid=best_oid,
        best_score=best_score,
        score_upper_bound=max(remaining_upper, best_score),
        candidates_total=len(candidates),
        candidates_verified=0,
        is_final=not candidates or remaining_upper <= best_score,
    )
    if not candidates or remaining_upper <= best_score:
        return

    budget = len(candidates) if max_verifications is None else max_verifications
    verified = 0
    for position, (upper_bound, oid) in enumerate(candidates):
        if upper_bound <= best_score or verified >= budget:
            break
        if deadline is not None and deadline.expired():
            return  # the last yielded state stands as the anytime answer
        # Verify exactly one candidate by scoring it in isolation (through
        # the kernel seam, so the batched scorer serves progressive too).
        result = ctx.kernel.verify_candidates(
            bigrid, [(upper_bound, oid)], r, k=1, seeds=lower.seeds
        )
        score = result.ranking[0][1]
        verified += 1
        if score > best_score or (score == best_score and oid < best_oid):
            best_oid, best_score = oid, score
        next_upper = (
            candidates[position + 1][0] if position + 1 < len(candidates) else 0
        )
        final = next_upper <= best_score
        yield ProgressiveState(
            best_oid=best_oid,
            best_score=best_score,
            score_upper_bound=max(next_upper, best_score),
            candidates_total=len(candidates),
            candidates_verified=verified,
            is_final=final,
        )
        if final:
            return
