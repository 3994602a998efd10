"""Best-first verification with early termination (Algorithm 6, Corollary 1).

Candidates are dequeued in descending upper-bound order.  As soon as the
next candidate's upper bound cannot beat the best exact score found so far,
the best object is provably the answer and the query terminates.

Exact score computation for one candidate ``o_i`` walks its points: for a
point ``p`` in large cell ``c_K``, only objects in ``b_adj(c_K)`` not yet
confirmed can still contribute, and only their posting lists in ``c_K`` and
its adjacent cells need distance checks.  Confirmed objects are accumulated
in a bitset, so repeated near misses cost nothing.

Labeling-3 (Definition 4) is performed here when a labeler is supplied:
points whose remaining-candidate set was already empty are marked skippable
for future queries.  The WITH-LABEL variant seeds ``b(o_i)`` with the
lower-bounding union bitset (objects certainly interacting need no distance
check at all) and skips points labeled ``1*0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappushpop
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.bitset.base import Bitset
from repro.core.labels import PointLabels
from repro.core.query import PhaseStats
from repro.core.upper_bound import Candidate
from repro.errors import InvalidQueryError, QueryTimeout
from repro.grid.bigrid import BIGrid
from repro.resilience import Deadline, checkpoint


@dataclass
class VerificationResult:
    """Top-k exact results plus counters."""

    #: ``(oid, score)`` sorted by score descending (ties: smaller oid first).
    ranking: List[Tuple[int, int]]
    verified: int
    early_terminated: bool
    #: True when a deadline expired mid-verification.  The ranking then holds
    #: only the candidates settled so far — still exact scores, so the best
    #: of them is a *verified lower bound* on the optimum (Corollary 1) and
    #: the engine can return it as an anytime answer.
    timed_out: bool = False
    #: Which implementation scored the candidates: "reference" (the
    #: per-point walk below) or "numpy-batch" (the numpy kernel's
    #: first-hit scorer).  Informational only — every path is bit-exact —
    #: surfaced through ``repro explain`` notes.
    path: str = "reference"
    #: Every settled ``(oid, exact_score)`` pair in dequeue order (not just
    #: the top-k): the anytime prefix, which kernel conformance compares.
    settled: Optional[List[Tuple[int, int]]] = None


MaskProvider = Callable[[int], np.ndarray]
BitsetProvider = Callable[[int], Optional[Bitset]]


class VerifyCounters:
    """Work counters accumulated across all verified candidates."""

    __slots__ = ("distance_rows", "posting_checks", "points_skipped")

    def __init__(self) -> None:
        self.distance_rows = 0
        self.posting_checks = 0
        self.points_skipped = 0


def best_first_verification(
    candidates: List[Candidate],
    k: int,
    exact_score: Callable[[int], int],
    counters: VerifyCounters,
    stats: Optional[PhaseStats] = None,
    deadline: Optional[Deadline] = None,
    path: str = "reference",
) -> VerificationResult:
    """The best-first outer loop of VERIFICATION, scorer-agnostic.

    Kernel backends plug their own ``exact_score`` (reference walk or
    batched block evaluation) under the *same* threshold updates, early
    termination, deadline checks, and heap/ranking semantics, so every
    backend shares one provably identical driver.  ``exact_score`` may
    raise :class:`QueryTimeout`; the in-flight candidate is then dropped
    and the settled prefix is returned with ``timed_out=True``.
    """
    if k < 1:
        raise InvalidQueryError("k must be at least 1")
    #: Min-heap of the k best ``(score, -oid)`` pairs seen so far.
    best_heap: List[Tuple[int, int]] = []
    settled: List[Tuple[int, int]] = []
    verified = 0
    early = False
    timed_out = False

    for upper, oid in candidates:
        threshold = best_heap[0][0] if len(best_heap) >= k else -1
        if upper <= threshold:
            early = True
            break
        if deadline is not None and deadline.expired():
            timed_out = True
            break
        try:
            score = exact_score(oid)
        except QueryTimeout:
            # The in-flight candidate's partial bitset is not an exact score;
            # drop it and surface what is already settled.
            timed_out = True
            break
        verified += 1
        settled.append((oid, score))
        entry = (score, -oid)
        if len(best_heap) < k:
            heappush(best_heap, entry)
        elif entry > best_heap[0]:
            heappushpop(best_heap, entry)

    ranking = sorted(
        ((-neg_oid, score) for score, neg_oid in best_heap),
        key=lambda item: (-item[1], item[0]),
    )
    if stats is not None:
        stats.set_count("verified_objects", verified)
        stats.set_count("distance_rows", counters.distance_rows)
        stats.set_count("posting_checks", counters.posting_checks)
        stats.set_count("verify_points_skipped", counters.points_skipped)
        stats.set_count("early_terminated", int(early))
        stats.set_count("verification_timed_out", int(timed_out))
    return VerificationResult(
        ranking=ranking,
        verified=verified,
        early_terminated=early,
        timed_out=timed_out,
        path=path,
        settled=settled,
    )


def verify_candidates(
    bigrid: BIGrid,
    candidates: List[Candidate],
    r: float,
    k: int = 1,
    initial_bitsets: Optional[BitsetProvider] = None,
    verify_masks: Optional[MaskProvider] = None,
    labeler: Optional[PointLabels] = None,
    stats: Optional[PhaseStats] = None,
    deadline: Optional[Deadline] = None,
    kernel=None,
) -> VerificationResult:
    """VERIFICATION(O_cand, r): exact scores, best-first, early stop.

    ``k=1`` is Algorithm 6; ``k>1`` is the top-k variant of Section III-C:
    the termination threshold becomes the k-th best exact score seen so far.

    Verification is the *anytime* phase: when ``deadline`` expires (checked
    between candidates and inside each candidate's point loop), the loop
    stops, partial work on the in-flight candidate is discarded, and the
    result reports ``timed_out=True`` with the candidates settled so far.

    ``kernel`` (a :class:`repro.kernels.KernelBackend`) supplies the
    distance primitive; None keeps the inline reference check.  Either way
    the answer is identical — kernels may only change *how* the same
    comparisons are evaluated (e.g. early-exit chunking per Corollary 1).
    """
    counters = VerifyCounters()
    return best_first_verification(
        candidates,
        k,
        lambda oid: _exact_score(
            bigrid, oid, r, initial_bitsets, verify_masks, labeler, counters,
            deadline, kernel,
        ),
        counters,
        stats=stats,
        deadline=deadline,
        path="reference",
    )


def _exact_score(
    bigrid: BIGrid,
    oid: int,
    r: float,
    initial_bitsets: Optional[BitsetProvider],
    verify_masks: Optional[MaskProvider],
    labeler: Optional[PointLabels],
    counters: VerifyCounters,
    deadline: Optional[Deadline] = None,
    kernel=None,
) -> int:
    """Compute ``tau(o_i)`` exactly (steps 2-3 of Section III-C)."""
    collection = bigrid.collection
    large_grid = bigrid.large_grid
    points = collection[oid].points
    r_squared = r * r

    # ``confirmed`` is the candidate's b(o_i), held as a big int so the
    # per-point set difference (line 10 of Algorithm 6) is one C-level op.
    confirmed = 0
    if initial_bitsets is not None:
        seed = initial_bitsets(oid)
        if seed is not None:
            confirmed = seed.to_int()
    confirmed |= 1 << oid

    mask = verify_masks(oid).tolist() if verify_masks is not None else None

    for key, point_indices in bigrid.object_groups[oid].items():
        checkpoint(deadline, "verification")
        for point_index in point_indices:
            if mask is not None and not mask[point_index]:
                counters.points_skipped += 1
                continue
            # With labels, upper-bounding may have skipped this cell, so the
            # adjacent union might not exist yet; compute it on demand.
            pending = large_grid.adjacent_union_int(key) & ~confirmed
            if not pending:
                if labeler is not None:
                    labeler.mark_verify_skippable(oid, (point_index,))
                continue
            remaining = bits_of(pending)
            point = points[point_index]
            for cell in large_grid.cells[key].neighbor_cells:
                for candidate_oid in remaining.intersection(cell.postings):
                    counters.posting_checks += 1
                    candidate_points = cell.posting_points(
                        candidate_oid, collection[candidate_oid].points
                    )
                    counters.distance_rows += len(candidate_points)
                    if kernel is not None:
                        hit = kernel.any_within(candidate_points, point, r_squared)
                    else:
                        diff = candidate_points - point
                        hit = bool(
                            np.einsum("ij,ij->i", diff, diff).min() <= r_squared
                        )
                    if hit:
                        confirmed |= 1 << candidate_oid
                        remaining.discard(candidate_oid)
                if not remaining:
                    break

    return confirmed.bit_count() - 1


def bits_of(value: int) -> set:
    """Set-bit positions of a big-int bitset, as a mutable set.

    The engines keep interaction sets as arbitrary-precision ints (bit
    ``i`` set means object ``i``); this is the public bridge from that
    packed form to an iterable, mutable id set.  Verification loops --
    serial, parallel, and temporal alike -- use it to walk the objects
    still pending confirmation, discarding ids as pairs are settled.

    Edge case: the empty bitset ``bits_of(0)`` is the empty set — a fresh,
    mutable ``set()``, never a shared sentinel, so callers may ``add`` /
    ``discard`` on it freely.  ``value`` must be non-negative (a negative
    int is not a bitset; the two's-complement view would be infinite).
    """
    bits = set()
    while value:
        low = value & -value
        bits.add(low.bit_length() - 1)
        value ^= low
    return bits
