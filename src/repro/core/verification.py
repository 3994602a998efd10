"""Best-first verification with early termination (Algorithm 6, Corollary 1).

Candidates are dequeued in descending upper-bound order.  As soon as the
next candidate's upper bound cannot beat the best exact score found so far,
the best object is provably the answer and the query terminates.

Exact score computation for one candidate ``o_i`` walks its points: for a
point ``p`` in large cell ``c_K``, only objects in ``b_adj(c_K)`` not yet
confirmed can still contribute, and only their posting lists in ``c_K`` and
its adjacent cells need distance checks.  Confirmed objects are accumulated
in a bitset, so repeated near misses cost nothing.

Once k exact scores are in hand, a dequeued candidate whose per-segment
bound (:func:`box_bound`) cannot enter the top-k is skipped without
scoring -- an extension of Algorithm 6 that moves no answer, threshold
or dequeue, only the work counters.  The bound counts the owners with a
posting segment whose box lies within ``r`` of one of the candidate's
own segments.  In a query whose first ``k`` scores cost at least
``REFINE_MIN_ROWS`` distance rows each, the bound of every candidate the
box test alone does not skip is refined with point-to-box tests: the
owner counts only if, on the same pair of segments, some point of each
lies within ``r`` of the other's box.

Labeling-3 (Definition 4) is performed here when a labeler is supplied:
points whose remaining-candidate set was already empty are marked skippable
for future queries.  Every query seeds ``b(o_i)`` with the lower-bounding
union (objects certainly interacting need no distance check at all); the
WITH-LABEL variant also skips points labeled ``1*0``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappush, heappushpop
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.geometry import boxes_within, points_near_box
from repro.core.labels import PointLabels
from repro.core.lower_bound import UnionSeeds
from repro.core.query import PhaseStats
from repro.core.upper_bound import Candidate
from repro.errors import InvalidQueryError, QueryTimeout
from repro.grid.bigrid import BIGrid
from repro.grid.keys import cell_and_adjacent_keys
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
    #: Candidates scored ahead in a block but never settled: the loop
    #: broke (threshold or deadline) first.  Timing-free, but not a work
    #: counter: a per-candidate scorer never leaves any.
    speculative: int = 0
    #: Candidates dequeued but skipped because their box bound could not
    #: enter the top-k; ``verified + box_skipped`` is the number dequeued
    #: before the break (unless a deadline cut a settle short).
    box_skipped: int = 0


#: Refine the skip bounds of a query only if its first ``k`` settled
#: candidates read at least this many distance rows each.  A refinement
#: costs a second pass over a bound batch and pays only where it spares
#: costly scores.  Measured with the numpy kernel on a 2-vCPU host: cold
#: bird (s=0.4) at r=8/10 reads 662/839 rows per first candidate and
#: the refinement cut its queries from 25/31 to 17/19 ms; a warm
#: bird-2 (s=0.2) session reads at most 529 and lost 0.04-0.9 ms per
#: query to it.  Read at call time, so tests can change it.
REFINE_MIN_ROWS = 600

MaskProvider = Callable[[int], np.ndarray]
#: Applies one scored candidate's effects and returns its exact score.
Settle = Callable[[], int]


class VerifyCounters:
    """Work counters accumulated across all verified candidates."""

    __slots__ = ("distance_rows", "posting_checks", "points_skipped")

    def __init__(self) -> None:
        self.distance_rows = 0
        self.posting_checks = 0
        self.points_skipped = 0


class PerCandidateScorer:
    """A block scorer that scores one candidate per block, on settling.

    The best-first loop asks a scorer for blocks and for skip bounds:
    ``capacity()`` is the most candidates the next block may hold (at
    least 1), ``block(oids)`` returns one settle callable per oid, in
    order, ``bound_capacity()`` is the most candidates one ``bounds(oids,
    floor)`` call may hold, and ``bounds(oids, floor)`` returns a bound
    of each oid (see :func:`box_bound`): the box-only bound if ``floor``
    is None; otherwise, for the heap floor ``floor = (score, -oid)``,
    the box-only bound of a candidate it puts below the floor and the
    refined bound of any other (:func:`skip_bound`).  A settle applies
    its candidate's effects (counters, labels, memoized unions) and
    returns the exact score; it may raise :class:`QueryTimeout`.  A bound
    has no effect at all.  This one wraps a per-candidate
    ``exact_score(oid)``, which runs only when the loop settles that
    candidate, and a batch ``bounds(oids, floor)`` taking up to ``limit``
    oids.
    """

    __slots__ = ("exact_score", "bounds", "limit")

    def __init__(
        self,
        exact_score: Callable[[int], int],
        bounds: Callable[[Sequence[int], Optional[Tuple[int, int]]], List[int]],
        limit: int = 1,
    ) -> None:
        self.exact_score = exact_score
        self.bounds = bounds
        self.limit = limit

    def capacity(self) -> int:
        return 1

    def bound_capacity(self) -> int:
        return self.limit

    def block(self, oids: Sequence[int]) -> List[Settle]:
        return [partial(self.exact_score, oid) for oid in oids]


def best_first_verification(
    candidates: List[Candidate],
    k: int,
    scorer,
    counters: VerifyCounters,
    stats: Optional[PhaseStats] = None,
    deadline: Optional[Deadline] = None,
    path: str = "reference",
) -> VerificationResult:
    """The best-first outer loop of VERIFICATION, scorer-agnostic.

    Kernel backends plug their own block scorer (see
    :class:`PerCandidateScorer`) under the *same* threshold updates, early
    termination, box-bound skips, deadline checks, and heap/ranking
    semantics, so every backend shares one provably identical loop.

    Candidates are dequeued lazily, one per iteration, in queue order.
    Each dequeue checks the Lemma 2 threshold, then reads the deadline
    once.  Then, once the heap holds ``k`` entries, the candidate is
    skipped if its bound cannot enter the heap: ``(bound, -oid) <
    best_heap[0]``, the heap's own admission test, so the tie rule
    (smaller oid wins) is kept.  A skipped candidate could never have
    changed the heap, so the ranking, the threshold and the break are
    the ones verifying it would give; it is counted in ``box_skipped``
    and gets no score, counter or label.  Bounds are computed at the
    first dequeue that needs one, for a batch read ahead (by index,
    without dequeuing) of candidates whose upper bound beats the
    threshold; a batch at most doubles the larger of the previous batch
    and block, and holds at most the scorer's ``bound_capacity()``.
    The first batch decides, once per query, whether bounds are refined:
    only if the ``k`` candidates settled by then read at least
    ``REFINE_MIN_ROWS`` distance rows each.  Every kernel settles the
    same ``k`` candidates with the same counters before it, so all make
    the same decision, and every batch gets ``best_heap[0]`` as its floor
    (or None) -- a bound depends on the floor only where both values
    skip.

    Every other candidate is settled, one at a time.  When no scored
    candidate is waiting, the dequeued one opens a block: the first
    block holds it alone; each later one holds at most twice the
    previous block, at most ``capacity()``, and only candidates read
    ahead whose upper bound beats the threshold -- while the heap is
    not full, no more than are dequeued before it fills; once it is,
    only candidates whose bound is known and does not skip them.
    Scores computed ahead but never settled -- past the break, or for a
    candidate skipped at its dequeue -- are discarded with no trace but
    ``speculative`` in the result.  A settle
    raising :class:`QueryTimeout` drops the in-flight candidate and the
    settled prefix is returned with ``timed_out=True``.
    """
    if k < 1:
        raise InvalidQueryError("k must be at least 1")
    #: Min-heap of the k best ``(score, -oid)`` pairs seen so far.
    best_heap: List[Tuple[int, int]] = []
    settled: List[Tuple[int, int]] = []
    verified = 0
    box_skipped = 0
    speculative = 0
    early = False
    timed_out = False
    #: ``(oid, settle)`` of the current block not yet applied, in queue order.
    waiting: deque = deque()
    block_size = 0
    #: Skip bounds computed so far, by oid.
    bounds: Dict[int, int] = {}
    bound_batch = 0
    #: Whether skip bounds are refined; decided at the first batch.
    refine: Optional[bool] = None

    def read_ahead(index: int, limit: int, threshold: int) -> List[int]:
        """Oids after ``index`` in queue order, up to ``limit`` of them,
        while their upper bound beats ``threshold``."""
        oids = []
        for ahead, ahead_oid in candidates[index + 1 : index + limit]:
            if ahead <= threshold:
                break
            oids.append(ahead_oid)
        return oids

    def skips(oid: int) -> bool:
        """Whether ``oid``'s known box bound keeps it out of the full heap."""
        return oid in bounds and (bounds[oid], -oid) < best_heap[0]

    for index, (upper, oid) in enumerate(candidates):
        full = len(best_heap) >= k
        threshold = best_heap[0][0] if full else -1
        if upper <= threshold:
            early = True
            break
        if deadline is not None and deadline.expired():
            timed_out = True
            break
        if full:
            if oid not in bounds:
                bound_batch = min(
                    2 * max(bound_batch, block_size) or 1, scorer.bound_capacity()
                )
                batch = [oid] + [
                    ahead_oid
                    for ahead_oid in read_ahead(index, bound_batch, threshold)
                    if ahead_oid not in bounds
                ]
                if refine is None:
                    refine = counters.distance_rows >= REFINE_MIN_ROWS * verified
                floor = best_heap[0] if refine else None
                bounds.update(zip(batch, scorer.bounds(batch, floor)))
            if skips(oid):
                box_skipped += 1
                if waiting and waiting[0][0] == oid:
                    waiting.popleft()
                    speculative += 1
                continue
        if not waiting:
            oids = [oid]
            if block_size:
                limit = min(2 * block_size, scorer.capacity())
                if not full:
                    limit = min(limit, k - len(best_heap))
                for ahead_oid in read_ahead(index, limit, threshold):
                    if full and ahead_oid not in bounds:
                        break
                    if not (full and skips(ahead_oid)):
                        oids.append(ahead_oid)
            block_size = len(oids)
            waiting.extend(zip(oids, scorer.block(oids)))
        try:
            score = waiting.popleft()[1]()
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
        stats.set_count("box_skipped", box_skipped)
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
        speculative=speculative + len(waiting),
        box_skipped=box_skipped,
    )


def verify_candidates(
    bigrid: BIGrid,
    candidates: List[Candidate],
    r: float,
    k: int = 1,
    seeds: Optional[UnionSeeds] = None,
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
        PerCandidateScorer(
            lambda oid: _exact_score(
                bigrid, oid, r, seeds, verify_masks, labeler,
                counters, deadline, kernel,
            ),
            lambda oids, floor: [
                skip_bound(bigrid, oid, r, seeds, floor) for oid in oids
            ],
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
    seeds: Optional[UnionSeeds],
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
    confirmed = seeds.to_int(oid) if seeds is not None else 0
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


def box_bound(
    bigrid: BIGrid,
    oid: int,
    r: float,
    seeds: Optional[UnionSeeds] = None,
    refine: bool = False,
) -> int:
    """An upper bound on ``tau(o_i)`` from posting segments and their boxes.

    ``|seed(o_i) | {o_i} | N(o_i)| - 1``.  ``N(o_i)`` holds every object
    ``q`` with a posting segment ``s`` in the ``3^d`` neighbourhood of one
    of ``o_i``'s groups ``g`` (its posting segment in one cell) such that,
    for the same pair ``(g, s)``:

    * the boxes of ``g`` and ``s`` are within ``r``
      (:func:`repro.core.geometry.boxes_within`);
    * if ``refine``: some point of ``g`` is within ``r`` of ``box(s)``,
      and some point of ``s`` within ``r`` of ``box(g)``
      (:func:`repro.core.geometry.points_near_box`).

    Sound either way: verification confirms ``q`` only through seeds or
    a pair of points within ``r``, one in ``g`` and one in a segment
    ``s`` of ``q`` in ``g``'s neighbourhood.  Each per-axis gap between
    two boxes, or between a point and a box, holding that pair is at
    most the gap between the two points, and rounding is monotone, so
    the pair passes all three tests.  Walks the cells without
    memoizing an adjacent union, marking a label, polling a deadline or
    counting work.
    """
    collection = bigrid.collection
    cells = bigrid.large_grid.cells
    points = collection[oid].points
    found = seeds.to_int(oid) if seeds is not None else 0
    found |= 1 << oid
    for key, point_indices in bigrid.object_groups[oid].items():
        own = points[point_indices]
        lo, hi = own.min(axis=0), own.max(axis=0)
        for neighbor_key in cell_and_adjacent_keys(key):
            cell = cells.get(neighbor_key)
            if cell is None:
                continue
            owners = [q for q in cell.postings if not found >> q & 1]
            if not owners:
                continue
            boxes = [cell.posting_box(q, collection[q].points) for q in owners]
            owner_lo = np.array([box_lo for box_lo, _ in boxes])
            owner_hi = np.array([box_hi for _, box_hi in boxes])
            near = boxes_within(lo, hi, owner_lo, owner_hi, r)
            for index in near.nonzero()[0].tolist():
                q = owners[index]
                if refine and not (
                    points_near_box(own, owner_lo[index], owner_hi[index], r)
                    and points_near_box(
                        cell.posting_points(q, collection[q].points), lo, hi, r
                    )
                ):
                    continue
                found |= 1 << q
    return found.bit_count() - 1


def skip_bound(
    bigrid: BIGrid,
    oid: int,
    r: float,
    seeds: Optional[UnionSeeds],
    floor: Optional[Tuple[int, int]],
) -> int:
    """The bound the loop skips on, as the scorer contract defines it:
    the box-only :func:`box_bound` if ``floor`` is None or the box bound
    already puts ``oid`` below it, the refined one otherwise."""
    bound = box_bound(bigrid, oid, r, seeds)
    if floor is None or (bound, -oid) < floor:
        return bound
    return box_bound(bigrid, oid, r, seeds, refine=True)


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
