"""The compute-kernel contract behind the four query phases.

The phase pipeline (PR 4) gave every engine variant one seam per phase;
this module names the *computational* half of that seam.  A
:class:`KernelBackend` implements the hot inner loops of Algorithms 3-6
— cell-key computation, BIGrid construction, lower-bound counting,
adjacent-union upper bounding, and the squared-distance primitive of
verification — while the stages keep owning orchestration (tracing,
faults, deadlines, caches, labels).

Backends are *interchangeable bit-for-bit*: for identical inputs every
operation must produce identical keys, identical bound values, identical
candidate sets, identical scores, and identical work counters.  The
``python`` backend (:mod:`repro.kernels.python_backend`) is the reference
oracle — it delegates to the original per-point implementations — and
``tests/test_kernel_conformance.py`` holds every other backend to it on
randomized workloads.

Operations that a backend cannot accelerate for a given input (e.g. any
phase over a grid the backend could not build in its own layout) must
*delegate to the reference implementation*, never approximate it.
``docs/kernels.md`` spells out the full contract and how to add a
backend.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class KernelBackend:
    """One implementation of the hot phase computations.

    All methods mirror the reference signatures in ``repro.grid.bigrid``,
    ``repro.core.lower_bound`` and ``repro.core.upper_bound``; see those
    modules for parameter semantics.  Results must be bit-exact across
    backends (see the module docstring).
    """

    #: Registry name (``"python"``, ``"numpy"``, ...).
    name: str = "abstract"

    def cell_keys(self, points: np.ndarray, width: float) -> List[tuple]:
        """Cell keys ``floor(coordinate / width)`` for every point row."""
        raise NotImplementedError

    def build_bigrid(
        self,
        collection,
        r: float,
        backend: str = "ewah",
        labels=None,
        deadline=None,
    ):
        """GRID-MAPPING (Algorithm 3): build the BIGrid for one query.

        With ``labels`` (a :class:`~repro.core.labels.PointLabels` that
        matches ``collection``), GRID-MAPPING-WITH-LABEL: only points
        whose ``GRID`` bit is set are mapped (Lemma 3).
        """
        raise NotImplementedError

    def grid_view(self, bigrid):
        """A per-query view of a grid this backend built, or None.

        A view shares the grid's immutable arrays and pure derived tables
        and owns every piece of per-query state (memoized adjacent unions,
        materialized cells), so a query on a view produces exactly the
        answer, counters and ``memory_bytes`` of a fresh build, and
        concurrent queries on views of one grid cannot disturb each
        other.  A session keeps a grid resident only if its kernel can
        view it; None (the default, and the reference backend's answer)
        makes every query build its own.
        """
        return None

    def lower_bounds(self, bigrid, stats=None, deadline=None):
        """LOWER-BOUNDING (Algorithm 4) over the key lists ``o_i.L``.

        The result carries every object's union as a
        :class:`~repro.core.lower_bound.UnionSeeds`, in whatever form the
        backend computed it (the reference keeps big ints, the numpy
        backend its packed rows); the unions must be bit-identical.  A
        backend with several bit-identical implementations picks one by
        input size; the result's ``path`` names the one that ran.
        """
        raise NotImplementedError

    def upper_bounds(
        self,
        bigrid,
        tau_max_low: int,
        labels=None,
        labeler=None,
        stats=None,
        deadline=None,
    ):
        """UPPER-BOUNDING + pruning (Algorithm 5) over ``P_{i,K}``.

        With ``labels``, the WITH-LABEL pass: a group is processed iff one
        of its points has both ``GRID`` and ``UPPER`` set
        (:meth:`~repro.core.labels.PointLabels.upper_mask`).  A
        ``labeler`` records Labeling-1/2 into a fresh ``PointLabels``.
        """
        raise NotImplementedError

    def verify_candidates(
        self,
        bigrid,
        candidates,
        r: float,
        k: int = 1,
        seeds=None,
        verify_masks=None,
        labeler=None,
        stats=None,
        deadline=None,
    ):
        """VERIFICATION (Algorithm 6 / top-k): best-first exact scoring.

        Dequeues ``candidates`` (``(upper, oid)`` pairs, already sorted by
        descending upper bound) and computes exact scores until the next
        upper bound cannot beat the k-th best exact score.  ``seeds`` (a
        :class:`~repro.core.lower_bound.UnionSeeds`, the lower-bounding
        unions) starts each candidate's confirmed set, so its members are
        never distance-checked; any backend must accept either seeds
        form.  Backends must
        preserve the reference semantics *exactly*: the early-termination
        threshold, the box-bound skips, the per-candidate deadline check
        and per-group checkpoint order, the Labeling-3 marks, and the
        counters (``verified_objects``, ``box_skipped``,
        ``distance_rows``, ``posting_checks``,
        ``verify_points_skipped``) must all match the reference oracle
        bit-for-bit.  Returns a
        :class:`repro.core.verification.VerificationResult` whose ``path``
        names the implementation that ran.
        """
        raise NotImplementedError

    def any_within(
        self, candidate_points: np.ndarray, point: np.ndarray, r_squared: float
    ) -> bool:
        """Whether any row of ``candidate_points`` is within ``sqrt(r_squared)``
        of ``point`` (the verification distance primitive, Corollary 1's
        one-pair-suffices check)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
