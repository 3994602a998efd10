"""Property tests of the per-segment box bound that verification skips on.

For every object ``o`` of a random 2-D or 3-D collection and a range of
``r``, the box bound (:func:`repro.core.verification.box_bound`) must
sit between the exact score and the Lemma 2 upper bound::

    tau(o) <= box_bound(o) <= upper_bound(o)

and the numpy kernel's vectorized bounds must equal the python walk's,
label-free and with seeds on a WITH-LABEL grid (built without ``0**``
points, seeded with the lower-bounding unions).
"""

from __future__ import annotations

from hypothesis import given, settings

from conftest import oracle_scores
from test_properties import collections, radii

from repro.core.labels import PointLabels
from repro.core.lower_bound import compute_lower_bounds
from repro.core.upper_bound import compute_upper_bounds
from repro.core.verification import VerifyCounters, box_bound, verify_candidates
from repro.grid.bigrid import BIGrid
from repro.kernels import numpy_kernel_available
from repro.kernels.numpy_backend import NUMPY_KERNEL, _BatchedVerifier


def numpy_bounds(grid, r, seeds=None):
    """Every object's box bound from the numpy kernel, in batches of
    several objects (the batch size must not matter)."""
    verifier = _BatchedVerifier(grid, r, seeds, None, None, VerifyCounters(), None)
    oids = list(range(grid.collection.n))
    step = max(1, min(3, verifier.bound_capacity()))
    bounds = []
    for start in range(0, len(oids), step):
        bounds += verifier.bounds(oids[start : start + step])
    return bounds


def check_label_free(collection, r):
    exact = oracle_scores(collection, r)
    grid = BIGrid.build(collection, r)
    upper = compute_upper_bounds(grid, tau_max_low=0).values
    bounds = [box_bound(grid, oid, r) for oid in range(collection.n)]
    for oid, bound in enumerate(bounds):
        assert exact[oid] <= bound <= upper[oid], oid
    if numpy_kernel_available():
        packed = NUMPY_KERNEL.build_bigrid(collection, r)
        assert numpy_bounds(packed, r) == bounds


def check_with_label(collection, r):
    """Labels from one label-producing query at ``r``, then the WITH-LABEL
    grid and its lower-bounding seeds."""
    exact = oracle_scores(collection, r)
    labels = PointLabels.for_collection(collection, r)
    first = BIGrid.build(collection, r)
    produced = compute_upper_bounds(first, tau_max_low=0, labeler=labels)
    verify_candidates(first, produced.candidates, r, labeler=labels)

    grid = BIGrid.build(collection, r, point_filter=labels.grid_mask)
    seeds = compute_lower_bounds(grid).seeds
    upper = compute_upper_bounds(grid, tau_max_low=0).values
    bounds = [box_bound(grid, oid, r, seeds) for oid in range(collection.n)]
    for oid, bound in enumerate(bounds):
        assert exact[oid] <= bound <= upper[oid], oid
    if numpy_kernel_available():
        packed = NUMPY_KERNEL.build_bigrid(collection, r, labels=labels)
        packed_seeds = NUMPY_KERNEL.lower_bounds(packed).seeds
        assert numpy_bounds(packed, r, packed_seeds) == bounds


@given(collection=collections(), r=radii)
@settings(deadline=None)
def test_box_bound_is_sound_and_tighter_2d(collection, r):
    check_label_free(collection, r)


@given(collection=collections(dimension=3, max_objects=8), r=radii)
@settings(deadline=None)
def test_box_bound_is_sound_and_tighter_3d(collection, r):
    check_label_free(collection, r)


@given(collection=collections(), r=radii)
@settings(deadline=None)
def test_seeded_box_bound_on_the_with_label_grid_2d(collection, r):
    check_with_label(collection, r)


@given(collection=collections(dimension=3, max_objects=8), r=radii)
@settings(deadline=None)
def test_seeded_box_bound_on_the_with_label_grid_3d(collection, r):
    check_with_label(collection, r)
