"""Property tests of the per-segment bounds that verification skips on.

For every object ``o`` of a random 2-D or 3-D collection and a range of
``r``, the refined bound and the box-only bound
(:func:`repro.core.verification.box_bound` with and without ``refine``)
must sit between the exact score and the Lemma 2 upper bound::

    tau(o) <= refined(o) <= box_bound(o) <= upper_bound(o)

and the numpy kernel's vectorized bounds must equal the python walk's,
on label-free grids (unseeded and seeded with the lower-bounding unions)
and on WITH-LABEL grids (built without ``0**`` points, seeded).  Under a
heap floor, the numpy kernel must return :func:`skip_bound`'s values.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_scores
from test_properties import collections, radii

from repro.core.labels import PointLabels
from repro.core.lower_bound import compute_lower_bounds
from repro.core.objects import ObjectCollection
from repro.core.upper_bound import compute_upper_bounds
from repro.core.verification import (
    VerifyCounters,
    box_bound,
    skip_bound,
    verify_candidates,
)
from repro.grid.bigrid import BIGrid
from repro.kernels import numpy_kernel_available
from repro.kernels.numpy_backend import NUMPY_KERNEL, _BatchedVerifier

#: A heap floor below every bound: every candidate is refined.
REFINE_ALL = (-1, 0)


def numpy_bounds(grid, r, seeds=None, floor=None):
    """Every object's bound from the numpy kernel, in batches of several
    objects (the batch size must not matter)."""
    verifier = _BatchedVerifier(grid, r, seeds, None, None, VerifyCounters(), None)
    oids = list(range(grid.collection.n))
    step = max(1, min(3, verifier.bound_capacity()))
    bounds = []
    for start in range(0, len(oids), step):
        bounds += verifier.bounds(oids[start : start + step], floor)
    return bounds


def check_bounds(collection, r, grid, seeds, packed=None, packed_seeds=None):
    """The chain of inequalities on the reference, then numpy == reference
    for the box-only bound, the refined bound and the floor contract."""
    exact = oracle_scores(collection, r)
    upper = compute_upper_bounds(grid, tau_max_low=0).values
    boxed = [box_bound(grid, oid, r, seeds) for oid in range(collection.n)]
    refined = [box_bound(grid, oid, r, seeds, refine=True) for oid in range(collection.n)]
    for oid in range(collection.n):
        assert exact[oid] <= refined[oid] <= boxed[oid] <= upper[oid], oid
    if packed is None:
        return
    assert numpy_bounds(packed, r, packed_seeds) == boxed
    assert numpy_bounds(packed, r, packed_seeds, REFINE_ALL) == refined
    # A floor between the bounds: box-only below it, refined above it.
    floor = (int(np.median(boxed)), -(collection.n // 2))
    assert numpy_bounds(packed, r, packed_seeds, floor) == [
        skip_bound(grid, oid, r, seeds, floor) for oid in range(collection.n)
    ]


def check_label_free(collection, r, seeded):
    grid = BIGrid.build(collection, r)
    seeds = compute_lower_bounds(grid).seeds if seeded else None
    packed = packed_seeds = None
    if numpy_kernel_available():
        packed = NUMPY_KERNEL.build_bigrid(collection, r)
        packed_seeds = NUMPY_KERNEL.lower_bounds(packed).seeds if seeded else None
    check_bounds(collection, r, grid, seeds, packed, packed_seeds)


def check_with_label(collection, r):
    """Labels from one label-producing query at ``r``, then the WITH-LABEL
    grid and its lower-bounding seeds."""
    labels = PointLabels.for_collection(collection, r)
    first = BIGrid.build(collection, r)
    produced = compute_upper_bounds(first, tau_max_low=0, labeler=labels)
    verify_candidates(first, produced.candidates, r, labeler=labels)

    grid = BIGrid.build(collection, r, point_filter=labels.grid_mask)
    seeds = compute_lower_bounds(grid).seeds
    packed = packed_seeds = None
    if numpy_kernel_available():
        packed = NUMPY_KERNEL.build_bigrid(collection, r, labels=labels)
        packed_seeds = NUMPY_KERNEL.lower_bounds(packed).seeds
    check_bounds(collection, r, grid, seeds, packed, packed_seeds)


@given(collection=collections(), r=radii, seeded=st.booleans())
@settings(deadline=None)
def test_box_bound_is_sound_and_tighter_2d(collection, r, seeded):
    check_label_free(collection, r, seeded)


@given(collection=collections(dimension=3, max_objects=8), r=radii, seeded=st.booleans())
@settings(deadline=None)
def test_box_bound_is_sound_and_tighter_3d(collection, r, seeded):
    check_label_free(collection, r, seeded)


@given(collection=collections(), r=radii)
@settings(deadline=None)
def test_seeded_box_bound_on_the_with_label_grid_2d(collection, r):
    check_with_label(collection, r)


@given(collection=collections(dimension=3, max_objects=8), r=radii)
@settings(deadline=None)
def test_seeded_box_bound_on_the_with_label_grid_3d(collection, r):
    check_with_label(collection, r)


def test_pair_at_exactly_r_across_a_cell_boundary_still_counts():
    # r = 1: the large cells are ~1 wide, so x = 0.75 and x = 1.75 fall
    # in neighbouring cells, exactly 1.0 apart in floating point.  Each
    # object's other point stretches its box away from the pair, so only
    # the pair's own points sit at gap r from the other's box.
    r = 1.0
    collection = ObjectCollection.from_point_arrays(
        [
            np.array([[0.75, 0.5], [0.1, 0.9]]),
            np.array([[1.75, 0.5], [1.9, 0.1]]),
            np.array([[5.5, 5.5]]),
        ]
    )
    assert oracle_scores(collection, r)[:2] == [1, 1]
    grid = BIGrid.build(collection, r)
    for oid in (0, 1):
        assert box_bound(grid, oid, r, refine=True) == 1
    if numpy_kernel_available():
        packed = NUMPY_KERNEL.build_bigrid(collection, r)
        assert numpy_bounds(packed, r, floor=REFINE_ALL)[:2] == [1, 1]
