"""Property-based tests for the numpy kernel's packed grid build.

The numpy build groups every point by cell with one stable sort and
finds every adjacent union with a symmetric neighbour search
(``docs/kernels.md``).  These tests hold both to their reference
definitions on drawn inputs rather than dataset grids: lattice points
that pile many points (and exact duplicates) into one cell, collections
that fit in a single cell, and label filters that drop some, all or none
of an object's points.

* The materialized layout of a numpy-built grid -- cells in ascending
  key order, bitsets, postings, key lists and object groups in
  first-occurrence order -- equals ``BIGrid.build``'s.
* Every ``bulk_adjacency`` row equals the brute-force union of the
  reference cells over ``cell_and_adjacent_keys``.
* A per-query view of a grid another view already ran on shares the
  arrays and the bulk adjacency matrix, starts with nothing memoized,
  and materializes the reference layout of its own.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.objects import ObjectCollection
from repro.grid.bigrid import BIGrid
from repro.grid.keys import cell_and_adjacent_keys
from repro.kernels import numpy_kernel_available

from test_kernel_conformance import assert_bigrids_equal, numpy_kernel

pytestmark = pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)

#: Lattice spacings: 0 piles every point onto one coordinate (a single
#: cell full of duplicates); the others range from many points per small
#: cell to a few large cells apart.
SPACINGS = (0.0, 1e-3, 0.37, 1.0, 2.5)


@st.composite
def lattice_collections(draw, dimension):
    """Objects whose points sit on a coarse lattice around one origin."""
    n = draw(st.integers(min_value=1, max_value=70))
    spacing = draw(st.sampled_from(SPACINGS))
    origin = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=-30.0, max_value=30.0),
                min_size=dimension,
                max_size=dimension,
            )
        )
    )
    steps = st.integers(min_value=-4, max_value=4)
    arrays = []
    for _ in range(n):
        count = draw(st.integers(min_value=1, max_value=6))
        lattice = draw(
            st.lists(steps, min_size=count * dimension, max_size=count * dimension)
        )
        arrays.append(
            origin + spacing * np.asarray(lattice, float).reshape(count, dimension)
        )
    return ObjectCollection.from_point_arrays(arrays)


@st.composite
def label_filters(draw, collection):
    """A GRID-MAPPING-WITH-LABEL filter: per object keep every point
    (``None``), drop every point, or keep a drawn subset."""
    masks = []
    for obj in collection:
        kind = draw(st.sampled_from(("all", "none", "some")))
        if kind == "all":
            masks.append(None)
        elif kind == "none":
            masks.append(np.zeros(obj.num_points, dtype=bool))
        else:
            keep = draw(
                st.lists(
                    st.booleans(), min_size=obj.num_points, max_size=obj.num_points
                )
            )
            masks.append(np.asarray(keep, dtype=bool))
    return masks.__getitem__


@st.composite
def builds(draw, dimension):
    collection = draw(lattice_collections(dimension))
    r = draw(st.sampled_from((0.3, 1.0, 2.0, 3.7)))
    point_filter = draw(st.none() | label_filters(collection))
    return collection, r, point_filter


def assert_layouts_equal(ref, got):
    """``got``'s reference view equals ``ref`` field by field, in order."""
    assert list(got.small_grid.cells) == sorted(ref.small_grid.cells)
    assert list(got.large_grid.cells) == sorted(ref.large_grid.cells)
    assert_bigrids_equal(ref, got)
    for ref_groups, got_groups in zip(ref.object_groups, got.object_groups):
        assert list(got_groups.items()) == list(ref_groups.items())


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
def test_packed_build_matches_reference(dimension, data):
    collection, r, point_filter = data.draw(builds(dimension))
    ref = BIGrid.build(collection, r, point_filter=point_filter)
    got = numpy_kernel().build_bigrid(collection, r, point_filter=point_filter)
    assert_layouts_equal(ref, got)


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
def test_bulk_adjacency_is_the_neighbourhood_union(dimension, data):
    collection, r, point_filter = data.draw(builds(dimension))
    ref = BIGrid.build(collection, r, point_filter=point_filter)
    got = numpy_kernel().build_bigrid(collection, r, point_filter=point_filter)
    adjacency = got.large_grid.bulk_adjacency()
    cells = ref.large_grid.cells
    assert adjacency.shape[0] == len(cells)
    for row, key in enumerate(sorted(cells)):
        expected = 0
        for neighbor in cell_and_adjacent_keys(key):
            if neighbor in cells:
                expected |= cells[neighbor].bitset.to_int()
        words = adjacency[row].astype("<u8").tobytes()
        assert int.from_bytes(words, "little") == expected, key


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
def test_views_share_arrays_and_own_query_state(dimension, data):
    collection, r, point_filter = data.draw(builds(dimension))
    ref = BIGrid.build(collection, r, point_filter=point_filter)
    kernel = numpy_kernel()
    resident = kernel.build_bigrid(collection, r, point_filter=point_filter)
    first = kernel.grid_view(resident)
    assert_layouts_equal(ref, first)
    first.large_grid.bulk_adjacency()
    first.large_grid.adj_memo[:] = True
    second = kernel.grid_view(resident)
    assert second.large_grid.packed is resident.large_grid.packed
    assert second.shared_words is resident.shared_words
    assert second.large_grid.adj_words is first.large_grid.adj_words
    assert not second.large_grid.adj_memo.any()
    assert second.large_grid.adjacency_bytes() == 0
    assert second.memory_bytes() == ref.memory_bytes()
    assert second.large_grid.cells is not first.large_grid.cells
    assert_layouts_equal(ref, second)
