"""Property-based tests for the numpy kernel's packed grid build.

The numpy build groups every point by cell with one sort and finds every
cell's ``3^d`` neighbours once, in a symmetric neighbour search that
also yields the adjacent unions (``docs/kernels.md``).  These tests hold
both to their reference definitions on drawn inputs rather than dataset
grids: lattice points that pile many points (and exact duplicates) into
one cell, collections that fit in a single cell, scattered points whose
cells mostly have no neighbour, and labels that drop some, all or none
of an object's points.

* The materialized layout of a numpy-built grid -- cells in ascending
  key order, bitsets, postings, key lists and object groups in
  first-occurrence order -- equals ``BIGrid.build``'s.
* Both branches of the cell sort (unique keys, and the stable argsort
  kept for keys that would overflow int64) give one permutation.
* Every ``bulk_adjacency`` row equals the brute-force union of the
  reference cells over ``cell_and_adjacent_keys``, and every neighbour
  table row lists those cells' rows in that order.
* A per-query view of a grid another view already ran on shares the
  arrays, the bulk adjacency matrix and the neighbour table, starts
  with nothing memoized, and materializes the reference layout of its
  own.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import GRID_BIT, PointLabels
from repro.core.objects import ObjectCollection
from repro.grid.bigrid import BIGrid
from repro.grid.keys import cell_and_adjacent_keys, key_tuples
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
def scattered_collections(draw, dimension):
    """Objects of a few points each, scattered over a box many large
    cells wide: most cells have few or no neighbours, and the cells on
    the box's faces sit at the edge of the key encoding's extent."""
    n = draw(st.integers(min_value=1, max_value=40))
    coordinate = st.floats(min_value=-40.0, max_value=40.0)
    arrays = []
    for _ in range(n):
        count = draw(st.integers(min_value=1, max_value=4))
        values = draw(
            st.lists(coordinate, min_size=count * dimension, max_size=count * dimension)
        )
        arrays.append(np.asarray(values, float).reshape(count, dimension))
    return ObjectCollection.from_point_arrays(arrays)


@st.composite
def grid_labels(draw, collection):
    """GRID-MAPPING-WITH-LABEL input: per object keep every point, drop
    every point, or keep a drawn subset (the ``GRID`` bit of the rest
    cleared)."""
    labels = PointLabels.for_collection(collection, 1.0)
    for array in labels.arrays:
        kind = draw(st.sampled_from(("all", "none", "some")))
        if kind == "all":
            continue
        if kind == "none":
            keep = np.zeros(len(array), dtype=bool)
        else:
            keep = np.asarray(
                draw(st.lists(st.booleans(), min_size=len(array), max_size=len(array))),
                dtype=bool,
            )
        array[~keep] &= ~GRID_BIT & 0xFF
    return labels


@st.composite
def builds(draw, dimension, sparse=False):
    shapes = lattice_collections(dimension)
    if sparse:
        shapes = shapes | scattered_collections(dimension)
    collection = draw(shapes)
    r = draw(st.sampled_from((0.3, 1.0, 2.0, 3.7)))
    labels = draw(st.none() | grid_labels(collection))
    return collection, r, labels


def reference_build(collection, r, labels):
    return BIGrid.build(
        collection, r, point_filter=labels.grid_mask if labels is not None else None
    )


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
    collection, r, labels = data.draw(builds(dimension))
    ref = reference_build(collection, r, labels)
    got = numpy_kernel().build_bigrid(collection, r, labels=labels)
    assert_layouts_equal(ref, got)


@given(
    cells=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
    objects=st.integers(min_value=1, max_value=9),
)
def test_both_sort_branches_give_one_permutation(cells, objects):
    # Scan positions are oid-major, so oids never decrease along the scan.
    from repro.kernels import numpy_backend

    codes = np.asarray(cells, dtype=np.int64) * 7919
    oids = np.sort(np.arange(len(codes)) % objects)
    words = (objects + 63) // 64
    unique_keys = numpy_backend._cell_runs(codes, oids, words)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "_SORT_KEY_LIMIT", 0)
        stable = numpy_backend._cell_runs(codes, oids, words)
    assert np.array_equal(stable[0], np.argsort(codes, kind="stable"))
    for got, expected in zip(unique_keys, stable):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
def test_overflow_sort_branch_builds_the_same_grid(dimension, data):
    from repro.kernels import numpy_backend

    collection, r, labels = data.draw(builds(dimension, sparse=True))
    ref = reference_build(collection, r, labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "_SORT_KEY_LIMIT", 0)
        got = numpy_kernel().build_bigrid(collection, r, labels=labels)
    assert_layouts_equal(ref, got)


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
def test_bulk_adjacency_is_the_neighbourhood_union(dimension, data):
    collection, r, labels = data.draw(builds(dimension))
    ref = reference_build(collection, r, labels)
    got = numpy_kernel().build_bigrid(collection, r, labels=labels)
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
def test_neighbor_table_is_the_neighbourhood_walk(dimension, data):
    collection, r, labels = data.draw(builds(dimension, sparse=True))
    kernel = numpy_kernel()
    fresh = kernel.build_bigrid(collection, r, labels=labels)
    table = fresh.large_grid.neighbor_table()
    keys = key_tuples(fresh.large_grid.key_rows)
    row_of = {key: row for row, key in enumerate(keys)}
    assert table.dtype == np.int32
    assert table.shape == (3 ** dimension, len(keys))
    for row, key in enumerate(keys):
        expected = [row_of.get(cell, -1) for cell in cell_and_adjacent_keys(key)]
        assert table[:, row].tolist() == expected, key

    resident = kernel.build_bigrid(collection, r, labels=labels)
    view = kernel.grid_view(resident)
    table = view.large_grid.neighbor_table()
    assert kernel.grid_view(resident).large_grid.neighbor_table() is table
    assert resident.large_grid.neighbor_table() is table


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
def test_views_share_arrays_and_own_query_state(dimension, data):
    collection, r, labels = data.draw(builds(dimension))
    ref = reference_build(collection, r, labels)
    kernel = numpy_kernel()
    resident = kernel.build_bigrid(collection, r, labels=labels)
    first = kernel.grid_view(resident)
    assert_layouts_equal(ref, first)
    first.large_grid.bulk_adjacency()
    first.large_grid.adj_memo[:] = True
    second = kernel.grid_view(resident)
    assert second.large_grid.packed is resident.large_grid.packed
    assert second.shared_words is resident.shared_words
    assert second.large_grid.adj_words is first.large_grid.adj_words
    assert second.large_grid.neighbor_table() is first.large_grid.neighbor_table()
    assert not second.large_grid.adj_memo.any()
    assert second.large_grid.adjacency_bytes() == 0
    assert second.memory_bytes() == ref.memory_bytes()
    assert second.large_grid.cells is not first.large_grid.cells
    assert_layouts_equal(ref, second)
