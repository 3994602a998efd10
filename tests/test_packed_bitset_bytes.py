"""``packed_bitset_bytes``: bitset sizes computed from packed uint64 rows.

Numpy-built grids size their cell bitsets and adjacent unions in bulk
instead of building one bitset per row.  The helper must agree exactly
with ``sum(bitset_cls.from_int(row).size_in_bytes())`` for every
registered backend, in total and row by row (the resident memo sums
per-row sizes): EWAH marker/dirty-word counts, plain trimmed length,
and Roaring's per-chunk array/run/bitmap choice.  The oracle here builds
each row's big int in pure python, independently of the kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset.factory import bitset_class
from repro.kernels.numpy_backend import packed_bitset_bytes

pytestmark = pytest.mark.skipif(
    not hasattr(np, "bitwise_count"), reason="needs numpy >= 2.0"
)

BITSET_BACKENDS = ("ewah", "plain", "roaring")
ALL = (1 << 64) - 1
#: 64-bit words per Roaring chunk (2^16 bits).
CHUNK_WORDS = 1024


def reference_bytes(bitset_cls, rows):
    """What the bitset classes report, for each row."""
    return [
        bitset_cls.from_int(
            sum(word << (64 * index) for index, word in enumerate(row))
        ).size_in_bytes()
        for row in rows
    ]


def assert_matches(rows):
    """The total and the per-row sizes both match, for every backend."""
    matrix = np.array(rows, dtype=np.uint64).reshape(len(rows), -1)
    for backend in BITSET_BACKENDS:
        bitset_cls = bitset_class(backend)
        expected = reference_bytes(bitset_cls, rows)
        assert packed_bitset_bytes(bitset_cls, matrix) == sum(expected), backend
        per_row = packed_bitset_bytes(bitset_cls, matrix, per_row=True)
        assert per_row.tolist() == expected, backend


#: Clean words, random dirty words, and the sparse/low-run/high-run shapes
#: that move Roaring between its array, run and bitmap encodings.
WORDS = st.one_of(
    st.just(0),
    st.just(ALL),
    st.integers(1, ALL - 1),
    st.integers(0, 63).map(lambda bit: 1 << bit),
    st.integers(1, 63).map(lambda bits: (1 << bits) - 1),
    st.integers(1, 63).map(lambda bits: ALL ^ ((1 << bits) - 1)),
)


@st.composite
def packed_rows(draw, max_repeat, max_rows=4):
    """Rows of runs of repeated words, zero-padded to a common width."""
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        pieces = draw(
            st.lists(
                st.tuples(WORDS, st.integers(1, max_repeat)), min_size=1, max_size=6
            )
        )
        rows.append([word for word, repeat in pieces for _ in range(repeat)])
    width = max(len(row) for row in rows)
    return [row + [0] * (width - len(row)) for row in rows]


@given(packed_rows(max_repeat=3))
def test_narrow_rows_match_bitset_sizes(rows):
    assert_matches(rows)


@settings(max_examples=25, deadline=None)
@given(packed_rows(max_repeat=700, max_rows=2))
def test_rows_across_roaring_chunks_match_bitset_sizes(rows):
    assert_matches(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        [[1]],
        [[ALL]],
        [[0], [ALL], [5]],
        [[5, 0, 0]],  # trailing zero words
        [[0, 0, 7]],  # leading zero run
        [[7, ALL, ALL, 0, 9]],  # dirty first word, then a one run
        [[ALL, ALL, 0, 0]],  # a one run dropped only at the zero tail
        [[0, 0, 0, 0]],  # an empty row wider than one word
    ],
)
def test_edge_rows_match_bitset_sizes(rows):
    assert_matches(rows)


def test_run_crossing_a_word_boundary_is_one_run():
    # Bits 60..67 set: one Roaring run, spread over two words.
    assert_matches([[ALL ^ ((1 << 60) - 1), 0xF]])


def test_run_crossing_a_chunk_boundary_splits():
    # The top bit of chunk 0 and the bottom bit of chunk 1: one run in
    # the bits, but two containers in Roaring.
    row = [0] * (CHUNK_WORDS + 1)
    row[CHUNK_WORDS - 1] = 1 << 63
    row[CHUNK_WORDS] = 1
    assert_matches([row])


@pytest.mark.parametrize("cardinality", [4095, 4096, 4097])
def test_roaring_array_limit_boundary(cardinality):
    # Every other bit set: no runs to exploit, so the array/bitmap choice
    # flips at Roaring's 4096-value array limit (where both cost 8 KiB).
    row = [0] * CHUNK_WORDS
    for position in range(cardinality):
        bit = 2 * position
        row[bit // 64] |= 1 << (bit % 64)
    assert_matches([row])


def test_no_rows_is_zero_bytes():
    empty = np.zeros((0, 3), dtype=np.uint64)
    for backend in BITSET_BACKENDS:
        assert packed_bitset_bytes(bitset_class(backend), empty) == 0
        assert packed_bitset_bytes(
            bitset_class(backend), empty, per_row=True
        ).tolist() == []
