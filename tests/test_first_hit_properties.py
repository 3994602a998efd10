"""Property-based tests for verification's first-hit derivation.

The numpy verifier never replays Algorithm 6's per-point walk: it derives
the walk's effects from each owner's first hit
(:func:`repro.kernels.numpy_backend.first_hit_scan`).  These tests state
the invariant that makes that exact, for ALL inputs rather than the
grids a dataset happens to produce: given any hit matrix, any owners per
neighbour cell, any seed confirmed set and any split into waves, the
derivation checks the same (point, posting) pairs in the same order,
confirms the same objects and marks the same points Labeling-3
skippable as a literal replay of ``_exact_score``'s loop.

No grid is built: a candidate is modelled directly as groups of points,
each group with its neighbour cells in walk order and each cell with its
owners' posting segments ("columns").
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import numpy_kernel_available

pytestmark = pytest.mark.skipif(
    not numpy_kernel_available(), reason="numpy kernel unavailable here"
)


@st.composite
def candidates(draw):
    """A candidate's groups, columns, hit matrix, seed and wave split."""
    n = draw(st.integers(min_value=1, max_value=8))
    groups = draw(st.integers(min_value=1, max_value=5))
    point_group, col_owner, col_cell, col_bounds = [], [], [], [0]
    for group in range(groups):
        point_group += [group] * draw(st.integers(min_value=0, max_value=4))
        # Cells in walk order; owners are unique within a cell and the
        # self cell holds at least one posting segment.
        for cell in range(draw(st.integers(min_value=1, max_value=4))):
            owners = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=n,
                    unique=True,
                )
            )
            col_owner += sorted(owners)
            col_cell += [(group, cell)] * len(owners)
        col_bounds.append(len(col_owner))
    hits = draw(
        st.lists(
            st.booleans(),
            min_size=len(point_group) * len(col_owner),
            max_size=len(point_group) * len(col_owner),
        )
    )
    seed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    split = draw(st.none() | st.integers(min_value=0, max_value=groups))
    return {
        "point_group": np.asarray(point_group, dtype=np.int64),
        "col_bounds": np.asarray(col_bounds, dtype=np.int64),
        "col_owner": np.asarray(col_owner, dtype=np.int64),
        "col_cell": col_cell,
        "hits": np.asarray(hits, dtype=bool).reshape(
            len(point_group), len(col_owner)
        ),
        "seed": np.asarray(seed, dtype=bool),
        "split": split,
    }


def replay(case):
    """``_exact_score``'s walk, point by point, over the drawn hit matrix."""
    confirmed = set(np.flatnonzero(case["seed"]).tolist())
    point_group = case["point_group"].tolist()
    col_owner = case["col_owner"].tolist()
    bounds = case["col_bounds"].tolist()
    checked, skippable = [], []
    for point, group in enumerate(point_group):
        cols = range(bounds[group], bounds[group + 1])
        pending = {col_owner[col] for col in cols} - confirmed
        if not pending:
            skippable.append(point)
            continue
        remaining = set(pending)
        cells = {}
        for col in cols:
            cells.setdefault(case["col_cell"][col], []).append(col)
        for cell_cols in cells.values():
            # The per-cell snapshot: remaining.intersection(cell.postings).
            found = [col for col in cell_cols if col_owner[col] in remaining]
            for col in found:
                checked.append((point, col))
                if case["hits"][point, col]:
                    confirmed.add(col_owner[col])
                    remaining.discard(col_owner[col])
            if not remaining:
                break
    return checked, confirmed, skippable


@given(case=candidates())
def test_first_hit_scan_equals_the_per_point_replay(case):
    from repro.kernels.numpy_backend import first_hit_scan

    hits = case["hits"]
    confirmed = case["seed"].copy()
    checked_point, checked_col, skippable = first_hit_scan(
        case["point_group"],
        case["col_bounds"],
        case["col_owner"],
        confirmed,
        lambda entry_point, entry_col: hits[entry_point, entry_col],
        split=case["split"],
    )
    want_checked, want_confirmed, want_skippable = replay(case)
    # Same pairs in the same order: posting_checks, distance_rows and
    # their per-group split (the deadline path's partial counters).
    assert list(zip(checked_point.tolist(), checked_col.tolist())) == want_checked
    assert set(np.flatnonzero(confirmed).tolist()) == want_confirmed
    assert np.flatnonzero(skippable).tolist() == want_skippable


@given(case=candidates())
def test_hits_are_asked_only_for_unconfirmed_owners(case):
    # A wave batches only the postings of owners still pending at its
    # start, which is what keeps the distance work near the reference's.
    from repro.kernels.numpy_backend import first_hit_scan

    hits = case["hits"]
    confirmed = case["seed"].copy()
    asked = []

    def hit_of(entry_point, entry_col):
        owners = case["col_owner"][entry_col]
        assert not confirmed[owners].any()
        asked.append(len(entry_col))
        return hits[entry_point, entry_col]

    first_hit_scan(
        case["point_group"],
        case["col_bounds"],
        case["col_owner"],
        confirmed,
        hit_of,
        split=case["split"],
    )
    assert len(asked) <= 2
