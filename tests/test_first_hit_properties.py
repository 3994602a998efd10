"""Property-based tests for verification's first-hit derivation.

The numpy verifier never replays Algorithm 6's per-point walk: it derives
the walk's effects from each owner's first hit
(:func:`repro.kernels.numpy_backend.first_hit_scan`), for a block of
candidates at once.  These tests state the invariant that makes that
exact, for ALL inputs rather than the grids a dataset happens to
produce: given any block of candidates, each with any hit matrix, any
owners per neighbour cell, any seed confirmed set and any split into
waves, the derivation checks the same (point, posting) pairs in the same
order, confirms the same objects and marks the same points Labeling-3
skippable as a literal replay of ``_exact_score``'s loop over each
candidate on its own.

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
def candidate(draw, n):
    """One candidate's groups, columns, hit matrix, seed and wave split."""
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
    # Any hit matrix: one bit per (point, column), drawn as raw bytes
    # (a list of booleans costs one draw per bit).
    pairs = len(point_group) * len(col_owner)
    hits = np.unpackbits(
        np.frombuffer(
            draw(st.binary(min_size=(pairs + 7) // 8, max_size=(pairs + 7) // 8)),
            dtype=np.uint8,
        ),
        count=pairs,
    )
    seed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    split = draw(st.none() | st.integers(min_value=0, max_value=groups))
    return {
        "point_group": np.asarray(point_group, dtype=np.int64),
        "col_bounds": np.asarray(col_bounds, dtype=np.int64),
        "col_owner": np.asarray(col_owner, dtype=np.int64),
        "col_cell": col_cell,
        "hits": hits.astype(bool).reshape(
            len(point_group), len(col_owner)
        ),
        "seed": np.asarray(seed, dtype=bool),
        "split": split,
    }


@st.composite
def blocks(draw):
    """1-4 candidates over one collection of ``n`` objects, laid out as
    ``first_hit_scan`` takes a block: groups, points and columns one
    candidate after another, owners keyed ``candidate * n + object``."""
    n = draw(st.integers(min_value=1, max_value=8))
    members = draw(st.lists(candidate(n), min_size=1, max_size=4))
    point_group, group_candidate, col_bounds, col_owner, split = [], [], [0], [], []
    points = cols = groups = 0
    for slot, member in enumerate(members):
        member.update(points=points, cols=cols)
        count = len(member["col_bounds"]) - 1
        point_group += (member["point_group"] + groups).tolist()
        group_candidate += [slot] * count
        col_bounds += (member["col_bounds"][1:] + cols).tolist()
        col_owner += (member["col_owner"] + slot * n).tolist()
        split.append(-1 if member["split"] is None else groups + member["split"])
        points += len(member["point_group"])
        cols += len(member["col_owner"])
        groups += count
    hits = np.zeros((points, cols), dtype=bool)
    for member in members:
        rows, width = member["hits"].shape
        hits[
            member["points"] : member["points"] + rows,
            member["cols"] : member["cols"] + width,
        ] = member["hits"]
    return {
        "n": n,
        "members": members,
        "point_group": np.asarray(point_group, dtype=np.int64),
        "group_candidate": np.asarray(group_candidate, dtype=np.int64),
        "col_bounds": np.asarray(col_bounds, dtype=np.int64),
        "col_owner": np.asarray(col_owner, dtype=np.int64),
        "hits": hits,
        "seed": np.concatenate([member["seed"] for member in members]),
        "split": np.asarray(split, dtype=np.int64),
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


@given(block=blocks())
def test_first_hit_scan_equals_the_per_point_replay(block):
    from repro.kernels.numpy_backend import first_hit_scan

    hits = block["hits"]
    confirmed = block["seed"].copy()
    checked_point, checked_col, skippable, live_cols = first_hit_scan(
        block["point_group"],
        block["group_candidate"],
        block["col_bounds"],
        block["col_owner"],
        confirmed,
        lambda entry_point, entry_col: hits[entry_point, entry_col],
        split=block["split"],
    )
    checked = list(zip(checked_point.tolist(), checked_col.tolist()))
    candidate_of_point = block["group_candidate"][block["point_group"]].tolist()
    n = block["n"]
    for slot, member in enumerate(block["members"]):
        member_checked, member_confirmed, member_skippable = replay(member)
        # Same pairs in the same order: posting_checks, distance_rows and
        # their per-group split (the deadline path's partial counters).
        # Candidates may interleave; each one's pairs stay in walk order.
        own_checked = [
            (point - member["points"], col - member["cols"])
            for point, col in checked
            if candidate_of_point[point] == slot
        ]
        assert own_checked == member_checked
        own = confirmed[slot * n : (slot + 1) * n]
        assert set(np.flatnonzero(own).tolist()) == member_confirmed
        points = len(member["point_group"])
        own_skippable = skippable[member["points"] : member["points"] + points]
        assert np.flatnonzero(own_skippable).tolist() == member_skippable
    # Each group's columns of owners pending at the start; its points
    # times those, the entries the block budget is estimated from, cover
    # every checked pair of the group.
    groups = len(block["col_bounds"]) - 1
    pending = np.append(0, np.cumsum(~block["seed"][block["col_owner"]]))
    assert live_cols.tolist() == np.diff(pending[block["col_bounds"]]).tolist()
    points = np.bincount(block["point_group"], minlength=groups)
    checked_per_group = np.bincount(
        block["point_group"][checked_point], minlength=groups
    )
    assert (checked_per_group <= points * live_cols).all()


@given(block=blocks())
def test_hits_are_asked_only_for_unconfirmed_owners(block):
    # A wave batches only the postings of (candidate, owner) keys still
    # pending at its start, which is what keeps the distance work near
    # the reference's -- and a block asks at most twice, however many
    # candidates it holds.
    from repro.kernels.numpy_backend import first_hit_scan

    hits = block["hits"]
    confirmed = block["seed"].copy()
    candidate_of_point = block["group_candidate"][block["point_group"]]
    asked = []

    def hit_of(entry_point, entry_col):
        owners = block["col_owner"][entry_col]
        assert not confirmed[owners].any()
        # A point is only ever paired with its own candidate's columns.
        assert (owners // block["n"] == candidate_of_point[entry_point]).all()
        asked.append(len(entry_col))
        return hits[entry_point, entry_col]

    first_hit_scan(
        block["point_group"],
        block["group_candidate"],
        block["col_bounds"],
        block["col_owner"],
        confirmed,
        hit_of,
        split=block["split"],
    )
    assert len(asked) <= 2
