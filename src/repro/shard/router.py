"""Curve-order shard routing with exact cross-shard halos.

The router turns one collection + one query ceiling into a
:class:`ShardPlan`: a partition of the objects into ``shards`` contiguous
ranges of a space-filling curve over their *large-grid* cells, plus, per
shard, the **halo** — the non-owned objects a shard must also index so
that every owned object's local query state equals its global state.

Why the halo is exact (not approximate)
---------------------------------------

All three per-object quantities the phase pipeline computes are local to
a Lemma-2 neighbourhood:

* two points within ``r`` lie in the *same or axis-adjacent* large cells
  (large width = ``ceil(r) >= r``), so every true interactor of an owned
  object has a point in a cell adjacent-or-equal to one of its cells;
* two points sharing a *small* cell (the Lemma-1 lower bound) are within
  ``r``, hence also in adjacent-or-equal large cells;
* the Algorithm-5 upper bound unions exactly the adjacent large cells.

The halo is defined as every non-owned object with at least one point in
a cell adjacent-or-equal to a cell containing an owned object's point.
Building a shard's BIGrid over ``owned + halo`` therefore reproduces the
global lower bound, upper bound, and exact score of every *owned* object
bit-for-bit — the conformance suite pins this.

Halo candidates are found vectorized: all point cells are encoded with
the kernel's mixed-radix ``int64`` cell codes
(:func:`repro.kernels.numpy_backend.encode_keys`), the owned cell set is
dilated by the ``3^d`` neighbour offsets in code space (one add per
offset), and non-owned points are matched with one ``searchsorted``.
Inputs whose cell spread overflows the 62-bit code budget fall back to a
set-of-tuples walk — the same policy, just slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import InvalidQueryError
from repro.grid.keys import adjacent_keys, large_cell_width, neighbor_offsets
from repro.kernels.numpy_backend import encode_keys
from repro.shard.curves import CURVES, curve_codes


@dataclass
class ShardPlan:
    """One immutable routing decision for ``(collection, ceil_r, shards)``.

    ``owned[s]`` and ``halo[s]`` are sorted global object-id arrays;
    ownership is a partition (every object in exactly one ``owned``), and
    each ``halo[s]`` is disjoint from ``owned[s]``.  Sorted order matters:
    the executor subsets ``owned + halo`` in this order so local ids are
    monotone in global ids, preserving the engine's tie-break semantics.
    """

    shards: int
    curve: str
    ceil_r: int
    owned: List[np.ndarray]
    halo: List[np.ndarray]
    #: Total points owned per shard (the balance target).
    owned_points: List[int]
    #: Curve bit depth and whether the big-int fallback encoded the codes.
    bits: int = 0
    curve_overflowed: bool = False
    #: Whether the halo walk used the set-of-tuples fallback.
    halo_overflowed: bool = False

    @property
    def halo_objects(self) -> int:
        return int(sum(len(h) for h in self.halo))

    def task_indices(self, shard: int) -> np.ndarray:
        """Global ids for one shard's sub-collection, owned first."""
        return np.concatenate([self.owned[shard], self.halo[shard]])


def plan_shards(
    collection,
    r: float,
    shards: int,
    curve: str = "hilbert",
) -> ShardPlan:
    """Build the :class:`ShardPlan` for one collection and query ceiling.

    Objects are placed on the curve by the large cell of their first
    point, ordered, and cut into contiguous ranges balanced by *point*
    count (points, not objects, drive phase cost).  Empty shards are
    avoided by capping the effective shard count at ``n``.
    """
    if shards < 1:
        raise InvalidQueryError("shards must be >= 1")
    if curve not in CURVES:
        raise InvalidQueryError(f"unknown curve {curve!r} (expected one of {CURVES})")
    n = collection.n
    effective = min(shards, n)
    width = large_cell_width(r)
    ceil_r = int(np.ceil(r))

    # -- curve placement: one representative large cell per object -------
    rep_points = np.stack([obj.points[0] for obj in collection], axis=0)
    rep_keys = np.floor(rep_points / width).astype(np.int64)
    codes = curve_codes(rep_keys, curve)
    order = codes.argsort()

    # -- contiguous cut balanced by point mass ---------------------------
    points_per_object = np.array(
        [collection[int(oid)].points.shape[0] for oid in order], dtype=np.int64
    )
    owned = _balanced_cut(order, points_per_object, effective)

    # -- exact halo: Lemma-2 dilation of each shard's owned cells --------
    halo, halo_overflowed = _compute_halos(collection, width, owned)

    return ShardPlan(
        shards=effective,
        curve=curve,
        ceil_r=ceil_r,
        owned=owned,
        halo=halo,
        owned_points=[
            int(sum(collection[int(oid)].points.shape[0] for oid in part))
            for part in owned
        ],
        bits=codes.bits,
        curve_overflowed=codes.overflowed,
        halo_overflowed=halo_overflowed,
    )


def _balanced_cut(
    order: np.ndarray, points_per_object: np.ndarray, shards: int
) -> List[np.ndarray]:
    """Cut the curve order into ``shards`` contiguous, point-balanced ranges.

    Boundaries are the positions where the running point mass crosses
    each ``total * s / shards`` target, clamped so every range holds at
    least one object.  Each range is then *sorted by global id* —
    membership comes from the curve, intra-shard order must match the
    serial engine's id-based tie-breaks.
    """
    n = len(order)
    prefix = np.cumsum(points_per_object)
    total = int(prefix[-1])
    bounds = [0]
    for s in range(1, shards):
        target = total * s / shards
        cut = int(np.searchsorted(prefix, target, side="left")) + 1
        cut = max(cut, bounds[-1] + 1)  # at least one object per range
        cut = min(cut, n - (shards - s))  # leave room for the rest
        bounds.append(cut)
    bounds.append(n)
    return [np.sort(order[bounds[s] : bounds[s + 1]]) for s in range(shards)]


def _compute_halos(
    collection, width: float, owned: List[np.ndarray]
) -> Tuple[List[np.ndarray], bool]:
    """Per shard, the sorted non-owned ids with a point in the dilated
    owned cell set (dilation = the ``3^d`` adjacent-or-equal offsets)."""
    point_keys, point_oids = _all_point_keys(collection, width)
    dimension = point_keys.shape[1]
    encoded = encode_keys(point_keys)
    shard_of = np.empty(collection.n, dtype=np.int64)
    for s, part in enumerate(owned):
        shard_of[part] = s

    if encoded is None:
        return _halos_by_tuples(collection, point_keys, point_oids, shard_of, owned)

    codes, strides = encoded
    offsets = np.array(
        neighbor_offsets(dimension, include_center=True), dtype=np.int64
    )
    offset_codes = offsets @ strides
    point_shards = shard_of[point_oids]
    halos: List[np.ndarray] = []
    for s, part in enumerate(owned):
        owned_cells = np.unique(codes[point_shards == s])
        dilated = np.unique(
            (owned_cells[:, None] + offset_codes[None, :]).reshape(-1)
        )
        outside = point_shards != s
        hits = np.searchsorted(dilated, codes[outside])
        hits = np.minimum(hits, len(dilated) - 1)
        matched = dilated[hits] == codes[outside]
        halos.append(np.unique(point_oids[outside][matched]))
    return halos, False


def _halos_by_tuples(
    collection, point_keys, point_oids, shard_of, owned
) -> Tuple[List[np.ndarray], bool]:
    """Overflow fallback: the same dilation over python key tuples."""
    keys_list = [tuple(row) for row in point_keys.tolist()]
    per_shard_cells: List[set] = [set() for _ in owned]
    for key, oid in zip(keys_list, point_oids.tolist()):
        per_shard_cells[shard_of[oid]].add(key)
    halos = []
    for s in range(len(owned)):
        dilated = set()
        for cell in per_shard_cells[s]:
            dilated.add(cell)
            dilated.update(adjacent_keys(cell))
        members = {
            oid
            for key, oid in zip(keys_list, point_oids.tolist())
            if shard_of[oid] != s and key in dilated
        }
        halos.append(np.array(sorted(members), dtype=np.int64))
    return halos, True


def _all_point_keys(collection, width: float) -> Tuple[np.ndarray, np.ndarray]:
    """All points' large-cell keys plus a parallel owner-id array."""
    arrays = [obj.points for obj in collection]
    stacked = np.concatenate(arrays, axis=0)
    keys = np.floor(stacked / width).astype(np.int64)
    oids = np.repeat(
        np.arange(collection.n, dtype=np.int64),
        np.array([a.shape[0] for a in arrays], dtype=np.int64),
    )
    return keys, oids

