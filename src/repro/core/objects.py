"""The data model: objects as point sets, and collections of objects.

Section II-A of the paper: an object ``o_i`` is a set of two- or
three-dimensional points ``P_i``; a collection ``O`` of ``n`` objects has an
average point count ``m = sum(|P_i|) / n``.  Collections are memory-resident
and static, so both classes are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.geometry import bounding_box
from repro.errors import CorruptDataError, InvalidQueryError


class SpatialObject:
    """One object: an id plus its point set (and optional timestamps)."""

    __slots__ = ("oid", "points", "timestamps")

    def __init__(
        self,
        oid: int,
        points: np.ndarray,
        timestamps: Optional[np.ndarray] = None,
    ) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise InvalidQueryError(
                f"points must be a (m, d) array, got shape {points.shape}"
            )
        if points.shape[1] not in (2, 3):
            raise InvalidQueryError(
                f"only 2-D and 3-D points are supported, got d={points.shape[1]}"
            )
        if len(points) == 0:
            raise InvalidQueryError(
                f"object {oid}: an object must contain at least one point"
            )
        if not np.isfinite(points).all():
            # Non-finite coordinates hash to garbage grid cells and would
            # silently produce wrong scores; fail loudly at the boundary.
            raise CorruptDataError(
                f"object {oid}: point coordinates must be finite (no NaN/inf)"
            )
        if timestamps is not None:
            timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
            if timestamps.shape != (len(points),):
                raise InvalidQueryError(f"object {oid}: timestamps must align with points")
            if not np.isfinite(timestamps).all():
                raise CorruptDataError(
                    f"object {oid}: timestamps must be finite (no NaN/inf)"
                )
        self.oid = int(oid)
        self.points = points
        self.timestamps = timestamps

    @property
    def num_points(self) -> int:
        """Number of points ``|P_i|``."""
        return len(self.points)

    @property
    def dimension(self) -> int:
        """Spatial dimensionality (2 or 3)."""
        return self.points.shape[1]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the point set."""
        return bounding_box(self.points)

    def __len__(self) -> int:
        return self.num_points

    def __repr__(self) -> str:
        return f"SpatialObject(oid={self.oid}, points={self.num_points}x{self.dimension})"


class ObjectCollection:
    """An immutable, memory-resident collection ``O`` of spatial objects.

    Object ids are the positions in the collection (``0 .. n-1``), which is
    what the per-cell bitsets index.  ``point_counts`` holds every
    object's ``|P_i|`` as a read-only int64 array, counted once.
    """

    __slots__ = ("objects", "dimension", "point_counts")

    def __init__(self, objects: Sequence[SpatialObject]) -> None:
        objects = list(objects)
        if not objects:
            raise InvalidQueryError("a collection must contain at least one object")
        dimension = objects[0].dimension
        seen_oids = set()
        for position, obj in enumerate(objects):
            if obj.dimension != dimension:
                raise InvalidQueryError("all objects must share one dimensionality")
            if obj.oid in seen_oids:
                # A duplicate id would alias two objects in every per-cell
                # bitset, corrupting all three bound computations.
                raise CorruptDataError(
                    f"duplicate object id {obj.oid} at position {position}"
                )
            seen_oids.add(obj.oid)
            if obj.oid != position:
                raise InvalidQueryError(
                    f"object ids must be contiguous positions; found oid={obj.oid} "
                    f"at position {position} (use from_point_arrays to renumber)"
                )
        self.objects: List[SpatialObject] = objects
        self.dimension = dimension
        counts = np.fromiter(
            (obj.num_points for obj in objects), dtype=np.int64, count=len(objects)
        )
        counts.flags.writeable = False
        self.point_counts = counts

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_point_arrays(
        cls,
        point_arrays: Iterable[np.ndarray],
        timestamps: Optional[Iterable[np.ndarray]] = None,
    ) -> "ObjectCollection":
        """Build a collection, numbering objects by iteration order."""
        if timestamps is None:
            objects = [SpatialObject(i, pts) for i, pts in enumerate(point_arrays)]
        else:
            objects = [
                SpatialObject(i, pts, ts)
                for i, (pts, ts) in enumerate(zip(point_arrays, timestamps))
            ]
        return cls(objects)

    def subset(self, indices: Sequence[int]) -> "ObjectCollection":
        """A new collection containing the selected objects, renumbered."""
        return ObjectCollection.from_point_arrays(
            (self.objects[i].points for i in indices),
            None
            if any(self.objects[i].timestamps is None for i in indices)
            else (self.objects[i].timestamps for i in indices),
        )

    # ------------------------------------------------------------------
    # Statistics (Table I quantities)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Cardinality ``n = |O|``."""
        return len(self.objects)

    @property
    def total_points(self) -> int:
        """``nm``: total number of points across all objects."""
        return int(self.point_counts.sum())

    @property
    def mean_points(self) -> float:
        """Average point count ``m``."""
        return self.total_points / self.n

    def has_timestamps(self) -> bool:
        """Whether every object carries per-point timestamps."""
        return all(obj.timestamps is not None for obj in self.objects)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bounding box of the whole collection."""
        lows, highs = zip(*(obj.bounds() for obj in self.objects))
        return np.min(np.stack(lows), axis=0), np.max(np.stack(highs), axis=0)

    def memory_bytes(self) -> int:
        """Raw footprint of the stored coordinates (and timestamps)."""
        total = 0
        for obj in self.objects:
            total += obj.points.nbytes
            if obj.timestamps is not None:
                total += obj.timestamps.nbytes
        return total

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, oid: int) -> SpatialObject:
        return self.objects[oid]

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self.objects)

    def __repr__(self) -> str:
        return (
            f"ObjectCollection(n={self.n}, m={self.mean_points:.1f}, "
            f"nm={self.total_points}, d={self.dimension})"
        )
