"""Roaring-style chunked bitmap.

The paper (footnote 3) notes BIGrid is orthogonal to the concrete
compressed bitset and that picking the optimal one is workload-dependent;
Roaring bitmaps are the other major contender next to the word-aligned
EWAH family.  This implementation follows Roaring's core design: the bit
space is split into 2^16-bit *chunks* keyed by the high 16 bits, and each
non-empty chunk stores whichever of three container forms is smallest:

* ``array``  -- sorted 16-bit values (2 bytes each), best when sparse;
* ``bitmap`` -- a fixed 8 KiB bit field, best when dense and irregular;
* ``run``    -- (start, length) pairs (4 bytes each), best for long runs.

Containers renormalize to the cheapest form after every mutation, so
``size_in_bytes`` always reflects the canonical Roaring choice.  Chunk
bitmaps are held as Python ints, which makes the per-chunk bitwise ops
C-speed and the container conversions straightforward.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.bitset.base import Bitset

CHUNK_BITS = 16
CHUNK_SIZE = 1 << CHUNK_BITS          # values per chunk
_CHUNK_MASK = CHUNK_SIZE - 1
_FULL_CHUNK = (1 << CHUNK_SIZE) - 1

#: Above this many values, an array container is never the smallest form.
ARRAY_LIMIT = 4096

ARRAY = "array"
BITMAP = "bitmap"
RUN = "run"

#: Fixed byte cost of a bitmap container (2^16 bits).
BITMAP_BYTES = CHUNK_SIZE // 8
#: Per-container header: chunk key + type tag + cardinality.
CONTAINER_HEADER = 8


class _Container:
    """One chunk's worth of bits, stored in its cheapest representation."""

    __slots__ = ("kind", "values", "bits", "runs", "cardinality")

    def __init__(self) -> None:
        self.kind = ARRAY
        self.values: List[int] = []
        self.bits = 0
        self.runs: List[Tuple[int, int]] = []
        self.cardinality = 0

    # -- conversions ----------------------------------------------------

    @classmethod
    def from_bits(cls, bits: int) -> "_Container":
        container = cls()
        container.bits = bits
        container.cardinality = bits.bit_count()
        container.kind = BITMAP
        container.normalize()
        return container

    def to_bits(self) -> int:
        if self.kind == BITMAP:
            return self.bits
        if self.kind == ARRAY:
            bits = 0
            for value in self.values:
                bits |= 1 << value
            return bits
        bits = 0
        for start, length in self.runs:
            bits |= ((1 << length) - 1) << start
        return bits

    def _as_runs(self, bits: int) -> List[Tuple[int, int]]:
        runs = []
        while bits:
            low = bits & -bits
            start = low.bit_length() - 1
            shifted = bits >> start
            length = (~shifted & (shifted + 1)).bit_length() - 1
            if length <= 0:
                length = shifted.bit_length()
            runs.append((start, length))
            bits &= ~(((1 << length) - 1) << start)
        return runs

    def normalize(self) -> None:
        """Re-encode as whichever container form is smallest in bytes."""
        bits = self.to_bits()
        cardinality = bits.bit_count()
        self.cardinality = cardinality
        runs = self._as_runs(bits)
        array_bytes = 2 * cardinality if cardinality <= ARRAY_LIMIT else None
        run_bytes = 4 * len(runs)
        candidates = [(run_bytes, RUN), (BITMAP_BYTES, BITMAP)]
        if array_bytes is not None:
            candidates.append((array_bytes, ARRAY))
        candidates.sort()
        _, kind = candidates[0]
        self.kind = kind
        self.values = []
        self.runs = []
        self.bits = 0
        if kind == ARRAY:
            self.values = [run_start + offset for run_start, length in runs for offset in range(length)]
        elif kind == RUN:
            self.runs = runs
        else:
            self.bits = bits

    # -- inspection ------------------------------------------------------

    def get(self, offset: int) -> bool:
        if self.kind == BITMAP:
            return bool((self.bits >> offset) & 1)
        if self.kind == ARRAY:
            return offset in self.values  # containers are small; fine
        return any(start <= offset < start + length for start, length in self.runs)

    def iter_values(self) -> Iterator[int]:
        if self.kind == ARRAY:
            yield from self.values
        elif self.kind == RUN:
            for start, length in self.runs:
                yield from range(start, start + length)
        else:
            bits = self.bits
            while bits:
                low = bits & -bits
                yield low.bit_length() - 1
                bits ^= low

    def size_in_bytes(self) -> int:
        if self.kind == ARRAY:
            payload = 2 * len(self.values)
        elif self.kind == RUN:
            payload = 4 * len(self.runs)
        else:
            payload = BITMAP_BYTES
        return CONTAINER_HEADER + payload


class RoaringBitset(Bitset):
    """Mutable Roaring-style bit vector."""

    __slots__ = ("_containers",)

    def __init__(self) -> None:
        self._containers: Dict[int, _Container] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_indices(cls, indices) -> "RoaringBitset":
        """Bulk construction: one container build per touched chunk.

        Overrides the generic one-``set``-per-bit default, which would
        renormalize a container once per inserted bit (quadratic on dense
        chunks).
        """
        chunks: Dict[int, int] = {}
        for index in indices:
            if index < 0:
                raise ValueError("bit index must be non-negative")
            key = index >> CHUNK_BITS
            chunks[key] = chunks.get(key, 0) | (1 << (index & _CHUNK_MASK))
        bitset = cls()
        for key, bits in chunks.items():
            bitset._containers[key] = _Container.from_bits(bits)
        return bitset

    @classmethod
    def from_int(cls, value: int) -> "RoaringBitset":
        if value < 0:
            raise ValueError("bit patterns must be non-negative")
        bitset = cls()
        chunk_key = 0
        while value:
            chunk = value & _FULL_CHUNK
            if chunk:
                bitset._containers[chunk_key] = _Container.from_bits(chunk)
            value >>= CHUNK_SIZE
            chunk_key += 1
        return bitset

    def copy(self) -> "RoaringBitset":
        clone = RoaringBitset()
        for key, container in self._containers.items():
            clone._containers[key] = _Container.from_bits(container.to_bits())
        return clone

    # ------------------------------------------------------------------
    # Mutation and inspection
    # ------------------------------------------------------------------

    def set(self, index: int) -> None:
        if index < 0:
            raise ValueError("bit index must be non-negative")
        key, offset = index >> CHUNK_BITS, index & _CHUNK_MASK
        container = self._containers.get(key)
        bits = container.to_bits() if container is not None else 0
        updated = bits | (1 << offset)
        if updated != bits:
            self._containers[key] = _Container.from_bits(updated)

    def get(self, index: int) -> bool:
        if index < 0:
            raise ValueError("bit index must be non-negative")
        container = self._containers.get(index >> CHUNK_BITS)
        if container is None:
            return False
        return container.get(index & _CHUNK_MASK)

    def cardinality(self) -> int:
        return sum(container.cardinality for container in self._containers.values())

    def to_int(self) -> int:
        value = 0
        for key, container in self._containers.items():
            value |= container.to_bits() << (key * CHUNK_SIZE)
        return value

    def iter_set_bits(self) -> Iterator[int]:
        for key in sorted(self._containers):
            base = key * CHUNK_SIZE
            for offset in self._containers[key].iter_values():
                yield base + offset

    def size_in_bytes(self) -> int:
        return sum(container.size_in_bytes() for container in self._containers.values())

    def container_kinds(self) -> Dict[str, int]:
        """How many containers use each representation (for inspection)."""
        counts = {ARRAY: 0, BITMAP: 0, RUN: 0}
        for container in self._containers.values():
            counts[container.kind] += 1
        return counts

    # ------------------------------------------------------------------
    # Binary operations (chunk-aligned)
    # ------------------------------------------------------------------

    def _binary(self, other: Bitset, op, keep_unmatched_self: bool, keep_unmatched_other: bool) -> "RoaringBitset":
        if not isinstance(other, RoaringBitset):
            other = RoaringBitset.from_int(other.to_int())
        result = RoaringBitset()
        keys = set(self._containers)
        keys.update(other._containers)
        for key in keys:
            mine = self._containers.get(key)
            theirs = other._containers.get(key)
            if mine is None and not keep_unmatched_other:
                continue
            if theirs is None and not keep_unmatched_self:
                continue
            bits = op(
                mine.to_bits() if mine is not None else 0,
                theirs.to_bits() if theirs is not None else 0,
            )
            if bits:
                result._containers[key] = _Container.from_bits(bits)
        return result

    def or_(self, other: Bitset) -> "RoaringBitset":
        return self._binary(other, lambda a, b: a | b, True, True)

    def and_(self, other: Bitset) -> "RoaringBitset":
        return self._binary(other, lambda a, b: a & b, False, False)

    def andnot(self, other: Bitset) -> "RoaringBitset":
        return self._binary(other, lambda a, b: a & ~b, True, False)

    def xor(self, other: Bitset) -> "RoaringBitset":
        return self._binary(other, lambda a, b: a ^ b, True, True)
