"""Roaring-style compressed bitmaps over citation ordinals.

Per-concept citation sets at MEDLINE scale are too large for Python sets
and too sparse for flat bitmaps, so the substrate stores them the way
roaring bitmaps do: the 32-bit ordinal universe is split into 2^16-value
chunks keyed by the high 16 bits, and each chunk holds either

* an **array container** — the low 16 bits as a sorted ``uint16`` array,
  used while the chunk's cardinality is at most ``array_max`` — or
* a **bitmap container** — 8192 packed ``uint8`` bytes (65536 bits,
  MSB-first within each byte, the ``np.packbits`` default), used for
  dense chunks.

The bitmap payloads share their layout with the packed citation rows
of Opt-EdgeCut (:mod:`repro.core.opt_edgecut`): unions are
``np.bitwise_or`` and cardinalities are :data:`POPCOUNT_TABLE` lookups,
so a container plugs straight into those kernels
(:meth:`RoaringBitmap.to_packed` produces a kernel-compatible row).

Containers are kept *canonical* — an array container never exceeds
``array_max`` values and a bitmap container always exceeds it — so two
bitmaps holding the same values are structurally identical and the
serialized form is deterministic, which the build-manifest determinism
gate relies on.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RoaringBitmap",
    "ARRAY_CONTAINER_MAX",
    "BITMAP_CONTAINER_BYTES",
    "POPCOUNT_TABLE",
    "intersect_serialized",
]

#: Bits set per byte value; ``POPCOUNT_TABLE[packed].sum()`` is the
#: population count of a packed bitmap.
POPCOUNT_TABLE = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)
POPCOUNT_TABLE.setflags(write=False)

#: Classic roaring threshold: chunks with at most this many values stay
#: sorted-array containers (2 bytes/value); denser chunks flip to packed
#: bitmaps (fixed 8192 bytes).
ARRAY_CONTAINER_MAX = 4096

#: Size of one bitmap container payload: 2^16 bits packed 8 per byte.
BITMAP_CONTAINER_BYTES = 1 << 13

_CHUNK_BITS = 16
_CHUNK_SIZE = 1 << _CHUNK_BITS

_ARRAY_KIND = 0
_BITMAP_KIND = 1

# Serialized layout (little-endian): a bitmap is ``<I`` container count
# followed by one ``<HBI`` header (key, kind, cardinality) plus payload
# per container.  Array payloads are ``cardinality`` uint16 values;
# bitmap payloads are exactly BITMAP_CONTAINER_BYTES bytes.
_HEADER = struct.Struct("<I")
_CONTAINER = struct.Struct("<HBI")

# MSB-first bit masks: value ``v`` lives in byte ``v >> 3`` under mask
# ``0x80 >> (v & 7)`` — the same orientation as np.packbits and
# Opt-EdgeCut's packed rows.
_BIT_MASKS = (np.uint8(0x80) >> np.arange(8, dtype=np.uint8)).astype(np.uint8)


def _pack_low16(values: np.ndarray) -> np.ndarray:
    """Pack sorted low-16-bit values into one 8192-byte bitmap payload."""
    bits = np.zeros(_CHUNK_SIZE, dtype=np.uint8)
    bits[values] = 1
    return np.packbits(bits)


def _unpack_payload(payload: np.ndarray) -> np.ndarray:
    """Sorted uint16 values of one bitmap payload."""
    return np.flatnonzero(np.unpackbits(payload)).astype(np.uint16)


class RoaringBitmap:
    """A compressed set of uint32 citation ordinals.

    Instances are immutable once built; all operations return new
    bitmaps.  Build with :meth:`from_sorted` (vectorized, the builder's
    path) or :meth:`from_values` (sorts and dedupes first).

    Args:
        array_max: array→bitmap flip threshold.  The default is the
            classic roaring 4096; tests pass small values to exercise
            threshold crossings cheaply.
    """

    __slots__ = ("_keys", "_payloads", "array_max")

    def __init__(self, array_max: int = ARRAY_CONTAINER_MAX):
        if not 0 < array_max < _CHUNK_SIZE:
            raise ValueError("array_max must be in [1, 65535]")
        self._keys: List[int] = []
        self._payloads: List[np.ndarray] = []
        self.array_max = array_max

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(
        cls, values: np.ndarray, array_max: int = ARRAY_CONTAINER_MAX
    ) -> "RoaringBitmap":
        """Build from a sorted, duplicate-free array of ordinals."""
        bitmap = cls(array_max=array_max)
        values = np.asarray(values, dtype=np.uint32)
        if values.size == 0:
            return bitmap
        highs = (values >> _CHUNK_BITS).astype(np.uint32)
        lows = (values & (_CHUNK_SIZE - 1)).astype(np.uint16)
        # Sorted input: chunk boundaries are where the high bits change.
        starts = np.flatnonzero(highs[1:] != highs[:-1]) + 1
        bounds = [0] + starts.tolist() + [values.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            bitmap._append_container(int(highs[lo]), lows[lo:hi])
        return bitmap

    @classmethod
    def from_values(
        cls, values: Iterable[int], array_max: int = ARRAY_CONTAINER_MAX
    ) -> "RoaringBitmap":
        """Build from any iterable of ordinals (sorted and deduped here)."""
        arr = np.unique(np.fromiter(values, dtype=np.uint32))
        return cls.from_sorted(arr, array_max=array_max)

    def _append_container(self, key: int, lows: np.ndarray) -> None:
        """Append one chunk's sorted low bits in canonical form."""
        if lows.size == 0:
            return
        if lows.size <= self.array_max:
            payload = np.ascontiguousarray(lows, dtype=np.uint16)
        else:
            payload = _pack_low16(lows)
        self._keys.append(key)
        self._payloads.append(payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _is_array(payload: np.ndarray) -> bool:
        return payload.dtype == np.uint16

    @property
    def container_kinds(self) -> Tuple[str, ...]:
        """``"array"``/``"bitmap"`` per container, in key order."""
        return tuple(
            "array" if self._is_array(p) else "bitmap" for p in self._payloads
        )

    def __len__(self) -> int:
        total = 0
        for payload in self._payloads:
            if self._is_array(payload):
                total += payload.size
            else:
                total += int(POPCOUNT_TABLE[payload].sum())
        return total

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __contains__(self, value: int) -> bool:
        key, low = value >> _CHUNK_BITS, value & (_CHUNK_SIZE - 1)
        try:
            slot = self._keys.index(key)
        except ValueError:
            return False
        payload = self._payloads[slot]
        if self._is_array(payload):
            pos = int(np.searchsorted(payload, low))
            return pos < payload.size and int(payload[pos]) == low
        return bool(payload[low >> 3] & _BIT_MASKS[low & 7])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        if self._keys != other._keys:
            return False
        return all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self._payloads, other._payloads)
        )

    def __hash__(self) -> int:  # immutable by convention
        return hash((tuple(self._keys), len(self)))

    def to_array(self) -> np.ndarray:
        """All ordinals as a sorted uint32 array."""
        pieces: List[np.ndarray] = []
        for key, payload in zip(self._keys, self._payloads):
            lows = payload if self._is_array(payload) else _unpack_payload(payload)
            pieces.append(lows.astype(np.uint32) | np.uint32(key << _CHUNK_BITS))
        if not pieces:
            return np.empty(0, dtype=np.uint32)
        return np.concatenate(pieces)

    def to_packed(self, universe: int) -> np.ndarray:
        """One packed row over ``universe`` bits.

        Bit ``j`` (MSB-first within each byte) is set iff ordinal ``j``
        is a member — the ``np.packbits`` layout, so the result feeds
        :data:`POPCOUNT_TABLE` and ``bitwise_or`` kernels directly.
        """
        row = np.zeros((universe + 7) >> 3, dtype=np.uint8)
        for key, payload in zip(self._keys, self._payloads):
            base = key << _CHUNK_BITS
            if base >= universe:
                raise ValueError("ordinal %d outside universe %d" % (base, universe))
            if self._is_array(payload):
                values = payload.astype(np.int64) + base
                if values.size and int(values[-1]) >= universe:
                    raise ValueError("ordinal outside universe %d" % universe)
                np.bitwise_or.at(row, values >> 3, _BIT_MASKS[values & 7])
            else:
                # Whole-chunk copy: the container's byte layout is the
                # row's byte layout, shifted by the chunk base.
                start = base >> 3
                stop = min(start + BITMAP_CONTAINER_BYTES, row.size)
                np.bitwise_or(
                    row[start:stop], payload[: stop - start], out=row[start:stop]
                )
                spill = _unpack_payload(payload)
                if spill.size and base + int(spill[-1]) >= universe:
                    raise ValueError("ordinal outside universe %d" % universe)
        return row

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "RoaringBitmap") -> "RoaringBitmap":
        """Set union; the result inherits ``self.array_max``."""
        out = RoaringBitmap(array_max=self.array_max)
        i = j = 0
        while i < len(self._keys) or j < len(other._keys):
            if j >= len(other._keys) or (
                i < len(self._keys) and self._keys[i] < other._keys[j]
            ):
                out._adopt(self._keys[i], self._payloads[i])
                i += 1
            elif i >= len(self._keys) or other._keys[j] < self._keys[i]:
                out._adopt(other._keys[j], other._payloads[j])
                j += 1
            else:
                merged = self._union_payloads(self._payloads[i], other._payloads[j])
                out._append_container(self._keys[i], merged)
                i += 1
                j += 1
        return out

    def intersect(self, other: "RoaringBitmap") -> "RoaringBitmap":
        """Set intersection; the result inherits ``self.array_max``."""
        out = RoaringBitmap(array_max=self.array_max)
        i = j = 0
        while i < len(self._keys) and j < len(other._keys):
            if self._keys[i] < other._keys[j]:
                i += 1
            elif other._keys[j] < self._keys[i]:
                j += 1
            else:
                lows = self._intersect_payloads(self._payloads[i], other._payloads[j])
                out._append_container(self._keys[i], lows)
                i += 1
                j += 1
        return out

    @staticmethod
    def intersect_many(bitmaps: Sequence["RoaringBitmap"]) -> "RoaringBitmap":
        """AND of several bitmaps, smallest-first to shrink intermediates."""
        if not bitmaps:
            raise ValueError("intersect_many needs at least one bitmap")
        ordered = sorted(bitmaps, key=len)
        result = ordered[0]
        for bitmap in ordered[1:]:
            if not result:
                break
            result = result.intersect(bitmap)
        return result

    def _adopt(self, key: int, payload: np.ndarray) -> None:
        """Copy one container verbatim, re-canonicalizing for our threshold."""
        if self._is_array(payload):
            self._append_container(key, payload)
        else:
            count = int(POPCOUNT_TABLE[payload].sum())
            if count <= self.array_max:
                self._append_container(key, _unpack_payload(payload))
            else:
                self._keys.append(key)
                self._payloads.append(payload.copy())

    def _union_payloads(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sorted low bits of the union of two same-key containers."""
        if self._is_array(a) and self._is_array(b):
            return np.union1d(a, b).astype(np.uint16)
        bits_a = a if not self._is_array(a) else _pack_low16(a)
        bits_b = b if not self._is_array(b) else _pack_low16(b)
        return _unpack_payload(np.bitwise_or(bits_a, bits_b))

    def _intersect_payloads(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sorted low bits of the intersection of two same-key containers."""
        a_is_array = self._is_array(a)
        b_is_array = self._is_array(b)
        if a_is_array and b_is_array:
            return np.intersect1d(a, b).astype(np.uint16)
        if a_is_array or b_is_array:
            values, bits = (a, b) if a_is_array else (b, a)
            hits = (bits[values >> 3] & _BIT_MASKS[values & 7]) != 0
            return values[hits]
        return _unpack_payload(np.bitwise_and(a, b))

    # ------------------------------------------------------------------
    # Serialization (the on-disk per-concept blob format)
    # ------------------------------------------------------------------
    def serialize(self) -> bytes:
        """Deterministic little-endian byte form (see module docstring)."""
        parts = [_HEADER.pack(len(self._keys))]
        for key, payload in zip(self._keys, self._payloads):
            if self._is_array(payload):
                parts.append(_CONTAINER.pack(key, _ARRAY_KIND, payload.size))
                parts.append(payload.astype("<u2", copy=False).tobytes())
            else:
                count = int(POPCOUNT_TABLE[payload].sum())
                parts.append(_CONTAINER.pack(key, _BITMAP_KIND, count))
                parts.append(payload.tobytes())
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls,
        buffer: bytes,
        offset: int = 0,
        array_max: int = ARRAY_CONTAINER_MAX,
        length: Optional[int] = None,
    ) -> "RoaringBitmap":
        """Rebuild a bitmap serialized by :meth:`serialize`.

        Args:
            buffer: bytes-like object (a memmapped blob slice works:
                pass the raw ``np.memmap`` and an ``offset``).
            offset: byte position where the bitmap starts.
            array_max: threshold the bitmap was built with.
            length: expected byte length; validated when given.
        """
        view = memoryview(buffer)
        start = offset
        (n_containers,) = _HEADER.unpack_from(view, offset)
        offset += _HEADER.size
        bitmap = cls(array_max=array_max)
        for _ in range(n_containers):
            key, kind, count = _CONTAINER.unpack_from(view, offset)
            offset += _CONTAINER.size
            if kind == _ARRAY_KIND:
                payload = np.frombuffer(view, dtype="<u2", count=count, offset=offset)
                offset += 2 * count
                bitmap._keys.append(key)
                bitmap._payloads.append(payload.astype(np.uint16))
            elif kind == _BITMAP_KIND:
                payload = np.frombuffer(
                    view, dtype=np.uint8, count=BITMAP_CONTAINER_BYTES, offset=offset
                )
                offset += BITMAP_CONTAINER_BYTES
                bitmap._keys.append(key)
                bitmap._payloads.append(payload.copy())
            else:
                raise ValueError("unknown container kind %d" % kind)
        if length is not None and offset - start != length:
            raise ValueError(
                "bitmap length mismatch: read %d bytes, expected %d"
                % (offset - start, length)
            )
        return bitmap

    def byte_size(self) -> int:
        """Length of :meth:`serialize` output without materializing it."""
        total = _HEADER.size
        for payload in self._payloads:
            total += _CONTAINER.size
            total += 2 * payload.size if self._is_array(payload) else payload.size
        return total


# ----------------------------------------------------------------------
# Kernel-level intersection over the serialized blob
# ----------------------------------------------------------------------
#
# ``MmapStore.boolean_and`` used to deserialize every concept's whole
# bitmap (copying every container payload out of the mmap) only to throw
# most of it away during the intersection.  The functions below work on
# the serialized form directly: a cheap directory scan finds each
# bitmap's container keys (at most ``universe / 2^16`` of them — 16 for
# a 1M-citation corpus), key galloping keeps only the keys present in
# *every* operand, and just those containers are touched — bitmap×bitmap
# as ``np.bitwise_and`` over zero-copy payload views with a single
# unpack of the final result, array×anything by galloping the smallest
# array through byte/bit membership tests.


def _scan_directory(
    view: memoryview, offset: int, length: int
) -> List[Tuple[int, int, int, int]]:
    """Container directory of one serialized bitmap.

    Returns ``(key, kind, cardinality, payload_offset)`` per container,
    in ascending key order (the canonical serialization order), without
    copying any payload bytes.
    """
    end = offset + length
    (n_containers,) = _HEADER.unpack_from(view, offset)
    offset += _HEADER.size
    directory: List[Tuple[int, int, int, int]] = []
    for _ in range(n_containers):
        key, kind, count = _CONTAINER.unpack_from(view, offset)
        offset += _CONTAINER.size
        directory.append((key, kind, count, offset))
        if kind == _ARRAY_KIND:
            offset += 2 * count
        elif kind == _BITMAP_KIND:
            offset += BITMAP_CONTAINER_BYTES
        else:
            raise ValueError("unknown container kind %d" % kind)
    if offset > end:
        raise ValueError(
            "serialized bitmap overruns its span: read to %d, span ends %d"
            % (offset, end)
        )
    return directory


def _array_view(view: memoryview, entry: Tuple[int, int, int, int]) -> np.ndarray:
    """Zero-copy uint16 view of an array container's payload."""
    _, _, count, payload_offset = entry
    return np.frombuffer(view, dtype="<u2", count=count, offset=payload_offset)


def _bitmap_view(view: memoryview, entry: Tuple[int, int, int, int]) -> np.ndarray:
    """Zero-copy uint8 view of a bitmap container's payload."""
    _, _, _, payload_offset = entry
    return np.frombuffer(
        view, dtype=np.uint8, count=BITMAP_CONTAINER_BYTES, offset=payload_offset
    )


def _intersect_key_group(
    view: memoryview, entries: List[Tuple[int, int, int, int]]
) -> np.ndarray:
    """Sorted low-16-bit values common to every same-key container."""
    arrays = [e for e in entries if e[1] == _ARRAY_KIND]
    bitmaps = [e for e in entries if e[1] == _BITMAP_KIND]
    if not arrays:
        # All-dense chunk: AND the packed payloads byte-wise and unpack
        # only the final result.
        first = _bitmap_view(view, bitmaps[0])
        if len(bitmaps) == 1:
            return _unpack_payload(first)
        acc = np.bitwise_and(first, _bitmap_view(view, bitmaps[1]))
        for entry in bitmaps[2:]:
            np.bitwise_and(acc, _bitmap_view(view, entry), out=acc)
        return _unpack_payload(acc)
    # Gallop the smallest array through the other containers: sparse
    # candidates shrink monotonically, and bitmap membership is a
    # byte-index + bit-mask gather.
    arrays.sort(key=lambda entry: entry[2])
    values = _array_view(view, arrays[0])
    for entry in arrays[1:]:
        if values.size == 0:
            break
        values = np.intersect1d(
            values, _array_view(view, entry), assume_unique=True
        )
    for entry in bitmaps:
        if values.size == 0:
            break
        bits = _bitmap_view(view, entry)
        hits = (bits[values >> 3] & _BIT_MASKS[values & 7]) != 0
        values = values[hits]
    return np.ascontiguousarray(values, dtype=np.uint16)


def intersect_serialized(
    buffer: "bytes | np.ndarray",
    spans: Sequence[Tuple[int, int]],
    array_max: int = ARRAY_CONTAINER_MAX,  # noqa: ARG001 - layout symmetry
) -> np.ndarray:
    """AND of several serialized bitmaps, straight off the blob.

    Args:
        buffer: bytes-like object holding the serialized bitmaps (the
            substrate's memmapped ``bitmap_blob.npy`` works unchanged).
        spans: ``(offset, length)`` byte span of each operand bitmap.
        array_max: accepted for signature symmetry with
            :meth:`RoaringBitmap.deserialize`; the intersection itself
            never re-canonicalizes, so the threshold does not matter.

    Returns:
        Sorted ``uint32`` ordinals present in *every* operand.  Never
        inflates a non-matching container: only payloads whose 16-bit
        key survives the gallop across all directories are read at all.
    """
    if not spans:
        raise ValueError("intersect_serialized needs at least one span")
    view = memoryview(buffer)
    directories = [
        _scan_directory(view, offset, length) for offset, length in spans
    ]
    # Key gallop: keys common to all directories, smallest-first so the
    # candidate set only shrinks.
    directories.sort(key=len)
    key_maps = [
        {entry[0]: entry for entry in directory} for directory in directories
    ]
    common_keys = [
        key
        for key in key_maps[0]
        if all(key in other for other in key_maps[1:])
    ]
    common_keys.sort()
    pieces: List[np.ndarray] = []
    for key in common_keys:
        lows = _intersect_key_group(view, [m[key] for m in key_maps])
        if lows.size:
            pieces.append(lows.astype(np.uint32) | np.uint32(key << _CHUNK_BITS))
    if not pieces:
        return np.empty(0, dtype=np.uint32)
    return np.concatenate(pieces)
