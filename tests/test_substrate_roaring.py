"""Property-based suite for the roaring citation-ordinal bitmaps.

Hypothesis drives the container machinery against a plain Python-set
oracle: membership, cardinality, union/intersection, serialization
round-trips (including through an on-disk uint8 memmap, the exact shape
``MmapStore`` deserializes from), and array↔bitmap threshold crossings
with deliberately tiny ``array_max`` values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrate.roaring import (
    ARRAY_CONTAINER_MAX,
    BITMAP_CONTAINER_BYTES,
    POPCOUNT_TABLE,
    RoaringBitmap,
)

# Ordinals spanning several 2^16 chunks, so multi-container bitmaps are
# routinely generated; small array_max values force threshold crossings.
ordinal_sets = st.sets(st.integers(min_value=0, max_value=1 << 18), max_size=300)
small_array_max = st.integers(min_value=1, max_value=16)


def from_set(values, array_max=ARRAY_CONTAINER_MAX):
    return RoaringBitmap.from_values(values, array_max=array_max) if values else (
        RoaringBitmap.from_sorted(np.empty(0, dtype=np.uint32), array_max=array_max)
    )


class TestOracle:
    @given(ordinal_sets, small_array_max)
    @settings(max_examples=60, deadline=None)
    def test_membership_and_cardinality(self, values, array_max):
        bitmap = from_set(values, array_max)
        assert len(bitmap) == len(values)
        assert set(bitmap.to_array().tolist()) == values
        for probe in list(values)[:10]:
            assert probe in bitmap
        missing = max(values) + 1 if values else 0
        assert missing not in bitmap

    @given(ordinal_sets, ordinal_sets, small_array_max)
    @settings(max_examples=60, deadline=None)
    def test_union_and_intersection_match_sets(self, a, b, array_max):
        ba, bb = from_set(a, array_max), from_set(b, array_max)
        assert set(ba.union(bb).to_array().tolist()) == (a | b)
        assert set(ba.intersect(bb).to_array().tolist()) == (a & b)

    @given(ordinal_sets, ordinal_sets)
    @settings(max_examples=40, deadline=None)
    def test_union_is_commutative_and_canonical(self, a, b):
        ba, bb = from_set(a), from_set(b)
        assert ba.union(bb) == bb.union(ba)

    @given(ordinal_sets, small_array_max)
    @settings(max_examples=60, deadline=None)
    def test_threshold_crossing_stays_canonical(self, values, array_max):
        bitmap = from_set(values, array_max)
        # Canonical form: array containers hold at most array_max values,
        # bitmap containers strictly more.
        for key, payload in zip(bitmap._keys, bitmap._payloads):
            if payload.dtype == np.uint16:
                assert payload.size <= array_max
            else:
                assert int(POPCOUNT_TABLE[payload].sum()) > array_max
        # Same values built at the classic threshold agree as sets.
        assert set(bitmap.to_array().tolist()) == values


class TestSerialization:
    @given(ordinal_sets, small_array_max)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_equality(self, values, array_max):
        bitmap = from_set(values, array_max)
        data = bitmap.serialize()
        assert len(data) == bitmap.byte_size()
        back = RoaringBitmap.deserialize(data, array_max=array_max, length=len(data))
        assert back == bitmap
        assert set(back.to_array().tolist()) == values

    @given(a=ordinal_sets, b=ordinal_sets, array_max=small_array_max)
    @settings(max_examples=30, deadline=None)
    def test_mmap_round_trip(self, a, b, array_max, tmp_path_factory):
        # Two bitmaps concatenated into one blob file, reopened as a
        # read-only memmap and deserialized by (offset, length) — the
        # MmapStore access pattern.
        tmp_path = tmp_path_factory.mktemp("blob")
        ba, bb = from_set(a, array_max), from_set(b, array_max)
        blob = ba.serialize() + bb.serialize()
        path = tmp_path / "blob.npy"
        np.save(path, np.frombuffer(blob, dtype=np.uint8))
        view = np.load(path, mmap_mode="r")
        first = RoaringBitmap.deserialize(
            view, offset=0, array_max=array_max, length=ba.byte_size()
        )
        second = RoaringBitmap.deserialize(
            view, offset=ba.byte_size(), array_max=array_max, length=bb.byte_size()
        )
        assert first == ba
        assert second == bb

    def test_length_mismatch_rejected(self):
        bitmap = from_set({1, 2, 3})
        data = bitmap.serialize()
        with pytest.raises(ValueError):
            RoaringBitmap.deserialize(data, length=len(data) + 4)

    def test_deterministic_bytes(self):
        values = set(range(0, 9000, 2)) | {70_000, 70_001}
        assert from_set(values).serialize() == from_set(values).serialize()


class TestPackedInterop:
    @given(ordinal_sets)
    @settings(max_examples=40, deadline=None)
    def test_to_packed_matches_packbits_layout(self, values):
        universe = (max(values) + 1) if values else 8
        row = from_set(values).to_packed(universe)
        assert row.dtype == np.uint8
        assert row.size == (universe + 7) >> 3
        assert int(POPCOUNT_TABLE[row].sum()) == len(values)
        bits = np.unpackbits(row)[:universe]
        assert set(np.flatnonzero(bits).tolist()) == values

    def test_dense_chunk_copies_whole_container(self):
        values = set(range(0, 6000))  # > ARRAY_CONTAINER_MAX: bitmap container
        bitmap = from_set(values)
        assert bitmap.container_kinds == ("bitmap",)
        row = bitmap.to_packed(1 << 16)
        assert row.size == BITMAP_CONTAINER_BYTES
        assert int(POPCOUNT_TABLE[row].sum()) == len(values)

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            from_set({100}).to_packed(50)


class TestIntersectMany:
    def test_smallest_first_and_empty_short_circuit(self):
        a = from_set(set(range(100)))
        b = from_set(set(range(50, 150)))
        c = from_set({60, 61})
        out = RoaringBitmap.intersect_many([a, b, c])
        assert set(out.to_array().tolist()) == {60, 61}
        assert not RoaringBitmap.intersect_many([a, from_set(set())])

    def test_requires_input(self):
        with pytest.raises(ValueError):
            RoaringBitmap.intersect_many([])
