"""Unit tests for the MeSH ASCII descriptor parser/writer."""

from __future__ import annotations

import io

import pytest

from repro.hierarchy.generator import generate_hierarchy
from repro.hierarchy.mesh_loader import (
    DescriptorRecord,
    dump_mesh_ascii,
    hierarchy_from_records,
    load_mesh_ascii,
    parse_descriptor_records,
)

SAMPLE = """\
*NEWRECORD
RECTYPE = D
MH = Biological Phenomena
MN = G04
UI = D001686

*NEWRECORD
RECTYPE = D
MH = Cell Physiology
MN = G04.335
UI = D002468

*NEWRECORD
RECTYPE = D
MH = Apoptosis
MN = G04.335.122
MN = C23.550.717.182
UI = D017209

*NEWRECORD
RECTYPE = Q
SH = metabolism
UI = Q000378
"""


class TestParse:
    def test_parses_descriptor_records(self):
        records = parse_descriptor_records(io.StringIO(SAMPLE))
        assert [r.heading for r in records] == [
            "Biological Phenomena",
            "Cell Physiology",
            "Apoptosis",
        ]

    def test_non_descriptor_records_skipped(self):
        records = parse_descriptor_records(io.StringIO(SAMPLE))
        assert all(r.unique_id.startswith("D") for r in records)

    def test_multiple_tree_numbers_kept(self):
        records = parse_descriptor_records(io.StringIO(SAMPLE))
        apoptosis = records[2]
        assert apoptosis.tree_numbers == ["G04.335.122", "C23.550.717.182"]

    def test_missing_heading_raises(self):
        bad = "*NEWRECORD\nRECTYPE = D\nUI = D000001\n"
        with pytest.raises(ValueError):
            parse_descriptor_records(io.StringIO(bad))

    def test_missing_ui_raises(self):
        bad = "*NEWRECORD\nRECTYPE = D\nMH = Something\n"
        with pytest.raises(ValueError):
            parse_descriptor_records(io.StringIO(bad))

    def test_empty_input(self):
        assert parse_descriptor_records(io.StringIO("")) == []


class TestBuildHierarchy:
    def test_structure_follows_tree_numbers(self):
        hierarchy = load_mesh_ascii(io.StringIO(SAMPLE))
        apoptosis = hierarchy.by_uid("D017209")
        assert hierarchy.label(apoptosis) == "Apoptosis"
        assert hierarchy.label(hierarchy.parent(apoptosis)) == "Cell Physiology"
        assert (
            hierarchy.label(hierarchy.parent(hierarchy.parent(apoptosis)))
            == "Biological Phenomena"
        )

    def test_polyhierarchy_duplicates_descriptor(self):
        hierarchy = load_mesh_ascii(io.StringIO(SAMPLE))
        # The C23... occurrence gets a suffixed uid and placeholder parents.
        second = hierarchy.by_uid("D017209.1")
        assert hierarchy.label(second) == "Apoptosis"

    def test_placeholders_materialized_for_missing_intermediates(self):
        hierarchy = load_mesh_ascii(io.StringIO(SAMPLE))
        second = hierarchy.by_uid("D017209.1")
        parent = hierarchy.parent(second)
        assert hierarchy.label(parent).startswith("[C23")

    def test_duplicate_tree_number_rejected(self):
        records = [
            DescriptorRecord("A", "D1", ["G01"]),
            DescriptorRecord("B", "D2", ["G01"]),
        ]
        with pytest.raises(ValueError):
            hierarchy_from_records(records)

    def test_record_without_tree_numbers_is_skipped(self):
        records = [DescriptorRecord("Orphan", "D9", [])]
        hierarchy = hierarchy_from_records(records)
        assert len(hierarchy) == 1  # root only


class TestRoundTrip:
    def test_dump_and_reload_preserves_structure(self):
        original = generate_hierarchy(target_size=60, seed=13)
        buffer = io.StringIO()
        written = dump_mesh_ascii(original, buffer)
        assert written == len(original) - 1
        reloaded = load_mesh_ascii(io.StringIO(buffer.getvalue()))
        assert len(reloaded) == len(original)
        # Same label multiset and same parent labels per node.
        original_edges = sorted(
            (original.label(n), original.label(original.parent(n)))
            for n in range(1, len(original))
        )
        reloaded_edges = sorted(
            (reloaded.label(n), reloaded.label(reloaded.parent(n)))
            for n in range(1, len(reloaded))
        )
        assert original_edges == reloaded_edges

    def test_dump_includes_all_fields(self):
        hierarchy = generate_hierarchy(target_size=10, seed=1)
        buffer = io.StringIO()
        dump_mesh_ascii(hierarchy, buffer)
        text = buffer.getvalue()
        assert "*NEWRECORD" in text
        assert "MH = " in text
        assert "MN = " in text
        assert "UI = " in text
