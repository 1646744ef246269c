"""Unit tests for the streaming substrate builder and its stores.

Covers the offline build (CSR consistency, counts, determinism gate),
the ``MmapStore`` reopening path (zero-copy arrays, pickle-by-path,
hierarchy round-trip), the synthetic chunk stream, the build CLI, and
the streaming corpus persistence/loader paths the builder ingests from.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.corpus.citation import Citation
from repro.corpus.loader import stream_medline_text
from repro.corpus.persistence import read_citations_jsonl, write_citations_jsonl
from repro.hierarchy.generator import (
    MESH_2008_SEED,
    generate_hierarchy,
    mesh_2008_hierarchy,
)
from repro.substrate import (
    MmapStore,
    SubstrateBuilder,
    SynthSpec,
    citation_chunks,
    synthetic_background,
    synthetic_chunks,
)
from repro.substrate.build import main as build_main


@pytest.fixture(scope="module")
def small_hierarchy():
    return generate_hierarchy(target_size=120, seed=7)


def toy_citations(n=400, num_concepts=120, seed=3):
    rng = np.random.default_rng(seed)
    citations = []
    for i in range(n):
        concepts = tuple(
            sorted(set(rng.integers(0, num_concepts, size=rng.integers(1, 9)).tolist()))
        )
        citations.append(
            Citation(
                pmid=20_000_000 + i,
                title="Citation %d" % i,
                year=int(1990 + (i % 19)),
                index_concepts=concepts,
            )
        )
    return citations


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory, small_hierarchy):
    out = tmp_path_factory.mktemp("substrate")
    citations = toy_citations()
    background = {c: 100 + c for c in range(len(small_hierarchy))}
    builder = SubstrateBuilder(str(out), num_concepts=len(small_hierarchy))
    manifest = builder.build(
        citation_chunks(iter(citations), chunk_size=64),
        hierarchy=small_hierarchy,
        background=background,
        meta={"seed": 3},
    )
    return out, citations, background, manifest


class TestBuilder:
    def test_manifest_counts(self, built_dir):
        _, citations, _, manifest = built_dir
        assert manifest.citations == len(citations)
        assert manifest.pairs == sum(len(set(c.concepts)) for c in citations)
        assert len(manifest.digest) == 64

    def test_csr_tables_cross_consistent(self, built_dir):
        out, citations, _, _ = built_dir
        store = MmapStore.open(str(out))
        by_pmid = {c.pmid: tuple(sorted(set(c.concepts))) for c in citations}
        for citation in citations[::37]:
            assert store.concepts_of(citation.pmid) == by_pmid[citation.pmid]
        # concept-major view inverts the citation-major view exactly
        concept = citations[0].concepts[0]
        members = store.citations_for_concept(concept)
        expected = sorted(p for p, cs in by_pmid.items() if concept in cs)
        assert members.tolist() == expected

    def test_counts_and_lt(self, built_dir):
        out, citations, background, _ = built_dir
        store = MmapStore.open(str(out))
        concept = citations[5].concepts[-1]
        n = sum(1 for c in citations if concept in c.concepts)
        assert store.result_count(concept) == n
        assert store.medline_count(concept) == n + background[concept]

    def test_determinism_gate_same_seed_same_digest(self, tmp_path, small_hierarchy):
        background = synthetic_background(len(small_hierarchy), seed=5)
        digests = []
        for name in ("a", "b"):
            builder = SubstrateBuilder(
                str(tmp_path / name), num_concepts=len(small_hierarchy)
            )
            spec = SynthSpec(
                citations=2000, num_concepts=len(small_hierarchy), seed=5, chunk_size=256
            )
            manifest = builder.build(
                synthetic_chunks(spec),
                hierarchy=small_hierarchy,
                background=background,
                meta={"seed": 5},
            )
            digests.append(manifest.digest)
        assert digests[0] == digests[1]
        manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest_a["files"] == manifest_b["files"]

    def test_rejects_unsorted_pmids(self, tmp_path, small_hierarchy):
        citations = toy_citations(20)
        citations.reverse()
        builder = SubstrateBuilder(str(tmp_path), num_concepts=len(small_hierarchy))
        with pytest.raises(ValueError):
            builder.build(citation_chunks(iter(citations)))

    def test_rejects_out_of_range_concepts(self, tmp_path):
        citations = [Citation(pmid=1, title="x", index_concepts=(999,))]
        builder = SubstrateBuilder(str(tmp_path), num_concepts=10)
        with pytest.raises(ValueError):
            builder.build(citation_chunks(iter(citations)))

    def test_empty_stream_builds_empty_store(self, tmp_path):
        builder = SubstrateBuilder(str(tmp_path), num_concepts=10)
        manifest = builder.build(iter(()))
        store = MmapStore.open(str(tmp_path))
        assert manifest.citations == 0 and len(store) == 0
        assert store.boolean_and([3]).size == 0


class TestMmapStore:
    def test_manifest_digest_and_info(self, built_dir):
        out, citations, _, manifest = built_dir
        store = MmapStore.open(str(out))
        assert store.manifest_digest == manifest.digest
        info = store.store_info()
        assert info["backend"] == "mmap"
        assert info["citations"] == len(citations)
        assert info["manifest"] == manifest.digest

    def test_arrays_are_memory_mapped(self, built_dir):
        out, _, _, _ = built_dir
        store = MmapStore.open(str(out))
        assert isinstance(store.pmid_array(), np.memmap)

    def test_pickle_reopens_by_path(self, built_dir):
        out, citations, _, manifest = built_dir
        store = MmapStore.open(str(out))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone.manifest_digest == manifest.digest
        assert clone.summaries([citations[0].pmid])[0].pmid == citations[0].pmid

    def test_hierarchy_round_trips(self, built_dir, small_hierarchy):
        out, _, _, _ = built_dir
        store = MmapStore.open(str(out))
        assert store.hierarchy().to_records() == small_hierarchy.to_records()

    def test_unknown_pmid_raises(self, built_dir):
        out, _, _, _ = built_dir
        store = MmapStore.open(str(out))
        with pytest.raises(KeyError):
            store.summaries([1])
        assert 1 not in store.pmids()

    def test_boolean_and_matches_set_oracle(self, built_dir):
        out, citations, _, _ = built_dir
        store = MmapStore.open(str(out))
        a, b = citations[0].concepts[0], citations[1].concepts[-1]
        expected = sorted(
            c.pmid for c in citations if a in c.concepts and b in c.concepts
        )
        assert store.boolean_and([a, b]).tolist() == expected


class TestSynthStream:
    def test_chunks_are_valid_builder_input(self):
        spec = SynthSpec(citations=1000, num_concepts=500, seed=1, chunk_size=128)
        total = 0
        last = -1
        for chunk in synthetic_chunks(spec):
            total += chunk.pmids.size
            assert int(chunk.pmids[0]) > last
            last = int(chunk.pmids[-1])
            assert int(chunk.lengths.sum()) == chunk.concepts.size
            assert chunk.lengths.min() >= 1
        assert total == 1000

    def test_stream_is_reproducible(self):
        spec = SynthSpec(citations=300, num_concepts=200, seed=9, chunk_size=64)
        first = [c.concepts.tolist() for c in synthetic_chunks(spec)]
        second = [c.concepts.tolist() for c in synthetic_chunks(spec)]
        assert first == second

    def test_background_is_deterministic(self):
        assert np.array_equal(
            synthetic_background(100, seed=2), synthetic_background(100, seed=2)
        )


class TestMesh2008Preset:
    def test_deterministic_and_mesh_shaped(self):
        first = mesh_2008_hierarchy()
        second = mesh_2008_hierarchy(seed=MESH_2008_SEED)
        assert len(first) == len(second)
        assert first.to_records()[:100] == second.to_records()[:100]
        # MeSH 2008 scale: ~48k descriptors (paper §VII).
        assert 40_000 <= len(first) <= 56_000

    def test_exposed_via_workload_scenarios(self):
        from repro.workload.scenarios import paper_scale_hierarchy

        hierarchy = paper_scale_hierarchy()
        assert len(hierarchy) == len(mesh_2008_hierarchy())


class TestStreamingPersistence:
    def test_write_read_round_trip_streams(self):
        citations = toy_citations(50)
        buffer = io.StringIO()
        written = write_citations_jsonl(
            iter(citations), buffer, background_counts={3: 77}
        )
        assert written == 50
        background, stream = read_citations_jsonl(io.StringIO(buffer.getvalue()))
        assert background == {3: 77}
        assert next(iter(stream)).pmid == citations[0].pmid

    def test_jsonl_stream_feeds_builder(self, tmp_path, small_hierarchy):
        citations = toy_citations(100)
        buffer = io.StringIO()
        write_citations_jsonl(iter(citations), buffer)
        _, stream = read_citations_jsonl(io.StringIO(buffer.getvalue()))
        builder = SubstrateBuilder(str(tmp_path), num_concepts=len(small_hierarchy))
        manifest = builder.build(citation_chunks(stream, chunk_size=16))
        assert manifest.citations == 100


class TestStreamingLoader:
    def test_stream_matches_eager_parse(self):
        text = (
            "PMID- 100\nTI  - First title\nDP  - 2005\n\n"
            "PMID- 200\nTI  - Second title\nDP  - 2007 Feb\n\n"
        )
        streamed = list(stream_medline_text(io.StringIO(text)))
        assert [c.pmid for c in streamed] == [100, 200]
        assert streamed[1].year == 2007

    def test_stream_is_lazy(self):
        def lines():
            yield "PMID- 1\n"
            yield "TI  - ok\n"
            yield "\n"
            raise AssertionError("second record must not be pulled eagerly")

        stream = stream_medline_text(lines())
        assert next(stream).pmid == 1


class TestBuildCli:
    def test_cli_builds_and_reports(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.substrate.build",
                "--out",
                str(tmp_path / "cli"),
                "--citations",
                "500",
                "--seed",
                "4",
                "--hierarchy-size",
                "150",
            ],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        report = json.loads(result.stdout)
        assert report["citations"] == 500
        assert report["max_rss_bytes"] > 0
        assert report["disk_bytes"] > 0
        store = MmapStore.open(str(tmp_path / "cli"))
        assert store.manifest_digest == report["digest"]
        assert store.hierarchy() is not None

    def test_disk_bytes_count_only_this_build(self, tmp_path, capsys):
        args = ["--citations", "300", "--seed", "4", "--hierarchy-size", "120"]
        stale = tmp_path / "stale"
        stale.mkdir()
        # A file an earlier build left behind is not part of this build.
        np.save(stale / "bitmap_blob.npy", np.zeros(4096, dtype=np.uint8))
        reports = []
        for out in (tmp_path / "fresh", stale):
            assert build_main(["--out", str(out)] + args) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["digest"] == reports[1]["digest"]
        assert reports[0]["disk_bytes"] == reports[1]["disk_bytes"]
