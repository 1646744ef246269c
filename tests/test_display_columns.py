"""ESummary, EFetch and ELink from the store's display columns.

The substrate carries paper §VII's display columns (title and author
blobs with CSR offsets), so the eutils client reads one corpus store.
These tests pin the batched column gather to the projections it
replaced: ``DocSummary.from_citation(medline.get(pmid))`` for ESummary
and the per-citation Python scan in ``tests/oracles/elink_reference.py``
for ELink, on the toy workload in both store forms; they also check the
synthetic stream's titles, build determinism, and that a broken or
older substrate (a display column or an association table that is not
a CSR, a cut-off file, hierarchy arrays that do not describe the
corpus's concepts) fails at open with ``SubstrateError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.corpus.citation import Citation, DocSummary
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.eutils.errors import RateLimitExceeded, UnknownIdError
from repro.hierarchy.concept import ConceptHierarchy
from repro.search.engine import SearchEngine
from repro.substrate import (
    MmapStore,
    SubstrateBuilder,
    SynthSpec,
    citation_chunks,
    medline_store,
    synthetic_chunks,
)
from repro.substrate.store import AUTHOR_SEPARATOR, FORMAT_VERSION, SubstrateError
from tests.oracles.elink_reference import related_by_scan


@pytest.fixture(scope="module")
def toy_stores(small_workload, tmp_path_factory):
    """The toy workload's in-memory store and the same build on disk."""
    memory = small_workload.database.store
    medline = small_workload.medline
    out = tmp_path_factory.mktemp("toy-substrate")
    builder = SubstrateBuilder(str(out), num_concepts=len(small_workload.hierarchy))
    builder.build(
        citation_chunks(medline.get(pmid) for pmid in medline.pmids()),
        hierarchy=small_workload.hierarchy,
        background=medline.background_counts(),
        meta=memory.manifest["meta"],
    )
    return {"memory": memory, "mmap": builder.open()}


def client_over(store: MmapStore, rate_limit=None) -> EntrezClient:
    return EntrezClient(store, SearchEngine(store), rate_limit=rate_limit)


def synthetic_store(
    citations: int = 300, seed: int = 5, out_dir=None, hierarchy=None
) -> MmapStore:
    spec = SynthSpec(citations=citations, num_concepts=60, seed=seed, chunk_size=128)
    builder = SubstrateBuilder(out_dir, num_concepts=60)
    builder.build(synthetic_chunks(spec), hierarchy=hierarchy, meta={"seed": seed})
    return builder.open()


def ternary_hierarchy(size: int) -> ConceptHierarchy:
    """A ``size``-concept tree, three children per node."""
    parents = [-1] + [(node - 1) // 3 for node in range(1, size)]
    return ConceptHierarchy.from_parents(parents, ["c%d" % n for n in range(size)])


class TestToyWorkloadEquivalence:
    @pytest.mark.parametrize("form", ["memory", "mmap"])
    def test_esummary_equals_citation_projection(self, small_workload, toy_stores, form):
        store = toy_stores[form]
        assert store.backend == form
        medline = small_workload.medline
        pmids = medline.pmids()
        expected = [DocSummary.from_citation(medline.get(pmid)) for pmid in pmids]
        assert client_over(store).esummary(pmids) == expected

    def test_both_forms_share_one_digest(self, toy_stores):
        assert toy_stores["memory"].manifest_digest == toy_stores["mmap"].manifest_digest

    @pytest.mark.parametrize("form", ["memory", "mmap"])
    def test_efetch_carries_display_fields_and_concepts(
        self, small_workload, toy_stores, form
    ):
        medline = small_workload.medline
        pmids = medline.pmids()[::7]
        for fetched, pmid in zip(client_over(toy_stores[form]).efetch(pmids), pmids):
            source = medline.get(pmid)
            assert (fetched.pmid, fetched.title, fetched.authors, fetched.year) == (
                source.pmid,
                source.title,
                source.authors,
                source.year,
            )
            assert fetched.index_concepts == tuple(sorted(set(source.concepts)))

    @pytest.mark.parametrize("form", ["memory", "mmap"])
    def test_elink_equals_python_scan(self, small_workload, toy_stores, form):
        medline = small_workload.medline
        client = client_over(toy_stores[form])
        for pmid in medline.pmids()[::97]:
            for retmax in (0, 5, 20, len(medline)):
                assert client.elink_related(pmid, retmax=retmax) == related_by_scan(
                    medline, pmid, retmax
                ), (pmid, retmax)

    def test_workload_client_reads_the_store(self, small_workload):
        medline = small_workload.medline
        pmid = medline.pmids()[3]
        assert small_workload.entrez.esummary([pmid]) == [
            DocSummary.from_citation(medline.get(pmid))
        ]


class TestBatchedLookup:
    def test_input_order_and_duplicates_kept(self, toy_stores):
        store = toy_stores["mmap"]
        a, b = store.pmids()[10], store.pmids()[2]
        assert [s.pmid for s in store.summaries([a, b, a, a])] == [a, b, a, a]

    def test_unknown_pmid_in_page_raises_naming_first(self, toy_stores):
        store = toy_stores["memory"]
        page = store.pmids()[:5]
        with pytest.raises(KeyError) as missing:
            store.summaries(page[:2] + [1, 2] + page[2:])
        assert missing.value.args[0] == 1
        with pytest.raises(UnknownIdError, match="unknown pmid 2"):
            client_over(store).esummary(page + [2])
        with pytest.raises(UnknownIdError):
            client_over(store).efetch([page[0], max(store.pmids()) + 1])

    def test_quota_counts_one_request_per_call(self, toy_stores):
        store = toy_stores["memory"]
        client = client_over(store, rate_limit=1)
        assert len(client.esummary(store.pmids()[:50])) == 50
        assert client.requests_served == 1
        with pytest.raises(RateLimitExceeded):
            client.esummary(store.pmids()[:1])

    def test_unicode_titles_and_authors_round_trip(self):
        medline = MedlineDatabase()
        medline.add(Citation(pmid=3, title="Übersicht – α-Helices", authors=("Müller J", "Ødegaard K")))
        medline.add(Citation(pmid=8, title="", authors=()))
        medline.add(Citation(pmid=9, title="plain", authors=("Solo A",)))
        store = medline_store(medline, num_concepts=1)
        assert store.summaries([3, 8, 9]) == [
            DocSummary.from_citation(medline.get(pmid)) for pmid in (3, 8, 9)
        ]

    @pytest.mark.parametrize("name", ["", "Doe%sJ" % AUTHOR_SEPARATOR])
    def test_builder_rejects_unsplittable_author_names(self, name):
        citation = Citation(pmid=1, title="t", authors=("Smith A", name))
        with pytest.raises(ValueError, match="author"):
            list(citation_chunks([citation]))


class TestSyntheticTitles:
    def test_titles_name_the_pmid_and_authors_are_empty(self):
        store = synthetic_store()
        pmids = store.pmids()
        summaries = store.summaries(pmids)
        assert [s.title for s in summaries] == ["Synthetic citation %d" % p for p in pmids]
        assert all(s.authors == () for s in summaries)
        assert [s.year for s in summaries] == store.year_array().tolist()

    def test_same_seed_same_digest_on_both_targets(self, tmp_path):
        first = synthetic_store(out_dir=str(tmp_path / "a"))
        second = synthetic_store(out_dir=str(tmp_path / "b"))
        assert first.manifest_digest == second.manifest_digest
        assert synthetic_store().manifest_digest == first.manifest_digest
        assert synthetic_store(seed=6).manifest_digest != first.manifest_digest

    def test_digest_covers_titles_and_authors(self):
        def digest(title, authors):
            builder = SubstrateBuilder(None, num_concepts=2)
            citation = Citation(pmid=4, title=title, authors=authors, index_concepts=(1,))
            return builder.build(citation_chunks([citation])).digest

        base = digest("a title", ("Roe R",))
        assert digest("a title", ("Roe R",)) == base
        assert digest("a titlf", ("Roe R",)) != base
        assert digest("a title", ("Roe S",)) != base


class TestOpenTimeChecks:
    @pytest.fixture()
    def built(self, tmp_path):
        synthetic_store(citations=40, out_dir=str(tmp_path))
        return tmp_path

    def test_intact_directory_opens(self, built):
        store = MmapStore.open(str(built))
        assert store.summaries([store.pmids()[0]])[0].title.startswith("Synthetic")

    @pytest.mark.parametrize(
        "column,damage",
        [
            ("title_offsets.npy", "truncate"),
            ("title_offsets.npy", "decrease"),
            ("title_offsets.npy", "shift"),
            ("title_offsets.npy", "overrun"),
            ("author_offsets.npy", "truncate"),
            ("author_offsets.npy", "overrun"),
        ],
    )
    def test_broken_offsets_fail_at_open(self, built, column, damage):
        path = built / column
        offsets = np.load(path)
        if damage == "truncate":
            offsets = offsets[:-1]
        elif damage == "decrease":
            offsets[5], offsets[6] = offsets[6], offsets[5]
        elif damage == "shift":
            offsets = offsets + 1
        else:
            offsets[-1] += 1
        np.save(path, offsets)
        with pytest.raises(SubstrateError, match=column):
            MmapStore.open(str(built))

    @pytest.mark.parametrize(
        "column,damage",
        [
            ("pmids.npy", "swap"),
            ("pmids.npy", "repeat"),
            ("years.npy", "short"),
            ("concept_lt.npy", "short"),
        ],
    )
    def test_broken_column_fails_at_open(self, built, column, damage):
        path = built / column
        values = np.load(path)
        if damage == "swap":
            values[2], values[3] = values[3], values[2]
        elif damage == "repeat":
            values[3] = values[2]
        else:
            values = values[:-1]
        np.save(path, values)
        with pytest.raises(SubstrateError, match=column):
            MmapStore.open(str(built))

    def test_older_format_fails_at_open(self, built):
        manifest_path = built / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # Format 3 still carried the roaring bitmap copy of the postings.
        assert FORMAT_VERSION == 4
        manifest["format_version"] = 3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SubstrateError, match="format_version 3"):
            MmapStore.open(str(built))

    @pytest.mark.parametrize(
        "offsets_name,values_name",
        [
            ("concept_offsets.npy", "concept_citations.npy"),
            ("cit_concept_offsets.npy", "cit_concepts.npy"),
        ],
    )
    @pytest.mark.parametrize("damage", ["truncate_values", "decrease", "short"])
    def test_broken_association_csr_fails_at_open(
        self, built, offsets_name, values_name, damage
    ):
        if damage == "truncate_values":
            path = built / values_name
            np.save(path, np.load(path)[:-1])
        else:
            path = built / offsets_name
            offsets = np.load(path)
            if damage == "decrease":
                # Swap an interior rising step, leaving offsets[0] == 0.
                step = 1 + int(np.flatnonzero(np.diff(offsets[1:]) > 0)[0])
                offsets[step], offsets[step + 1] = offsets[step + 1], offsets[step]
            else:
                offsets = offsets[:-1]
            np.save(path, offsets)
        with pytest.raises(SubstrateError, match=offsets_name):
            MmapStore.open(str(built))

    def test_cut_off_values_file_fails_at_open(self, built):
        path = built / "concept_citations.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SubstrateError, match="concept_citations.npy"):
            MmapStore.open(str(built))

    @pytest.mark.parametrize(
        "name,damage",
        [
            ("hier_depths.npy", "short"),
            ("hier_preorder.npy", "short"),
            ("hier_positions.npy", "long"),
            ("hier_subtree_sizes.npy", "short"),
            ("hier_child_offsets.npy", "short"),
            ("hier_child_offsets.npy", "decrease"),
            ("hier_label_offsets.npy", "overrun"),
            ("hier_uid_offsets.npy", "overrun"),
        ],
    )
    def test_broken_hierarchy_array_fails_at_open(self, tmp_path, name, damage):
        hierarchy = ternary_hierarchy(60)
        synthetic_store(citations=40, out_dir=str(tmp_path), hierarchy=hierarchy)
        MmapStore.open(str(tmp_path))  # intact
        path = tmp_path / name
        values = np.load(path)
        if damage == "short":
            values = values[:-1]
        elif damage == "long":
            values = np.append(values, values[-1])
        elif damage == "decrease":
            values[1], values[2] = values[2], values[1]
        else:
            values[-1] += 1
        np.save(path, values)
        with pytest.raises(SubstrateError, match=name):
            MmapStore.open(str(tmp_path))

    def test_hierarchy_of_another_build_fails_at_open(self, tmp_path):
        hierarchy = ternary_hierarchy(60)
        synthetic_store(citations=40, out_dir=str(tmp_path), hierarchy=hierarchy)
        # A consistent hierarchy, but of 59 concepts where the corpus has 60.
        ternary_hierarchy(59).arrays().save(str(tmp_path))
        with pytest.raises(SubstrateError, match="concept_counts.npy"):
            MmapStore.open(str(tmp_path))

    def test_in_memory_arrays_are_checked_too(self):
        store = synthetic_store(citations=40)
        arrays = dict(store._arrays)
        arrays["title_offsets.npy"] = arrays["title_offsets.npy"][:-1]
        with pytest.raises(SubstrateError):
            MmapStore(store.manifest, arrays)
        assert issubclass(SubstrateError, ValueError)
