"""One store, two forms, one oracle.

One corpus is built twice through ``SubstrateBuilder`` — kept in memory
and written to a directory that ``MmapStore.open`` maps — and both
stores must answer every corpus question exactly as the dict-based
oracle in ``tests/oracles/store_reference.py`` does: store primitives,
boolean-AND result sets, search-engine ``[mh]`` queries, navigation
trees, and the Opt-EdgeCut expansions the solver path produces
(bit-identical cuts).  The two builds must also agree byte for byte, the
in-memory store pickles by value and the mapped one by path, and a fleet
of forked cluster workers serves one shared mmap store rather than
per-process corpus copies.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import time

import numpy as np
import pytest

from repro.bionav import BioNav
from repro.cluster.workers import WorkerSupervisor
from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.hierarchy.generator import generate_hierarchy
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.storage.index import InvertedIndex
from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks, medline_store
from repro.substrate.store import CORPUS_FILES
from tests.oracles.store_reference import InMemoryStore, annotation_arrays

N_CITATIONS = 500


@pytest.fixture(scope="module")
def corpus():
    hierarchy = generate_hierarchy(target_size=250, seed=11)
    rng = np.random.default_rng(17)
    citations = []
    for i in range(N_CITATIONS):
        concepts = tuple(
            sorted(
                set(rng.integers(1, len(hierarchy), size=rng.integers(2, 12)).tolist())
            )
        )
        citations.append(
            Citation(
                pmid=30_000_000 + i,
                title="Equivalence citation %d" % i,
                year=int(1991 + (i % 17)),
                index_concepts=concepts,
            )
        )
    background = {c: 200 + 3 * c for c in range(len(hierarchy))}
    return hierarchy, citations, background


@pytest.fixture(scope="module")
def oracle(corpus):
    hierarchy, citations, background = corpus
    medline = MedlineDatabase(background_counts=background)
    medline.add_all(citations)
    return InMemoryStore(medline, hierarchy=hierarchy)


def build(corpus, out_dir):
    hierarchy, citations, background = corpus
    builder = SubstrateBuilder(out_dir, num_concepts=len(hierarchy))
    manifest = builder.build(
        citation_chunks(iter(citations), chunk_size=128),
        hierarchy=hierarchy,
        background=background,
    )
    return manifest, builder.open()


@pytest.fixture(scope="module")
def memory_store(corpus):
    return build(corpus, None)[1]


@pytest.fixture(scope="module")
def mmap_store(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("equivalence-substrate")
    build(corpus, str(out))
    return MmapStore.open(str(out))


@pytest.fixture(scope="module")
def stores(memory_store, mmap_store):
    return {"memory": memory_store, "mmap": mmap_store}


def busiest_concepts(store, k=6):
    counts = [(store.result_count(c), c) for c in range(store.num_concepts)]
    return [c for _, c in sorted(counts, reverse=True)[:k]]


def annotations(store, pmids):
    """``annotation_arrays`` as the oracle's concept → PMID-set dict."""
    concepts, offsets, values = annotation_arrays(store, pmids)
    return {
        concept: frozenset(values[offsets[i] : offsets[i + 1]].tolist())
        for i, concept in enumerate(concepts.tolist())
    }


class TestStorePrimitives:
    def test_same_corpus_shape(self, oracle, stores):
        for name, store in stores.items():
            assert len(oracle) == len(store) == N_CITATIONS, name
            assert oracle.pmids() == store.pmids(), name
            assert oracle.num_concepts == store.num_concepts, name

    def test_concepts_of_every_citation(self, oracle, stores):
        for store in stores.values():
            for pmid in oracle.pmids():
                assert oracle.concepts_of(pmid) == store.concepts_of(pmid)

    def test_counts_match_for_every_concept(self, oracle, stores):
        for store in stores.values():
            for concept in range(oracle.num_concepts):
                assert oracle.result_count(concept) == store.result_count(
                    concept
                ), concept
                assert oracle.medline_count(concept) == store.medline_count(
                    concept
                ), concept
            # The batch lookup answers the same, out-of-range ids (→ 0) included.
            ids = np.arange(-2, store.num_concepts + 2)
            assert store.medline_counts(ids).tolist() == [
                store.medline_count(c) for c in ids.tolist()
            ]

    def test_concept_membership(self, oracle, stores):
        for store in stores.values():
            for concept in busiest_concepts(store) + [0, 1]:
                assert (
                    oracle.citations_for_concept(concept).tolist()
                    == store.citations_for_concept(concept).tolist()
                )

    def test_boolean_and_identical(self, oracle, stores):
        posted = [c for c in range(oracle.num_concepts) if oracle.result_count(c)]
        unposted = next(c for c in range(oracle.num_concepts) if c not in posted)
        disjoint = next(
            [a, b]
            for a in posted
            for b in posted
            if a < b
            and not np.intersect1d(
                oracle.citations_for_concept(a), oracle.citations_for_concept(b)
            ).size
        )
        for store in stores.values():
            top = busiest_concepts(store)
            combos = (
                [top[0]],
                top[:2],
                top[:3],
                [top[0], top[-1]],
                disjoint,
                [unposted],
                [top[0], unposted],
                [top[1], top[1]],
                [top[0], top[1], top[0]],
                [],
            )
            for combo in combos:
                expected = oracle.boolean_and(combo)
                answer = store.boolean_and(combo)
                assert answer.dtype == np.int64, combo
                assert expected.tolist() == answer.tolist(), combo
            assert store.boolean_and(disjoint).size == 0
            for outside in (-1, store.num_concepts):
                with pytest.raises(IndexError):
                    store.boolean_and([top[0], outside])

    def test_annotations_for_result_identical(self, oracle, stores):
        pmids = oracle.pmids()[::7]
        for store in stores.values():
            assert oracle.annotations_for_result(pmids) == annotations(store, pmids)
        # PMIDs the corpus does not hold are skipped.
        assert annotations(stores["memory"], [1, pmids[0]]) == (
            oracle.annotations_for_result([pmids[0]])
        )


class TestSearchEquivalence:
    def test_mh_queries_return_identical_result_sets(self, corpus, oracle, stores):
        hierarchy, _, _ = corpus
        top = busiest_concepts(oracle)
        queries = [
            ("%d[mh]" % top[0], [top[0]]),
            ("%d[mh] %d[mh]" % (top[0], top[1]), top[:2]),
            ("%s[mh]" % hierarchy.uid(top[2]), [top[2]]),
            ("%s[mh]" % hierarchy.label(top[3]), [top[3]]),
        ]
        for store in stores.values():
            engine = SearchEngine(store)
            for query, concepts in queries:
                result = engine.search(query)
                assert list(result.pmids) == oracle.boolean_and(concepts).tolist()
                assert result.count > 0, query

    def test_free_text_rejected_without_index(self, mmap_store):
        engine = SearchEngine(mmap_store)
        with pytest.raises(ValueError):
            engine.search("prothymosin")


class TestNavigationEquivalence:
    @pytest.fixture(scope="class")
    def systems(self, memory_store, mmap_store):
        return (
            BioNav.from_store(memory_store),
            BioNav.from_store(mmap_store),
        )

    def test_end_to_end_trees_and_cuts_are_bit_identical(self, systems, oracle):
        mem_nav, mmap_nav = systems
        top = busiest_concepts(oracle)
        query = "%d[mh] %d[mh]" % (top[0], top[1])
        left = mem_nav.search(query)
        right = mmap_nav.search(query)
        assert list(left.pmids) == oracle.boolean_and(top[:2]).tolist()
        assert left.pmids == right.pmids
        assert set(left.tree.nodes()) == set(right.tree.nodes())
        # Drive the same expansion sequence on both stores; the EdgeCut
        # chosen at every step must reveal the same nodes in the same
        # order — the "bit-identical cuts" gate.
        frontier = [left.tree.root]
        expansions = 0
        while frontier and expansions < 3:
            node = frontier.pop(0)
            try:
                out_l = left.session.expand(node)
            except ValueError:
                # Leaf/no-component node: the other store must agree.
                with pytest.raises(ValueError):
                    right.session.expand(node)
                continue
            out_r = right.session.expand(node)
            assert out_l.revealed == out_r.revealed
            frontier.extend(out_l.revealed)
            expansions += 1
        assert left.session.navigation_cost == right.session.navigation_cost

    def test_content_keys_come_from_manifest_not_rehash(self, systems, mmap_store):
        mem_nav, mmap_nav = systems
        # Keys derive from the build manifest digest alone, which both
        # builds of the one stream share.
        expected = hashlib.sha256(
            ("substrate|%s" % mmap_store.manifest_digest).encode("utf-8")
        ).hexdigest()[:40]
        assert mmap_nav.database.content_digest() == expected
        assert mem_nav.database.content_digest() == expected


class TestOneStore:
    def test_memory_and_disk_builds_are_byte_identical(self, corpus, tmp_path):
        disk_manifest, disk = build(corpus, str(tmp_path))
        memory_manifest, memory = build(corpus, None)
        assert memory_manifest.digest == disk_manifest.digest
        assert memory.manifest == disk.manifest
        assert memory_manifest.path is None and memory.path is None
        for name in CORPUS_FILES:
            buffer = io.BytesIO()
            np.save(buffer, memory._arrays[name])
            with open(os.path.join(str(tmp_path), name), "rb") as handle:
                assert buffer.getvalue() == handle.read(), name

    def test_memory_store_pickles_by_value(self, memory_store, oracle):
        payload = pickle.dumps(memory_store)
        assert len(payload) > memory_store.pmid_array().nbytes
        clone = pickle.loads(payload)
        assert clone.path is None and clone.backend == "memory"
        assert clone.manifest_digest == memory_store.manifest_digest
        assert clone.pmids() == oracle.pmids()
        top = busiest_concepts(oracle)
        assert clone.boolean_and(top[:2]).tolist() == oracle.boolean_and(top[:2]).tolist()
        assert clone.hierarchy().arrays().content_key == (
            memory_store.hierarchy().arrays().content_key
        )
        with pytest.raises(ValueError):
            clone.pmid_array()[0] = 1

    def test_disk_store_pickles_by_path(self, mmap_store):
        payload = pickle.dumps(mmap_store)
        assert len(payload) < 1024
        clone = pickle.loads(payload)
        assert clone.path == mmap_store.path and clone.backend == "mmap"
        assert isinstance(clone.pmid_array(), np.memmap)
        assert clone.manifest_digest == mmap_store.manifest_digest

    def test_empty_corpus(self):
        medline = MedlineDatabase()
        engine = SearchEngine(medline_store(medline, 0), InvertedIndex())
        assert len(engine) == 0
        assert engine.store.num_concepts == 0
        assert engine.search("anything").pmids == ()
        with pytest.raises(ValueError):
            engine.search("0[mh]")
        builder = SubstrateBuilder(None, num_concepts=5)
        builder.build(iter(()))
        store = builder.open()
        assert len(store) == 0 and store.boolean_and([3]).size == 0
        assert annotation_arrays(store, [7])[0].size == 0

    def test_engine_and_client_over_medline_without_hierarchy(self, corpus, oracle):
        hierarchy, citations, background = corpus
        medline = MedlineDatabase(background_counts=background)
        medline.add_all(citations)
        database = BioNavDatabase.build(hierarchy, medline)
        client = EntrezClient(database.store, SearchEngine(database.store, database.index))
        top = busiest_concepts(oracle)
        page = client.esearch("%d[mh]" % top[0], retmax=5)
        assert page.count == oracle.result_count(top[0])
        assert list(page.ids) == oracle.boolean_and([top[0]]).tolist()[:5]
        hits = client.esearch_all("equivalence citation 7")
        assert 30_000_007 in hits
        largest = max(c for citation in citations for c in citation.concepts)
        engine = SearchEngine(medline_store(medline, largest + 1))
        assert engine.store.num_concepts == largest + 1
        assert engine.store.hierarchy() is None
        with pytest.raises(ValueError):
            engine.search("%s[mh]" % "no such label")


class TestClusterSharedStore:
    def test_fleet_reports_one_shared_mmap_store(self, mmap_store):
        bionav = BioNav.from_store(mmap_store)
        supervisor = WorkerSupervisor(
            bionav, count=2, options={"heartbeat_interval": 0.05}
        )
        try:
            deadline = time.monotonic() + 10.0
            stores = []
            while time.monotonic() < deadline:
                rows = supervisor.describe()
                stores = [
                    row["heartbeat"].get("store")
                    for row in rows
                    if row["heartbeat"].get("store")
                ]
                if len(stores) == 2:
                    break
                time.sleep(0.05)
            assert len(stores) == 2, "workers never reported their store"
            for block in stores:
                assert block["backend"] == "mmap"
                assert block["path"] == mmap_store.path
                assert block["manifest"] == mmap_store.manifest_digest
            payload = supervisor.call(0, "health")
            assert payload["store"]["backend"] == "mmap"
            assert payload["store"]["manifest"] == mmap_store.manifest_digest
        finally:
            supervisor.close()
