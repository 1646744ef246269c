"""Backend-equivalence suite: ``InMemoryStore`` vs ``MmapStore``.

One corpus, two backends: the toy in-memory store and a substrate
directory built from the same citation stream must answer every corpus
question with the same values — store primitives, boolean-AND result
sets, search-engine ``[mh]`` queries, navigation trees, and the
Opt-EdgeCut expansions the solver path produces (bit-identical cuts).
Also verifies that a fleet of forked cluster workers serves one shared
mmap store rather than per-process corpus copies.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bionav import BioNav
from repro.cluster.workers import WorkerSupervisor
from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.generator import generate_hierarchy
from repro.search.engine import SearchEngine
from repro.substrate import InMemoryStore, MmapStore, SubstrateBuilder, citation_chunks

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
def memory_store(corpus):
    hierarchy, citations, background = corpus
    medline = MedlineDatabase(background_counts=background)
    medline.add_all(citations)
    return InMemoryStore(medline, hierarchy=hierarchy)


@pytest.fixture(scope="module")
def mmap_store(corpus, tmp_path_factory):
    hierarchy, citations, background = corpus
    out = tmp_path_factory.mktemp("equivalence-substrate")
    builder = SubstrateBuilder(str(out), num_concepts=len(hierarchy))
    builder.build(
        citation_chunks(iter(citations), chunk_size=128),
        hierarchy=hierarchy,
        background=background,
    )
    return MmapStore(str(out))


def busiest_concepts(store, k=6):
    counts = [(store.result_count(c), c) for c in range(store.num_concepts)]
    return [c for _, c in sorted(counts, reverse=True)[:k]]


class TestStorePrimitives:
    def test_same_corpus_shape(self, memory_store, mmap_store):
        assert len(memory_store) == len(mmap_store) == N_CITATIONS
        assert memory_store.pmids() == mmap_store.pmids()
        assert memory_store.num_concepts == mmap_store.num_concepts

    def test_concepts_of_every_citation(self, memory_store, mmap_store):
        for pmid in memory_store.pmids():
            assert memory_store.concepts_of(pmid) == mmap_store.concepts_of(pmid)

    def test_counts_match_for_every_concept(self, memory_store, mmap_store):
        for concept in range(memory_store.num_concepts):
            assert memory_store.result_count(concept) == mmap_store.result_count(
                concept
            ), concept
            assert memory_store.medline_count(concept) == mmap_store.medline_count(
                concept
            ), concept
        # The batch lookup answers the same, out-of-range ids (→ 0) included.
        ids = np.arange(-2, mmap_store.num_concepts + 2)
        assert mmap_store.medline_counts(ids).tolist() == [
            mmap_store.medline_count(c) for c in ids.tolist()
        ]

    def test_concept_membership_and_bitmaps(self, memory_store, mmap_store):
        for concept in busiest_concepts(mmap_store) + [0, 1]:
            assert (
                memory_store.citations_for_concept(concept).tolist()
                == mmap_store.citations_for_concept(concept).tolist()
            )
            assert memory_store.concept_bitmap(concept) == mmap_store.concept_bitmap(
                concept
            )

    def test_boolean_and_identical(self, memory_store, mmap_store):
        top = busiest_concepts(mmap_store)
        for combo in ([top[0]], top[:2], top[:3], [top[0], top[-1]]):
            assert (
                memory_store.boolean_and(combo).tolist()
                == mmap_store.boolean_and(combo).tolist()
            ), combo

    def test_annotations_for_result_identical(self, memory_store, mmap_store):
        pmids = memory_store.pmids()[::7]
        assert memory_store.annotations_for_result(
            pmids
        ) == mmap_store.annotations_for_result(pmids)


class TestSearchEquivalence:
    def test_mh_queries_return_identical_result_sets(
        self, corpus, memory_store, mmap_store
    ):
        hierarchy, _, _ = corpus
        mem = SearchEngine.from_store(memory_store)
        mm = SearchEngine.from_store(mmap_store)
        top = busiest_concepts(mmap_store)
        queries = [
            "%d[mh]" % top[0],
            "%d[mh] %d[mh]" % (top[0], top[1]),
            "%s[mh]" % hierarchy.uid(top[2]),
            "%s[mh]" % hierarchy.label(top[3]),
        ]
        for query in queries:
            left, right = mem.search(query), mm.search(query)
            assert left.pmids == right.pmids, query
            assert left.count > 0, query

    def test_free_text_rejected_without_index(self, mmap_store):
        engine = SearchEngine.from_store(mmap_store)
        with pytest.raises(ValueError):
            engine.search("prothymosin")


class TestNavigationEquivalence:
    @pytest.fixture(scope="class")
    def systems(self, memory_store, mmap_store):
        return (
            BioNav.from_store(memory_store),
            BioNav.from_store(mmap_store),
        )

    def test_end_to_end_trees_and_cuts_are_bit_identical(self, systems, mmap_store):
        mem_nav, mmap_nav = systems
        top = busiest_concepts(mmap_store)
        query = "%d[mh] %d[mh]" % (top[0], top[1])
        left = mem_nav.search(query)
        right = mmap_nav.search(query)
        assert left.pmids == right.pmids
        assert set(left.tree.nodes()) == set(right.tree.nodes())
        # Drive the same expansion sequence on both backends; the
        # EdgeCut chosen at every step must reveal the same nodes in
        # the same order — the "bit-identical cuts" gate.
        frontier = [left.tree.root]
        expansions = 0
        while frontier and expansions < 3:
            node = frontier.pop(0)
            try:
                out_l = left.session.expand(node)
            except ValueError:
                # Leaf/no-component node: the other backend must agree.
                with pytest.raises(ValueError):
                    right.session.expand(node)
                continue
            out_r = right.session.expand(node)
            assert out_l.revealed == out_r.revealed
            frontier.extend(out_l.revealed)
            expansions += 1
        assert left.session.navigation_cost == right.session.navigation_cost

    def test_content_keys_come_from_manifest_not_rehash(self, systems, mmap_store):
        _, mmap_nav = systems
        digest = mmap_nav.database.content_digest()
        # Store-backed keys derive from the build manifest digest; the
        # toy path hashes the hierarchy records instead.
        import hashlib

        expected = hashlib.sha256(
            ("substrate|%s" % mmap_store.manifest_digest).encode("utf-8")
        ).hexdigest()[:40]
        assert digest == expected


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
