"""System bench — the off-line pre-processing pipeline (paper §VII).

The paper's off-line phase took ~20 days against live PubMed; on the
simulated substrate the same pipeline runs in seconds.  This bench times
its stages — corpus generation, database build (the in-memory substrate
build + keyword index), persistence as a substrate directory plus
``MmapStore.open`` — and verifies the harvest-vs-direct equivalence at
bench scale.
"""

from __future__ import annotations

import os

import pytest

from repro.corpus.generator import CorpusGenerator, TopicSpec
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.hierarchy.generator import generate_hierarchy
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.storage.harvest import ConceptHarvester
from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks


@pytest.fixture(scope="module")
def offline_inputs():
    hierarchy = generate_hierarchy(target_size=1200, seed=17)
    generator = CorpusGenerator(hierarchy, seed=17)
    medline = MedlineDatabase(background_counts=generator.background_counts())
    anchor = hierarchy.children(hierarchy.root)[0]
    other = hierarchy.children(hierarchy.root)[1]
    medline.add_all(
        generator.generate_topic(
            TopicSpec(
                keyword="offline probe",
                n_citations=250,
                anchors=((anchor, 1.0), (other, 0.4)),
            )
        )
    )
    medline.add_all(generator.generate_background(100))
    return hierarchy, medline


def test_bench_corpus_generation(benchmark):
    hierarchy = generate_hierarchy(target_size=1200, seed=18)

    def generate():
        generator = CorpusGenerator(hierarchy, seed=18)
        anchor = hierarchy.children(hierarchy.root)[0]
        return generator.generate_topic(
            TopicSpec(keyword="gen probe", n_citations=200, anchors=((anchor, 1.0),))
        )

    citations = benchmark(generate)
    assert len(citations) == 200


def test_bench_database_build(benchmark, offline_inputs):
    hierarchy, medline = offline_inputs
    database = benchmark(BioNavDatabase.build, hierarchy, medline)
    assert int(database.store.manifest["pairs"]) > 1000


def test_bench_database_save_load(benchmark, offline_inputs, tmp_path):
    hierarchy, medline = offline_inputs
    database = BioNavDatabase.build(hierarchy, medline)
    path = str(tmp_path / "substrate")

    def round_trip():
        builder = SubstrateBuilder(path, num_concepts=len(hierarchy))
        builder.build(
            citation_chunks(medline.get(pmid) for pmid in medline.pmids()),
            hierarchy=hierarchy,
            background=medline.background_counts(),
            meta=database.store.manifest["meta"],
        )
        return MmapStore.open(path)

    loaded = benchmark(round_trip)
    assert loaded.manifest_digest == database.store.manifest_digest
    assert os.path.getsize(os.path.join(path, "manifest.json")) > 0


def test_bench_harvest_slice(benchmark, offline_inputs):
    hierarchy, medline = offline_inputs
    direct = BioNavDatabase.build(hierarchy, medline)
    engine = SearchEngine(direct.store, direct.index)
    harvester = ConceptHarvester(hierarchy, EntrezClient(direct.store, engine))
    concepts = list(range(1, 80))

    result = benchmark.pedantic(
        harvester.harvest, kwargs={"concepts": concepts}, rounds=2, iterations=1
    )
    for concept in concepts:
        assert result.associations[concept].tolist() == (
            direct.store.citations_for_concept(concept).tolist()
        )
