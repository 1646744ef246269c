"""End-to-end story: every subsystem in one scenario.

Offline: generate hierarchy + corpus → persist the corpus as JSONL →
reload → harvest associations the paper's way → build the BioNav
database's substrate directory → reopen it.  Online: search through the web interface,
re-apply the session's EXPANDs to a locally reconstructed tree, and
produce the Markdown report.  One scenario touching each subsystem's
public seam, complementing the per-module suites.
"""

from __future__ import annotations

import re
from urllib.parse import urlencode

import pytest

from repro.bionav import BioNav
from repro.core.active_tree import ActiveTree
from repro.core.navigation_tree import NavigationTree
from repro.corpus.medline import MedlineDatabase
from repro.corpus.persistence import read_citations_jsonl, write_citations_jsonl
from repro.eutils.client import EntrezClient
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.storage.harvest import ConceptHarvester
from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks
from repro.web.app import BioNavWebApp


@pytest.fixture(scope="module")
def story(request, tmp_path_factory):
    workload = request.getfixturevalue("small_workload")
    tmp = tmp_path_factory.mktemp("story")

    # Corpus persistence round trip.
    corpus_path = tmp / "corpus.jsonl"
    source = workload.medline
    with open(corpus_path, "w") as handle:
        write_citations_jsonl(
            (source.get(pmid) for pmid in source.pmids()),
            handle,
            source.background_counts(),
        )
    with open(corpus_path) as handle:
        background, citations = read_citations_jsonl(handle)
        medline = MedlineDatabase(background_counts=background)
        medline.add_all(citations)

    # Offline build straight from the JSONL stream into the substrate
    # directory — the database's persistent form — then reopen it.
    db_path = tmp / "substrate"
    builder = SubstrateBuilder(str(db_path), num_concepts=len(workload.hierarchy))
    with open(corpus_path) as handle:
        _, citations = read_citations_jsonl(handle)
        builder.build(
            citation_chunks(citations),
            hierarchy=workload.hierarchy,
            background=background,
        )
    database = BioNavDatabase.from_store(MmapStore.open(str(db_path)))

    # ESearch over the reopened store, with the reloaded corpus's
    # keyword index for free-text terms.
    index = BioNavDatabase.build(workload.hierarchy, medline).index
    bionav = BioNav(database, EntrezClient(database.store, SearchEngine(database.store, index)))
    return workload, medline, database, bionav


class TestOfflineStory:
    def test_reloaded_corpus_equals_original(self, story):
        workload, medline, _, _ = story
        assert medline.pmids() == workload.medline.pmids()

    def test_harvest_agrees_with_persisted_database(self, story):
        workload, _, database, _ = story
        # Harvested through the workload's in-memory build of the
        # original corpus, checked against the persisted directory.
        harvester = ConceptHarvester(workload.hierarchy, workload.entrez)
        sample = [n for n in range(1, 60)]
        result = harvester.harvest(concepts=sample)
        for concept in sample:
            assert result.associations[concept].tolist() == (
                database.store.citations_for_concept(concept).tolist()
            )


class TestOnlineStory:
    def test_search_navigate_replay(self, story):
        workload, _, database, bionav = story
        query = bionav.search("prothymosin")
        assert query.result_count == 313
        session = query.session
        session.expand(query.tree.root)
        expandable = [
            n for n in session.active.component_roots() if n != query.tree.root
        ]
        if expandable:
            session.expand(expandable[0])

        # Reconstruct the tree independently and apply the same EXPANDs.
        pmids = bionav.entrez.esearch_all("prothymosin")
        tree = NavigationTree.from_store(database.hierarchy, database.store, pmids)
        rebuilt = ActiveTree(tree)
        for outcome in session.expand_log:
            rebuilt.expand(outcome.node, outcome.decision.cut)
        assert set(rebuilt.visible_nodes()) == set(session.active.visible_nodes())

    def test_web_interface_over_persisted_database(self, story):
        _, _, _, bionav = story
        app = BioNavWebApp(bionav)
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/search",
            "QUERY_STRING": urlencode({"q": "follistatin"}),
        }
        captured = []
        body = b"".join(app(environ, lambda s, h: captured.append(s))).decode()
        assert captured[0] == "200 OK"
        assert "follistatin" in body
        assert re.search(r"/nav/s\d+", body)

    def test_report_generation_from_story_workload(self, story):
        workload, _, _, _ = story
        from repro.workload.report import generate_report

        text = generate_report(workload, title="Story report")
        assert "## Figure 8" in text
        assert "bootstrap CI" in text
