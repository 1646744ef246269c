"""The off-line pre-processing pipeline (paper §VII, left half of Fig. 7).

Run with::

    python examples/offline_preprocessing.py

Demonstrates the pipeline the paper ran against live PubMed over ~20 days,
at simulation scale and in seconds:

  1. load the concept hierarchy;
  2. materialize the MEDLINE snapshot;
  3. build the corpus substrate: the association table in both
     directions (concept → citations, citation → concepts), the
     per-concept MEDLINE-wide counts (the LT(n) statistics) and the
     keyword index;
  4. harvest through eutils — including the rate limit that dominated
     the paper's harvest;
  5. persist it as a substrate directory and reopen it memory-mapped.
"""

from __future__ import annotations

import os
import tempfile

from repro.corpus.generator import CorpusGenerator, TopicSpec
from repro.corpus.medline import MedlineDatabase
from repro.eutils.client import EntrezClient
from repro.eutils.errors import RateLimitExceeded
from repro.hierarchy.generator import generate_hierarchy
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks


def main() -> None:
    print("1. Concept hierarchy")
    hierarchy = generate_hierarchy(target_size=1200, seed=3)
    print("   %d concepts, height %d (real MeSH: ~48,000 concepts)" % (
        len(hierarchy), hierarchy.height()))

    print("\n2. MEDLINE snapshot")
    generator = CorpusGenerator(hierarchy, seed=3)
    medline = MedlineDatabase(background_counts=generator.background_counts())
    anchor = hierarchy.children(hierarchy.root)[0]
    medline.add_all(
        generator.generate_topic(
            TopicSpec(keyword="prothymosin", n_citations=120, anchors=((anchor, 1.0),))
        )
    )
    medline.add_all(generator.generate_background(80))
    print("   %d citations materialized (real MEDLINE: ~18M)" % len(medline))

    print("\n3. Off-line build (associations both ways + LT counts + index)")
    database = BioNavDatabase.build(hierarchy, medline)
    store = database.store
    print("   association pairs:          %d" % int(store.manifest["pairs"]))
    print("   citation rows:              %d" % len(store))
    print("   concepts with citations:    %d" % sum(
        1 for c in range(store.num_concepts) if store.result_count(c)))
    sample_pmid = medline.pmids()[0]
    print("   e.g. citation %d → %d concepts" % (
        sample_pmid, len(store.concepts_of(sample_pmid))))

    print("\n4. Rate-limited harvest (why the paper's took ~20 days)")
    engine = SearchEngine(database.store, database.index)
    limited = EntrezClient(database.store, engine, rate_limit=3)
    served = 0
    try:
        while True:
            limited.esearch("prothymosin", retmax=5)
            served += 1
    except RateLimitExceeded as exc:
        print("   after %d requests: %s" % (served, exc))
    limited.reset_quota()
    print("   quota window reset; harvesting resumes")

    print("\n5. Persist as a substrate directory and reopen it")
    with tempfile.TemporaryDirectory() as tmp:
        builder = SubstrateBuilder(tmp, num_concepts=len(hierarchy))
        manifest = builder.build(
            citation_chunks(medline.get(pmid) for pmid in medline.pmids()),
            hierarchy=hierarchy,
            background=medline.background_counts(),
            meta=store.manifest["meta"],
        )
        size_kb = sum(
            os.path.getsize(os.path.join(tmp, name)) for name in os.listdir(tmp)
        ) / 1024
        reopened = MmapStore.open(tmp)
        print("   wrote %.0f KiB → reopened %d association pairs (digest %s…)" % (
            size_kb, int(reopened.manifest["pairs"]), manifest.digest[:12]))
        assert reopened.manifest_digest == store.manifest_digest
    print("\nDone: the on-line phase (see quickstart.py) runs on this database.")


if __name__ == "__main__":
    main()
