"""The BioNav database (paper §VII).

:class:`BioNavDatabase` is the product of BioNav's off-line pre-processing:
it holds the MeSH hierarchy, the concept–citation association tables (both
normalized and denormalized), the per-concept MEDLINE-wide counts, and the
keyword index the simulated ESearch runs over.

The paper harvested associations by issuing one PubMed query per MeSH
concept over ~20 days; :meth:`BioNavDatabase.build` performs the equivalent
extraction directly from the simulated :class:`MedlineDatabase` in one pass.
At substrate scale the associations instead live in a pre-built
:class:`~repro.substrate.store.MmapStore` directory and
:meth:`BioNavDatabase.from_store` wraps it without any extraction pass —
either way the online layers see one :class:`~repro.substrate.store.CorpusStore`
access path.  A JSON save/load round-trip is provided so the toy-scale
pre-processing can be cached between runs, mirroring the persistent
Oracle store.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.storage.index import InvertedIndex
from repro.storage.tables import (
    AssociationTable,
    ConceptStatsTable,
    DenormalizedCitationTable,
)
from repro.substrate.store import CorpusStore, InMemoryStore

__all__ = ["BioNavDatabase", "hierarchy_digest"]


def hierarchy_digest(hierarchy: ConceptHierarchy) -> str:
    """Fingerprint of the hierarchy's full (uid, label, parent) stream.

    This is the toy-scale content identity of a deployment; 40 hex chars
    to match the pipeline's ``content_key`` format.  The record walk is
    O(n) Python, so the result is memoized on the hierarchy instance,
    keyed by its positional-array ``content_key`` — any write yields new
    arrays and with them a new key, keeping the digest honest.
    """
    key = hierarchy.arrays().content_key
    cached = getattr(hierarchy, "_digest_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    hasher = hashlib.sha256()
    hasher.update(("%d" % len(hierarchy)).encode("utf-8"))
    for uid, label, parent in hierarchy.to_records():
        hasher.update(("%s\x1f%s\x1f%d\x1e" % (uid, label, parent)).encode("utf-8"))
    digest = hasher.hexdigest()[:40]
    hierarchy._digest_cache = (key, digest)
    return digest


class BioNavDatabase:
    """Off-line artifact store: hierarchy + corpus store + keyword index.

    Every concept→citation membership question is answered by
    :attr:`store`; the normalized/denormalized tables remain as the
    toy-scale persistence surface (and for databases loaded from the
    legacy JSON format, which carries no store).
    """

    def __init__(
        self,
        hierarchy: ConceptHierarchy,
        associations: Optional[AssociationTable] = None,
        denormalized: Optional[DenormalizedCitationTable] = None,
        stats: Optional[ConceptStatsTable] = None,
        index: Optional[InvertedIndex] = None,
        store: Optional[CorpusStore] = None,
    ):
        self.hierarchy = hierarchy
        self.associations = associations
        self.denormalized = denormalized
        self.stats = stats
        self.index = index
        self.store = store

    # ------------------------------------------------------------------
    # Off-line pre-processing
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, hierarchy: ConceptHierarchy, medline: MedlineDatabase
    ) -> "BioNavDatabase":
        """Run the off-line pre-processing pass over a MEDLINE snapshot."""
        associations = AssociationTable()
        index = InvertedIndex()
        for citation in medline.iter_citations():
            for concept in set(citation.concepts):
                associations.insert(concept, citation.pmid)
            index.add_document(citation.pmid, citation.searchable_text())
        stats = ConceptStatsTable()
        for concept in range(len(hierarchy)):
            count = medline.medline_count(concept)
            if count:
                stats.set_count(concept, count)
        return cls(
            hierarchy=hierarchy,
            associations=associations,
            denormalized=associations.denormalize(),
            stats=stats,
            index=index,
            store=InMemoryStore(medline, hierarchy=hierarchy),
        )

    @classmethod
    def from_store(
        cls, store: CorpusStore, hierarchy: Optional[ConceptHierarchy] = None
    ) -> "BioNavDatabase":
        """Stand up the database over an already-built corpus store.

        No extraction pass runs: the store *is* the pre-processing
        output.  The hierarchy defaults to the one captured in the
        store's build manifest.
        """
        if hierarchy is None:
            hierarchy = store.hierarchy()
        if hierarchy is None:
            raise ValueError(
                "store carries no hierarchy; pass one explicitly"
            )
        return cls(hierarchy=hierarchy, store=store)

    # ------------------------------------------------------------------
    # Online access paths (all routed through the corpus store)
    # ------------------------------------------------------------------
    def concepts_of_citations(
        self, pmids: Sequence[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """Concept lists for a query result (denormalized access path)."""
        if self.store is not None:
            return self.store.concepts_of_citations(pmids)
        return self.denormalized.get_many(pmids)

    def annotations_for_result(self, pmids: Sequence[int]) -> Dict[int, FrozenSet[int]]:
        """concept → set of result PMIDs attached to it.

        This is exactly the input the initial navigation tree needs: the
        restriction of the association table to the query result.
        """
        if self.store is not None:
            return self.store.annotations_for_result(pmids)
        by_concept: Dict[int, set] = {}
        for pmid, concepts in self.denormalized.get_many(pmids).items():
            for concept in concepts:
                by_concept.setdefault(concept, set()).add(pmid)
        return {concept: frozenset(ids) for concept, ids in by_concept.items()}

    def medline_count(self, concept: int) -> int:
        """``LT(n)`` for the EXPLORE probability."""
        if self.store is not None:
            return self.store.medline_count(concept)
        return self.stats.count(concept)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """Deployment identity for the pipeline's hierarchy snapshot.

        Manifest-backed stores already carry a digest covering the
        hierarchy, the citation table, and every association file, so
        the snapshot key derives from it directly instead of rehashing
        48k hierarchy records per deployment.  Stores without a manifest
        (the toy in-memory path) keep the original hierarchy-record
        fingerprint, so seed cache keys are unchanged.
        """
        manifest = self.store.manifest_digest if self.store is not None else None
        if manifest:
            return hashlib.sha256(
                ("substrate|%s" % manifest).encode("utf-8")
            ).hexdigest()[:40]
        return hierarchy_digest(self.hierarchy)

    def store_info(self) -> Dict[str, object]:
        """Observability block describing the corpus backend."""
        if self.store is not None:
            return self.store.store_info()
        return {
            "backend": "tables",
            "path": None,
            "manifest": None,
            "citations": len(self.denormalized) if self.denormalized else 0,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize everything except the keyword index to JSON.

        The index is cheap to rebuild from the corpus and dominates file
        size, so persistence stores only the pre-processing outputs the
        paper kept in Oracle: hierarchy, associations, and concept stats.
        Substrate-backed databases persist as their store directory
        instead (the manifest already owns that format).
        """
        if self.associations is None or self.stats is None:
            raise ValueError(
                "store-backed database: persistence is the substrate "
                "directory itself (see repro.substrate)"
            )
        payload = {
            "hierarchy": [list(r) for r in self.hierarchy.to_records()],
            "associations": [list(row) for row in self.associations.iter_rows()],
            "stats": [list(item) for item in self.stats.items()],
        }
        tmp_path = path + ".tmp"
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, path)

    @classmethod
    def load(cls, path: str, medline: Optional[MedlineDatabase] = None) -> "BioNavDatabase":
        """Load a saved database; rebuilds the keyword index from ``medline``.

        Args:
            path: file written by :meth:`save`.
            medline: corpus used to rebuild the keyword index; when omitted
                the index is left empty (navigation still works from PMIDs).
        """
        with open(path) as handle:
            payload = json.load(handle)
        hierarchy = ConceptHierarchy.from_records(
            (uid, label, parent) for uid, label, parent in payload["hierarchy"]
        )
        associations = AssociationTable()
        associations.insert_many(
            (concept, pmid) for concept, pmid in payload["associations"]
        )
        stats = ConceptStatsTable()
        for concept, count in payload["stats"]:
            stats.set_count(concept, count)
        index = InvertedIndex()
        if medline is not None:
            for citation in medline.iter_citations():
                index.add_document(citation.pmid, citation.searchable_text())
        # The legacy JSON format carries the association tables but not
        # the corpus, so the loaded database answers membership from the
        # tables path (store=None) regardless of the index corpus — the
        # saved associations, not the passed medline, are authoritative.
        return cls(
            hierarchy=hierarchy,
            associations=associations,
            denormalized=associations.denormalize(),
            stats=stats,
            index=index,
        )
