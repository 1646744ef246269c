"""The BioNav database (paper §VII).

:class:`BioNavDatabase` is the product of BioNav's off-line pre-processing:
the MeSH hierarchy, the corpus substrate — the (concept, citationId)
association table, its citation → concepts form and the per-concept
MEDLINE-wide ``LT(n)`` counts, all in one
:class:`~repro.substrate.store.MmapStore` — and the keyword index the
simulated ESearch runs over.

The paper harvested associations by issuing one PubMed query per MeSH
concept over ~20 days (reproduced by
:class:`~repro.storage.harvest.ConceptHarvester`);
:meth:`BioNavDatabase.build` performs the equivalent extraction directly
from the simulated :class:`MedlineDatabase` as one in-memory substrate
build.  At MEDLINE scale the substrate is instead a pre-built directory
and :meth:`BioNavDatabase.from_store` wraps it without any extraction
pass.  Either way the online layers read :attr:`BioNavDatabase.store`,
and persistence is the substrate directory.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.storage.index import InvertedIndex
from repro.substrate.builder import medline_store
from repro.substrate.store import MmapStore

__all__ = ["BioNavDatabase"]


class BioNavDatabase:
    """Off-line artifact store: hierarchy + corpus store + keyword index.

    Every concept→citation membership question, and ``LT(n)``, is
    answered by :attr:`store`; :attr:`index` serves free-text terms and
    is ``None`` for a database opened over a pre-built store.
    """

    def __init__(
        self,
        hierarchy: ConceptHierarchy,
        store: MmapStore,
        index: Optional[InvertedIndex] = None,
    ):
        self.hierarchy = hierarchy
        self.store = store
        self.index = index

    # ------------------------------------------------------------------
    # Off-line pre-processing
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, hierarchy: ConceptHierarchy, medline: MedlineDatabase
    ) -> "BioNavDatabase":
        """Run the off-line pre-processing pass over a MEDLINE snapshot.

        The keyword text is folded into the build manifest, so the
        deployment identity (:meth:`content_digest`) changes with any
        corpus revision the search results could see.
        """
        index = InvertedIndex()
        text = hashlib.sha256()
        for pmid in medline.pmids():
            searchable = medline.get(pmid).searchable_text()
            index.add_document(pmid, searchable)
            text.update(("%d\x1f%s\x1e" % (pmid, searchable)).encode("utf-8"))
        store = medline_store(
            medline,
            len(hierarchy),
            hierarchy=hierarchy,
            meta={"keyword_text": text.hexdigest()},
        )
        return cls(hierarchy=hierarchy, store=store, index=index)

    @classmethod
    def from_store(
        cls, store: MmapStore, hierarchy: Optional[ConceptHierarchy] = None
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
    # Content identity
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """Deployment identity: the digest every pipeline stage key chains.

        Derived from the store's build manifest digest alone, which
        covers the hierarchy, the citation table, every association
        array, the ``LT(n)`` counts and the build's provenance — so two
        deployments share keys exactly when they serve the same corpus.
        """
        return hashlib.sha256(
            ("substrate|%s" % self.store.manifest_digest).encode("utf-8")
        ).hexdigest()[:40]
