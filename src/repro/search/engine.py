"""Keyword query engine over the corpus store.

This is the server-side piece PubMed provides in the paper's architecture:
given a query it returns the matching citation IDs, ranked.  The simulated
eutils client (``repro.eutils.client``) wraps this engine with the ESearch
wire-level conventions (retstart/retmax paging, counts).  It is the one
query path: every query string, from the web edge to the §VII harvest,
becomes a PMID list here.

A query mixes two kinds of term, and the result is their intersection:

* **free-text terms** — conjunctive retrieval over the inverted keyword
  index with TF-IDF ranking (toy-scale corpora only; the index is an
  in-memory structure);
* **concept terms** — ``term[mh]`` (or ``term[mh:noexp]``) restricts to
  the citations annotated with the MeSH concept ``term``: its own
  postings, with no subtree explosion, for both tags.  The term is a
  node id, a concept uid like ``D000123``, or a label, bare or
  double-quoted.  Concept terms resolve through the
  :class:`~repro.substrate.store.MmapStore` boolean-AND path: the
  concepts' sorted ordinal slices of the concept CSR, smallest first,
  each narrowing the running set with one ``np.searchsorted`` — the
  query shape the substrate bench gates at 1M citations.

Results are ranked by the text score when text terms are present and in
ascending-PMID order for pure concept queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hierarchy.concept import ConceptHierarchy
from repro.search.ranking import rank_results
from repro.storage import InvertedIndex
from repro.substrate.store import MmapStore

__all__ = ["QueryResult", "SearchEngine"]

#: ``term[mh]`` / ``term[mh:noexp]`` — PubMed's MeSH field tags,
#: case-insensitive.  The term is a double-quoted phrase or the run of
#: text before the tag; of a bare run, the longest whitespace-separated
#: suffix that names a concept is the term and the rest is free text, so
#: ``prothymosin Kinase, Alpha (L1-0001)[mh]`` is the text ``prothymosin``
#: AND that concept.
_MH_RE = re.compile(r'\s*("[^"]*"|[^\[\]"]+?)\s*\[mh(?::noexp)?\]', re.IGNORECASE)
_WORD_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one keyword query.

    Attributes:
        query: the query string as submitted.
        pmids: matching citation IDs in rank order.
    """

    query: str
    pmids: Tuple[int, ...]

    @property
    def count(self) -> int:
        """Number of matching citations."""
        return len(self.pmids)


class SearchEngine:
    """Conjunctive retrieval: TF-IDF-ranked text plus ``[mh]`` concepts.

    Args:
        store: the corpus :class:`MmapStore`.
        index: inverted keyword index for free-text terms; when absent,
            free-text terms raise :class:`ValueError` (a pre-built
            substrate carries no text index — concept queries only).
        hierarchy: resolves uid/label concept terms; defaults to the
            store's build-time hierarchy.  Node-id terms work without one.
    """

    def __init__(
        self,
        store: MmapStore,
        index: Optional[InvertedIndex] = None,
        hierarchy: Optional[ConceptHierarchy] = None,
    ):
        self._store = store
        self._index = index
        self._hierarchy = hierarchy if hierarchy is not None else store.hierarchy()
        self._years: Optional[Dict[int, int]] = None

    @property
    def store(self) -> MmapStore:
        """The corpus store queries resolve against."""
        return self._store

    # ------------------------------------------------------------------
    def search(self, query: str) -> QueryResult:
        """All citations matching every term, ranked.

        Raises:
            ValueError: free-text terms without a text index, or an
                unresolvable ``[mh]`` term.
        """
        concepts, text = self._parse(query)
        concept_hits: Optional[List[int]] = None
        if concepts is not None:
            concept_hits = [int(p) for p in self._store.boolean_and(concepts)]

        if not text.strip():
            pmids = concept_hits if concept_hits is not None else []
            return QueryResult(query=query, pmids=tuple(pmids))

        if self._index is None:
            raise ValueError(
                "free-text terms need a keyword index; this engine serves "
                "[mh] concept queries only"
            )
        matches = self._index.search(text)
        if concept_hits is not None:
            matches = matches & set(concept_hits)
        ranked = rank_results(self._index, sorted(matches), text, self._year_map())
        return QueryResult(query=query, pmids=tuple(ranked))

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------------
    def _parse(self, query: str) -> Tuple[Optional[List[int]], str]:
        """Split a query into resolved ``[mh]`` concept ids + text rest."""
        concepts: List[int] = []
        text: List[str] = []
        end = 0
        for match in _MH_RE.finditer(query):
            text.append(query[end : match.start()])
            end = match.end()
            term = match.group(1)
            if term.startswith('"'):
                concepts.append(self._resolve_concept(term.strip('"').strip()))
                continue
            prefix, concept = self._split_term(term)
            text.append(prefix)
            concepts.append(concept)
        text.append(query[end:])
        return (concepts or None), " ".join(text)

    def _split_term(self, term: str) -> Tuple[str, int]:
        """(free text, concept) of a bare ``[mh]`` run.

        The concept is the longest whitespace-separated suffix that
        resolves; when none does, the whole run's error is raised.
        """
        for word in _WORD_RE.finditer(term):
            try:
                return term[: word.start()], self._resolve_concept(term[word.start() :])
            except ValueError:
                continue
        return "", self._resolve_concept(term)

    def _resolve_concept(self, term: str) -> int:
        """Node id for one ``[mh]`` term (id, uid, or label)."""
        if term.isdigit():
            concept = int(term)
            if 0 <= concept < self._store.num_concepts:
                return concept
            raise ValueError("concept id %d outside the corpus universe" % concept)
        if self._hierarchy is not None:
            for lookup in (self._hierarchy.by_uid, self._hierarchy.by_label):
                try:
                    return lookup(term)
                except KeyError:
                    pass
        raise ValueError("unresolvable [mh] term %r" % term)

    def _year_map(self) -> Dict[int, int]:
        """pmid → year for ranking tie-breaks, built on first text query."""
        if self._years is None:
            self._years = dict(
                zip(
                    self._store.pmid_array().tolist(),
                    self._store.year_array().tolist(),
                )
            )
        return self._years
