"""Evaluation of PubMed-style queries against the simulated corpus.

:class:`FieldedSearchEngine` pairs the query-language AST
(:mod:`repro.search.query_language`) with per-field positional indexes and
the MeSH annotation table:

* ``[ti]`` / ``[ab]`` terms match the title / abstract index,
* ``[all]`` (and untagged) terms match either,
* ``[mh]`` terms match citations annotated with the named MeSH concept —
  **with subtree explosion**, as PubMed does: a ``[mh]`` term matches the
  concept and all of its descendants,
* quoted phrases require adjacent in-order tokens,
* ``NOT`` complements against the full corpus.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.search.query_language import And, Node, Not, Or, Term, parse_query
from repro.storage import PositionalIndex

__all__ = ["FieldedSearchEngine", "FieldedEngineAdapter"]


class FieldedSearchEngine:
    """Boolean/phrase/field query evaluation over a MEDLINE snapshot."""

    def __init__(self, medline: MedlineDatabase, hierarchy: ConceptHierarchy):
        self._medline = medline
        self._hierarchy = hierarchy
        self._title_index = PositionalIndex()
        self._abstract_index = PositionalIndex()
        self._by_concept: Dict[int, Set[int]] = {}
        for citation in medline.iter_citations():
            self._title_index.add_document(citation.pmid, citation.title)
            self._abstract_index.add_document(citation.pmid, citation.abstract)
            for concept in set(citation.concepts):
                self._by_concept.setdefault(concept, set()).add(citation.pmid)
        self._universe: Set[int] = set(medline.pmids())

    # ------------------------------------------------------------------
    def search(self, query: str) -> Set[int]:
        """Evaluate a query string; returns the matching PMIDs.

        Raises:
            QuerySyntaxError: on malformed queries.
        """
        return self.evaluate(parse_query(query))

    def evaluate(self, node: Node) -> Set[int]:
        """Evaluate a parsed query AST."""
        if isinstance(node, Term):
            return self._evaluate_term(node)
        if isinstance(node, And):
            left = self.evaluate(node.left)
            if not left:
                return set()
            return left & self.evaluate(node.right)
        if isinstance(node, Or):
            return self.evaluate(node.left) | self.evaluate(node.right)
        if isinstance(node, Not):
            return self._universe - self.evaluate(node.operand)
        raise TypeError("unknown query node %r" % (node,))

    # ------------------------------------------------------------------
    def _evaluate_term(self, term: Term) -> Set[int]:
        if term.field == "mh":
            return self._mesh_matches(term.text, explode=True)
        if term.field == "mh:noexp":
            return self._mesh_matches(term.text, explode=False)
        searchers = []
        if term.field in ("ti", "all"):
            searchers.append(self._title_index)
        if term.field in ("ab", "all"):
            searchers.append(self._abstract_index)
        matches: Set[int] = set()
        for index in searchers:
            if term.phrase:
                matches |= index.search_phrase(term.text)
            else:
                matches |= index.search_term(term.text)
        return matches

    def _mesh_matches(self, label: str, explode: bool) -> Set[int]:
        """Citations annotated with the named concept.

        With ``explode`` (plain ``[mh]``), descendants count too, as in
        PubMed's automatic explosion; ``[mh:noexp]`` matches only the
        concept itself.  Label matching is case-insensitive on the full
        heading; an unknown heading matches nothing (as in PubMed when
        translation fails).
        """
        concept = self._find_concept(label)
        if concept is None:
            return set()
        if not explode:
            return set(self._by_concept.get(concept, set()))
        matches: Set[int] = set()
        for node in self._hierarchy.iter_dfs(concept):
            matches |= self._by_concept.get(node, set())
        return matches

    def _find_concept(self, label: str) -> Optional[int]:
        wanted = label.strip().lower()
        try:
            return self._hierarchy.by_label(label)
        except KeyError:
            pass
        for node in range(len(self._hierarchy)):
            if self._hierarchy.label(node).lower() == wanted:
                return node
        return None


class FieldedEngineAdapter:
    """Adapt :class:`FieldedSearchEngine` to the plain-engine interface.

    The simulated :class:`~repro.eutils.client.EntrezClient` consumes a
    ``search(term) → QueryResult`` engine; this adapter lets it serve
    fielded queries (in particular the ``[mh:noexp]`` concept queries the
    off-line harvester issues).  Results are ranked by ascending PMID —
    field queries carry no TF-IDF signal.
    """

    def __init__(self, engine: FieldedSearchEngine):
        self._engine = engine

    def search(self, query: str) -> "QueryResult":
        """Evaluate ``query`` and wrap the matches as a QueryResult."""
        from repro.search.engine import QueryResult

        pmids = tuple(sorted(self._engine.search(query)))
        return QueryResult(query=query, pmids=pmids)
