"""Keyword query engine: one :class:`SearchEngine` over the corpus store.

Conjunctive free-text search with TF-IDF ranking, intersected with
``[mh]`` concept terms answered from the store's own postings; plus the
§IX-style refinement suggestions over a result set.
"""

from repro.search.engine import QueryResult, SearchEngine
from repro.search.ranking import rank_results, tf_idf_score
from repro.search.suggest import (
    ConceptSuggestion,
    TermSuggestion,
    suggest_concepts,
    suggest_terms,
)

__all__ = [
    "ConceptSuggestion",
    "QueryResult",
    "SearchEngine",
    "TermSuggestion",
    "rank_results",
    "suggest_concepts",
    "suggest_terms",
    "tf_idf_score",
]
