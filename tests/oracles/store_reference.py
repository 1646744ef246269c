"""The dict-based corpus store, retained as a test oracle.

``InMemoryStore`` answers every corpus-store question straight from a
:class:`~repro.corpus.medline.MedlineDatabase` through per-citation
Python sets and dicts: concept membership is a lazily built
concept → sorted-PMID dict, boolean AND is a chain of
``np.intersect1d`` calls, and the navigation tree's annotation
restriction is grouped citation by citation.  None of it shares code
with :class:`repro.substrate.store.MmapStore`'s CSR arrays and its
``searchsorted`` AND over the concept CSR, which is the point:
``tests/test_substrate_equivalence.py`` pins both forms of the one
store (in-memory build, mapped directory) to these answers.

:func:`annotation_arrays` regroups a store's citation → concept rows
into the concept → PMIDs CSR the tests compare against the oracle.

Do not use this module in production code paths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy

__all__ = ["InMemoryStore", "annotation_arrays"]


class InMemoryStore:
    """A :class:`MedlineDatabase` presented as a corpus store (oracle)."""

    def __init__(
        self,
        medline: MedlineDatabase,
        hierarchy: Optional[ConceptHierarchy] = None,
    ):
        self._medline = medline
        self._hierarchy = hierarchy
        self._by_concept: Optional[Dict[int, np.ndarray]] = None

    # -- citation table -------------------------------------------------
    def __len__(self) -> int:
        return len(self._medline)

    def __contains__(self, pmid: int) -> bool:
        return pmid in self._medline

    def pmids(self) -> List[int]:
        """All stored PMIDs, ascending."""
        return self._medline.pmids()

    def concepts_of(self, pmid: int) -> Tuple[int, ...]:
        """Sorted association set of one citation (KeyError when absent)."""
        return tuple(sorted(set(self._medline.get(pmid).concepts)))

    # -- concept membership ---------------------------------------------
    def _concept_index(self) -> Dict[int, np.ndarray]:
        if self._by_concept is None:
            buckets: Dict[int, List[int]] = {}
            for citation in self._medline.iter_citations():
                for concept in set(citation.concepts):
                    buckets.setdefault(concept, []).append(citation.pmid)
            self._by_concept = {
                concept: np.array(sorted(ids), dtype=np.int64)
                for concept, ids in buckets.items()
            }
        return self._by_concept

    @property
    def num_concepts(self) -> int:
        """Hierarchy size when known, else one past the max observed concept."""
        if self._hierarchy is not None:
            return len(self._hierarchy)
        index = self._concept_index()
        return max(index) + 1 if index else 0

    def citations_for_concept(self, concept: int) -> np.ndarray:
        """Ascending int64 PMIDs associated with ``concept``."""
        return self._concept_index().get(concept, np.empty(0, dtype=np.int64))

    def result_count(self, concept: int) -> int:
        """Citations in this corpus associated with ``concept``."""
        return self._medline.corpus_count(concept)

    def medline_count(self, concept: int) -> int:
        """``LT(n)``: corpus count plus the simulated background mass."""
        return self._medline.medline_count(concept)

    # -- derived answers ------------------------------------------------
    def boolean_and(self, concepts: Sequence[int]) -> np.ndarray:
        """PMIDs associated with every concept, ascending (int64)."""
        if not concepts:
            return np.empty(0, dtype=np.int64)
        sets = sorted((self.citations_for_concept(c) for c in concepts), key=len)
        result = sets[0]
        for other in sets[1:]:
            if result.size == 0:
                break
            result = np.intersect1d(result, other, assume_unique=True)
        return result.astype(np.int64, copy=False)

    def annotations_for_result(
        self, pmids: Sequence[int]
    ) -> Dict[int, FrozenSet[int]]:
        """concept → set of result PMIDs attached to it (missing skipped)."""
        by_concept: Dict[int, set] = {}
        for pmid in pmids:
            if pmid not in self:
                continue
            for concept in self.concepts_of(pmid):
                by_concept.setdefault(concept, set()).add(pmid)
        return {concept: frozenset(ids) for concept, ids in by_concept.items()}


def annotation_arrays(
    store, pmids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """concept → result PMIDs, in CSR form, from ``store.annotation_rows``.

    Returns ``(concepts, offsets, values)``: the annotated concept ids
    ascending (int64), int64 CSR offsets, and each concept's sorted
    result PMIDs (int64); PMIDs not in the store are skipped.  One
    stable sort by concept inverts the rows (PMIDs ascend in them, so
    each concept's run comes out sorted).
    """
    result, lengths, flat = store.annotation_rows(pmids)
    order = np.argsort(flat, kind="stable")
    values = np.repeat(result, lengths)[order]
    concepts, starts = np.unique(np.asarray(flat, dtype=np.int64)[order], return_index=True)
    return concepts, np.append(starts, len(values)).astype(np.int64), values
