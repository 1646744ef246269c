"""The ``np.unique``-over-PMIDs oracle for distinct citation sets.

A navigation tree numbers citations inside the query: its results CSR
holds result ranks, and a component's distinct set is a mark over them.
This oracle never reads that CSR.  It takes the concept → PMIDs
annotations the tree was built from and the member node ids a component
or subtree holds (tree structure only), and unions the members' PMIDs
with one ``np.unique``, as the distinct sets were computed before the CSR
held ranks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Set

import numpy as np

from repro.core.navigation_tree import NavigationTree

__all__ = ["store_annotations", "distinct_pmids", "subtree_counts"]


def store_annotations(store, pmids: Iterable[int]) -> Dict[int, Set[int]]:
    """Concept → PMIDs of the stored citations among ``pmids``."""
    held = set(store.pmids())
    annotations: Dict[int, Set[int]] = {}
    for pmid in set(pmids) & held:
        for concept in store.concepts_of(pmid):
            annotations.setdefault(int(concept), set()).add(pmid)
    return annotations


def distinct_pmids(
    annotations: Mapping[int, Iterable[int]], members: Iterable[int]
) -> np.ndarray:
    """Sorted distinct PMIDs the annotations attach to ``members``."""
    rows = [np.asarray(sorted(annotations.get(node, ())), dtype=np.int64) for node in members]
    return np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + rows))


def subtree_counts(
    annotations: Mapping[int, Iterable[int]], tree: NavigationTree, nodes: Sequence[int]
) -> np.ndarray:
    """Distinct PMIDs in each of ``nodes``' whole embedded subtrees."""
    return np.array(
        [len(distinct_pmids(annotations, tree.iter_dfs(node))) for node in nodes],
        dtype=np.int64,
    )
