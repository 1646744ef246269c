"""Result ranks in the results CSR, against an ``np.unique``-over-PMIDs oracle.

A navigation tree stores each citation as its rank in the query's sorted
result set, and a component's distinct citations are a mark over those
ranks.  Over random trees from both builders — ``from_store`` under
random results and roots, and ``from_csr`` with non-contiguous citation
ids, empty rows and an unannotated root — and over random components
(the root, then the uppers and lowers random EXPANDs leave, with their
excluded subtrees), ``Component.distinct_results``, the component counts
the active tree shows, ``subtree_result_counts`` and SHOWRESULTS must
equal :mod:`tests.oracles.distinct_reference`, which unions the source
annotations' PMIDs and never reads the CSR.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edgecut import subtree_result_counts
from repro.core.navigation_tree import NavigationTree
from repro.core.session import NavigationSession
from repro.core.strategy import CutDecision, ExpansionStrategy
from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.substrate import SubstrateBuilder, SynthSpec, synthetic_background, synthetic_chunks
from tests.oracles.distinct_reference import distinct_pmids, store_annotations, subtree_counts


class RandomCuts(ExpansionStrategy):
    """Cuts a random valid EdgeCut: one random member, then members in
    preorder, each picked with probability 1/3 unless it shares a
    root-to-leaf path with one already picked."""

    name = "random-cuts"

    def __init__(self, tree: NavigationTree, seed: int):
        self.tree = tree
        self.rng = random.Random(seed)

    def best_cut(self, component):
        members = list(component)[1:]
        picked = [members[self.rng.randrange(len(members))]]
        for node in members:
            if self.rng.random() < 1 / 3 and not any(
                self.tree.is_tree_ancestor(p, node) or self.tree.is_tree_ancestor(node, p)
                for p in picked
            ):
                picked.append(node)
        return CutDecision(cut=tuple((self.tree.parent(node), node) for node in picked))


def assert_matches_oracle(tree: NavigationTree, annotations, seed: int) -> None:
    """Every distinct set and count of ``tree`` equals the oracle's, over
    the components a few random EXPANDs leave."""
    nodes = tree.nodes()
    assert np.array_equal(
        subtree_result_counts(tree, nodes), subtree_counts(annotations, tree, nodes)
    )
    rng = random.Random(seed)
    picked = rng.sample(nodes, min(len(nodes), 5))
    assert np.array_equal(
        subtree_result_counts(tree, picked), subtree_counts(annotations, tree, picked)
    )
    session = NavigationSession(tree, RandomCuts(tree, seed))
    for _ in range(4):
        for node in session.active.visible_nodes():
            component = session.active.component(node)
            expected = distinct_pmids(annotations, component)
            distinct = component.distinct_results()
            assert distinct.dtype == np.int64
            assert np.array_equal(distinct, expected), (node, component.excluded)
            assert session.active.stats(node).count == len(expected)
            assert session.show_results(node) == expected.tolist()
        expandable = [n for n in session.active.visible_nodes() if session.active.is_expandable(n)]
        if not expandable:
            break
        session.expand(rng.choice(expandable))


# ---------------------------------------------------------------------------
# from_store: a small synthetic substrate, random results and roots
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def substrate():
    hierarchy = generate_hierarchy(target_size=400, seed=7)
    builder = SubstrateBuilder(None, num_concepts=len(hierarchy))
    builder.build(
        synthetic_chunks(SynthSpec(citations=1500, num_concepts=len(hierarchy), seed=7)),
        hierarchy=hierarchy,
        background=synthetic_background(len(hierarchy), seed=7),
    )
    return hierarchy, builder.open()


class TestFromStore:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_results_and_roots(self, substrate, data):
        hierarchy, store = substrate
        stored = store.pmids()
        pmids = data.draw(
            st.lists(
                st.one_of(st.sampled_from(stored), st.integers(1, 2 * max(stored))),
                max_size=120,
            )
        )
        root = data.draw(st.one_of(st.none(), st.integers(0, len(hierarchy) - 1)))
        tree = NavigationTree.from_store(hierarchy, store, pmids, root=root)
        assert tree.result_values_array().dtype == np.int32
        assert np.array_equal(tree.result_pmids(), np.unique(np.intersect1d(pmids, stored)))
        assert_matches_oracle(tree, store_annotations(store, pmids), data.draw(st.integers(0, 99)))

    def test_a_concept_query(self, substrate):
        hierarchy, store = substrate
        concept = max(range(len(hierarchy)), key=lambda c: (store.result_count(c), -c))
        pmids = store.boolean_and([concept])
        tree = NavigationTree.from_store(hierarchy, store, pmids)
        assert len(tree) > 50
        assert_matches_oracle(tree, store_annotations(store, pmids), seed=3)


# ---------------------------------------------------------------------------
# from_csr: sparse ids, empty rows, unannotated roots
# ---------------------------------------------------------------------------
@st.composite
def csr_cases(draw):
    """A random hierarchy and an annotation CSR over it: citation ids
    spread far apart, some rows empty, the root annotated or not."""
    n = draw(st.integers(1, 30))
    parents = [-1] + [draw(st.integers(0, node - 1)) for node in range(1, n)]
    hierarchy = ConceptHierarchy.from_parents(parents, ["n%d" % node for node in range(n)])
    concepts = draw(st.lists(st.integers(0, n - 1), unique=True))
    rows: Dict[int, Set[int]] = {
        concept: draw(st.sets(st.integers(0, 40).map(lambda i: 7 + 1_000_003 * i), max_size=6))
        for concept in concepts
    }
    root = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return hierarchy, rows, root


def csr_tree(hierarchy: ConceptHierarchy, rows: Dict[int, Iterable[int]], root) -> NavigationTree:
    concepts = list(rows)
    offsets = np.cumsum([0] + [len(rows[c]) for c in concepts])
    values = [pmid for concept in concepts for pmid in sorted(rows[concept])]
    return NavigationTree.from_csr(hierarchy, concepts, offsets, values, root)


class TestFromCsr:
    @settings(max_examples=80, deadline=None)
    @given(case=csr_cases(), seed=st.integers(0, 99))
    def test_random_csr_trees(self, case, seed):
        hierarchy, rows, root = case
        tree = csr_tree(hierarchy, rows, root)
        assert tree.result_values_array().dtype == np.int32
        for node in tree.nodes():
            assert tree.results(node).tolist() == sorted(rows.get(node, ()))
        assert_matches_oracle(tree, rows, seed)

    def test_unannotated_root_and_empty_rows(self):
        hierarchy = ConceptHierarchy.from_parents([-1, 0, 0, 1, 1], ["r", "a", "b", "c", "d"])
        rows = {3: {5_000_011, 9}, 2: set(), 4: {9, 70_000_000}}
        tree = csr_tree(hierarchy, rows, None)
        assert tree.nodes() == [0, 3, 4, 2]
        assert tree.result_pmids().tolist() == [9, 5_000_011, 70_000_000]
        assert tree.result_values_array().tolist() == [0, 1, 0, 2]
        assert tree.results(0).size == 0 and tree.results(2).size == 0
        assert_matches_oracle(tree, rows, seed=1)
