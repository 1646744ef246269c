"""Array-native NavigationTree vs the retained dict-based oracle.

The vectorized builder (`repro.core.navigation_tree.NavigationTree`)
must be *observationally identical* to the legacy per-node
implementation retained as `ReferenceNavigationTree`: same nodes in the
same preorder, same parent/children maps, same per-node result sets,
same subtree sizes — and, downstream, bit-identical cost-model arrays,
probability masses, and Opt-EdgeCut cuts/costs.  A hypothesis
sweep over random hierarchies × sparse annotation maps enforces this,
plus directed edge cases (empty root, all-empty subtrees, single
citation, truthy-but-empty annotation iterables) and both store forms
(in-memory build, mapped directory) for the ``from_store`` path.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import MAX_OPT_NODES, CutTree, OptEdgeCut
from repro.core.probabilities import ProbabilityModel
from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.substrate import (
    MmapStore,
    SubstrateBuilder,
    citation_chunks,
    medline_store,
)
from tests.oracles.cost_identity import models_identical
from tests.oracles.member_sets import subtree_results, tree_from_mapping
from tests.oracles.navigation_tree_reference import ReferenceNavigationTree
from tests.oracles.store_reference import annotation_arrays


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def hierarchies(draw, min_nodes: int = 1, max_nodes: int = 30):
    """Random hierarchy encoded as a parent vector (ids are insertion order)."""
    n = draw(st.integers(min_nodes, max_nodes))
    parents = [-1] + [draw(st.integers(0, node - 1)) for node in range(1, n)]
    return ConceptHierarchy.from_parents(
        parents, ["root"] + ["n%d" % node for node in range(1, n)]
    )


@st.composite
def annotation_maps(draw, hierarchy, max_citations: int = 40):
    """Sparse node → citation-set annotations (root included sometimes)."""
    annotations: Dict[int, Set[int]] = {}
    for node in range(len(hierarchy)):
        if draw(st.booleans()):
            annotations[node] = draw(
                st.sets(st.integers(1, max_citations), min_size=1, max_size=6)
            )
    return annotations


# ---------------------------------------------------------------------------
# Equivalence helpers
# ---------------------------------------------------------------------------
def assert_trees_identical(tree: NavigationTree, ref: ReferenceNavigationTree):
    """Every observable of the embedded tree matches the oracle's."""
    assert len(tree) == len(ref)
    assert tree.root == ref.root
    assert list(tree.iter_dfs()) == list(ref.iter_dfs())  # same preorder
    assert set(tree.nodes()) == set(ref.nodes())
    assert sorted(tree.edges()) == sorted(ref.edges())
    for node in ref.nodes():
        assert node in tree
        assert tree.parent(node) == ref.parent(node)
        assert tuple(tree.children(node)) == tuple(ref.children(node))
        assert tree.is_leaf(node) == ref.is_leaf(node)
        assert tree.results(node).tolist() == sorted(ref.results(node))
        assert tree.subtree_size(node) == ref.subtree_size(node)
        assert frozenset(tree.iter_dfs(node)) == ref.subtree_nodes(node)
        assert subtree_results(tree, node) == ref.subtree_results(node)
        assert tree.tree_depth(node) == ref.tree_depth(node)
        assert list(tree.iter_dfs(node)) == list(ref.iter_dfs(node))
    assert tree.size() == ref.size()
    assert tree.max_width() == ref.max_width()
    assert tree.height() == ref.height()
    assert tree.citations_with_duplicates() == ref.citations_with_duplicates()
    assert subtree_results(tree, tree.root) == ref.all_results()
    # Missing-node contract: same exception, same message.
    missing = max(ref.nodes()) + 1000
    with pytest.raises(KeyError) as new_err:
        tree.parent(missing)
    with pytest.raises(KeyError) as ref_err:
        ref.parent(missing)
    assert str(new_err.value) == str(ref_err.value)


def assert_costs_identical(tree: NavigationTree, ref: ReferenceNavigationTree):
    """Downstream cost model + Opt-EdgeCut are bit-identical."""
    probs_new = ProbabilityModel(tree, lambda n: 500)
    probs_ref = ProbabilityModel(ref, lambda n: 500)
    # The model ingests both trees through their preorder buffers: the
    # array tree's own, and the oracle's rebuilt from its dicts; equal
    # bytes mean the two constructions feed every solve the same inputs.
    assert models_identical(probs_new, probs_ref)
    assert np.array_equal(tree.preorder_array(), ref.preorder_array())
    assert np.array_equal(probs_new.explore_mass, probs_ref.explore_mass)
    assert probs_new.normalizer == probs_ref.normalizer
    for node in ref.nodes():
        assert probs_new.node_mass(node) == probs_ref.node_mass(node)
    if len(ref) > MAX_OPT_NODES:
        return
    cut_new = CutTree.from_component(tree, probs_new, Component(tree, tree.root))
    cut_ref = CutTree.from_component(ref, probs_ref, Component(ref, ref.root))
    best_new = OptEdgeCut(cut_new, probs_new, CostParams()).solve()
    best_ref = OptEdgeCut(cut_ref, probs_ref, CostParams()).solve()
    assert best_new.cut == best_ref.cut
    assert best_new.expected_cost == best_ref.expected_cost
    assert best_new.expansion_term == best_ref.expansion_term


def build_both(hierarchy, annotations):
    tree = tree_from_mapping(hierarchy, annotations)
    ref = ReferenceNavigationTree.build(hierarchy, annotations)
    return tree, ref


# ---------------------------------------------------------------------------
# Randomized sweep
# ---------------------------------------------------------------------------
class TestRandomizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_hierarchy_and_annotations(self, data):
        hierarchy = data.draw(hierarchies())
        annotations = data.draw(annotation_maps(hierarchy))
        tree, ref = build_both(hierarchy, annotations)
        assert_trees_identical(tree, ref)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_downstream_costs_bit_identical(self, data):
        hierarchy = data.draw(hierarchies(max_nodes=18))
        annotations = data.draw(annotation_maps(hierarchy))
        tree, ref = build_both(hierarchy, annotations)
        assert_costs_identical(tree, ref)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_subtree_roots(self, data):
        """Building from a non-root hierarchy node embeds the same subtree."""
        hierarchy = data.draw(hierarchies(min_nodes=3))
        annotations = data.draw(annotation_maps(hierarchy))
        root = data.draw(st.integers(0, len(hierarchy) - 1))
        tree = tree_from_mapping(hierarchy, annotations, root=root)
        ref = ReferenceNavigationTree.build(hierarchy, annotations, root=root)
        assert_trees_identical(tree, ref)


# ---------------------------------------------------------------------------
# Directed edge cases
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def _chain(self, n=5):
        return ConceptHierarchy.from_parents(
            list(range(-1, n - 1)), ["root"] + ["n%d" % i for i in range(1, n)]
        )

    def test_empty_root_no_annotations(self):
        """No annotations at all: the tree is exactly the (empty) root."""
        tree, ref = build_both(self._chain(), {})
        assert_trees_identical(tree, ref)
        assert len(tree) == 1
        assert tree.results(tree.root).tolist() == []
        assert_costs_identical(tree, ref)

    def test_all_empty_subtree_spliced_out(self):
        """A fully empty branch vanishes; its sibling branch survives."""
        h = ConceptHierarchy.from_parents(
            [-1, 0, 1, 0, 3], ["root", "left", "left-kid", "right", "right-kid"]
        )
        l_kid = 2
        tree, ref = build_both(h, {l_kid: {7, 8}})
        assert_trees_identical(tree, ref)
        assert set(tree.nodes()) == {0, l_kid}
        assert_costs_identical(tree, ref)

    def test_single_citation(self):
        h = self._chain(4)
        tree, ref = build_both(h, {3: {42}})
        assert_trees_identical(tree, ref)
        assert subtree_results(tree, tree.root) == {42}
        assert tree.citations_with_duplicates() == 1
        assert_costs_identical(tree, ref)

    def test_deep_kept_chain(self):
        """Every node kept on a deep chain (recursion-free embedding)."""
        n = 300
        h = self._chain(n)
        annotations = {i: {i} for i in range(1, n)}
        tree, ref = build_both(h, annotations)
        assert_trees_identical(tree, ref)
        assert tree.height() == n - 1

    def test_empty_iterable_annotation_dropped(self):
        """Falsy annotation values (empty list/set) splice the node out."""
        h = self._chain(4)
        annotations = {1: [], 2: set(), 3: [9]}
        tree, ref = build_both(h, dict(annotations))
        assert_trees_identical(tree, ref)
        assert set(tree.nodes()) == {0, 3}

    def test_truthy_empty_generator_keeps_node(self):
        """A truthy-but-empty iterable keeps the node with no results.

        The legacy builder tested emptiness by truthiness (``if ids``),
        so a generator that yields nothing still kept its node; the
        array builder preserves that wart bit for bit.
        """

        def empty_gen():
            return iter(())

        tree = tree_from_mapping(self._chain(3), {1: empty_gen(), 2: [5]})
        ref = ReferenceNavigationTree.build(
            self._chain(3), {1: empty_gen(), 2: [5]}
        )
        assert_trees_identical(tree, ref)
        assert 1 in tree
        assert tree.results(1).tolist() == []

    def test_out_of_range_concepts_ignored(self):
        """Annotation keys outside the hierarchy are silently dropped."""
        h = self._chain(3)
        annotations = {1: {4}, 99: {5}, -7: {6}, "x": {7}}
        tree, ref = build_both(h, dict(annotations))
        assert_trees_identical(tree, ref)
        assert set(tree.nodes()) == {0, 1}

    def test_duplicate_citations_within_node(self):
        """Duplicate ids inside one annotation collapse to a set once."""
        h = self._chain(3)
        tree, ref = build_both(h, {1: [5, 5, 9, 5], 2: (9,)})
        assert_trees_identical(tree, ref)
        assert tree.results(1).tolist() == [5, 9]
        assert tree.citations_with_duplicates() == 3


# ---------------------------------------------------------------------------
# from_store parity on both store forms
# ---------------------------------------------------------------------------
N_CITATIONS = 160


@pytest.fixture(scope="module")
def corpus():
    hierarchy = generate_hierarchy(target_size=120, seed=23)
    rng = np.random.default_rng(29)
    citations = []
    for i in range(N_CITATIONS):
        concepts = tuple(
            sorted(
                set(rng.integers(1, len(hierarchy), size=rng.integers(1, 9)).tolist())
            )
        )
        citations.append(
            Citation(
                pmid=40_000_000 + i,
                title="Nav-tree equivalence citation %d" % i,
                year=int(1995 + (i % 13)),
                index_concepts=concepts,
            )
        )
    background = {c: 100 + 2 * c for c in range(len(hierarchy))}
    return hierarchy, citations, background


@pytest.fixture(scope="module")
def memory_store(corpus):
    hierarchy, citations, background = corpus
    medline = MedlineDatabase(background_counts=background)
    medline.add_all(citations)
    return medline_store(medline, len(hierarchy), hierarchy=hierarchy)


@pytest.fixture(scope="module")
def mmap_store(corpus, tmp_path_factory):
    hierarchy, citations, background = corpus
    out = tmp_path_factory.mktemp("navtree-equivalence-substrate")
    builder = SubstrateBuilder(str(out), num_concepts=len(hierarchy))
    builder.build(
        citation_chunks(iter(citations), chunk_size=64),
        hierarchy=hierarchy,
        background=background,
    )
    return MmapStore.open(str(out))


class TestFromStoreParity:
    def _result_sets(self, corpus):
        hierarchy, citations, _ = corpus
        rng = np.random.default_rng(31)
        all_pmids = [c.pmid for c in citations]
        yield all_pmids
        yield all_pmids[:1]
        yield []
        for size in (5, 25, 90):
            yield sorted(rng.choice(all_pmids, size=size, replace=False).tolist())

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_from_store_matches_reference(
        self, corpus, memory_store, mmap_store, backend
    ):
        hierarchy = corpus[0]
        store = memory_store if backend == "memory" else mmap_store
        for pmids in self._result_sets(corpus):
            tree = NavigationTree.from_store(hierarchy, store, pmids)
            ref = ReferenceNavigationTree.from_store(hierarchy, store, pmids)
            assert_trees_identical(tree, ref)

    def test_backends_agree_with_each_other(self, corpus, memory_store, mmap_store):
        hierarchy = corpus[0]
        for pmids in self._result_sets(corpus):
            mem_tree = NavigationTree.from_store(hierarchy, memory_store, pmids)
            mm_tree = NavigationTree.from_store(hierarchy, mmap_store, pmids)
            assert list(mem_tree.iter_dfs()) == list(mm_tree.iter_dfs())
            for node in mem_tree.nodes():
                assert np.array_equal(mem_tree.results(node), mm_tree.results(node))

    def test_from_store_costs_match_reference(self, corpus, mmap_store):
        hierarchy = corpus[0]
        pmids = [c.pmid for c in corpus[1]][:8]
        tree = NavigationTree.from_store(hierarchy, mmap_store, pmids)
        ref = ReferenceNavigationTree.from_store(hierarchy, mmap_store, pmids)
        probs_new = ProbabilityModel(tree, mmap_store.medline_count)
        probs_ref = ProbabilityModel(ref, mmap_store.medline_count)
        assert models_identical(probs_new, probs_ref)
        assert probs_new.normalizer == probs_ref.normalizer


# ---------------------------------------------------------------------------
# from_store over a mapped store: the one embedding core, swept
# ---------------------------------------------------------------------------
#: Every embedded-preorder buffer a tree holds.
TREE_ARRAYS = (
    "_order",
    "_eparent",
    "_esize",
    "_res_off",
    "_res_val",
    "_result_pmids",
    "_pos_of",
)


def assert_arrays_identical(tree: NavigationTree, other: NavigationTree):
    """Equal buffers, value for value and dtype for dtype.

    The results CSR is compared as PMIDs: ``from_store`` ranks the whole
    store-held result and ``from_csr`` only the ids its rows hold, so
    the rank → PMID maps may differ while every row names the same
    citations.
    """
    for name in TREE_ARRAYS:
        mine, theirs = getattr(tree, name), getattr(other, name)
        assert mine.dtype == theirs.dtype, name
        if name == "_res_val":
            mine, theirs = tree._result_pmids[mine], other._result_pmids[theirs]
        if name != "_result_pmids":
            assert np.array_equal(mine, theirs), name


def assert_store_tree_matches(hierarchy, store, pmids, root=None):
    """``from_store`` equals the oracle, and ``from_csr`` array for array."""
    tree = NavigationTree.from_store(hierarchy, store, pmids, root=root)
    ref = ReferenceNavigationTree.from_store(hierarchy, store, pmids, root=root)
    assert_trees_identical(tree, ref)
    concepts, offsets, values = annotation_arrays(store, pmids)
    csr_tree = NavigationTree.from_csr(hierarchy, concepts, offsets, values, root)
    assert_arrays_identical(tree, csr_tree)
    return tree


class TestFromStoreSweep:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_results_and_roots(self, corpus, mmap_store, data):
        """Random results (duplicates, absent PMIDs) under random roots."""
        hierarchy, citations, _ = corpus
        stored = st.sampled_from([c.pmid for c in citations])
        absent = st.integers(1, 39_999_999)
        pmids = data.draw(st.lists(st.one_of(stored, stored, absent), max_size=50))
        root = data.draw(st.one_of(st.none(), st.integers(0, len(hierarchy) - 1)))
        assert_store_tree_matches(hierarchy, mmap_store, pmids, root)

    def test_duplicate_and_absent_pmids(self, corpus, mmap_store):
        hierarchy, citations, _ = corpus
        pmids = [c.pmid for c in citations[:12]]
        tree = assert_store_tree_matches(
            hierarchy, mmap_store, pmids[::-1] + pmids[:5] + [7, 12_345_678]
        )
        assert_arrays_identical(
            tree, NavigationTree.from_store(hierarchy, mmap_store, pmids)
        )

    def test_all_concepts_outside_the_window(self, corpus, mmap_store):
        """A subtree root the result never annotates keeps only itself."""
        hierarchy, citations, _ = corpus
        pmid = citations[0].pmid
        annotated = set(mmap_store.concepts_of(pmid))
        root = next(
            node
            for node in range(len(hierarchy))
            if not annotated & set(hierarchy.subtree(node))
        )
        tree = assert_store_tree_matches(hierarchy, mmap_store, [pmid], root)
        assert tree.nodes() == [root]
        assert tree.results(root).size == 0

    def test_single_node_trees(self, corpus, mmap_store):
        hierarchy, citations, _ = corpus
        for pmids in ([], [12_345_678]):
            tree = assert_store_tree_matches(hierarchy, mmap_store, pmids)
            assert tree.nodes() == [hierarchy.root]
        # An annotated leaf as the root: one node holding its citations.
        pmid, leaf = next(
            (c.pmid, concept)
            for c in citations
            for concept in c.index_concepts
            if hierarchy.is_leaf(concept)
        )
        tree = assert_store_tree_matches(hierarchy, mmap_store, [pmid], leaf)
        assert tree.nodes() == [leaf]
        assert tree.results(leaf).tolist() == [pmid]

    def test_concepts_outside_the_hierarchy_are_dropped(self, corpus, tmp_path):
        """Store concept ids past the hierarchy (or negative CSR ids) vanish."""
        hierarchy, citations, background = corpus
        size = len(hierarchy)
        extra = [
            Citation(
                pmid=50_000_000 + i,
                title="Off-hierarchy citation %d" % i,
                year=2001,
                index_concepts=(1 + i, size + i),
            )
            for i in range(4)
        ]
        builder = SubstrateBuilder(str(tmp_path), num_concepts=size + 4)
        builder.build(citation_chunks(iter(citations[:20] + extra), chunk_size=8))
        store = MmapStore.open(str(tmp_path))
        pmids = [c.pmid for c in citations[:20] + extra]
        tree = assert_store_tree_matches(hierarchy, store, pmids)
        assert max(tree.nodes()) < size
        concepts, offsets, values = annotation_arrays(store, pmids)
        shifted = NavigationTree.from_csr(
            hierarchy,
            np.concatenate(([-3], concepts)),
            np.concatenate(([0], offsets + 1)),
            np.concatenate(([99], values)),
        )
        assert_arrays_identical(tree, shifted)
