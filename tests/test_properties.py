"""Property-based tests (hypothesis) on the core invariants."""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.complexity.mes import MESInstance, mes_optimum
from repro.complexity.reduction import mes_to_ted, ted_subtree_count_for_k
from repro.complexity.ted import ted_best_duplicates
from repro.core.active_tree import ActiveTree
from repro.core.edgecut import Component, is_valid_edgecut
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import CutTree, OptEdgeCut
from repro.core.partition import k_partition
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.concept import ConceptHierarchy
from repro.storage.index import InvertedIndex, tokenize
from tests.oracles.active_tree_reference import cut_components
from tests.oracles.member_sets import (
    component_edges,
    is_valid_member_cut,
    subtree_results,
    tree_from_mapping,
)
from tests.oracles.opt_edgecut_reference import ReferenceOptEdgeCut
from tests.oracles.partition_reference import preorder_arrays


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def hierarchies(draw, min_nodes: int = 2, max_nodes: int = 25):
    """Random hierarchy encoded as a parent vector."""
    n = draw(st.integers(min_nodes, max_nodes))
    parents = [-1] + [draw(st.integers(0, node - 1)) for node in range(1, n)]
    return ConceptHierarchy.from_parents(
        parents, ["root"] + ["n%d" % node for node in range(1, n)]
    )


@st.composite
def navigation_scenarios(draw, max_nodes: int = 20, max_citations: int = 30):
    """(hierarchy, annotations, tree) with random sparse annotations."""
    h = draw(hierarchies(min_nodes=2, max_nodes=max_nodes))
    annotations: Dict[int, Set[int]] = {}
    for node in range(1, len(h)):
        if draw(st.booleans()):
            ids = draw(
                st.sets(st.integers(1, max_citations), min_size=1, max_size=8)
            )
            annotations[node] = ids
    tree = tree_from_mapping(h, annotations)
    return h, annotations, tree


@st.composite
def random_valid_cuts(draw, tree: NavigationTree, component):
    """A random valid EdgeCut: greedily add non-conflicting edges."""
    members = frozenset(component)
    edges = component_edges(tree, members)
    chosen: List[Tuple[int, int]] = []
    for edge in edges:
        if not draw(st.booleans()):
            continue
        candidate = chosen + [edge]
        if is_valid_member_cut(tree, members, candidate):
            chosen.append(edge)
    return chosen


# ---------------------------------------------------------------------------
# Maximum embedding
# ---------------------------------------------------------------------------
class TestEmbeddingProperties:
    @given(navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_kept_nodes_are_exactly_the_annotated_plus_root(self, scenario):
        h, annotations, tree = scenario
        expected = {n for n, ids in annotations.items() if ids} | {h.root}
        assert set(tree.nodes()) == expected

    @given(navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_embedding_preserves_ancestry_both_ways(self, scenario):
        h, _, tree = scenario
        nodes = tree.nodes()
        for a in nodes:
            for b in nodes:
                assert h.is_ancestor(a, b) == tree.is_tree_ancestor(a, b)

    @given(navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_subtree_results_monotone_in_ancestry(self, scenario):
        _, _, tree = scenario
        for parent, child in tree.edges():
            assert subtree_results(tree, child) <= subtree_results(tree, parent)

    @given(navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_root_subtree_results_is_union_of_annotations(self, scenario):
        _, annotations, tree = scenario
        union: Set[int] = set()
        for ids in annotations.values():
            union |= ids
        assert subtree_results(tree, tree.root) == frozenset(union)


# ---------------------------------------------------------------------------
# EdgeCuts and the active tree
# ---------------------------------------------------------------------------
class TestEdgeCutProperties:
    @given(st.data(), navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_random_valid_cut_partitions_component(self, data, scenario):
        _, _, tree = scenario
        component = frozenset(tree.iter_dfs())
        cut = data.draw(random_valid_cuts(tree, component))
        if not cut:
            return
        upper, lowers = cut_components(tree, component, tree.root, cut)
        pieces = [upper] + list(lowers.values())
        assert frozenset().union(*pieces) == component
        assert sum(len(p) for p in pieces) == len(component)

    @given(st.data(), navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_active_tree_closed_under_expand(self, data, scenario):
        _, _, tree = scenario
        active = ActiveTree(tree)
        for _ in range(3):
            roots = active.component_roots()
            if not roots:
                break
            node = data.draw(st.sampled_from(sorted(roots)))
            cut = data.draw(random_valid_cuts(tree, active.component(node)))
            if not cut:
                break
            active.expand(node, cut)
            # Invariant: non-singleton components are disjoint and every
            # node is visible or inside exactly one component.
            seen: Set[int] = set()
            for root in active.component_roots():
                members = frozenset(active.component(root))
                assert not (seen & (members - {root}))
                seen |= members
            for n in tree.iter_dfs():
                assert active.is_visible(n) or any(
                    n in active.component(r) for r in active.component_roots()
                )

    @given(st.data(), navigation_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_backtrack_restores_exact_state(self, data, scenario):
        _, _, tree = scenario
        active = ActiveTree(tree)
        before_visible = set(active.visible_nodes())
        component = active.component(tree.root) if active.is_expandable(tree.root) else None
        if component is None:
            return
        cut = data.draw(random_valid_cuts(tree, component))
        if not cut:
            return
        active.expand(tree.root, cut)
        active.backtrack()
        assert set(active.visible_nodes()) == before_visible


# ---------------------------------------------------------------------------
# Opt-EdgeCut and the heuristic
# ---------------------------------------------------------------------------
class TestOptimizerProperties:
    @given(navigation_scenarios(max_nodes=9))
    @settings(max_examples=40, deadline=None)
    def test_opt_cut_never_worse_than_any_cut(self, scenario):
        _, _, tree = scenario
        if tree.size() < 2:
            return
        probs = ProbabilityModel(tree, lambda n: 100)
        cut_tree = CutTree.from_component(tree, probs, Component(tree, tree.root))
        best = OptEdgeCut(cut_tree, probs).solve()
        reference = ReferenceOptEdgeCut(cut_tree, probs)
        full = frozenset(range(len(cut_tree)))
        for cut in reference._enumerate_cuts(0, full):
            if not cut:
                continue
            assert best.expansion_term <= reference._expansion_term(full, 0, cut) + 1e-9

    @given(navigation_scenarios(max_nodes=25))
    @settings(max_examples=40, deadline=None)
    def test_heuristic_cut_is_always_valid(self, scenario):
        _, _, tree = scenario
        if tree.size() < 2:
            return
        probs = ProbabilityModel(tree, lambda n: 100)
        strategy = HeuristicReducedOpt(tree, probs, max_reduced_nodes=6)
        component = Component(tree, tree.root)
        decision = strategy.best_cut(component)
        assert decision.cut
        assert is_valid_edgecut(tree, component, decision.cut)
        assert decision.reduced_size <= max(6, 2)


# ---------------------------------------------------------------------------
# Baseline strategies
# ---------------------------------------------------------------------------
class TestBaselineStrategyProperties:
    @given(navigation_scenarios(max_nodes=20), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_paged_static_pages_partition_children(self, scenario, page_size):
        """Paging reveals every child exactly once, in ≤ ceil(n/k) pages."""
        from repro.core.paged_static import PagedStaticNavigation

        _, _, tree = scenario
        if tree.size() < 2:
            return
        strategy = PagedStaticNavigation(tree, page_size=page_size)
        active = ActiveTree(tree)
        seen: Set[int] = set()
        pages = 0
        while active.is_expandable(tree.root):
            decision = strategy.best_cut(active.component(tree.root))
            if not decision.cut:
                break
            revealed = {child for _, child in decision.cut}
            assert revealed.isdisjoint(seen)
            assert len(revealed) <= page_size
            seen |= revealed
            active.expand(tree.root, decision.cut)
            pages += 1
            assert pages <= len(tree.children(tree.root)) + 1
        assert seen == set(tree.children(tree.root))

    @given(navigation_scenarios(max_nodes=20))
    @settings(max_examples=40, deadline=None)
    def test_gopubmed_cuts_are_valid(self, scenario):
        from repro.core.gopubmed import GoPubMedNavigation

        _, _, tree = scenario
        if tree.size() < 2:
            return
        strategy = GoPubMedNavigation(tree, top_k=3)
        active = ActiveTree(tree)
        for _ in range(5):
            roots = active.component_roots()
            if not roots:
                break
            node = sorted(roots)[0]
            decision = strategy.best_cut(active.component(node))
            if not decision.cut:
                break
            assert is_valid_edgecut(tree, active.component(node), decision.cut)
            active.expand(node, decision.cut)


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------
class TestProbabilityProperties:
    @given(navigation_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_explore_is_a_distribution(self, scenario):
        _, _, tree = scenario
        probs = ProbabilityModel(tree, lambda n: 100)
        values = [probs.explore_node(n) for n in tree.iter_dfs()]
        assert all(v >= 0 for v in values)
        if tree.size() > 1:
            assert math.isclose(sum(values), 1.0, rel_tol=1e-9)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=10),
        st.integers(0, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_expand_probability_bounded(self, counts, distinct):
        h = ConceptHierarchy.from_parents([-1, 0], ["MeSH", "a"])
        tree = tree_from_mapping(h, {1: {1}})
        probs = ProbabilityModel(tree, lambda n: 100)
        value = probs.expand_from_distribution(counts, distinct)
        assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# k-partition
# ---------------------------------------------------------------------------
class TestPartitionProperties:
    @given(hierarchies(min_nodes=2, max_nodes=30), st.floats(0.5, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_and_is_contiguous(self, h, delta):
        adjacency = {n: list(h.children(n)) for n in range(len(h))}
        weights = {n: float((n * 7) % 5) for n in range(len(h))}
        parents, sizes, node_weights, ids = preorder_arrays(adjacency, 0, weights)
        parts = k_partition(parents, sizes, node_weights, ids, delta)
        seen = sorted(n for part in parts for n in part)
        assert seen == list(range(len(h)))
        for part in parts:
            members = set(part)
            root = part[0]
            for member in part:
                if member != root:
                    assert h.parent(member) in members


# ---------------------------------------------------------------------------
# Theorem 1 reduction
# ---------------------------------------------------------------------------
class TestReductionProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_mes_and_ted_optima_agree(self, data):
        n = data.draw(st.integers(2, 5))
        vertices = list(range(n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                weight = data.draw(st.integers(0, 4))
                if weight:
                    edges.append((u, v, weight))
        instance = MESInstance.from_edges(vertices, edges)
        tree, _ = mes_to_ted(instance)
        k = data.draw(st.integers(1, n))
        assert ted_best_duplicates(
            tree, ted_subtree_count_for_k(instance, k)
        ) == mes_optimum(instance, k)


# ---------------------------------------------------------------------------
# Keyword index
# ---------------------------------------------------------------------------
class TestIndexProperties:
    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=30), min_size=1, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_search_results_contain_all_query_terms(self, docs):
        index = InvertedIndex()
        for i, doc in enumerate(docs):
            index.add_document(i, doc)
        query = docs[0]
        terms = set(tokenize(query))
        for doc_id in index.search(query):
            doc_terms = set(tokenize(docs[doc_id]))
            assert terms <= doc_terms

    @given(st.text(alphabet="abcXYZ 123+-/", max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_tokenize_is_lowercase_and_stable(self, text):
        tokens = tokenize(text)
        assert tokens == tokenize(text.lower())
        assert all(t == t.lower() for t in tokens)
