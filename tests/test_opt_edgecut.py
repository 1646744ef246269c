"""Unit tests for repro.core.opt_edgecut."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.opt_edgecut import MAX_OPT_NODES, BestCut, CutTree, OptEdgeCut
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import tree_from_mapping
from tests.oracles.opt_edgecut_reference import ReferenceOptEdgeCut, subtree_indices


def make_tree(annotations):
    # root(0) -> a(1) -> b(2), c(3);  root -> d(4)
    h = ConceptHierarchy.from_parents([-1, 0, 1, 1, 0], ["root", "a", "b", "c", "d"])
    return tree_from_mapping(h, annotations)


@pytest.fixture()
def tree():
    return make_tree(
        {
            1: set(range(0, 30)),
            2: set(range(0, 15)),
            3: set(range(15, 30)),
            4: set(range(30, 60)),
        }
    )


@pytest.fixture()
def probs(tree):
    return ProbabilityModel(tree, lambda n: 1000, upper_threshold=20, lower_threshold=5)


class TestCutTree:
    def test_from_component_payload_maps_back(self, tree, probs):
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        assert cut_tree.payload[0] == tree.root
        assert set(cut_tree.payload) == set(component)

    def test_from_component_preserves_structure(self, tree, probs):
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        index = {payload: i for i, payload in enumerate(cut_tree.payload)}
        for parent, child in tree.edges():
            assert index[child] in cut_tree.children[index[parent]]

    def test_from_sub_component(self, tree, probs):
        component = Component(tree, 1)
        cut_tree = CutTree.from_component(tree, probs, component)
        assert len(cut_tree) == 3
        assert cut_tree.payload[0] == 1

    def test_subtree_indices(self, tree, probs):
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        root_subtree = subtree_indices(cut_tree, 0)
        assert root_subtree == frozenset(range(len(cut_tree)))

    def test_mismatched_field_lengths_rejected(self):
        with pytest.raises(ValueError):
            CutTree(
                children=[[]],
                results=[np.zeros(0, dtype=np.int64)] * 2,
                explore=[1.0],
                member_counts=[[0]],
                payload=[0],
            )


class TestOptEdgeCut:
    def test_rejects_oversized_trees(self, tree, probs):
        huge = CutTree(
            children=[[i + 1] for i in range(MAX_OPT_NODES)] + [[]],
            results=[np.array([i]) for i in range(MAX_OPT_NODES + 1)],
            explore=[1.0] * (MAX_OPT_NODES + 1),
            member_counts=[[1]] * (MAX_OPT_NODES + 1),
            payload=list(range(MAX_OPT_NODES + 1)),
        )
        with pytest.raises(ValueError):
            OptEdgeCut(huge, probs)

    def test_solves_whole_tree(self, tree, probs):
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        best = OptEdgeCut(cut_tree, probs).solve()
        assert isinstance(best, BestCut)
        assert best.cut  # the full tree is expandable
        assert best.expected_cost > 0

    def test_singleton_component_has_no_cut(self, tree, probs):
        cut_tree = CutTree.from_component(tree, probs, Component(tree, 4))
        best = OptEdgeCut(cut_tree, probs).solve()
        assert best.cut == ()
        assert best.expansion_term == 0.0

    def test_optimal_beats_every_enumerated_cut(self, tree, probs):
        """Exhaustive check: no single first cut leads to lower cost."""
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        best = OptEdgeCut(cut_tree, probs).solve()
        reference = ReferenceOptEdgeCut(cut_tree, probs)
        full = frozenset(range(len(cut_tree)))
        all_cuts = [c for c in reference._enumerate_cuts(0, full) if c]
        for cut in all_cuts:
            term = reference._expansion_term(full, 0, cut)
            assert best.expansion_term <= term + 1e-12

    def test_memoization_reuses_components(self, tree, probs):
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        solver = OptEdgeCut(cut_tree, probs)
        solver.solve()
        memo_size = len(solver._memo)
        solver.solve()  # second call hits the memo
        assert len(solver._memo) == memo_size

    def test_enumerated_cuts_are_antichains(self, tree, probs):
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        reference = ReferenceOptEdgeCut(cut_tree, probs)
        for cut in reference._enumerate_cuts(0, frozenset(range(len(cut_tree)))):
            children_cut = [child for _, child in cut]
            for a, b in itertools.combinations(children_cut, 2):
                assert a not in subtree_indices(cut_tree, b)
                assert b not in subtree_indices(cut_tree, a)

    def test_expand_cost_increase_reveals_more(self, tree, probs):
        """Paper §III: a higher EXPAND cost reveals more concepts per cut."""
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        cheap = OptEdgeCut(cut_tree, probs, CostParams(expand_cost=0.1)).solve()
        expensive = OptEdgeCut(cut_tree, probs, CostParams(expand_cost=50.0)).solve()
        assert len(expensive.cut) >= len(cheap.cut)

    def test_duplicate_aware_grouping(self):
        """Concepts sharing citations should be grouped, not split apart.

        Nodes b and c duplicate the same citations; d holds different
        ones.  With SHOWRESULTS likely (low expand probability), cutting
        between b/c wastes user effort re-reading duplicates.
        """
        tree = make_tree(
            {
                1: set(range(0, 12)),
                2: set(range(0, 12)),   # pure duplicates of a
                3: set(range(0, 12)),   # pure duplicates of a
                4: set(range(20, 32)),  # disjoint
            }
        )
        probs = ProbabilityModel(tree, lambda n: 1000, upper_threshold=100, lower_threshold=1)
        component = Component(tree, tree.root)
        cut_tree = CutTree.from_component(tree, probs, component)
        best = OptEdgeCut(cut_tree, probs).solve()
        index = {payload: i for i, payload in enumerate(cut_tree.payload)}
        cut_children = {cut_tree.payload[c] for _, c in best.cut}
        # The duplicate-heavy a-subtree should not be split internally:
        # edges (1,2) and (1,3) stay uncut.
        assert 2 not in cut_children
        assert 3 not in cut_children
