"""Unit tests for repro.core.navigation_tree (maximum embedding)."""

from __future__ import annotations

import pytest

from repro.core.edgecut import Component
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import tree_from_mapping


@pytest.fixture()
def chain_hierarchy() -> ConceptHierarchy:
    # root -> a -> b -> c, plus root -> d
    return ConceptHierarchy.from_parents([-1, 0, 1, 2, 0], ["root", "a", "b", "c", "d"])


class TestMaximumEmbedding:
    def test_empty_internal_node_is_spliced_out(self, chain_hierarchy):
        # a and b empty, c annotated: c becomes a direct child of the root.
        tree = tree_from_mapping(chain_hierarchy, {3: {10}})
        assert set(tree.nodes()) == {0, 3}
        assert tree.parent(3) == 0

    def test_empty_leaf_is_dropped(self, chain_hierarchy):
        tree = tree_from_mapping(chain_hierarchy, {1: {10}})
        assert set(tree.nodes()) == {0, 1}

    def test_root_kept_even_when_empty(self, chain_hierarchy):
        tree = tree_from_mapping(chain_hierarchy, {4: {10}})
        assert tree.root == 0
        assert tree.results(0).tolist() == []

    def test_intermediate_annotated_node_is_kept(self, chain_hierarchy):
        tree = tree_from_mapping(chain_hierarchy, {2: {10}, 3: {11}})
        assert tree.parent(3) == 2
        assert tree.parent(2) == 0

    def test_annotations_with_empty_sets_treated_as_empty(self, chain_hierarchy):
        tree = tree_from_mapping(chain_hierarchy, {1: set(), 3: {10}})
        assert 1 not in tree
        assert 3 in tree

    def test_preserves_ancestor_descendant_relationships(self, fragment_hierarchy, fragment_tree):
        # Any two kept nodes related in the hierarchy stay related (and in
        # the same direction) in the embedded tree.
        nodes = fragment_tree.nodes()
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                hier = fragment_hierarchy.is_ancestor(a, b)
                embedded = fragment_tree.is_tree_ancestor(a, b)
                assert hier == embedded

    def test_no_empty_nodes_except_root(self, fragment_tree):
        for node in fragment_tree.nodes():
            if node != fragment_tree.root:
                assert len(fragment_tree.results(node))

    def test_all_annotated_nodes_kept(self, fragment_tree, fragment_annotations):
        for node in fragment_annotations:
            assert node in fragment_tree


class TestResults:
    def test_direct_results(self, fragment_tree, fragment_hierarchy):
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        assert len(fragment_tree.results(apoptosis)) == 35

    def test_results_are_sorted_read_only_csr_slices(self, fragment_tree, fragment_hierarchy):
        death = fragment_hierarchy.by_label("Cell Death")
        results = fragment_tree.results(death)
        assert results.tolist() == [1, 2, 41, 42]
        with pytest.raises(ValueError):
            results[0] = 7

    def test_subtree_results_are_distinct_union(self, fragment_tree, fragment_hierarchy):
        cell_death = fragment_hierarchy.by_label("Cell Death")
        # Apoptosis (1..35) ∪ Autophagy {36,37,38} ∪ Necrosis {39,40}
        # ∪ Cell Death {1,2,41,42} = 1..42 → 42 distinct.
        assert len(Component(fragment_tree, cell_death).distinct_results()) == 42

    def test_subtree_results_at_root_covers_everything(
        self, fragment_tree, fragment_annotations
    ):
        everything = set()
        for ids in fragment_annotations.values():
            everything |= ids
        root = Component(fragment_tree, fragment_tree.root)
        assert root.distinct_results().tolist() == sorted(everything)

    def test_results_of_unknown_node_raise(self, fragment_tree):
        with pytest.raises(KeyError):
            fragment_tree.results(10_000)


class TestStatistics:
    def test_size(self, fragment_tree, fragment_annotations):
        # All annotated nodes + root (no annotated node is an empty split).
        assert fragment_tree.size() == len(fragment_annotations) + 1

    def test_citations_with_duplicates_is_sum_of_attachments(
        self, fragment_tree, fragment_annotations
    ):
        expected = sum(len(ids) for ids in fragment_annotations.values())
        assert fragment_tree.citations_with_duplicates() == expected

    def test_height_positive(self, fragment_tree):
        assert fragment_tree.height() >= 2

    def test_max_width_at_least_top_level(self, fragment_tree):
        assert fragment_tree.max_width() >= len(fragment_tree.children(fragment_tree.root))

    def test_tree_depth(self, fragment_tree, fragment_hierarchy):
        assert fragment_tree.tree_depth(fragment_tree.root) == 0
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        parent = fragment_tree.parent(apoptosis)
        assert fragment_tree.tree_depth(apoptosis) == fragment_tree.tree_depth(parent) + 1


class TestTraversal:
    def test_iter_dfs_starts_at_root(self, fragment_tree):
        order = list(fragment_tree.iter_dfs())
        assert order[0] == fragment_tree.root
        assert len(order) == fragment_tree.size()

    def test_edges_count(self, fragment_tree):
        assert len(list(fragment_tree.edges())) == fragment_tree.size() - 1

    def test_subtree_nodes(self, fragment_tree, fragment_hierarchy):
        cell_death = fragment_hierarchy.by_label("Cell Death")
        members = fragment_tree.iter_dfs(cell_death)
        labels = {fragment_tree.label(n) for n in members}
        assert labels == {"Cell Death", "Autophagy", "Apoptosis", "Necrosis"}


class TestPositionalIndices:
    """The precomputed preorder/depth/subtree-size indices (O(1) queries)."""

    @pytest.fixture()
    def random_tree(self):
        import random

        rng = random.Random(11)
        parents = [-1]
        for _ in range(60):
            parents.append(rng.choice(range(len(parents))))
        h = ConceptHierarchy.from_parents(parents, ["root"] + ["n%d" % i for i in range(60)])
        nodes = range(len(parents))
        annotations = {
            n: {rng.randrange(200) for _ in range(rng.randint(0, 4))}
            for n in nodes
        }
        return tree_from_mapping(h, annotations)

    def test_depth_matches_parent_chain_walk(self, random_tree):
        for node in random_tree.nodes():
            depth = 0
            cursor = node
            while random_tree.parent(cursor) != -1:
                cursor = random_tree.parent(cursor)
                depth += 1
            assert random_tree.tree_depth(node) == depth

    def test_subtree_size_matches_subtree_nodes(self, random_tree):
        for node in random_tree.nodes():
            assert random_tree.subtree_size(node) == len(
                list(random_tree.iter_dfs(node))
            )

    def test_is_tree_ancestor_matches_naive_walk(self, random_tree):
        nodes = random_tree.nodes()
        for ancestor in nodes:
            for node in nodes:
                cursor = node
                naive = False
                while cursor != -1:
                    if cursor == ancestor:
                        naive = True
                        break
                    cursor = random_tree.parent(cursor)
                assert random_tree.is_tree_ancestor(ancestor, node) == naive

    def test_iter_dfs_subtree_is_contiguous_preorder_slice(self, random_tree):
        full = list(random_tree.iter_dfs())
        for node in random_tree.nodes():
            sub = list(random_tree.iter_dfs(node))
            start = full.index(node)
            assert full[start : start + len(sub)] == sub

    def test_subtree_size_unknown_node_raises(self, random_tree):
        with pytest.raises(KeyError):
            random_tree.subtree_size(10_000)

    def test_deep_chain_does_not_hit_recursion_limit(self):
        # 2,000 annotated nodes in a single chain: the iterative embedding
        # and index construction must not recurse.
        h = ConceptHierarchy.from_parents(
            list(range(-1, 2000)), ["root"] + ["deep%d" % i for i in range(2000)]
        )
        annotations = {i + 1: {i} for i in range(2000)}
        node = 2000
        tree = tree_from_mapping(h, annotations)
        assert tree.size() == 2001
        assert tree.height() == 2000
        assert tree.tree_depth(node) == 2000
        assert tree.is_tree_ancestor(tree.root, node)
        assert len(Component(tree, tree.root).distinct_results()) == 2000
