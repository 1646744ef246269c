"""Unit tests for repro.hierarchy.concept."""

from __future__ import annotations

import pytest

from repro.hierarchy.concept import Concept, ConceptHierarchy


@pytest.fixture()
def small() -> ConceptHierarchy:
    #        root
    #       /    \
    #      a      b
    #     / \      \
    #    c   d      e
    return ConceptHierarchy.from_parents(
        [-1, 0, 0, 1, 1, 2], ["root", "a", "b", "c", "d", "e"]
    )


class TestConstruction:
    def test_new_hierarchy_has_only_root(self):
        h = ConceptHierarchy.from_parents([-1], ["MeSH"])
        assert len(h) == 1
        assert h.root == 0
        assert h.label(0) == "MeSH"
        assert h.uid(0) == "ROOT"

    def test_node_ids_follow_list_order(self, small):
        assert small.label(1) == "a"
        assert small.label(2) == "b"
        assert len(small) == 6

    @pytest.mark.parametrize(
        "parents, labels, uids",
        [
            pytest.param([], [], None, id="empty"),
            pytest.param([0, 0], ["r", "a"], None, id="root-not-first"),
            pytest.param([-1, -1], ["r", "a"], None, id="second-root"),
            pytest.param([-1, 0, 2], ["r", "a", "b"], None, id="own-parent"),
            pytest.param([-1, 2, 0], ["r", "a", "b"], None, id="parent-after-child"),
            pytest.param([-1, 0, 99], ["r", "a", "b"], None, id="parent-out-of-range"),
            pytest.param([-1, 0], ["r"], None, id="labels-length"),
            pytest.param([-1, 0], ["r", "a"], ["ROOT"], id="uids-length"),
            pytest.param([-1, 0, 0], ["r", "a", "b"], ["R", "X", "X"], id="duplicate-uid"),
        ],
    )
    def test_malformed_input_rejected(self, parents, labels, uids):
        with pytest.raises(ValueError):
            ConceptHierarchy.from_parents(parents, labels, uids)

    def test_duplicate_uid_rejected(self):
        records = [("ROOT", "r", -1), ("X", "a", 0), ("X", "b", 0)]
        with pytest.raises(ValueError, match="'X'"):
            ConceptHierarchy.from_records(records)

    def test_auto_uid_is_unique(self, small):
        uids = [small.uid(n) for n in range(len(small))]
        assert len(set(uids)) == len(uids)


class TestAccessors:
    def test_parent_of_root_is_minus_one(self, small):
        assert small.parent(0) == -1

    def test_parent_child_round_trip(self, small):
        for node in range(1, len(small)):
            assert node in small.children(small.parent(node))

    def test_children_are_in_insertion_order(self, small):
        assert small.children(0) == (1, 2)
        assert small.children(1) == (3, 4)

    def test_depths(self, small):
        assert small.depth(0) == 0
        assert small.depth(1) == 1
        assert small.depth(3) == 2

    def test_is_leaf(self, small):
        assert small.is_leaf(3)
        assert not small.is_leaf(1)

    def test_by_uid_and_by_label(self, small):
        assert small.by_label("c") == 3
        assert small.by_uid(small.uid(4)) == 4

    def test_by_label_missing_raises(self, small):
        with pytest.raises(KeyError):
            small.by_label("nope")

    def test_concept_view(self, small):
        concept = small.concept(3)
        assert isinstance(concept, Concept)
        assert concept.label == "c"
        assert concept.depth == 2
        assert concept.tree_number == "001.001"

    def test_bad_node_id_raises(self, small):
        with pytest.raises(IndexError):
            small.label(-1)
        with pytest.raises(IndexError):
            small.children(len(small))


class TestRelabel:
    def test_relabel_changes_label_and_index(self, small):
        renamed = small.relabeled({3: "Apoptosis"})
        assert renamed.label(3) == "Apoptosis"
        assert renamed.by_label("Apoptosis") == 3

    def test_relabel_removes_old_index_entry(self, small):
        renamed = small.relabeled({3: "renamed"})
        with pytest.raises(KeyError):
            renamed.by_label("c")

    def test_relabel_keeps_other_duplicate_label(self):
        h = ConceptHierarchy.from_parents([-1, 0, 0], ["root", "dup", "dup"])
        renamed = h.relabeled({1: "unique"})
        # The other holder of "dup" is still findable.
        assert renamed.by_label("dup") == 2

    def test_relabeled_leaves_the_original_unchanged(self, small):
        renamed = small.relabeled({3: "renamed", 5: "other"})
        assert small.label(3) == "c"
        assert small.by_label("c") == 3
        assert renamed.arrays().children is small.arrays().children

    def test_relabel_of_bad_node_raises(self, small):
        with pytest.raises(IndexError):
            small.relabeled({len(small): "x"})


class TestTreeNumbers:
    def test_root_tree_number_is_empty(self, small):
        assert small.tree_number(0) == ""

    def test_tree_numbers_encode_sibling_positions(self, small):
        assert small.tree_number(1) == "001"
        assert small.tree_number(2) == "002"
        assert small.tree_number(4) == "001.002"
        assert small.tree_number(5) == "002.001"

    def test_path_to_root(self, small):
        assert small.path_to_root(3) == [3, 1, 0]
        assert small.path_to_root(0) == [0]


class TestAncestry:
    def test_node_is_its_own_ancestor(self, small):
        assert small.is_ancestor(3, 3)

    def test_root_is_ancestor_of_all(self, small):
        assert all(small.is_ancestor(0, n) for n in range(len(small)))

    def test_non_ancestor(self, small):
        assert not small.is_ancestor(1, 5)
        assert not small.is_ancestor(3, 1)

    def test_lowest_common_ancestor(self, small):
        assert small.lowest_common_ancestor(3, 4) == 1
        assert small.lowest_common_ancestor(3, 5) == 0
        assert small.lowest_common_ancestor(1, 3) == 1


class TestTraversals:
    def test_dfs_is_preorder(self, small):
        assert list(small.iter_dfs()) == [0, 1, 3, 4, 2, 5]

    def test_postorder_visits_children_first(self, small):
        order = list(small.iter_postorder())
        assert order == [3, 4, 1, 5, 2, 0]

    def test_subtree(self, small):
        assert small.subtree(1) == [1, 3, 4]
        assert small.subtree_size(1) == 3

    def test_leaves(self, small):
        assert small.leaves() == [3, 4, 5]

    def test_height_and_width(self, small):
        assert small.height() == 2
        assert small.max_width() == 3  # depth 2 has c, d, e
        assert small.height(1) == 1


class TestSerialization:
    def test_records_round_trip(self, small):
        rebuilt = ConceptHierarchy.from_records(small.to_records())
        assert len(rebuilt) == len(small)
        for node in range(len(small)):
            assert rebuilt.label(node) == small.label(node)
            assert rebuilt.parent(node) == small.parent(node)
            assert rebuilt.uid(node) == small.uid(node)

    def test_from_records_requires_root_first(self):
        with pytest.raises(ValueError):
            ConceptHierarchy.from_records([("X", "x", 0)])

    def test_from_records_empty_raises(self):
        with pytest.raises(ValueError):
            ConceptHierarchy.from_records([])
