"""Unit tests for repro.viz.render."""

from __future__ import annotations


from repro.core.active_tree import ActiveTree
from repro.viz.render import render_active_tree, render_navigation_tree, render_rows
from tests.oracles.member_sets import subtree_results


class TestRenderNavigationTree:
    def test_contains_labels_and_counts(self, fragment_tree):
        text = render_navigation_tree(fragment_tree)
        assert "MeSH (" in text
        assert "Apoptosis (35)" in text

    def test_root_count_is_distinct_total(self, fragment_tree):
        text = render_navigation_tree(fragment_tree)
        first_line = text.splitlines()[0]
        assert first_line == "MeSH (%d)" % len(subtree_results(fragment_tree, fragment_tree.root))

    def test_truncation_adds_more_nodes_line(self, fragment_tree):
        text = render_navigation_tree(fragment_tree, max_children=1)
        assert "more nodes" in text

    def test_max_depth_limits_output(self, fragment_tree):
        shallow = render_navigation_tree(fragment_tree, max_depth=1)
        deep = render_navigation_tree(fragment_tree)
        assert len(shallow.splitlines()) < len(deep.splitlines())
        assert "subtree(s) below" in shallow

    def test_highlight_marks_nodes(self, fragment_tree, fragment_hierarchy):
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        text = render_navigation_tree(fragment_tree, highlight=[apoptosis])
        assert "Apoptosis (35) *" in text

    def test_indentation_reflects_depth(self, fragment_tree):
        lines = render_navigation_tree(fragment_tree).splitlines()
        assert lines[0].startswith("MeSH")
        assert any(line.startswith("  ") for line in lines[1:])


class TestRenderActiveTree:
    def test_initial_view_is_root_with_hyperlink(self, fragment_tree):
        active = ActiveTree(fragment_tree)
        text = render_active_tree(active)
        assert text == "MeSH (%d) >>>" % len(subtree_results(fragment_tree, fragment_tree.root))

    def test_after_expansion_shows_revealed_nodes(self, fragment_tree, fragment_hierarchy):
        active = ActiveTree(fragment_tree)
        cell_death = fragment_hierarchy.by_label("Cell Death")
        parent = fragment_tree.parent(cell_death)
        active.expand(fragment_tree.root, [(parent, cell_death)])
        text = render_active_tree(active)
        assert "Cell Death" in text

    def test_render_rows_marks_highlights(self, fragment_tree):
        active = ActiveTree(fragment_tree)
        text = render_rows(active.visualize(), marked=[fragment_tree.root])
        assert text.endswith("*")
