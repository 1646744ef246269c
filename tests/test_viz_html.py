"""Unit tests for the HTML export of navigation state."""

from __future__ import annotations

import pytest

from repro.core.active_tree import ActiveTree
from repro.core.relevance import ranked_visualization
from repro.core.static_nav import StaticNavigation
from repro.viz.html import active_tree_to_html, navigation_tree_to_html, rows_to_html
from tests.oracles.member_sets import subtree_results


@pytest.fixture()
def expanded_active(fragment_tree):
    active = ActiveTree(fragment_tree)
    strategy = StaticNavigation(fragment_tree)
    decision = strategy.best_cut(active.component(fragment_tree.root))
    active.expand(fragment_tree.root, decision.cut)
    return active


class TestActiveTreeHtml:
    def test_page_structure(self, expanded_active):
        page = active_tree_to_html(expanded_active, title="Test & Title")
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>Test &amp; Title</title>" in page
        assert page.count("<ul") == page.count("</ul>")

    def test_counts_and_expand_marks(self, expanded_active, fragment_tree):
        page = active_tree_to_html(expanded_active)
        assert "MeSH" in page
        assert "&gt;&gt;&gt;" in page  # some component is still expandable
        root_count = len(fragment_tree.results(fragment_tree.root)) or "("
        assert 'class="count"' in page

    def test_highlight_marks_rows(self, expanded_active, fragment_tree):
        child = fragment_tree.children(fragment_tree.root)[0]
        page = active_tree_to_html(expanded_active, highlight=[child])
        assert 'class="highlight"' in page

    def test_labels_are_escaped(self, expanded_active):
        # No raw angle brackets from labels can appear un-escaped; inject a
        # hostile label via rows_to_html directly.
        from repro.core.active_tree import VisNode

        rows = [
            VisNode(
                node=1,
                label="<script>alert(1)</script>",
                count=3,
                expandable=False,
                depth=0,
                parent=-1,
            )
        ]
        markup = rows_to_html(rows)
        assert "<script>" not in markup
        assert "&lt;script&gt;" in markup

    def test_accepts_ranked_rows(self, expanded_active, fragment_probs):
        rows = ranked_visualization(expanded_active, fragment_probs)
        page = active_tree_to_html(expanded_active, rows=rows)
        assert "bionav" in page


class TestNavigationTreeHtml:
    def test_full_tree_export(self, fragment_tree):
        page = navigation_tree_to_html(fragment_tree)
        for node in fragment_tree.nodes():
            assert fragment_tree.label(node).split(",")[0] in page

    def test_counts_are_subtree_counts(self, fragment_tree, fragment_hierarchy):
        page = navigation_tree_to_html(fragment_tree)
        apoptosis = fragment_hierarchy.by_label("Apoptosis")
        count = len(subtree_results(fragment_tree, apoptosis))
        assert "Apoptosis</span> <span class=\"count\">(%d)" % count in page

    def test_no_expand_links_in_static_export(self, fragment_tree):
        page = navigation_tree_to_html(fragment_tree)
        assert "&gt;&gt;&gt;" not in page
