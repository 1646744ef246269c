"""Golden snapshot tests for the ASCII renderers.

The fragment fixture is fully deterministic, so the Fig. 1/2-style
renderings have exact expected outputs.  Pinning them catches accidental
changes to counts, embedding order, truncation, or indentation that
value-level assertions could miss.
"""

from __future__ import annotations

from repro.core.active_tree import ActiveTree
from repro.viz.render import render_active_tree, render_navigation_tree
from tests.oracles.member_sets import subtree_results

# The fragment annotations attach citations only to specific concepts, so
# the maximum embedding splices out the empty category nodes ("Amino
# Acids, Peptides, and Proteins", "Proteins", ...) and their annotated
# descendants surface directly under the root.
FIG1_SNAPSHOT = """MeSH (105)
  Chromatin (20)
    Nucleosomes (4)
    Heterochromatin (2)
    1 more nodes
  Histones (20)
  6 more nodes"""


class TestStaticSnapshot:
    def test_fig1_style_render_is_stable(self, fragment_tree):
        text = render_navigation_tree(fragment_tree, max_children=2, max_depth=2)
        assert text == FIG1_SNAPSHOT

    def test_snapshot_counts_cross_check(self, fragment_tree, fragment_hierarchy):
        assert len(subtree_results(fragment_tree, fragment_tree.root)) == 105
        chromatin = fragment_hierarchy.by_label("Chromatin")
        assert len(subtree_results(fragment_tree, chromatin)) == 20


class TestActiveSnapshot:
    def test_initial_view(self, fragment_tree):
        active = ActiveTree(fragment_tree)
        assert render_active_tree(active) == "MeSH (105) >>>"

    def test_after_one_manual_cut(self, fragment_tree, fragment_hierarchy):
        active = ActiveTree(fragment_tree)
        cell_death = fragment_hierarchy.by_label("Cell Death")
        histones = fragment_hierarchy.by_label("Histones")
        active.expand(
            fragment_tree.root,
            [
                (fragment_tree.parent(cell_death), cell_death),
                (fragment_tree.parent(histones), histones),
            ],
        )
        assert render_active_tree(active) == (
            "MeSH (95) >>>\n"
            "  Histones (20)\n"
            "  Cell Death (42) >>>"
        )

    def test_upper_count_shrinks_like_fig2(self, fragment_tree, fragment_hierarchy):
        # 105 distinct citations initially; after revealing Histones (20)
        # and Cell Death (42) the upper component re-counts to 95 — the
        # overlap (Histones shares 70-79 with Chromatin, etc.) stays
        # visible in the upper component, exactly the Fig. 2b→2c effect.
        active = ActiveTree(fragment_tree)
        before = active.component_count(fragment_tree.root)
        cell_death = fragment_hierarchy.by_label("Cell Death")
        active.expand(
            fragment_tree.root, [(fragment_tree.parent(cell_death), cell_death)]
        )
        after = active.component_count(fragment_tree.root)
        assert before == 105
        assert after < before
