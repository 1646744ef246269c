"""The paper's Figures 1–5 walkthrough on the embedded MeSH fragment.

Run with::

    python examples/prothymosin_navigation.py

Reproduces, on the real concept labels from the paper's figures:

  * Fig. 1 — the static navigation interface (full tree, subtree counts,
    "N more nodes" truncation);
  * Fig. 3 — the EdgeCut on "Biological Phenomena..." that reveals
    Cell Death and Cell Proliferation while skipping Cell Physiology and
    Cell Growth Processes;
  * Fig. 4/2c — the active tree before/after that cut, with the upper
    component's citation count shrinking;
  * Fig. 5 — a subsequent cut on the *upper* component revealing Cell
    Growth Processes, which then re-parents Cell Proliferation.
"""

from __future__ import annotations

import numpy as np

from repro.core.active_tree import ActiveTree
from repro.core.navigation_tree import NavigationTree
from repro.hierarchy.mesh import paper_fragment
from repro.viz.render import render_active_tree, render_navigation_tree


def build_fragment_tree():
    """The embedded fragment with a prothymosin-flavoured result set."""
    hierarchy = paper_fragment()
    label = hierarchy.by_label
    annotations = {
        # PubMed indexing attaches citations to broad concepts directly, so
        # the intermediate nodes of Fig. 1 carry their own results lists.
        label("Biological Phenomena, Cell Phenomena, and Immunity"): {500, 501},
        label("Cell Physiology"): {502, 503},
        label("Cell Growth Processes"): set(range(100, 199)),  # same as Cell Proliferation
        label("Genetic Processes"): {504},
        label("Amino Acids, Peptides, and Proteins"): {505, 506},
        label("Proteins"): {507},
        label("Nucleoproteins"): set(range(200, 226)),
        label("Apoptosis"): set(range(1, 36)),            # 35, as in Fig. 1
        label("Autophagy"): {36, 37, 38},
        label("Necrosis"): {39, 40},
        label("Cell Death"): {1, 2, 41, 42},
        label("Cell Proliferation"): set(range(100, 199)),  # 99, as in Fig. 2
        label("Cell Division"): set(range(100, 152)),       # 52, as in Fig. 1
        label("Chromatin"): set(range(200, 226)),           # 26
        label("Nucleosomes"): {200, 201, 202, 203},
        label("Heterochromatin"): {204, 205},
        label("Euchromatin"): {206, 207},
        label("Histones"): set(range(210, 240)),
        label("Transcription, Genetic"): set(range(300, 325)),  # 25
        label("Reverse Transcription"): {300, 301, 302, 303},   # 4
        label("Gene Expression"): set(range(300, 392)),         # 92
        label("Immunity, Innate"): {400, 401, 402},
        label("Cell Differentiation"): {410, 411},
    }
    # The tree builds from an annotation CSR: concept ids ascending, each
    # row that concept's sorted citation ids.
    concepts = sorted(annotations)
    rows = [sorted(annotations[concept]) for concept in concepts]
    offsets = np.cumsum([0] + [len(row) for row in rows])
    values = np.concatenate(rows)
    return hierarchy, NavigationTree.from_csr(hierarchy, concepts, offsets, values)


def main() -> None:
    hierarchy, tree = build_fragment_tree()
    label = hierarchy.by_label

    print("=" * 72)
    print("FIGURE 1 — static navigation (all children, subtree counts)")
    print("=" * 72)
    print(
        render_navigation_tree(
            tree,
            max_children=3,
            highlight=[label("Cell Proliferation"), label("Apoptosis")],
        )
    )

    active = ActiveTree(tree)

    print()
    print("=" * 72)
    print("FIGURE 3 — the EdgeCut on 'Biological Phenomena...'")
    print("=" * 72)
    bio = label("Biological Phenomena, Cell Phenomena, and Immunity")
    # First reveal the Biological Phenomena branch root itself.
    active.expand(tree.root, [(tree.root, bio)])
    print("\nActive tree after revealing the branch:\n")
    print(render_active_tree(active))
    print(
        "\n'Biological Phenomena...' component holds %d concepts and %d "
        "distinct citations."
        % (len(active.component(bio)), active.component_count(bio))
    )

    # The Fig. 3 cut: (Cell Physiology → Cell Death) and
    # (Cell Growth Processes → Cell Proliferation).
    cell_death = label("Cell Death")
    proliferation = label("Cell Proliferation")
    cut = [
        (tree.parent(cell_death), cell_death),
        (tree.parent(proliferation), proliferation),
    ]
    before = active.component_count(bio)
    active.expand(bio, cut)
    after = active.component_count(bio)

    print("\nAfter the EdgeCut (Fig. 2c / Fig. 4b):\n")
    print(render_active_tree(active, highlight=[cell_death, proliferation]))
    print(
        "\nNote the skipped middle concepts: Cell Physiology and Cell Growth"
        "\nProcesses stay hidden; the upper component count shrank %d → %d."
        % (before, after)
    )

    print()
    print("=" * 72)
    print("FIGURE 5 — EdgeCut on the UPPER component")
    print("=" * 72)
    growth = label("Cell Growth Processes")
    active.expand(bio, [(tree.parent(growth), growth)])
    print(
        "\n'Cell Growth Processes' is now revealed and becomes the parent of"
        "\nthe previously revealed 'Cell Proliferation':\n"
    )
    print(render_active_tree(active, highlight=[growth, proliferation]))


if __name__ == "__main__":
    main()
