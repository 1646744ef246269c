"""ASCII rendering of navigation state (the paper's Figs. 1, 2 and 5).

Two views are provided:

* :func:`render_navigation_tree` — the *static* interface of Fig. 1: the
  whole navigation tree with per-subtree distinct citation counts, with
  optional per-level truncation ("47 more nodes") exactly like the figure,
  and
* :func:`render_active_tree` — BioNav's dynamic view of Figs. 2/5: the
  visible embedded tree with component counts and ``>>>`` expand marks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.active_tree import ActiveTree
from repro.core.edgecut import subtree_result_counts
from repro.core.navigation_tree import NavigationTree

__all__ = ["render_navigation_tree", "render_active_tree", "render_rows"]

_INDENT = "  "


def render_navigation_tree(
    tree: NavigationTree,
    max_children: Optional[int] = None,
    max_depth: Optional[int] = None,
    highlight: Iterable[int] = (),
) -> str:
    """Fig. 1-style static rendering with subtree counts.

    Args:
        tree: the navigation tree.
        max_children: children shown per node before truncating to an
            ``N more nodes`` line (None = show all).
        max_depth: deepest level rendered (None = no limit).
        highlight: node ids to mark with ``*`` (the figure's highlights).
    """
    marked = set(highlight)
    rows: List[Tuple[int, str]] = []  # (node, text); node -1 on an elision line

    def visit(node: int, depth: int) -> None:
        rows.append((node, "%s%s" % (_INDENT * depth, tree.label(node))))
        if max_depth is not None and depth >= max_depth:
            children = tree.children(node)
            if children:
                below = "%s... %d subtree(s) below" % (_INDENT * (depth + 1), len(children))
                rows.append((-1, below))
            return
        children = list(tree.children(node))
        shown = children if max_children is None else children[:max_children]
        for child in shown:
            visit(child, depth + 1)
        hidden = len(children) - len(shown)
        if hidden > 0:
            rows.append((-1, "%s%d more nodes" % (_INDENT * (depth + 1), hidden)))

    visit(tree.root, 0)
    counts = iter(subtree_result_counts(tree, [node for node, _ in rows if node >= 0]).tolist())
    return "\n".join(
        text if node < 0 else "%s (%d)%s" % (text, next(counts), " *" if node in marked else "")
        for node, text in rows
    )


def render_active_tree(active: ActiveTree, highlight: Iterable[int] = ()) -> str:
    """Fig. 2-style rendering of the current visible tree."""
    marked = set(highlight)
    return render_rows(active.visualize(), marked)


def render_rows(rows: Sequence, marked: Iterable[int] = ()) -> str:
    """Render a list of :class:`~repro.core.active_tree.VisNode` rows."""
    marked_set = set(marked)
    lines = []
    for row in rows:
        expand = " >>>" if row.expandable else ""
        star = " *" if row.node in marked_set else ""
        lines.append(
            "%s%s (%d)%s%s" % (_INDENT * row.depth, row.label, row.count, expand, star)
        )
    return "\n".join(lines)
