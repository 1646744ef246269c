"""Self-contained HTML export of the BioNav interface state.

The deployed BioNav is a web application (the paper hosted it at
db.cse.buffalo.edu/bionav); this module renders the current active tree —
or a full static navigation tree — as a standalone HTML page with the same
visual vocabulary as the paper's screenshots: nested lists, per-node
citation counts, and ``>>>`` expand hyperlink markers.

The output has no external dependencies (inline CSS, no JavaScript), so it
can be opened directly or embedded in reports.
"""

from __future__ import annotations

import html
from typing import Iterable, List, Optional, Sequence

from repro.core.active_tree import ActiveTree, VisNode
from repro.core.edgecut import subtree_result_counts
from repro.core.navigation_tree import NavigationTree

__all__ = ["active_tree_to_html", "navigation_tree_to_html", "rows_to_html"]

_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 1.5em; }}
h1 {{ font-size: 1.2em; }}
ul.bionav {{ list-style: none; padding-left: 1.2em; border-left: 1px dotted #bbb; }}
ul.bionav > li {{ margin: 0.15em 0; }}
span.count {{ color: #555; }}
a.expand {{ color: #0645ad; text-decoration: none; margin-left: 0.4em; }}
li.highlight > span.label {{ background: #fff3a0; }}
</style>
</head>
<body>
<h1>{title}</h1>
{body}
</body>
</html>
"""


def rows_to_html(rows: Sequence[VisNode], highlight: Iterable[int] = ()) -> str:
    """Render visualization rows as nested ``<ul>`` markup."""
    marked = set(highlight)
    parts: List[str] = []
    depth = -1
    for row in rows:
        while depth >= row.depth:
            parts.append("</ul>")
            depth -= 1
        while depth < row.depth - 1:
            parts.append('<ul class="bionav">')
            depth += 1
        parts.append('<ul class="bionav">')
        depth = row.depth
        css = ' class="highlight"' if row.node in marked else ""
        expand = ' <a class="expand" href="#" title="expand">&gt;&gt;&gt;</a>' if row.expandable else ""
        parts.append(
            '<li%s><span class="label">%s</span> <span class="count">(%d)</span>%s</li>'
            % (css, html.escape(row.label), row.count, expand)
        )
    while depth >= 0:
        parts.append("</ul>")
        depth -= 1
    return "\n".join(parts)


def active_tree_to_html(
    active: ActiveTree,
    title: str = "BioNav navigation",
    highlight: Iterable[int] = (),
    rows: Optional[Sequence[VisNode]] = None,
) -> str:
    """Full HTML page for the current active-tree state.

    Pass pre-ranked ``rows`` (e.g. from
    :func:`repro.core.relevance.ranked_visualization`) to control sibling
    order; defaults to the active tree's natural order.
    """
    if rows is None:
        rows = active.visualize()
    return _PAGE_TEMPLATE.format(
        title=html.escape(title), body=rows_to_html(rows, highlight)
    )


def navigation_tree_to_html(
    tree: NavigationTree,
    title: str = "Navigation tree",
    highlight: Iterable[int] = (),
) -> str:
    """Full HTML page for the static (fully expanded) navigation tree."""
    nodes = tree.nodes()
    rows = [
        VisNode(
            node, tree.label(node), count, False, tree.tree_depth(node), tree.parent(node)
        )
        for node, count in zip(nodes, subtree_result_counts(tree, nodes).tolist())
    ]
    return _PAGE_TEMPLATE.format(
        title=html.escape(title), body=rows_to_html(rows, highlight)
    )
