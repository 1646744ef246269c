"""Relevance ranking of revealed concepts (paper §I / §IX).

BioNav presents the concepts revealed by an EXPAND "ranked by their
estimated relevance to the user's query", in contrast to GoPubMed's plain
citation-count ordering.  Relevance of a visible concept is the EXPLORE
probability mass of its component — the same |L(n)| / log LT(n) quantity
the cost model uses — so concepts that are both selective for this query
and not globally ubiquitous float to the top.

:func:`rank_siblings` reorders a visualization's sibling groups in place
under either policy, leaving parent/child structure untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.core.active_tree import ActiveTree, VisNode
from repro.core.probabilities import ProbabilityModel

__all__ = ["relevance_of", "rank_siblings", "ranked_visualization"]


def relevance_of(active: ActiveTree, probs: ProbabilityModel, node: int) -> float:
    """Query relevance of a visible node: its component's EXPLORE mass,
    as stored in (or computed for) the active tree's :meth:`stats`."""
    return active.stats(node, probs).relevance  # type: ignore[return-value]


def rank_siblings(
    rows: Sequence[VisNode], key: Callable[[VisNode], float]
) -> List[VisNode]:
    """Reorder a pre-order row list so siblings sort by descending key.

    The tree shape (each node listed before its visible subtree) is
    preserved; only the order among siblings changes.  The walk is an
    explicit-stack pre-order (each sorted sibling group pushed reversed),
    so deep visible chains do not depend on the recursion limit.
    """
    children: Dict[int, List[VisNode]] = {}
    for row in rows:
        children.setdefault(row.parent, []).append(row)

    ordered: List[VisNode] = []
    stack = list(reversed(children.get(-1, [])))
    while stack:
        row = stack.pop()
        ordered.append(row)
        ranked = sorted(children.get(row.node, []), key=key, reverse=True)
        stack.extend(reversed(ranked))
    return ordered


def ranked_visualization(
    active: ActiveTree,
    probs: ProbabilityModel,
    by: str = "relevance",
) -> List[VisNode]:
    """The active-tree visualization with ranked siblings.

    Args:
        active: the active tree.
        probs: probability model of the current query.
        by: ``"relevance"`` (BioNav: EXPLORE mass) or ``"count"``
            (GoPubMed: component citation count).

    Raises:
        ValueError: unknown ranking policy.
    """
    rows = active.visualize()
    if by == "relevance":
        return rank_siblings(
            rows, lambda row: relevance_of(active, probs, row.node)
        )
    if by == "count":
        return rank_siblings(rows, lambda row: float(row.count))
    raise ValueError("unknown ranking policy %r (expected relevance|count)" % by)
