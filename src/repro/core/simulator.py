"""Targeted-user navigation simulation (paper §VIII-A methodology).

The navigation-cost experiments assume a user who "always chooses the
right node to expand in order to finally reveal the target concept": at
every step she expands the visible node whose (invisible) component
contains the target, until the target itself becomes visible, then runs
SHOWRESULTS on it.  The simulator reproduces that protocol for any
expansion strategy and reports the per-query numbers behind Figures 8–10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.cost_model import CostParams
from repro.core.navigation_tree import NavigationTree
from repro.core.session import NavigationSession
from repro.core.strategy import ExpansionStrategy

__all__ = ["ExpandRecord", "NavigationOutcome", "navigate_to_target"]


@dataclass(frozen=True)
class ExpandRecord:
    """Per-EXPAND instrumentation (drives the Fig. 11 experiment).

    ``elapsed_seconds`` is the strategy's decision time, as the session
    timed it (:attr:`~repro.core.session.ExpandOutcome.elapsed_seconds`).
    """

    step: int
    node: int
    revealed: int
    reduced_size: int
    elapsed_seconds: float


@dataclass(frozen=True)
class NavigationOutcome:
    """Result of one simulated targeted navigation.

    Attributes:
        target: the target concept node.
        reached: whether the target became visible within the step budget.
        expand_actions: number of EXPAND actions performed (Fig. 9).
        concepts_revealed: total concepts revealed (Fig. 8 component).
        navigation_cost: revealed + expands (the Fig. 8 y-axis).
        citations_displayed: size of the final SHOWRESULTS listing.
        expands: per-EXPAND records (timings and reduced-tree sizes).
    """

    target: int
    reached: bool
    expand_actions: int
    concepts_revealed: int
    navigation_cost: float
    citations_displayed: int
    expands: Tuple[ExpandRecord, ...]

    @property
    def average_expand_seconds(self) -> float:
        """Mean EXPAND decision time (the Fig. 10 y-axis); 0 when no expands ran."""
        if not self.expands:
            return 0.0
        return sum(r.elapsed_seconds for r in self.expands) / len(self.expands)


def navigate_to_target(
    tree: NavigationTree,
    strategy: ExpansionStrategy,
    target: int,
    params: Optional[CostParams] = None,
    show_results: bool = True,
    max_steps: int = 200,
) -> NavigationOutcome:
    """Simulate a targeted TOPDOWN navigation to ``target``.

    Args:
        tree: the query's navigation tree (must contain ``target``).
        strategy: EXPAND implementation under evaluation.
        target: the target concept node id.
        params: cost-model unit charges.
        show_results: whether to run SHOWRESULTS when the target appears.
        max_steps: safety bound on EXPAND actions.

    Raises:
        KeyError: when the target is not part of the navigation tree.
    """
    if target not in tree:
        raise KeyError("target %r is not in the navigation tree" % (target,))
    session = NavigationSession(tree, strategy, params=params)
    records: List[ExpandRecord] = []
    step = 0
    while not session.active.is_visible(target) and step < max_steps:
        to_expand = session.active.containing_root(target)
        outcome = session.expand(to_expand)
        step += 1
        records.append(
            ExpandRecord(
                step=step,
                node=to_expand,
                revealed=len(outcome.revealed),
                reduced_size=outcome.decision.reduced_size,
                elapsed_seconds=outcome.elapsed_seconds,
            )
        )
    reached = session.active.is_visible(target)
    citations = 0
    if reached and show_results:
        citations = len(session.show_results(target))
    return NavigationOutcome(
        target=target,
        reached=reached,
        expand_actions=session.ledger.expand_actions,
        concepts_revealed=session.ledger.concepts_revealed,
        navigation_cost=session.navigation_cost,
        citations_displayed=citations,
        expands=tuple(records),
    )
