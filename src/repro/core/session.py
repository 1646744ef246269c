"""Navigation sessions: the user-facing action loop (paper §III).

A :class:`NavigationSession` wraps an active tree with an expansion
strategy and exposes the four user actions of the general navigation model
— EXPAND, SHOWRESULTS, IGNORE, BACKTRACK — while a :class:`CostLedger`
records the actual cost incurred, using the paper's unit charges.

Sessions optionally carry a :class:`~repro.obs.Metrics` registry; each
EXPAND then records how long the strategy spent choosing its cut — the
latency Figure 10 measures — as one ``solver.decision_seconds``
observation, and adds the decision's reduced-tree size to the
``solver.reduced_size`` counter.  The memory this takes is fixed,
however many EXPANDs a deployment serves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.core.active_tree import ActiveTree, ComponentStats, VisNode
from repro.core.cost_model import CostLedger, CostParams
from repro.core.navigation_tree import NavigationTree
from repro.core.strategy import CutDecision, ExpansionStrategy
from repro.obs import Metrics

__all__ = ["ExpandOutcome", "NavigationSession"]


@dataclass(frozen=True)
class ExpandOutcome:
    """What one EXPAND action did.

    Attributes:
        node: the expanded concept.
        revealed: newly visible concept node ids (the lower-component
            roots; the upper root was already visible).
        decision: the strategy's cut decision (with instrumentation).
        elapsed_seconds: wall-clock time the strategy spent choosing the
            cut (0.0 only for a degenerate clock).
    """

    node: int
    revealed: Tuple[int, ...]
    decision: CutDecision
    elapsed_seconds: float = 0.0


class NavigationSession:
    """One user's navigation over one query result."""

    def __init__(
        self,
        tree: NavigationTree,
        strategy: ExpansionStrategy,
        params: Optional[CostParams] = None,
        metrics: Optional[Metrics] = None,
        root_stats: Optional[ComponentStats] = None,
    ):
        """
        Args:
            tree: the query's navigation tree.
            strategy: EXPAND strategy (chooses EdgeCuts).
            params: cost-model unit costs.
            metrics: optional registry each EXPAND decision is recorded
                in (see the module docstring).
            root_stats: the root component's statistics, when known.
        """
        self.tree = tree
        self.strategy = strategy
        self.active = ActiveTree(tree, root_stats)
        self.ledger = CostLedger(params=params or CostParams())
        self.metrics = metrics
        self._ignored: Set[int] = set()
        self._expand_log: List[ExpandOutcome] = []

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def expand(self, node: int) -> ExpandOutcome:
        """EXPAND: apply the strategy's EdgeCut to ``node``'s component.

        Charges one EXPAND action plus one reveal per newly shown concept.

        Raises:
            ValueError: when ``node`` has no expandable component or the
                strategy returns an empty cut.
        """
        component = self.active.component(node)
        started = time.perf_counter()
        decision, stats = self.strategy.choose_expansion(component)
        elapsed = time.perf_counter() - started
        if not decision.cut:
            raise ValueError("strategy produced no cut for node %r" % (node,))
        if self.metrics is not None:
            self.metrics.observe("solver.decision_seconds", elapsed)
            self.metrics.add("solver.reduced_size", decision.reduced_size)
        self.active.expand(node, decision.cut, stats)
        revealed = tuple(child for _, child in decision.cut)
        self.ledger.charge_expand(len(revealed))
        outcome = ExpandOutcome(
            node=node,
            revealed=revealed,
            decision=decision,
            elapsed_seconds=elapsed,
        )
        self._expand_log.append(outcome)
        return outcome

    def show_results(self, node: int) -> List[int]:
        """SHOWRESULTS: list the citations of ``node``'s component.

        Charges one unit per citation displayed; returns the PMIDs sorted
        for deterministic display.
        """
        pmids = self.active.component(node).distinct_results().tolist()
        self.ledger.charge_show_results(len(pmids))
        return pmids

    def ignore(self, node: int) -> None:
        """IGNORE: mark a revealed concept as uninteresting (free)."""
        if not self.active.is_visible(node):
            raise ValueError("cannot ignore a hidden node")
        self._ignored.add(node)

    def backtrack(self) -> bool:
        """BACKTRACK: undo the most recent EXPAND (free in the cost model).

        The paper's cost model covers TOPDOWN only, so backtracking does
        not refund or charge anything; it only restores the tree state.
        """
        if not self.active.backtrack():
            return False
        if self._expand_log:
            self._expand_log.pop()
        return True

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def visualize(self) -> List[VisNode]:
        """The current interface rows (Definition 5 visualization)."""
        return self.active.visualize()

    @property
    def ignored(self) -> List[int]:
        """Concepts the user marked as uninteresting, ascending."""
        return sorted(self._ignored)

    @property
    def expand_log(self) -> List[ExpandOutcome]:
        """Chronological record of EXPAND actions."""
        return list(self._expand_log)

    @property
    def navigation_cost(self) -> float:
        """Concepts revealed + EXPAND actions so far (Fig. 8 metric)."""
        return self.ledger.navigation_cost

    @property
    def total_cost(self) -> float:
        """Navigation cost plus SHOWRESULTS citation cost."""
        return self.ledger.total_cost
