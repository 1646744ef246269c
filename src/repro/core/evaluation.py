"""Model-expected navigation cost of a whole expansion strategy.

The simulator (``repro.core.simulator``) measures the cost a *targeted*
user pays; this module instead evaluates a strategy under the paper's own
probabilistic TOPDOWN cost model (§III): starting from the initial active
tree, recursively apply the strategy's cut to every component a user might
explore and accumulate

    cost(I(n)) = pE(I(n)) * ( (1 - pX) * |R| + pX * (K + Σ (1 + cost(I'(m)))) )

This yields a user-independent quality number, letting strategies be
compared without committing to a particular navigation goal — e.g. the
Opt-EdgeCut-vs-heuristic quality ablation, or cost-model parameter sweeps.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component, ComponentKey
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import ExpansionStrategy

__all__ = ["expected_strategy_cost"]


def expected_strategy_cost(
    tree: NavigationTree,
    probs: ProbabilityModel,
    strategy: ExpansionStrategy,
    params: Optional[CostParams] = None,
    max_components: int = 50_000,
) -> float:
    """Expected TOPDOWN cost of navigating ``tree`` with ``strategy``.

    Args:
        tree: the navigation tree.
        probs: probability model (pE / pX estimates).
        strategy: the expansion policy under evaluation; its ``best_cut``
            is applied recursively to every reachable component.
        params: unit costs (paper defaults when omitted).
        max_components: safety bound on distinct components evaluated.

    Raises:
        RuntimeError: if the strategy keeps producing components beyond
            ``max_components`` (a non-terminating policy).
    """
    params = params or CostParams()
    memo: Dict[ComponentKey, float] = {}
    evaluated = 0

    def cost(component: Component) -> float:
        nonlocal evaluated
        key = component.key
        cached = memo.get(key)
        if cached is not None:
            return cached
        evaluated += 1
        if evaluated > max_components:
            raise RuntimeError(
                "expected-cost evaluation exceeded %d components" % max_components
            )
        explore = probs.explore(component)
        result_count = len(component.distinct_results())
        # EXPLORE mass is non-negative, so <= is the exact zero test
        # without comparing floats for equality (float-equality rule).
        if explore <= 0.0:
            memo[key] = 0.0
            return 0.0
        if len(component) == 1:
            value = explore * result_count
            memo[key] = value
            return value
        p_expand = probs.expand(component)
        decision = strategy.best_cut(component)
        if not decision.cut:
            value = explore * result_count
            memo[key] = value
            return value
        upper, lowers = component.cut(decision.cut)
        expand_term = params.expand_cost
        expand_term += params.reveal_cost + cost(upper)
        for lower in lowers.values():
            expand_term += params.reveal_cost + cost(lower)
        value = explore * (
            (1.0 - p_expand) * result_count + p_expand * expand_term
        )
        memo[key] = value
        return value

    component = Component(tree, tree.root)
    # Lazy single-edge policies can nest expansions O(|tree|) deep; give
    # the recursion enough headroom for the trees this library targets.
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit, 4 * len(component) + 1000))
    try:
        return cost(component)
    finally:
        sys.setrecursionlimit(previous_limit)
