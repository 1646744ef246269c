"""Monte-Carlo simulation of the probabilistic TOPDOWN user (Fig. 6).

The cost model's expected cost (paper §III) is an analytic quantity over a
*random* user who explores each revealed component with probability
``pE``, then either expands (``pX``) or lists results.  This module samples
that user: starting from the initial active tree, it walks the Fig. 6
process with a seeded RNG, charging the paper's unit costs along the way.

Averaging many sampled walks gives an unbiased estimate of the expected
cost of a strategy — used to validate that the analytic evaluator
(:mod:`repro.core.evaluation`) and the closed-form recursion agree with
the process they claim to describe (``benchmarks/bench_montecarlo.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component, ComponentKey
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import CutDecision, ExpansionStrategy

__all__ = ["WalkOutcome", "sample_walk", "estimate_expected_cost"]

#: Default EXPAND budget of one walk.
_MAX_EXPANDS = 10_000


@dataclass(frozen=True)
class WalkOutcome:
    """One sampled TOPDOWN walk.

    Attributes:
        cost: total cost charged along the walk.
        expands: EXPAND actions taken.
        show_results: SHOWRESULTS actions taken.
        ignored: components the user declined to explore.
    """

    cost: float
    expands: int
    show_results: int
    ignored: int


def sample_walk(
    tree: NavigationTree,
    probs: ProbabilityModel,
    strategy: ExpansionStrategy,
    rng: random.Random,
    params: Optional[CostParams] = None,
    max_expands: int = _MAX_EXPANDS,
) -> WalkOutcome:
    """Sample one user walk under the Fig. 6 TOPDOWN process.

    The walk starts by exploring the root component (the paper's EXPLORE
    is initially certain: the initial active tree has pE = 1), then
    recursively: each explored component is expanded with probability
    ``pX`` (revealing the strategy's cut, charging 1 per EXPAND and 1 per
    revealed root) or listed with SHOWRESULTS (charging 1 per citation).
    Revealed components are explored independently with their conditional
    EXPLORE probabilities.
    """
    return _walk(tree, probs, strategy.best_cut, rng, params, max_expands)


def _walk(
    tree: NavigationTree,
    probs: ProbabilityModel,
    best_cut: Callable[[Component], CutDecision],
    rng: random.Random,
    params: Optional[CostParams],
    max_expands: int,
) -> WalkOutcome:
    """:func:`sample_walk` with the strategy's ``best_cut`` passed in."""
    params = params or CostParams()
    cost = 0.0
    expands = 0
    shows = 0
    ignored = 0

    # Work stack of the components the user has chosen to explore.
    stack: List[Component] = [Component(tree, tree.root)]
    while stack:
        component = stack.pop()
        result_count = len(component.distinct_results())
        p_expand = probs.expand(component)
        decision = best_cut(component)
        can_expand = bool(decision.cut) and expands < max_expands
        if can_expand and rng.random() < p_expand:
            expands += 1
            cost += params.expand_cost
            upper, lowers = component.cut(decision.cut)
            produced = [upper, *lowers.values()]
            # Each revealed component is explored with its EXPLORE
            # probability normalized over the whole active tree (§IV).
            # Note this samples the paper's cost recursion *literally*:
            # the formula nests globally-normalized pE factors, so deep
            # components are explored with the product of their ancestors'
            # probabilities times their own — a conservative user model.
            for sub_component in produced:
                cost += params.reveal_cost
                p_explore = probs.explore(sub_component)
                if rng.random() < p_explore:
                    stack.append(sub_component)
                else:
                    ignored += 1
        else:
            shows += 1
            cost += params.citation_cost * result_count
    return WalkOutcome(cost=cost, expands=expands, show_results=shows, ignored=ignored)


def estimate_expected_cost(
    tree: NavigationTree,
    probs: ProbabilityModel,
    strategy: ExpansionStrategy,
    n_walks: int = 200,
    seed: int = 0,
    params: Optional[CostParams] = None,
) -> Tuple[float, float]:
    """Monte-Carlo mean and standard error of the walk cost.

    Returns (mean cost, standard error of the mean).  Walks revisit the
    same components, so the strategy is asked once per component and its
    decision replayed for the rest of the call.
    """
    if n_walks < 1:
        raise ValueError("n_walks must be positive")
    decisions: Dict[ComponentKey, CutDecision] = {}

    def best_cut(component: Component) -> CutDecision:
        decision = decisions.get(component.key)
        if decision is None:
            decision = decisions[component.key] = strategy.best_cut(component)
        return decision

    rng = random.Random(seed)
    costs = [
        _walk(tree, probs, best_cut, rng, params, _MAX_EXPANDS).cost
        for _ in range(n_walks)
    ]
    mean = sum(costs) / n_walks
    if n_walks == 1:
        return mean, 0.0
    variance = sum((c - mean) ** 2 for c in costs) / (n_walks - 1)
    stderr = (variance / n_walks) ** 0.5
    return mean, stderr
