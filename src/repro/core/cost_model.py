"""The TOPDOWN navigation cost model (paper §III).

The cost model charges the user:

* ``reveal_cost`` (1) for examining each concept node revealed by an
  EXPAND action,
* ``expand_cost`` (1) for executing each EXPAND action, and
* ``citation_cost`` (1) for each citation displayed by SHOWRESULTS.

The expected cost of exploring a component subtree ``I(n)`` is

    cost(I(n)) = pE(I(n)) * ( (1 - pX(I(n))) * |R(I(n))|
                            + pX(I(n)) * ( expand_cost
                                           + Σ_{m ∈ C} (reveal_cost + cost(I'(m))) ) )

where ``C`` is the set of component roots returned by the chosen EdgeCut
(the upper root plus every lower root), and ``I'`` the updated components.
Raising ``expand_cost`` makes each EXPAND reveal more concepts (paper §III,
final remark) — ablated in ``benchmarks/bench_ablation_expand_cost.py``.

This module also provides :class:`CostLedger`, the bookkeeping used to
report actual (not expected) navigation costs in the Fig. 8/9 experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CostParams", "CostLedger", "costs_equal", "cost_improves", "COST_RTOL"]

# Relative tolerance for comparing independently computed costs.  Costs
# are sums/products of O(tree-size) IEEE doubles, so equal quantities
# computed along different association orders agree to far better than
# 1e-9 relative; anything farther apart is a genuine difference.
COST_RTOL = 1e-9


def costs_equal(a: float, b: float, rtol: float = COST_RTOL) -> bool:
    """Tolerance equality for independently computed cost values.

    This is the sanctioned substitute for ``==`` on floats (the
    ``float-equality`` analyzer rule): two costs that agree within
    ``rtol`` relative tolerance are the same expected cost, differing
    only by floating-point association order.

    Note the solver engines themselves must NOT use this for tie-breaking
    — their bit-identical-to-reference guarantee requires exact strict
    ``<`` first-minimum comparisons on costs accumulated in canonical
    order (see DESIGN.md §8).  Use it in evaluation, tests, and callers
    comparing costs that were produced by different computation paths.
    """
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def cost_improves(candidate: float, best: float) -> bool:
    """First-minimum tie-break: does ``candidate`` strictly beat ``best``?

    The sanctioned solver comparison: strictly smaller wins, equal keeps
    the incumbent.  Both Opt-EdgeCut engines break ties this way, which
    is what makes their enumeration-order agreement observable as
    bit-identical ``BestCut`` values.
    """
    return candidate < best


@dataclass(frozen=True)
class CostParams:
    """Unit costs of the three user efforts (paper defaults: all 1)."""

    expand_cost: float = 1.0
    reveal_cost: float = 1.0
    citation_cost: float = 1.0

    def __post_init__(self) -> None:
        if min(self.expand_cost, self.reveal_cost, self.citation_cost) < 0:
            raise ValueError("costs must be non-negative")


@dataclass
class CostLedger:
    """Accumulates the actual cost of one navigation (Fig. 8 metric).

    ``navigation_cost`` is the paper's Fig. 8 measure — concepts revealed
    plus EXPAND actions — while ``total_cost`` additionally includes the
    citations displayed by SHOWRESULTS.
    """

    params: CostParams = field(default_factory=CostParams)
    expand_actions: int = 0
    concepts_revealed: int = 0
    citations_displayed: int = 0

    def charge_expand(self, concepts_revealed: int) -> None:
        """Record one EXPAND action revealing ``concepts_revealed`` nodes."""
        if concepts_revealed < 0:
            raise ValueError("cannot reveal a negative number of concepts")
        self.expand_actions += 1
        self.concepts_revealed += concepts_revealed

    def charge_show_results(self, citations: int) -> None:
        """Record one SHOWRESULTS action listing ``citations`` citations."""
        if citations < 0:
            raise ValueError("cannot display a negative number of citations")
        self.citations_displayed += citations

    @property
    def navigation_cost(self) -> float:
        """Concepts revealed + EXPAND actions (the Fig. 8 y-axis)."""
        return (
            self.params.reveal_cost * self.concepts_revealed
            + self.params.expand_cost * self.expand_actions
        )

    @property
    def total_cost(self) -> float:
        """Navigation cost plus the SHOWRESULTS citation cost."""
        return (
            self.navigation_cost
            + self.params.citation_cost * self.citations_displayed
        )
