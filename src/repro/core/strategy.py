"""Expansion-strategy interface.

A strategy decides which EdgeCut an EXPAND action performs on a component.
The paper compares two: BioNav's ``Heuristic-ReducedOpt`` and the static
show-all-children baseline (GoPubMed-style).  The optimal ``Opt-EdgeCut``
can also be wrapped as a strategy for small trees.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.core.edgecut import Component

__all__ = ["CutDecision", "SolverCapabilities", "ExpansionStrategy"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class SolverCapabilities:
    """Machine-readable capability metadata for one expansion strategy.

    The solver registry (:mod:`repro.pipeline.registry`) selects and
    validates strategies by this record instead of hard-coded imports.

    Attributes:
        name: canonical registry name of the solver.
        optimal: True when every accepted component is solved to the
            provable cost minimum (bit-identical to the reference
            oracle).
        exact_below: component size at or below which the solver's cut
            is exact (``None`` when it never is).  For
            Heuristic-ReducedOpt this is its ``max_reduced_nodes``
            default: components that skip the reduction are solved with
            Opt-EdgeCut directly.
        max_nodes: largest component the solver accepts, or ``None``
            when unbounded (Opt-EdgeCut refuses trees above the bitmask
            engine's cap).
        estimates_cost: True when :attr:`CutDecision.expected_cost` is
            populated by a cost model rather than left ``None``.
        cost_bound: documented upper bound on the ratio between the
            solver's expected navigation cost and the optimum, on trees
            the optimum can be computed for; ``None`` for exact solvers
            and for baselines that make no cost claim.  Enforced by the
            cross-solver equivalence suite (``tests/test_registry.py``).
        description: one-line catalog entry.
    """

    name: str
    optimal: bool
    exact_below: Optional[int]
    max_nodes: Optional[int]
    estimates_cost: bool
    cost_bound: Optional[float]
    description: str


@dataclass(frozen=True)
class CutDecision:
    """An EdgeCut chosen by a strategy, plus instrumentation.

    Attributes:
        cut: navigation-tree edges to cut (empty only for singletons).
        reduced_size: supernode count of the reduced tree the decision was
            computed on (equals the component size when no reduction
            happened; reported in the Fig. 11 experiment).
        expected_cost: the strategy's own estimate of the resulting
            expected navigation cost, when it computes one.
    """

    cut: Tuple[Edge, ...]
    reduced_size: int = 0
    expected_cost: Optional[float] = None


class ExpansionStrategy(abc.ABC):
    """Chooses the EdgeCut for an EXPAND on a given component.

    Concrete strategies advertise a :class:`SolverCapabilities` record
    as the ``capabilities`` class attribute; the solver registry reads
    it to answer "which solvers are optimal / cost-modelled / size-
    capped" without importing solver modules at call sites.
    """

    name = "abstract"
    capabilities: ClassVar[Optional[SolverCapabilities]] = None

    @abc.abstractmethod
    def best_cut(self, component: Component) -> CutDecision:
        """Return the EdgeCut to apply to ``component`` (an EXPAND of its root).

        Implementations must return a valid EdgeCut of that component;
        they must not mutate it.
        """

    def choose_expansion(self, component: Component) -> Tuple[CutDecision, Tuple]:
        """:meth:`best_cut` plus the statistics of the components it
        creates, as :meth:`ActiveTree.expand` takes them (empty: unknown)."""
        return self.best_cut(component), ()
