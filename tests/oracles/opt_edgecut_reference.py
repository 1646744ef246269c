"""The legacy (pre-bitmask) Opt-EdgeCut engine, retained as a test oracle.

This is the original frozenset-based implementation of the paper's §VI-A
algorithm: components are ``FrozenSet[int]`` index sets, every valid cut
is materialized up-front by a nested-list product, and each cut's
expansion term is computed in full before comparison.  It is kept —
verbatim, apart from hoisting the duplicated ``subtree_indices`` traversal
in :meth:`ReferenceOptEdgeCut._expansion_term` — for three purposes:

* the property suite asserts the production bitmask engine
  (:class:`repro.core.opt_edgecut.OptEdgeCut`) returns **bit-identical**
  :class:`~repro.core.opt_edgecut.BestCut` values (same cut edges, same
  expected cost, same expansion term) on randomized trees, and
* ``benchmarks/bench_opt_engine.py`` measures the speedup of the bitmask
  engine over this path, and
* its :meth:`~ReferenceOptEdgeCut._enumerate_cuts` and
  :meth:`~ReferenceOptEdgeCut._expansion_term` let the unit and property
  suites check the production solver against every valid cut.

:class:`ReferenceOptEdgeCutStrategy` puts the same engine behind the
:class:`~repro.core.exact.OptEdgeCutStrategy` surface, so the registry's
cross-solver suite compares every optimal solver against it through one
interface.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.exact import OptEdgeCutStrategy
from repro.core.opt_edgecut import (
    MAX_OPT_NODES,
    BestCut,
    CutTree,
    CutTreeEdge,
    OptEdgeCut,
)
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import CutDecision, SolverCapabilities

__all__ = [
    "ReferenceOptEdgeCut",
    "ReferenceOptEdgeCutStrategy",
    "engine_memo_items",
    "subtree_indices",
]


def subtree_indices(cut_tree: CutTree, node: int) -> FrozenSet[int]:
    """Indices of the CutTree subtree rooted at ``node``."""
    collected: Set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        collected.add(current)
        stack.extend(cut_tree.children[current])
    return frozenset(collected)


def engine_memo_items(solver: OptEdgeCut) -> List[Tuple[FrozenSet[int], BestCut]]:
    """The bitmask engine's per-solve memo as (index set, BestCut) pairs.

    The engine keys its memo by component bitmask; converting the masks to
    index sets makes it comparable with :meth:`ReferenceOptEdgeCut.memo_items`.
    """
    return [
        (frozenset(solver._indices_of(mask)), best) for mask, best in solver._memo.items()
    ]


class ReferenceOptEdgeCut:
    """Exhaustive optimal EdgeCut selection with component memoization.

    The legacy engine: frozenset component keys, fully-materialized cut
    enumeration, no pruning.  Kept as the oracle the bitmask engine is
    verified against.
    """

    def __init__(
        self,
        cut_tree: CutTree,
        probs: ProbabilityModel,
        params: Optional[CostParams] = None,
        max_nodes: int = MAX_OPT_NODES,
    ):
        if len(cut_tree) > max_nodes:
            raise ValueError(
                "Opt-EdgeCut is exponential; refusing a %d-node tree (max %d). "
                "Use Heuristic-ReducedOpt for larger components."
                % (len(cut_tree), max_nodes)
            )
        self.tree = cut_tree
        self.probs = probs
        self.params = params or CostParams()
        total_mass = sum(cut_tree.explore)
        # The input tree is "the initial active tree" of this expansion:
        # its total EXPLORE probability is 1 (paper §IV).
        self._explore_norm = total_mass if total_mass > 0 else 1.0
        self._memo: Dict[FrozenSet[int], BestCut] = {}

    # ------------------------------------------------------------------
    def solve(self) -> BestCut:
        """Best cut (and expected cost) for the whole CutTree."""
        return self.solve_component(subtree_indices(self.tree, self.tree.root), self.tree.root)

    def solve_component(self, component: FrozenSet[int], root: int) -> BestCut:
        """Best cut for a connected sub-component rooted at ``root``."""
        cached = self._memo.get(component)
        if cached is not None:
            return cached
        result = self._solve(component, root)
        self._memo[component] = result
        return result

    def memo_items(self) -> List[Tuple[FrozenSet[int], BestCut]]:
        """All (component index set, BestCut) pairs solved so far."""
        return list(self._memo.items())

    # ------------------------------------------------------------------
    def _solve(self, component: FrozenSet[int], root: int) -> BestCut:
        tree = self.tree
        # Ascending index order: the legacy code iterated the frozenset
        # directly, whose order is a CPython hashing accident once indices
        # collide modulo the set's table size.  Sorting pins the float
        # summation order to the one the bitmask engine uses, so the two
        # agree to the last ulp.
        members = sorted(component)
        explore = sum(tree.explore[i] for i in members) / self._explore_norm
        distinct: Set[int] = set()
        member_counts: List[int] = []
        for i in members:
            distinct.update(tree.results[i])
            member_counts.extend(tree.member_counts[i])
        result_count = len(distinct)

        cuts = [cut for cut in self._enumerate_cuts(root, component) if cut]
        if not cuts:
            # Singleton (or childless) component: only SHOWRESULTS remains.
            cost = explore * result_count
            return BestCut(cut=(), expected_cost=cost, expansion_term=0.0)

        p_expand = self.probs.expand_from_distribution(member_counts, result_count)
        best_term = float("inf")
        best_cut: Tuple[CutTreeEdge, ...] = ()
        for cut in cuts:
            term = self._expansion_term(component, root, cut)
            if term < best_term:
                best_term = term
                best_cut = tuple(cut)
        show_cost = (1.0 - p_expand) * result_count
        expected = explore * (show_cost + p_expand * best_term)
        return BestCut(cut=best_cut, expected_cost=expected, expansion_term=best_term)

    def _expansion_term(
        self, component: FrozenSet[int], root: int, cut: Sequence[CutTreeEdge]
    ) -> float:
        """Cost of executing this EXPAND: click + per-revealed-root terms."""
        params = self.params
        removed: Set[int] = set()
        lowers: List[Tuple[int, FrozenSet[int]]] = []
        for _, child in cut:
            lower = subtree_indices(self.tree, child) & component
            removed.update(lower)
            lowers.append((child, lower))
        upper = frozenset(component - removed)
        term = params.expand_cost
        # The EdgeCut operation returns the upper root plus every lower
        # root; each contributes an examination cost and its own expected
        # exploration cost.
        term += params.reveal_cost + self.solve_component(upper, root).expected_cost
        for child, lower in lowers:
            term += params.reveal_cost + self.solve_component(lower, child).expected_cost
        return term

    def _enumerate_cuts(
        self, node: int, component: FrozenSet[int]
    ) -> List[List[CutTreeEdge]]:
        """All valid EdgeCuts of the component subtree at ``node``.

        Returns cut-sets (including the empty cut).  Validity — at most
        one cut edge per root-to-leaf path — is guaranteed structurally:
        once an edge is cut, no edge below it is considered.
        """
        options_per_child: List[List[List[CutTreeEdge]]] = []
        for child in self.tree.children[node]:
            if child not in component:
                continue
            child_options = [[(node, child)]]
            child_options.extend(self._enumerate_cuts(child, component))
            options_per_child.append(child_options)
        combos: List[List[CutTreeEdge]] = [[]]
        for child_options in options_per_child:
            combos = [base + extra for base in combos for extra in child_options]
        return combos


class ReferenceOptEdgeCutStrategy(OptEdgeCutStrategy):
    """The exhaustive reference engine behind the strategy surface."""

    name = "opt-edgecut-reference"
    capabilities = SolverCapabilities(
        name="opt_edgecut_reference",
        optimal=True,
        exact_below=MAX_OPT_NODES,
        max_nodes=MAX_OPT_NODES,
        estimates_cost=True,
        cost_bound=None,
        description="exhaustive reference Opt-EdgeCut (test oracle; slow)",
    )

    def best_cut(self, component: Component) -> CutDecision:
        """Optimal EdgeCut for one component, solved exhaustively."""
        if len(component) <= 1:
            return CutDecision(cut=(), reduced_size=len(component))
        cut_tree = CutTree.from_component(self.tree, self.probs, component)
        solved = ReferenceOptEdgeCut(cut_tree, self.probs, self.params).solve()
        return CutDecision(
            cut=tuple((cut_tree.payload[p], cut_tree.payload[c]) for p, c in solved.cut),
            reduced_size=len(cut_tree),
            expected_cost=solved.expected_cost,
        )
