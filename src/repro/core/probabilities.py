"""Estimation of navigation probabilities (paper §IV).

Two probabilities drive the cost model:

* **EXPLORE** — the probability that the user is interested in a component
  subtree.  Assuming all result citations are equally interesting, a
  concept ``n`` matters more when many result citations attach to it
  (``|L(n)|`` large) and less when it is globally common in MEDLINE
  (``LT(n)`` large) — an inverse-document-frequency intuition.  Per node:
  ``pE(n) = (|L(n)| / log LT(n)) / Z`` with ``Z`` normalizing over all
  navigation-tree nodes, so the initial tree has total EXPLORE probability
  1; a component's probability is the sum over its members.

* **EXPAND** — the probability that an interested user expands the
  component rather than listing its citations.  Zero for leaves and
  singletons; one above an upper result-count threshold (default 50);
  zero below a lower threshold (default 10); otherwise the entropy of the
  citation distribution over the component's concepts, normalized by the
  uniform/no-duplicate maximum — widely scattered citations make
  narrowing down worthwhile.

The model keeps ``|L(n)|`` and the EXPLORE mass per node, and ``Z``;
``log LT(n)`` is folded into the mass and not kept, as no solve reads it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from repro.core.edgecut import Component
from repro.core.navigation_tree import NavigationTree

if TYPE_CHECKING:  # annotation only
    from repro.substrate.store import MmapStore

__all__ = ["ProbabilityModel"]


class ProbabilityModel:
    """EXPLORE / EXPAND probability estimator for one navigation tree.

    Construction lays the per-node quantities out once, as frozen arrays
    indexed by the tree's embedded preorder position (entry ``i``
    describes node ``tree.preorder_array()[i]``):

    * :attr:`result_counts` — ``|L(n)|``;
    * :attr:`explore_mass` — the unnormalized EXPLORE weight
      ``|L(n)| / log LT(n)`` with ``LT(n)`` clamped to at least 2
      (plain ``|L(n)|`` without IDF; zero for empty nodes);
    * :attr:`normalizer` — ``Z``, the sum of :attr:`explore_mass`
      accumulated sequentially in preorder.

    The scalar methods below are the production path: every solver, the
    evaluator, ``montecarlo`` and relevance ranking read the
    arrays through them, and the heuristic's reduction gathers the
    arrays directly.  The model is shared by every session of a query,
    so the arrays are read-only: an in-place write raises instead of
    silently corrupting other sessions' solves.
    """

    def __init__(
        self,
        tree: NavigationTree,
        medline_count: Union[Callable[[int], int], "MmapStore"],
        upper_threshold: int = 50,
        lower_threshold: int = 10,
        use_idf: bool = True,
    ):
        """
        Args:
            tree: the navigation tree of the current query result.
            medline_count: concept node id → MEDLINE-wide citation count
                (``LT(n)``); counts below 2 are clamped so the logarithm
                stays positive.  A corpus store is accepted in place of
                the callable: its ``medline_counts`` answers every node
                in one batch lookup.
            upper_threshold: result count above which EXPAND is certain.
            lower_threshold: result count below which EXPAND never happens.
            use_idf: divide by ``log LT(n)`` (the paper's inverse-document-
                frequency discount of globally common concepts).  Disable
                for the ablation that measures what the IDF term buys
                (``benchmarks/bench_ablation_probability.py``).
        """
        if lower_threshold < 0 or upper_threshold < lower_threshold:
            raise ValueError("thresholds must satisfy 0 <= lower <= upper")
        self.tree = tree
        self.upper_threshold = upper_threshold
        self.lower_threshold = lower_threshold
        self.use_idf = use_idf
        preorder = tree.preorder_array()
        self.result_counts = np.diff(tree.result_offsets_array())
        if callable(medline_count):
            lt = np.fromiter(
                (max(2, medline_count(n)) for n in preorder.tolist()),
                dtype=np.float64,
                count=len(preorder),
            )
        else:
            lt = np.maximum(medline_count.medline_counts(preorder), 2).astype(np.float64)
        counts = self.result_counts.astype(np.float64)
        mass = counts / np.log(lt) if use_idf else counts
        self.explore_mass = np.where(self.result_counts > 0, mass, 0.0)
        for array in (self.result_counts, self.explore_mass):
            array.setflags(write=False)

        # Sequential preorder accumulation pins Z to one exact float.
        total = 0.0
        for value in self.explore_mass.tolist():  # repro: ignore[vectorize]
            total += value
        self.normalizer = total if total > 0 else 1.0

    # ------------------------------------------------------------------
    # EXPLORE
    # ------------------------------------------------------------------
    def explore_node(self, node: int) -> float:
        """``pE(n)`` for a single concept node."""
        return self.node_mass(node) / self.normalizer

    def node_mass(self, node: int) -> float:
        """Unnormalized EXPLORE weight ``|L(n)| / log LT(n)`` of one node."""
        return float(self.explore_mass[self.tree.position(node)])

    def explore(self, component: Component) -> float:
        """``pE(I(n))``: sum of member node probabilities.

        Members are summed in ascending node-id order, so the float
        accumulation order — and therefore the probability to the last
        ulp — depends only on the component's contents.
        """
        return sum(self._by_node_id(component, self.explore_mass)) / self.normalizer

    # ------------------------------------------------------------------
    # EXPAND
    # ------------------------------------------------------------------
    def expand(self, component: Component) -> float:
        """``pX(I(n))`` for one component."""
        if len(component) <= 1:
            return 0.0
        # Node-id order pins the entropy summation order (see explore()).
        return self.expand_from_distribution(
            self._by_node_id(component, self.result_counts),
            len(component.distinct_results()),
        )

    def _by_node_id(self, component: Component, values: np.ndarray) -> list:
        """``values`` at the component's members, in ascending node-id order."""
        positions = component.positions()
        ids = self.tree.preorder_array()[positions]
        return values[positions[np.argsort(ids, kind="stable")]].tolist()

    def expand_from_distribution(
        self, member_counts: Sequence[int], distinct_count: int
    ) -> float:
        """EXPAND probability from raw component statistics.

        Args:
            member_counts: ``|L(m)|`` per member concept (zeros allowed).
            distinct_count: distinct citations in the component.

        Exposed separately so the reduced supernode trees of the heuristic
        can reuse the exact same estimate.
        """
        decided = self.expand_by_threshold(len(member_counts), distinct_count)
        return self._normalized_entropy(member_counts) if decided is None else decided

    def expand_by_threshold(self, members: int, distinct_count: int) -> Optional[float]:
        """pX where the member count or a threshold decides it, else ``None``.

        ``None``: the entropy of the member-count histogram decides.
        """
        if members <= 1:
            return 0.0
        if distinct_count > self.upper_threshold:
            return 1.0
        if distinct_count < self.lower_threshold:
            return 0.0
        return None

    def _normalized_entropy(self, member_counts: Sequence[int]) -> float:
        """Entropy of the citation distribution, normalized to [0, 1].

        The maximum entropy corresponds to citations spread uniformly over
        all member concepts with no duplicates: ``log(len(members))``.
        Duplicates can push the raw entropy above the maximum, so the ratio
        is clamped to 1.
        """
        total = sum(member_counts)
        if total == 0:
            return 0.0
        entropy = 0.0
        for count in member_counts:
            if count == 0:
                continue
            p = count / total
            entropy -= p * math.log(p)
        max_entropy = math.log(len(member_counts))
        if max_entropy <= 0:
            return 0.0
        return min(1.0, entropy / max_entropy)
