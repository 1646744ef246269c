"""Property suite: the §IV cost model's per-node arrays and edge cases.

:class:`~repro.core.probabilities.ProbabilityModel` lays ``|L(n)|``,
``log LT(n)`` and the EXPLORE mass out as preorder arrays and answers
every EXPLORE/EXPAND query from them.  The suite pins the arrays to the
§IV formula elementwise, and the EXPAND decision to its exact branch at
the corners that historically break cost-model implementations:
components whose distinct-citation count sits *exactly* on the lower or
upper threshold, members with zero citations, and singleton components.
It also covers ``segment_sums``, the empty-segment-safe reduction the
oracle reduction in ``tests/oracles/partition_reference.py`` sums its
supernode EXPLORE masses with, and
the bit-identity check the equivalence suites and the cold-path bench
compare models with.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edgecut import Component
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.cost_identity import models_identical
from tests.oracles.member_sets import (
    component_from_members,
    distinct_results,
    tree_from_mapping,
)
from tests.oracles.partition_reference import segment_sums


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def scenarios(draw, max_nodes: int = 18, max_citations: int = 40):
    """(tree, probs, lt) over a random hierarchy with random annotations.

    Unannotated nodes are spliced out of the navigation tree per
    Definition 2, but the always-kept root is a natural zero-count
    member whenever it draws no annotations itself.  MEDLINE totals are
    drawn per node so the IDF denominators vary too, including the
    clamped values below 2.
    """
    n = draw(st.integers(2, max_nodes))
    parents = [-1] + [draw(st.integers(0, node - 1)) for node in range(1, n)]
    h = ConceptHierarchy.from_parents(
        parents, ["root"] + ["n%d" % node for node in range(1, n)]
    )
    annotations: Dict[int, Set[int]] = {}
    for node in range(1, n):
        if draw(st.booleans()):
            annotations[node] = draw(
                st.sets(st.integers(1, max_citations), min_size=1, max_size=10)
            )
    tree = tree_from_mapping(h, annotations)
    totals = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    probs = ProbabilityModel(tree, lambda node: totals[node])
    return tree, probs, totals


# ---------------------------------------------------------------------------
# Per-node arrays
# ---------------------------------------------------------------------------
class TestPerNodeArrays:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_per_node_mass_is_bit_identical(self, data):
        tree, probs, totals = data.draw(scenarios())
        preorder = tree.preorder_array().tolist()
        counts = [len(tree.results(n)) for n in preorder]
        # |L(n)| / log(max(2, LT(n))) per node, zero for empty nodes.
        log_lt = np.log(np.asarray([max(2, totals[n]) for n in preorder], dtype=float))
        expected = [
            c / log_lt[i] if c else 0.0 for i, c in enumerate(counts)
        ]
        assert probs.explore_mass.tolist() == expected
        assert probs.result_counts.tolist() == counts
        for node, mass in zip(preorder, expected):
            assert probs.node_mass(node) == mass
            assert probs.explore_node(node) == mass / probs.normalizer


class TestThresholdEdges:
    """Components engineered to sit exactly on the EXPAND thresholds."""

    def _chain_with_counts(self, counts: List[int]):
        """A root chain where node i+1 carries ``counts[i]`` distinct pmids."""
        labels = ["root"]
        annotations: Dict[int, Set[int]] = {}
        next_pmid = 1
        for node, count in enumerate(counts, start=1):
            labels.append("n%d" % next_pmid)
            annotations[node] = set(range(next_pmid, next_pmid + count))
            next_pmid += count
        h = ConceptHierarchy.from_parents(list(range(-1, len(counts))), labels)
        tree = tree_from_mapping(h, annotations)
        probs = ProbabilityModel(tree, lambda _n: 1000)
        return tree, probs

    def _expand(self, tree, probs, members):
        """pX of the component with ``members``, rooted at the first one."""
        return probs.expand(component_from_members(tree, members, members[0]))

    def test_distinct_exactly_at_lower_threshold(self):
        # distinct == lower: not "< lower", so the entropy branch runs.
        tree, probs = self._chain_with_counts([5, 5])
        component = sorted(tree.iter_dfs())
        assert len(distinct_results(tree, component)) == probs.lower_threshold
        value = self._expand(tree, probs, component)
        assert 0.0 < value <= 1.0

    def test_distinct_one_below_lower_threshold(self):
        tree, probs = self._chain_with_counts([5, 4])
        component = sorted(tree.iter_dfs())
        assert len(distinct_results(tree, component)) == probs.lower_threshold - 1
        assert self._expand(tree, probs, component) == 0.0

    def test_distinct_exactly_at_upper_threshold(self):
        # distinct == upper: not "> upper", so the entropy branch runs.
        tree, probs = self._chain_with_counts([25, 25])
        component = sorted(tree.iter_dfs())
        assert len(distinct_results(tree, component)) == probs.upper_threshold
        value = self._expand(tree, probs, component)
        assert 0.0 < value <= 1.0

    def test_distinct_one_above_upper_threshold(self):
        tree, probs = self._chain_with_counts([26, 25])
        component = sorted(tree.iter_dfs())
        assert len(distinct_results(tree, component)) == probs.upper_threshold + 1
        assert self._expand(tree, probs, component) == 1.0

    def test_singleton_component_is_zero_even_above_threshold(self):
        tree, probs = self._chain_with_counts([60])
        component = [sorted(tree.iter_dfs())[1]]
        assert self._expand(tree, probs, component) == 0.0

    def test_zero_count_member_in_entropy_denominator(self):
        # Empty-result concepts are spliced out (Definition 2), so the
        # root is the one zero-count member a navigation tree can hold.
        # It must contribute nothing to the entropy sum but still widen
        # the max-entropy denominator (log 3, not log 2).
        h = ConceptHierarchy.from_parents([-1, 0, 0], ["root", "a", "b"])
        a, b = 1, 2
        tree = tree_from_mapping(h, {a: set(range(1, 11)), b: set(range(11, 21))})
        probs = ProbabilityModel(tree, lambda _n: 1000)
        component = [0, a, b]
        assert len(tree.results(0)) == 0
        value = self._expand(tree, probs, component)
        assert 0.0 < value < 1.0

    def test_zero_count_singleton_root(self):
        h = ConceptHierarchy.from_parents([-1, 0], ["root", "a"])
        tree = tree_from_mapping(h, {1: {1, 2}})
        probs = ProbabilityModel(tree, lambda _n: 1000)
        assert self._expand(tree, probs, [0]) == 0.0
        assert probs.explore(component_from_members(tree, [0], 0)) == 0.0


class TestSegmentSums:
    def test_empty_segments_sum_to_zero(self):
        values = np.asarray([1.0, 2.0, 3.0])
        offsets = np.asarray([0, 2, 2, 3, 3])
        lengths = np.asarray([2, 0, 1, 0, 0])
        out = segment_sums(values, offsets, lengths)
        assert out.tolist() == [3.0, 0.0, 3.0, 0.0, 0.0]

    def test_trailing_empty_after_multielement_segment(self):
        # Regression: a clamped reduceat pulled the trailing empty
        # segment's offset back onto the last element, splitting the
        # preceding multi-element segment ([8, 16] summed as just 8).
        values = np.asarray([1.0, 2.0, 4.0, 8.0, 16.0])
        offsets = np.asarray([0, 3, 5])
        lengths = np.asarray([3, 2, 0])
        out = segment_sums(values, offsets, lengths)
        assert out.tolist() == [7.0, 24.0, 0.0]

    def test_batch_ending_in_empty_component(self):
        # Same regression on the heuristic's supernode sums: a trailing
        # empty part must not truncate the preceding part's EXPLORE
        # mass; the zero-mass root adds exactly nothing to the sum.
        h = ConceptHierarchy.from_parents([-1, 0, 0, 0], ["root", "a", "b", "c"])
        a, b, c = 1, 2, 3
        tree = tree_from_mapping(
            h, {a: set(range(1, 11)), b: set(range(6, 16)), c: set(range(16, 26))}
        )
        probs = ProbabilityModel(tree, lambda _n: 1000)
        full = [a, b, c]
        flat = probs.explore_mass[tree.positions([a] + full)]
        sums = segment_sums(flat, np.asarray([0, 1, 4]), np.asarray([1, 3, 0]))
        full_mass = sum(probs.explore_mass[tree.positions(full)].tolist())
        assert sums.tolist() == [probs.node_mass(a), full_mass, 0.0]
        whole = Component(tree, tree.root)
        assert sums[1] / probs.normalizer == probs.explore(whole)
        assert len(whole.distinct_results()) == 25
        assert 0.0 < probs.expand(whole) <= 1.0
        assert probs.expand(Component(tree, a)) == 0.0

    def test_empty_batch(self):
        out = segment_sums(
            np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert out.shape == (0,)



class TestModelIdentity:
    """The bit-identity check the equivalence suites and benches rely on."""

    def test_model_identity_is_deterministic(self):
        h = ConceptHierarchy.from_parents([-1, 0, 0], ["root", "a", "b"])
        a, b = 1, 2
        tree = tree_from_mapping(h, {a: {1, 2, 3}, b: {3, 4}})
        first = ProbabilityModel(tree, lambda _n: 100)
        assert models_identical(first, ProbabilityModel(tree, lambda _n: 100))
        assert not models_identical(
            first, ProbabilityModel(tree, lambda _n: 100, upper_threshold=51)
        )
        # One perturbed LT value changes that node's log LT and mass.
        assert not models_identical(
            first, ProbabilityModel(tree, lambda n: 101 if n == b else 100)
        )

    def test_model_identity_sees_citation_identity(self):
        # Same per-node counts, different citation ids → not identical
        # (distinct-count semantics differ, so the cuts may too).
        h = ConceptHierarchy.from_parents([-1, 0, 0], ["root", "a", "b"])
        a, b = 1, 2
        overlapping = tree_from_mapping(h, {a: {1, 2}, b: {2, 3}})
        disjoint = tree_from_mapping(h, {a: {1, 2}, b: {3, 4}})
        assert not models_identical(
            ProbabilityModel(overlapping, lambda _n: 100),
            ProbabilityModel(disjoint, lambda _n: 100),
        )
