"""Unit tests for repro.core.probabilities."""

from __future__ import annotations

import math

import pytest

from repro.core.edgecut import Component
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import component_from_members, tree_from_mapping


def build_tree(annotations):
    h = ConceptHierarchy.from_parents([-1, 0, 1, 1, 0], ["root", "a", "b", "c", "d"])
    return tree_from_mapping(h, annotations)


@pytest.fixture()
def tree():
    return build_tree(
        {
            1: set(range(0, 10)),    # |L| = 10
            2: set(range(5, 25)),    # |L| = 20
            3: set(range(20, 30)),   # |L| = 10
            4: set(range(0, 5)),     # |L| = 5
        }
    )


def flat_counts(node: int) -> int:
    return 1000


class TestExploreProbability:
    def test_sums_to_one_over_tree(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        total = sum(probs.explore_node(n) for n in tree.iter_dfs())
        assert total == pytest.approx(1.0)

    def test_empty_root_has_zero_mass(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        assert probs.explore_node(tree.root) == 0.0

    def test_proportional_to_result_count_with_flat_lt(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        assert probs.explore_node(2) == pytest.approx(2 * probs.explore_node(1))

    def test_idf_discounts_globally_common_concepts(self, tree):
        # Same |L|, but node 3 is MEDLINE-ubiquitous → lower pE than node 1.
        def counts(node):
            return 1_000_000 if node == 3 else 100

        probs = ProbabilityModel(tree, counts)
        assert probs.explore_node(3) < probs.explore_node(1)

    def test_component_probability_is_sum(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        expected = probs.explore_node(1) + probs.explore_node(2)
        assert probs.explore(component_from_members(tree, [1, 2], 1)) == pytest.approx(
            expected
        )

    def test_whole_tree_component_has_probability_one(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        assert probs.explore(Component(tree, tree.root)) == pytest.approx(1.0)

    def test_tiny_lt_clamped(self, tree):
        # LT of 0 or 1 would zero/negate the log; it must be clamped.
        probs = ProbabilityModel(tree, lambda n: 0)
        assert probs.explore_node(1) > 0
        assert math.isfinite(probs.explore_node(1))

    def test_explore_mass_unnormalized(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        assert probs.node_mass(1) == pytest.approx(10 / math.log(1000))


class TestExpandProbability:
    def test_singleton_never_expands(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        assert probs.expand(Component(tree, 2)) == 0.0

    def test_big_components_always_expand(self, tree):
        probs = ProbabilityModel(tree, flat_counts, upper_threshold=20)
        assert probs.expand(Component(tree, tree.root)) == 1.0

    def test_small_components_never_expand(self, tree):
        probs = ProbabilityModel(tree, flat_counts, lower_threshold=10)
        assert probs.expand(Component(tree, 4)) == 0.0

    def test_entropy_band_between_thresholds(self, tree):
        probs = ProbabilityModel(tree, flat_counts, upper_threshold=100, lower_threshold=1)
        value = probs.expand(Component(tree, 1))
        assert 0.0 < value <= 1.0

    def test_uniform_distribution_gives_high_entropy(self):
        probs_tree = build_tree({1: {1}, 2: {2}, 3: {3}, 4: {4}})
        probs = ProbabilityModel(probs_tree, flat_counts, upper_threshold=100, lower_threshold=1)
        assert probs.expand_from_distribution([5, 5, 5, 5], 20) == pytest.approx(1.0)

    def test_skewed_distribution_gives_low_entropy(self):
        probs_tree = build_tree({1: {1}, 2: {2}, 3: {3}, 4: {4}})
        probs = ProbabilityModel(probs_tree, flat_counts, upper_threshold=100, lower_threshold=1)
        skewed = probs.expand_from_distribution([97, 1, 1, 1], 40)
        uniform = probs.expand_from_distribution([25, 25, 25, 25], 40)
        assert skewed < uniform

    def test_duplicates_clamped_to_one(self):
        probs_tree = build_tree({1: {1}, 2: {2}, 3: {3}, 4: {4}})
        probs = ProbabilityModel(probs_tree, flat_counts, upper_threshold=100, lower_threshold=1)
        # Heavy duplication: member counts sum far above distinct count.
        assert probs.expand_from_distribution([30, 30, 30], 35) <= 1.0

    def test_zero_members_zero(self):
        probs_tree = build_tree({1: {1}, 2: {2}, 3: {3}, 4: {4}})
        probs = ProbabilityModel(probs_tree, flat_counts, upper_threshold=100, lower_threshold=1)
        assert probs.expand_from_distribution([0, 0], 15) == 0.0


class TestThresholdBoundaries:
    """Exact boundary semantics of the 50/10 thresholds (paper §IV)."""

    def _probs(self, tree):
        return ProbabilityModel(tree, flat_counts, upper_threshold=50, lower_threshold=10)

    def test_exactly_upper_uses_entropy_not_one(self, tree):
        probs = self._probs(tree)
        # R == upper: "greater than an upper threshold" is strict.
        value = probs.expand_from_distribution([25, 25], 50)
        assert value < 1.0 or value == pytest.approx(1.0)  # entropy may reach 1
        # But R just above upper is certainly 1.
        assert probs.expand_from_distribution([1, 1], 51) == 1.0

    def test_exactly_lower_uses_entropy_not_zero(self, tree):
        probs = self._probs(tree)
        assert probs.expand_from_distribution([5, 5], 10) > 0.0
        assert probs.expand_from_distribution([5, 4], 9) == 0.0

    def test_between_thresholds_is_entropy(self, tree):
        probs = self._probs(tree)
        uniform = probs.expand_from_distribution([10, 10], 20)
        skewed = probs.expand_from_distribution([19, 1], 20)
        assert 0 < skewed < uniform <= 1.0


class TestIdfAblationFlag:
    def test_without_idf_mass_is_result_count(self, tree):
        probs = ProbabilityModel(tree, flat_counts, use_idf=False)
        assert probs.node_mass(2) == pytest.approx(20.0)

    def test_idf_changes_relative_weights(self, tree):
        def counts(node):
            return 1_000_000 if node == 3 else 100

        with_idf = ProbabilityModel(tree, counts, use_idf=True)
        without_idf = ProbabilityModel(tree, counts, use_idf=False)
        # Nodes 1 and 3 have equal |L|; only the IDF variant separates them.
        assert without_idf.explore_node(1) == pytest.approx(without_idf.explore_node(3))
        assert with_idf.explore_node(1) > with_idf.explore_node(3)

    def test_both_variants_are_distributions(self, tree):
        for use_idf in (True, False):
            probs = ProbabilityModel(tree, flat_counts, use_idf=use_idf)
            assert sum(probs.explore_node(n) for n in tree.iter_dfs()) == pytest.approx(1.0)


class TestThresholdValidation:
    def test_bad_thresholds_rejected(self, tree):
        with pytest.raises(ValueError):
            ProbabilityModel(tree, flat_counts, upper_threshold=5, lower_threshold=10)
        with pytest.raises(ValueError):
            ProbabilityModel(tree, flat_counts, lower_threshold=-1)

    def test_paper_defaults(self, tree):
        probs = ProbabilityModel(tree, flat_counts)
        assert probs.upper_threshold == 50
        assert probs.lower_threshold == 10
