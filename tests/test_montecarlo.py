"""Unit tests for the Monte-Carlo TOPDOWN user simulation."""

from __future__ import annotations

import random

import pytest

from repro.core.heuristic import HeuristicReducedOpt
from repro.core.montecarlo import estimate_expected_cost, sample_walk
from repro.core.static_nav import StaticNavigation


@pytest.fixture()
def heuristic(fragment_tree, fragment_probs):
    return HeuristicReducedOpt(fragment_tree, fragment_probs)


class TestSampleWalk:
    def test_walk_terminates_and_charges(self, fragment_tree, fragment_probs, heuristic):
        outcome = sample_walk(
            fragment_tree, fragment_probs, heuristic, random.Random(1)
        )
        assert outcome.cost > 0
        assert outcome.show_results + outcome.ignored >= 1

    def test_deterministic_given_rng_state(self, fragment_tree, fragment_probs, heuristic):
        a = sample_walk(fragment_tree, fragment_probs, heuristic, random.Random(7))
        b = sample_walk(fragment_tree, fragment_probs, heuristic, random.Random(7))
        assert a == b

    def test_walks_vary_across_seeds(self, fragment_tree, fragment_probs, heuristic):
        outcomes = {
            sample_walk(fragment_tree, fragment_probs, heuristic, random.Random(s)).cost
            for s in range(20)
        }
        assert len(outcomes) > 1

    def test_static_strategy_walkable(self, fragment_tree, fragment_probs):
        strategy = StaticNavigation(fragment_tree)
        outcome = sample_walk(
            fragment_tree, fragment_probs, strategy, random.Random(3)
        )
        assert outcome.cost > 0

    def test_expand_budget_respected(self, fragment_tree, fragment_probs, heuristic):
        outcome = sample_walk(
            fragment_tree, fragment_probs, heuristic, random.Random(1), max_expands=1
        )
        assert outcome.expands <= 1


class TestEstimate:
    def test_mean_and_stderr(self, fragment_tree, fragment_probs, heuristic):
        mean, stderr = estimate_expected_cost(
            fragment_tree, fragment_probs, heuristic, n_walks=50, seed=5
        )
        assert mean > 0
        assert stderr >= 0

    def test_single_walk_has_zero_stderr(self, fragment_tree, fragment_probs, heuristic):
        _, stderr = estimate_expected_cost(
            fragment_tree, fragment_probs, heuristic, n_walks=1
        )
        assert stderr == 0.0

    def test_one_solve_per_component_same_estimate(
        self, fragment_tree, fragment_probs, heuristic
    ):
        asked = []

        class Counting(HeuristicReducedOpt):
            def best_cut(self, component):
                asked.append(component.key)
                return super().best_cut(component)

        walks = 20
        mean, stderr = estimate_expected_cost(
            fragment_tree, fragment_probs, Counting(fragment_tree, fragment_probs),
            n_walks=walks, seed=5,
        )
        assert len(asked) == len(set(asked)) > 1
        # Replayed decisions leave every rng draw, so every bit, unchanged.
        rng = random.Random(5)
        costs = [
            sample_walk(fragment_tree, fragment_probs, heuristic, rng).cost
            for _ in range(walks)
        ]
        expected = sum(costs) / walks
        variance = sum((c - expected) ** 2 for c in costs) / (walks - 1)
        assert (mean, stderr) == (expected, (variance / walks) ** 0.5)

    def test_n_walks_validation(self, fragment_tree, fragment_probs, heuristic):
        with pytest.raises(ValueError):
            estimate_expected_cost(fragment_tree, fragment_probs, heuristic, n_walks=0)

    def test_heuristic_beats_static_in_expectation(
        self, fragment_tree, fragment_probs, heuristic
    ):
        """Monte-Carlo agreement with the model-level dominance."""
        h_mean, _ = estimate_expected_cost(
            fragment_tree, fragment_probs, heuristic, n_walks=400, seed=11
        )
        s_mean, _ = estimate_expected_cost(
            fragment_tree,
            fragment_probs,
            StaticNavigation(fragment_tree),
            n_walks=400,
            seed=11,
        )
        assert h_mean < s_mean

    def test_monte_carlo_matches_analytic_evaluator(
        self, fragment_tree, fragment_probs
    ):
        """The sampled walk is an unbiased estimator of the §III recursion."""
        from repro.core.evaluation import expected_strategy_cost

        for strategy in (
            StaticNavigation(fragment_tree),
            HeuristicReducedOpt(fragment_tree, fragment_probs),
        ):
            analytic = expected_strategy_cost(fragment_tree, fragment_probs, strategy)
            mean, stderr = estimate_expected_cost(
                fragment_tree, fragment_probs, strategy, n_walks=500, seed=23
            )
            assert abs(mean - analytic) <= max(5 * stderr, 0.05 * analytic), (
                strategy.name,
                analytic,
                mean,
                stderr,
            )
