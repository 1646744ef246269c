"""The unified solver registry: API surface and cross-solver equivalence.

The second half is the acceptance gate for the registry refactor: on
small random navigation trees (where the exhaustive oracle is feasible),
every solver advertising ``optimal=True`` must produce cuts and costs
bit-identical to the reference strategy in
``tests/oracles/opt_edgecut_reference.py``, and the heuristic must stay
within its documented ``cost_bound`` of the optimum even when forced
through its reduction path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.evaluation import expected_strategy_cost
from repro.core.probabilities import ProbabilityModel
from repro.core.strategy import ExpansionStrategy, SolverCapabilities
from repro.hierarchy.concept import ConceptHierarchy
from repro.pipeline.registry import SolverRegistry, default_registry
from tests.oracles.member_sets import tree_from_mapping
from tests.oracles.opt_edgecut_reference import ReferenceOptEdgeCutStrategy


def random_scenario(size: int, seed: int):
    """A random ``size``-node navigation tree plus its probability model."""
    rng = random.Random(seed)
    parents = [-1]
    for _ in range(size - 1):
        parents.append(rng.choice(range(len(parents))))
    h = ConceptHierarchy.from_parents(
        parents, ["r"] + ["c%d" % i for i in range(size - 1)]
    )
    nodes = range(size)
    annotations = {
        n: set(rng.sample(range(120), rng.randint(1, 25))) for n in nodes
    }
    tree = tree_from_mapping(h, annotations)
    probs = ProbabilityModel(tree, lambda n: 500)
    return tree, probs


@pytest.fixture(scope="module")
def registry() -> SolverRegistry:
    return default_registry()


class TestRegistryApi:
    def test_five_canonical_solvers(self, registry):
        assert registry.names() == (
            "gopubmed",
            "heuristic",
            "opt_edgecut",
            "paged_static",
            "static_nav",
        )

    def test_aliases_resolve_to_canonical_names(self, registry):
        assert registry.resolve("heuristic-reducedopt") == "heuristic"
        assert registry.resolve("static") == "static_nav"
        assert registry.resolve("paged-static") == "paged_static"
        assert registry.resolve("opt") == "opt_edgecut"
        assert registry.resolve("opt-edgecut") == "opt_edgecut"

    def test_all_names_includes_aliases(self, registry):
        names = registry.all_names()
        assert set(registry.names()) < set(names)
        assert "static" in names and "opt" in names

    def test_contains(self, registry):
        assert "heuristic" in registry
        assert "static" in registry  # alias
        assert "magic" not in registry

    def test_unknown_name_rejected_with_catalog(self, registry):
        with pytest.raises(ValueError, match="heuristic"):
            registry.resolve("magic")
        tree, probs = random_scenario(3, 0)
        with pytest.raises(ValueError):
            registry.create("magic", tree, probs)

    def test_capabilities_lookup_follows_aliases(self, registry):
        caps = registry.capabilities("static")
        assert isinstance(caps, SolverCapabilities)
        assert caps.name == "static_nav"

    def test_catalog_sorted_and_complete(self, registry):
        catalog = registry.catalog()
        assert [c.name for c in catalog] == list(registry.names())
        assert all(c.description for c in catalog)

    def test_optimal_names(self, registry):
        assert registry.optimal_names() == ("opt_edgecut",)

    def test_created_solver_carries_its_capabilities(self, registry):
        tree, probs = random_scenario(4, 1)
        for name in registry.names():
            solver = registry.create(name, tree, probs)
            assert isinstance(solver, ExpansionStrategy)
            assert solver.capabilities == registry.capabilities(name)

    def test_unknown_options_are_ignored(self, registry):
        tree, probs = random_scenario(4, 2)
        solver = registry.create("static_nav", tree, probs, page_size=7, top_k=3)
        assert solver.capabilities.name == "static_nav"

    def test_duplicate_registration_rejected(self, registry):
        fresh = SolverRegistry()
        caps = registry.capabilities("static_nav")
        fresh.register(lambda *a, **k: None, caps, aliases=("static",))
        with pytest.raises(ValueError):
            fresh.register(lambda *a, **k: None, caps)
        other = registry.capabilities("heuristic")
        with pytest.raises(ValueError):
            fresh.register(lambda *a, **k: None, other, aliases=("static",))


class TestCrossSolverEquivalence:
    """Optimal solvers are bit-identical; the heuristic is cost-bounded."""

    def test_optimal_solvers_match_reference_bit_for_bit(self, registry):
        params = CostParams()
        optimal = list(registry.optimal_names())
        assert optimal  # the refactor must not lose the fast engine
        for seed in range(40):
            rng = random.Random(seed)
            size = rng.randint(2, 10)
            tree, probs = random_scenario(size, 7_000 + seed)
            component = Component(tree, tree.root)
            oracle = ReferenceOptEdgeCutStrategy(tree, probs, params=params)
            expected = oracle.best_cut(component)
            for name in optimal:
                solver = registry.create(name, tree, probs, params=params)
                decision = solver.best_cut(component)
                assert decision.cut == expected.cut, "seed %d %s" % (seed, name)
                assert decision.expected_cost == expected.expected_cost, (
                    "seed %d %s" % (seed, name)
                )

    def test_heuristic_is_exact_below_its_reduction_threshold(self, registry):
        """Components at or below ``max_reduced_nodes`` skip the
        reduction, so the heuristic's cut is the optimal one."""
        for seed in range(20):
            rng = random.Random(seed)
            size = rng.randint(2, 10)
            tree, probs = random_scenario(size, 11_000 + seed)
            component = Component(tree, tree.root)
            oracle = ReferenceOptEdgeCutStrategy(tree, probs)
            heuristic = registry.create(
                "heuristic", tree, probs, max_reduced_nodes=10
            )
            assert heuristic.best_cut(component).cut == (
                oracle.best_cut(component).cut
            ), "seed %d" % seed

    def test_heuristic_stays_within_documented_cost_bound(self, registry):
        """Forced through the k-partition reduction (max_reduced_nodes=4
        on trees up to 10 nodes), the heuristic's expected navigation
        cost stays within ``capabilities.cost_bound`` of the optimum."""
        bound = registry.capabilities("heuristic").cost_bound
        assert bound is not None
        for seed in range(40):
            rng = random.Random(seed)
            size = rng.randint(2, 10)
            tree, probs = random_scenario(size, 1_000 + seed)
            oracle = ReferenceOptEdgeCutStrategy(tree, probs)
            heuristic = registry.create(
                "heuristic", tree, probs, max_reduced_nodes=4
            )
            optimum = expected_strategy_cost(tree, probs, oracle)
            achieved = expected_strategy_cost(tree, probs, heuristic)
            if optimum > 0:
                assert achieved <= bound * optimum, (
                    "seed %d: %.4f > %.2f * %.4f" % (seed, achieved, bound, optimum)
                )
            else:
                assert achieved <= 0.0

    def test_baselines_never_beat_the_optimum(self, registry):
        """Sanity direction check: no cost-agnostic baseline achieves a
        lower expected cost than the exact solver."""
        for seed in range(10):
            tree, probs = random_scenario(8, 21_000 + seed)
            oracle = ReferenceOptEdgeCutStrategy(tree, probs)
            optimum = expected_strategy_cost(tree, probs, oracle)
            for name in ("static_nav", "gopubmed", "paged_static"):
                baseline = registry.create(name, tree, probs)
                achieved = expected_strategy_cost(tree, probs, baseline)
                assert achieved >= optimum - 1e-9, "seed %d %s" % (seed, name)
