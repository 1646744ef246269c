"""The staged navigation pipeline: artifacts, keys, caching, strategies.

Covers the refactor's load-bearing claims: content keys are
deterministic and chain down the dataflow, navigation trees are shared
across sessions of a query, cut plans are replayed across sessions, and
a pipeline-routed strategy is observationally identical to the bare
registry-built solver.
"""

from __future__ import annotations

import pytest

from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.pipeline.artifacts import component_digest, content_key
from repro.pipeline.pipeline import NavigationPipeline, PipelineStrategy
from repro.pipeline.stages import CutStage, NavTreeStage, SearchStage, params_key
from repro.core.cost_model import CostParams
from tests.oracles.member_sets import component_from_members


@pytest.fixture()
def pipeline(small_workload) -> NavigationPipeline:
    """A fresh pipeline (private cache) over the session-scoped workload."""
    return NavigationPipeline(small_workload.database, small_workload.entrez)


class TestContentKeys:
    def test_content_key_is_deterministic_40_hex(self):
        key = content_key("a", "b")
        assert key == content_key("a", "b")
        assert len(key) == 40
        assert int(key, 16) >= 0

    def test_content_key_sensitive_to_parts_and_order(self):
        assert content_key("a", "b") != content_key("b", "a")
        assert content_key("ab") != content_key("a", "b")

    def test_component_digest_is_order_insensitive(self, fragment_tree):
        root = fragment_tree.root
        members = sorted(fragment_tree.iter_dfs())
        forward = component_from_members(fragment_tree, members, root)
        backward = component_from_members(fragment_tree, members[::-1], root)
        assert component_digest(forward) == component_digest(backward)
        child = fragment_tree.children(root)[0]
        upper, lowers = forward.cut([(root, child)])
        assert component_digest(upper) != component_digest(forward)
        assert component_digest(lowers[child]) != component_digest(upper)

    def test_params_key_tracks_unit_costs(self):
        assert params_key(CostParams()) == params_key(CostParams())
        assert params_key(CostParams()) != params_key(CostParams(expand_cost=2.0))

    def test_keys_chain_down_the_dataflow(self, pipeline):
        deployment = pipeline.deployment_key
        assert deployment == pipeline.database.content_digest()
        first = pipeline.results("prothymosin")
        second = pipeline.results("varenicline")
        assert first.content_key != second.content_key
        assert NavTreeStage.key(deployment, first) != NavTreeStage.key(deployment, second)
        # Same inputs -> same key, on every stage of the chain.
        assert SearchStage.key(deployment, "prothymosin") == first.content_key
        assert pipeline.nav_tree("prothymosin").content_key == NavTreeStage.key(
            deployment, first
        )

    def test_cut_keys_separate_solvers_and_components(self, pipeline):
        nav = pipeline.nav_tree("prothymosin")
        cost = params_key(pipeline.params)
        root = nav.tree.root
        first, second = nav.tree.children(root)[:2]

        def component(*members):
            return component_from_members(nav.tree, members, root)

        def key(solver, *members, **options):
            return CutStage.key(
                nav, solver, cost, component(*members), pipeline.options_key(**options)
            )

        base = key("heuristic", root, first)
        assert base == key("heuristic", first, root)
        assert base != key("static_nav", root, first)
        assert base != key("heuristic", root, first, second)
        assert base != key("heuristic", root, first, max_reduced_nodes=5)
        # A default given explicitly names the same plan.
        assert base == key("heuristic", root, first, max_reduced_nodes=10)


class TestStageSharing:
    def test_nav_tree_shared_across_sessions_of_a_query(self, pipeline):
        one = pipeline.open_session("prothymosin")
        two = pipeline.open_session("prothymosin")
        assert one.tree is two.tree
        assert one is not two
        assert pipeline.cache.snapshot()[NavTreeStage.name]["builds"] == 1

    def test_distinct_queries_get_distinct_trees(self, pipeline):
        first = pipeline.nav_tree("prothymosin")
        second = pipeline.nav_tree("varenicline")
        assert first is not second
        assert first.content_key != second.content_key
        assert pipeline.cache.snapshot()[NavTreeStage.name]["builds"] == 2

    def test_cut_plans_replay_across_sessions(self, pipeline):
        first = pipeline.open_session("prothymosin")
        second = pipeline.open_session("prothymosin")
        root = first.tree.root
        outcome_one = first.expand(root)
        before = pipeline.cache.snapshot()[CutStage.name]
        outcome_two = second.expand(root)
        after = pipeline.cache.snapshot()[CutStage.name]
        assert outcome_one.revealed == outcome_two.revealed
        assert after["hits"] >= before["hits"] + 1
        assert after["builds"] == before["builds"]

    def test_stage_stats_covers_the_whole_dataflow(self, pipeline):
        pipeline.open_session("prothymosin").expand(
            pipeline.nav_tree("prothymosin").tree.root
        )
        stats = pipeline.cache.snapshot()
        assert set(stats) == {SearchStage.name, NavTreeStage.name, CutStage.name}
        for row in stats.values():
            assert row["builds"] == 1
            assert row["build_seconds_total"] >= 0.0

    def test_cached_trees_lists_nav_artifacts(self, pipeline):
        nav = pipeline.nav_tree("prothymosin")
        assert pipeline.cache.items(NavTreeStage.name) == [(nav.content_key, nav)]


class TestPipelineStrategy:
    def test_wrapper_presents_as_the_inner_solver(self, pipeline):
        nav = pipeline.nav_tree("prothymosin")
        strategy = pipeline.strategy(nav, "static")
        assert isinstance(strategy, PipelineStrategy)
        assert strategy.solver == "static_nav"
        assert strategy.name == strategy.inner.name
        assert strategy.capabilities is strategy.inner.capabilities

    def test_equivalent_to_bare_registry_solver(self, pipeline):
        nav = pipeline.nav_tree("prothymosin")
        wrapped = pipeline.strategy(nav, "heuristic")
        bare = pipeline.registry.create(
            "heuristic",
            nav.tree,
            nav.probs,
            params=pipeline.params,
            max_reduced_nodes=pipeline.max_reduced_nodes,
        )
        component = Component(nav.tree, nav.tree.root)
        assert wrapped.best_cut(component).cut == bare.best_cut(component).cut

    def test_repeat_best_cut_hits_the_cut_cache(self, pipeline):
        nav = pipeline.nav_tree("prothymosin")
        strategy = pipeline.strategy(nav, "heuristic")
        component = Component(nav.tree, nav.tree.root)
        first = strategy.best_cut(component)
        stats = pipeline.cache.snapshot()[CutStage.name]
        assert stats["builds"] == 1
        second = strategy.best_cut(component)
        assert second == first
        stats = pipeline.cache.snapshot()[CutStage.name]
        assert stats["builds"] == 1
        assert stats["hits"] == 1

    @pytest.mark.parametrize("first", [{}, {"max_reduced_nodes": 5}])
    def test_plans_follow_the_session_options(self, pipeline, first):
        # Whichever session expands first, a session with other solver
        # options must get its own plan, not the one cached for the other.
        nav = pipeline.nav_tree("prothymosin")
        component = Component(nav.tree, nav.tree.root)
        assert len(component) > 10
        second = {"max_reduced_nodes": 5} if not first else {}
        for options in (first, second):
            decision = pipeline.strategy(nav, "heuristic", **options).best_cut(
                component
            )
            fresh = HeuristicReducedOpt(
                nav.tree, nav.probs, params=pipeline.params, **options
            ).best_cut(component)
            assert decision == fresh
        assert pipeline.cache.snapshot()[CutStage.name]["builds"] == 2

    def test_unknown_solver_rejected(self, pipeline):
        nav = pipeline.nav_tree("prothymosin")
        with pytest.raises(ValueError):
            pipeline.strategy(nav, "magic")
        with pytest.raises(ValueError):
            pipeline.open_session("prothymosin", solver="magic")
