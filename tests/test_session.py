"""Unit tests for repro.core.session."""

from __future__ import annotations

import pytest

from repro.core.heuristic import HeuristicReducedOpt
from repro.core.session import NavigationSession
from repro.core.static_nav import StaticNavigation
from repro.core.strategy import CutDecision, ExpansionStrategy
from tests.oracles.member_sets import subtree_results


class EmptyCutStrategy(ExpansionStrategy):
    name = "empty"

    def best_cut(self, component):
        return CutDecision(cut=())


@pytest.fixture()
def session(fragment_tree, fragment_probs):
    strategy = HeuristicReducedOpt(fragment_tree, fragment_probs)
    return NavigationSession(fragment_tree, strategy)


@pytest.fixture()
def static_session(fragment_tree):
    return NavigationSession(fragment_tree, StaticNavigation(fragment_tree))


class TestExpand:
    def test_expand_charges_action_and_reveals(self, session, fragment_tree):
        outcome = session.expand(fragment_tree.root)
        assert session.ledger.expand_actions == 1
        assert session.ledger.concepts_revealed == len(outcome.revealed)
        assert session.navigation_cost == 1 + len(outcome.revealed)

    def test_expand_log_records_outcomes(self, session, fragment_tree):
        session.expand(fragment_tree.root)
        log = session.expand_log
        assert len(log) == 1
        assert log[0].node == fragment_tree.root

    def test_expand_reveals_visible_nodes(self, session, fragment_tree):
        outcome = session.expand(fragment_tree.root)
        for node in outcome.revealed:
            assert session.active.is_visible(node)

    def test_empty_cut_strategy_raises(self, fragment_tree):
        session = NavigationSession(fragment_tree, EmptyCutStrategy())
        with pytest.raises(ValueError):
            session.expand(fragment_tree.root)

    def test_static_expand_reveals_all_children(self, static_session, fragment_tree):
        outcome = static_session.expand(fragment_tree.root)
        assert set(outcome.revealed) == set(fragment_tree.children(fragment_tree.root))


class TestShowResults:
    def test_show_results_returns_component_citations(self, static_session, fragment_tree, fragment_hierarchy):
        static_session.expand(fragment_tree.root)
        # After static expansion of root, pick the branch holding Apoptosis.
        bio = fragment_hierarchy.by_label(
            "Biological Phenomena, Cell Phenomena, and Immunity"
        )
        visible = static_session.active.containing_root(
            fragment_hierarchy.by_label("Apoptosis")
        )
        pmids = static_session.show_results(visible)
        assert pmids == sorted(pmids)
        assert static_session.ledger.citations_displayed == len(pmids)

    def test_show_results_on_root_lists_everything(self, session, fragment_tree):
        pmids = session.show_results(fragment_tree.root)
        assert len(pmids) == len(subtree_results(fragment_tree, fragment_tree.root))
        assert session.total_cost == session.navigation_cost + len(pmids)


class TestIgnore:
    def test_ignore_visible_node_is_free(self, session, fragment_tree):
        outcome = session.expand(fragment_tree.root)
        cost_before = session.total_cost
        session.ignore(outcome.revealed[0])
        assert session.total_cost == cost_before
        assert outcome.revealed[0] in session.ignored

    def test_ignore_hidden_node_rejected(self, session, fragment_tree, fragment_hierarchy):
        hidden = fragment_hierarchy.by_label("Euchromatin")
        with pytest.raises(ValueError):
            session.ignore(hidden)


class TestBacktrack:
    def test_backtrack_restores_tree_and_log(self, session, fragment_tree):
        session.expand(fragment_tree.root)
        assert session.backtrack()
        assert session.expand_log == []
        assert session.active.visible_nodes() == [fragment_tree.root]

    def test_backtrack_initial_state_false(self, session):
        assert not session.backtrack()

    def test_backtrack_does_not_refund_cost(self, session, fragment_tree):
        # The TOPDOWN cost model has no refunds: effort already spent stays.
        session.expand(fragment_tree.root)
        cost = session.navigation_cost
        session.backtrack()
        assert session.navigation_cost == cost


class TestVisualize:
    def test_visualize_matches_active_tree(self, session, fragment_tree):
        session.expand(fragment_tree.root)
        rows = session.visualize()
        assert rows[0].node == fragment_tree.root
        visible = set(session.active.visible_nodes())
        assert {r.node for r in rows} == visible


class TestProfiler:
    def test_expand_records_timing(self, fragment_tree, fragment_probs):
        from repro.obs import Metrics

        metrics = Metrics()
        strategy = HeuristicReducedOpt(fragment_tree, fragment_probs)
        session = NavigationSession(fragment_tree, strategy, metrics=metrics)
        outcome = session.expand(fragment_tree.root)
        snapshot = metrics.snapshot()
        decisions = snapshot["histograms"]["solver.decision_seconds"]
        assert decisions["count"] == 1
        assert decisions["sum"] == outcome.elapsed_seconds >= 0.0
        assert (
            snapshot["counters"]["solver.reduced_size"]
            == outcome.decision.reduced_size
        )

    def test_expand_outcome_carries_elapsed_without_profiler(
        self, session, fragment_tree
    ):
        outcome = session.expand(fragment_tree.root)
        assert outcome.elapsed_seconds >= 0.0

    def test_failed_expand_records_nothing(self, fragment_tree, fragment_probs):
        from repro.obs import Metrics

        metrics = Metrics()
        session = NavigationSession(
            fragment_tree, EmptyCutStrategy(), metrics=metrics
        )
        with pytest.raises(ValueError):
            session.expand(fragment_tree.root)
        assert metrics.snapshot() == {"counters": {}, "histograms": {}}
