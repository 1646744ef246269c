"""Interval active tree vs the frozenset oracle.

``repro.core.active_tree`` holds each component as ``(root, excluded)``
and answers every read with interval arithmetic on the navigation
tree's preorder arrays; ``tests/oracles/active_tree_reference.py`` keeps
the original frozenset implementation.  Random EXPAND / BACKTRACK /
IGNORE / SHOWRESULTS sequences run against both, over generated trees
and over navigation trees answered by a small corpus store, and after
every action the two must agree on the visible rows, every component's
member set, ``containing_root`` for every node, the cut each EXPAND
chose, the SHOWRESULTS PMIDs and the ledger costs.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.active_tree import ActiveTree
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.core.relevance import relevance_of
from repro.core.session import NavigationSession
from repro.core.static_nav import StaticNavigation
from repro.core.strategy import CutDecision, ExpansionStrategy
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.active_tree_reference import ReferenceActiveTree
from tests.oracles.member_sets import (
    component_from_members,
    distinct_results,
    tree_from_mapping,
)
from tests.oracles.partition_reference import ReferenceHeuristicReducedOpt


class OracleStrategy(ExpansionStrategy):
    """Solves the oracle tree's frozenset component with ``inner``.

    The member set is handed over in interval form, the one form the
    solvers take, rooted at its first member in pre-order.
    """

    def __init__(self, tree: NavigationTree, inner: ExpansionStrategy):
        self.tree = tree
        self.inner = inner

    def best_cut(self, members) -> CutDecision:  # type: ignore[override]
        root = min(members, key=self.tree.position)
        return self.inner.best_cut(component_from_members(self.tree, members, root))


class OracleSession(NavigationSession):
    """The frozenset-era session: oracle active tree, set-union SHOWRESULTS."""

    def __init__(self, tree: NavigationTree, strategy: ExpansionStrategy):
        super().__init__(tree, strategy)
        self.active = ReferenceActiveTree(tree)  # type: ignore[assignment]

    def show_results(self, node: int) -> List[int]:
        pmids = sorted(distinct_results(self.tree, self.active.component(node)))
        self.ledger.charge_show_results(len(pmids))
        return pmids


def random_tree(rng: random.Random, size: int) -> NavigationTree:
    parents = [-1] + [rng.randrange(node) for node in range(1, size)]
    hierarchy = ConceptHierarchy.from_parents(
        parents, ["root"] + ["n%d" % node for node in range(1, size)]
    )
    annotations: Dict[int, Set[int]] = {}
    for node in range(size):
        if rng.random() < 0.7:
            annotations[node] = {rng.randrange(1, 60) for _ in range(rng.randint(1, 5))}
    return tree_from_mapping(hierarchy, annotations)


def make_strategy(name: str, tree: NavigationTree, probs: ProbabilityModel, limit: int):
    if name == "static":
        return StaticNavigation(tree), StaticNavigation(tree)
    return (
        HeuristicReducedOpt(tree, probs, max_reduced_nodes=limit),
        ReferenceHeuristicReducedOpt(tree, probs, max_reduced_nodes=limit),
    )


def assert_same_state(active: ActiveTree, oracle: ReferenceActiveTree) -> None:
    tree = active.tree
    assert active.visualize() == oracle.visualize()
    assert active.visible_nodes() == oracle.visible_nodes()
    assert active.component_roots() == oracle.component_roots()
    assert active.expansions_performed == oracle.expansions_performed
    for node in tree.iter_dfs():
        assert active.containing_root(node) == oracle.containing_root(node)
        assert active.is_visible(node) == oracle.is_visible(node)
        assert active.is_expandable(node) == oracle.is_expandable(node)
        if oracle.is_visible(node):
            members = oracle.component(node)
            component = active.component(node)
            assert frozenset(component) == members
            assert active.component_count(node) == oracle.component_count(node)
            assert component.key == component_from_members(tree, members, node).key
            assert len(component) == len(members)
        else:
            with pytest.raises(KeyError):
                active.component(node)
            with pytest.raises(KeyError):
                oracle.component(node)


def run_sequence(
    tree: NavigationTree,
    probs: ProbabilityModel,
    rng: random.Random,
    solver: str,
    steps: int,
) -> None:
    limit = rng.choice((3, 5, 10))
    production, reference = make_strategy(solver, tree, probs, limit)
    session = NavigationSession(tree, production)
    oracle = OracleSession(tree, OracleStrategy(tree, reference))
    assert_same_state(session.active, oracle.active)
    for _ in range(steps):
        action = rng.choice(("expand", "expand", "backtrack", "ignore", "show"))
        visible = oracle.active.visible_nodes()
        if action == "expand":
            roots = oracle.active.component_roots()
            if not roots:
                continue
            node = rng.choice(roots)
            made = session.expand(node)
            expected = oracle.expand(node)
            assert made.decision.cut == expected.decision.cut
            assert made.revealed == expected.revealed
        elif action == "backtrack":
            assert session.backtrack() == oracle.backtrack()
        elif action == "ignore":
            node = rng.choice(visible)
            session.ignore(node)
            oracle.ignore(node)
            assert session.ignored == oracle.ignored
        else:
            node = rng.choice(visible)
            assert session.show_results(node) == oracle.show_results(node)
        assert session.navigation_cost == oracle.navigation_cost
        assert session.total_cost == oracle.total_cost
        assert_same_state(session.active, oracle.active)


class TestGeneratedTrees:
    @given(
        st.randoms(use_true_random=False),
        st.integers(1, 70),
        st.sampled_from(("heuristic", "static")),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_action_sequences_match_oracle(self, rng, size, solver):
        tree = random_tree(rng, size)
        probs = ProbabilityModel(tree, lambda node: 50 + node)
        run_sequence(tree, probs, rng, solver, steps=12)

    def test_invalid_expands_raise_like_the_oracle(self, fragment_tree):
        active = ActiveTree(fragment_tree)
        oracle = ReferenceActiveTree(fragment_tree)
        root = fragment_tree.root
        child = fragment_tree.children(root)[0]
        grandchild = fragment_tree.children(child)[0]
        for node, cut in (
            (root, []),
            (child, [(child, grandchild)]),
            (root, [(root, child), (child, grandchild)]),
            (10**6, [(root, child)]),
        ):
            with pytest.raises(ValueError):
                oracle.expand(node, cut)
            with pytest.raises(ValueError):
                active.expand(node, cut)
        assert_same_state(active, oracle)
        with pytest.raises(KeyError):
            active.containing_root(10**6)


@pytest.fixture(scope="module")
def store_trees(small_workload):
    """Navigation trees answered by the workload's corpus store."""
    pipeline = small_workload.pipeline
    return [
        pipeline.nav_tree(built.spec.keyword) for built in small_workload.queries
    ]


class TestStoreTrees:
    @given(st.randoms(use_true_random=False), st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_action_sequences_match_oracle(self, store_trees, rng, data):
        nav = data.draw(st.sampled_from(store_trees))
        run_sequence(nav.tree, nav.probs, rng, "heuristic", steps=6)


class TestRelevance:
    def test_same_component_reached_two_ways_has_one_relevance(self):
        # A sparse tree over a large hierarchy: node ids far above the
        # member count make a frozenset's iteration order depend on how
        # the set was built, which is what made the summed float depend
        # on the expansion history.
        rng = random.Random(7)
        size = rng.randint(2000, 6000)
        parents = [-1] + [rng.randrange(max(1, node // 50)) for node in range(1, size)]
        hierarchy = ConceptHierarchy.from_parents(
            parents, ["root"] + ["n%d" % node for node in range(1, size)]
        )
        annotations = {
            node: {rng.randrange(1, 500) for _ in range(rng.randint(1, 4))}
            for node in range(size)
            if rng.random() < 0.02
        }
        tree = tree_from_mapping(hierarchy, annotations)
        probs = ProbabilityModel(tree, lambda node: 50 + (node * 7919) % 1000)
        root = tree.root
        first, last = tree.children(root)[0], tree.children(root)[-1]
        values = []
        for order in ((first, last), (last, first)):
            active = ActiveTree(tree)
            for child in order:
                active.expand(root, [(root, child)])
            values.append(relevance_of(active, probs, root))
        one_step = ActiveTree(tree)
        one_step.expand(root, [(root, first), (root, last)])
        values.append(relevance_of(one_step, probs, root))
        members = sorted(one_step.component(root))
        assert values == [math.fsum(probs.explore_mass[tree.positions(members)])] * 3
