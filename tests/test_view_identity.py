"""Views from cut plans equal views that recount every component.

A pipeline session never counts a component itself: the root's
statistics come with the navigation-tree artifact and every other
component's with the cut plan of the EXPAND that created it.  Random
EXPAND / BACKTRACK sequences run through such a session, through a bare
:class:`ActiveTree` that computes each component's statistics on first
read, and through the frozenset oracle, and after every action the
three must show the same rows (node, label, count, expandable, depth,
parent) in the same order under both ranking policies.  A second
pipeline that reads the first one's plans from a shared L2 must show
the same views again.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.stagecache import ClusterStageCache
from repro.core.active_tree import ActiveTree
from repro.core.relevance import rank_siblings, ranked_visualization
from repro.pipeline.pipeline import NavigationPipeline
from tests.oracles.active_tree_reference import ReferenceActiveTree

SEED = 17
POLICIES = ("relevance", "count")


def plan_views(active: ActiveTree, probs) -> Tuple[list, ...]:
    """Both rankings of a plan-fed tree, which must count nothing itself."""
    with mock.patch(
        "repro.core.active_tree.component_stats",
        side_effect=AssertionError("a pipeline view recounted a component"),
    ):
        return tuple(ranked_visualization(active, probs, by=by) for by in POLICIES)


def oracle_views(oracle: ReferenceActiveTree, probs) -> Tuple[list, ...]:
    """Both rankings of the frozenset oracle, relevance summed from its members."""
    tree = oracle.tree
    mass = probs.explore_mass

    def relevance(row) -> float:
        members = oracle.component(row.node)
        return math.fsum(float(mass[tree.position(m)]) for m in members)

    rows = oracle.visualize()
    return rank_siblings(rows, relevance), rank_siblings(rows, lambda r: float(r.count))


def random_actions(rng, pipeline: NavigationPipeline, query: str, steps: int) -> List:
    """A random EXPAND / BACKTRACK script, chosen while playing it."""
    session = pipeline.open_session(query)
    actions: List = []
    for _ in range(steps):
        roots = [n for n in session.active.visible_nodes() if session.active.is_expandable(n)]
        if roots and rng.random() < 0.7:
            node = rng.choice(roots)
            session.expand(node)
            actions.append(node)
        else:
            session.backtrack()
            actions.append(None)
    return actions


def play(pipeline: NavigationPipeline, query: str, actions: List) -> List[tuple]:
    """Replay a script in a fresh session, checking every view against a
    bare tree and the oracle; returns the session's views."""
    nav = pipeline.nav_tree(query)
    session = pipeline.open_session(query)
    bare = ActiveTree(nav.tree)
    oracle = ReferenceActiveTree(nav.tree)
    views = [plan_views(session.active, nav.probs)]
    for node in actions:
        if node is None:
            for tree in (session, bare, oracle):
                tree.backtrack()
        else:
            cut = session.expand(node).decision.cut
            bare.expand(node, cut)
            oracle.expand(node, cut)
        views.append(plan_views(session.active, nav.probs))
        bare_views = tuple(ranked_visualization(bare, nav.probs, by=by) for by in POLICIES)
        assert views[-1] == bare_views
        assert views[-1] == oracle_views(oracle, nav.probs)
    return views


@given(st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_plan_views_match_recounted_views(deployment, rng):
    database, entrez, queries = deployment
    pipeline = NavigationPipeline(database, entrez)
    query = rng.choice(queries)
    actions = random_actions(rng, pipeline, query, steps=10)
    play(pipeline, query, actions)


def test_plans_read_from_a_shared_l2_show_the_same_views(deployment, tmp_path):
    database, entrez, queries = deployment
    first = NavigationPipeline(database, entrez, l2=ClusterStageCache(tmp_path))
    second = NavigationPipeline(database, entrez, l2=ClusterStageCache(tmp_path))
    rng = random.Random(SEED)
    for query in queries:
        actions = random_actions(rng, first, query, steps=12)
        assert any(node is not None for node in actions)
        assert play(second, query, actions) == play(first, query, actions)
    cut = second.cache.snapshot()["cut"]
    assert cut["builds"] == 0 and cut["l2_hits"] > 0
