"""Sound cut plans: a cached plan is the plan a fresh solve would choose.

The cut stage is the only place an EXPAND decision is remembered, and
Heuristic-ReducedOpt is a pure function of (tree, probs, params, N,
component).  So whatever the expansion order, whatever solver options
other sessions of the query use, and whichever pipeline builds a plan
first, the plan served for a component equals a fresh solve of it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.stagecache import ClusterStageCache
from repro.core.active_tree import ActiveTree
from repro.core.heuristic import HeuristicReducedOpt
from repro.pipeline.pipeline import NavigationPipeline
from repro.pipeline.stages import CutStage

def fresh(nav, pipeline, component, **options):
    """The decision of a fresh solver that has seen nothing before."""
    solver = HeuristicReducedOpt(nav.tree, nav.probs, params=pipeline.params, **options)
    return solver.best_cut(component)


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=10, deadline=None)
def test_every_plan_equals_a_fresh_solve(deployment, rng, small_first):
    database, entrez, queries = deployment
    pipeline = NavigationPipeline(database, entrez)
    nav = pipeline.nav_tree(rng.choice(queries))
    # Two default-option sessions and one with N = 5, expanded in a
    # random interleaving; optionally the N = 5 session runs first.
    sessions = [{}, {}, {"max_reduced_nodes": 5}]
    states = [
        (options, pipeline.strategy(nav, "heuristic", **options), ActiveTree(nav.tree))
        for options in sessions
    ]
    order = [rng.randrange(3) for _ in range(12)]
    if small_first:
        order = [2] * 4 + order
    for index in order:
        options, strategy, active = states[index]
        roots = sorted(r for r in active.component_roots() if len(active.component(r)) > 1)
        if not roots:
            continue
        root = rng.choice(roots)
        component = active.component(root)
        decision = strategy.best_cut(active.component(root))
        assert decision == fresh(nav, pipeline, component, **options)
        active.expand(root, decision.cut)


def walk(nav, steps=10):
    """(component, fresh decision) along a walk that alternates the
    largest and the smallest expandable component."""
    strategy = HeuristicReducedOpt(nav.tree, nav.probs)
    active = ActiveTree(nav.tree)
    visited = []
    for step in range(steps):
        sizes = sorted(
            (len(active.component(r)), r)
            for r in active.component_roots()
            if len(active.component(r)) > 1
        )
        if not sizes:
            break
        _, root = sizes[0] if step % 2 else sizes[-1]
        component = active.component(root)
        decision = strategy.best_cut(component)
        visited.append((component, decision))
        active.expand(root, decision.cut)
    return visited


def test_shared_l2_plans_do_not_depend_on_the_builder(deployment, tmp_path):
    database, entrez, queries = deployment
    walks = {q: walk(NavigationPipeline(database, entrez).nav_tree(q)) for q in queries[:2]}
    plans = []
    for builder in (0, 1):
        l2 = ClusterStageCache(tmp_path / str(builder))
        pipelines = [NavigationPipeline(database, entrez, l2=l2) for _ in range(2)]
        first, second = pipelines[builder], pipelines[1 - builder]
        by_key = {}
        for query, steps in walks.items():
            # Pipeline 0 builds the walk's plans parents first, pipeline 1
            # sub-components first; the other pipeline reads them back
            # through the shared L2.
            for pipeline in (first, second):
                nav = pipeline.nav_tree(query)
                for component, decision in steps[:: -1 if builder else 1]:
                    plan = pipeline.plan_cut(nav, component, "heuristic")
                    assert plan.decision == decision
                    by_key.setdefault(plan.content_key, plan.decision)
        assert second.cache.snapshot()[CutStage.name]["builds"] == 0
        plans.append(by_key)
    assert plans[0] == plans[1]
