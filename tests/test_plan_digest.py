"""A pinned digest of every EXPAND decision over a fixed seeded workload.

perfbench's ``nav_cost_mean`` is blind to cut changes (every session
there expands the root twice and ends on it), so the solver's outputs
are pinned here instead: a seeded in-memory substrate, a handful of
one-concept queries whose trees run to ~1.5k nodes, and per query a
walk that EXPANDs the largest and the smallest expandable component in
turn.  EXPANDs of large components go through the reduced (§VI-B) path,
those of small ones through the exact path; each is a fresh solve of the
component under its own EXPLORE normalization.  Every decision's cut,
reduced size and ``repr(expected_cost)`` feed one sha-256, for two
solver configurations.

A change that moves any cut or any cost bit fails this test.  Such a
change must bump :data:`~repro.pipeline.artifacts.KEY_FORMAT_VERSION`
(cached plans of the old solver must not be served) and re-pin both
values below together.

The pipeline's ``results``, ``nav_tree`` and ``cut`` content keys of a
few of the same queries are pinned as literal hex too.  A running
fleet's L2 stores artifacts under them, so a change that moves one has
changed the key scheme: it must bump the version and re-pin, not leave
the L2 directory of version 6 full of entries nothing reads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.active_tree import ActiveTree
from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.eutils.client import EntrezClient
from repro.hierarchy.generator import generate_hierarchy
from repro.pipeline.artifacts import KEY_FORMAT_VERSION
from repro.pipeline.pipeline import NavigationPipeline
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.substrate import (
    SubstrateBuilder,
    SynthSpec,
    synthetic_background,
    synthetic_chunks,
)

#: The key version the digest below was pinned under.
PINNED_KEY_FORMAT_VERSION = 6
#: sha-256 over every decision of :func:`walk_decisions`.
PLAN_DIGEST = "fbcbe98594139687cc99dfa630edc3d004395641658f82e3d0fcad316260bcb1"

#: Per query of the workload's first three: its ``results`` and
#: ``nav_tree`` keys, then the ``cut`` keys of the root component and of
#: the upper component the root's cut leaves, all under key version 6.
PINNED_STAGE_KEYS = (
    (
        "385[mh]",
        "e0ef603fcb57b1ca23620a8685e420e583085dc9",
        "9fb4e3fe9ba8287fd1ba09966b16b67fb222690e",
        "8809e3875c949f5fa8afc1b938ccf11d72f1c685",
        "fad6453ec4a44b03167e5c9d44fd93f7ea63351a",
    ),
    (
        "422[mh]",
        "ff036386728cb72520c14f5c6fad456143af6ecb",
        "3bbfe2783154f8ba5e2d8865cf03d8268602ef3b",
        "08956105ab2fbd286d3a863de15935b0488fc7cb",
        "a3c3a7c400aedc7ff12c0b7734074f727d3b6f72",
    ),
    (
        "443[mh]",
        "1a78f8678c886e3099d6be409bc09b7511640f35",
        "11f48b74eeab7032ddbb14f2c2efeb7ed9ee3e72",
        "867dd9e48c2713a10d07042ea8ed773a29e514b8",
        "b55384d6a93be36918ea72e605def74ca412c8cf",
    ),
)

SEED = 21
QUERIES = 8
EXPANDS_PER_WALK = 10


@pytest.fixture(scope="module")
def workload():
    hierarchy = generate_hierarchy(target_size=2500, seed=SEED)
    builder = SubstrateBuilder(None, num_concepts=len(hierarchy))
    builder.build(
        synthetic_chunks(
            SynthSpec(citations=12_000, num_concepts=len(hierarchy), seed=SEED)
        ),
        hierarchy=hierarchy,
        background=synthetic_background(len(hierarchy), seed=SEED),
    )
    store = builder.open()
    counts = np.array([store.result_count(c) for c in range(len(hierarchy))])
    # Mid-frequency concepts: trees of a few hundred nodes.
    concepts = np.flatnonzero((counts >= 60) & (counts <= 120))[:QUERIES]
    assert len(concepts) == QUERIES
    return hierarchy, store, concepts.tolist()


def walk_decisions(hierarchy, store, concept, **options):
    """Decisions of one walk over the largest and smallest components."""
    tree = NavigationTree.from_store(hierarchy, store, store.boolean_and([concept]))
    probs = ProbabilityModel(tree, store)
    solver = HeuristicReducedOpt(tree, probs, **options)
    active = ActiveTree(tree)
    decisions = []
    for step in range(EXPANDS_PER_WALK):
        sizes = sorted(
            (len(active.component(r)), r) for r in active.component_roots()
        )
        sizes = [(size, root) for size, root in sizes if size > 1]
        if not sizes:
            break
        # Alternate the largest component with the smallest expandable one.
        size, root = sizes[0] if step % 2 else sizes[-1]
        decision = solver.best_cut(active.component(root))
        decisions.append(
            (root, decision.cut, decision.reduced_size, repr(decision.expected_cost))
        )
        active.expand(root, decision.cut)
    return tree.size(), decisions


def plan_digest(workload) -> str:
    hierarchy, store, concepts = workload
    hasher = hashlib.sha256()
    for options in ({}, {"max_reduced_nodes": 5}):
        for concept in concepts:
            hasher.update(repr(walk_decisions(hierarchy, store, concept, **options)).encode())
    return hasher.hexdigest()


def test_walks_cover_both_solve_paths(workload):
    hierarchy, store, concepts = workload
    sizes = []
    for concept in concepts:
        tree_size, decisions = walk_decisions(hierarchy, store, concept)
        assert tree_size > 100
        sizes.extend(reduced for _, _, reduced, _ in decisions)
    assert len(sizes) == QUERIES * EXPANDS_PER_WALK
    # Reduced solves of big components, exact solves of small ones.
    assert max(sizes) == 10 and min(sizes) < 10


def test_plan_digest_is_pinned(workload):
    assert (KEY_FORMAT_VERSION, plan_digest(workload)) == (
        PINNED_KEY_FORMAT_VERSION,
        PLAN_DIGEST,
    ), "solver output changed: bump KEY_FORMAT_VERSION and re-pin the digest"


def stage_keys(pipeline, query):
    """The pipeline's stage keys for ``query``, as in :data:`PINNED_STAGE_KEYS`."""
    results = pipeline.results(query)
    nav = pipeline.nav_tree(query)
    component = Component(nav.tree, nav.tree.root)
    plan = pipeline.plan_cut(nav, component, "heuristic")
    upper, _ = component.cut(plan.decision.cut)
    upper_plan = pipeline.plan_cut(nav, upper, "heuristic")
    return (
        query,
        results.content_key,
        nav.content_key,
        plan.content_key,
        upper_plan.content_key,
    )


def test_stage_keys_are_pinned(workload):
    hierarchy, store, concepts = workload
    pipeline = NavigationPipeline(
        BioNavDatabase.from_store(store, hierarchy=hierarchy),
        EntrezClient(store, SearchEngine(store, hierarchy=hierarchy)),
    )
    queries = ["%d[mh]" % concept for concept in concepts[: len(PINNED_STAGE_KEYS)]]
    assert KEY_FORMAT_VERSION == PINNED_KEY_FORMAT_VERSION
    assert tuple(stage_keys(pipeline, query) for query in queries) == PINNED_STAGE_KEYS
