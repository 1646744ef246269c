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
the L2 directory of version 8 full of entries nothing reads.
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
PINNED_KEY_FORMAT_VERSION = 8
#: sha-256 over every decision of :func:`walk_decisions`.
PLAN_DIGEST = "fbcbe98594139687cc99dfa630edc3d004395641658f82e3d0fcad316260bcb1"

#: Per query of the workload's first three: its ``results`` and
#: ``nav_tree`` keys, then the ``cut`` keys of the root component and of
#: the upper component the root's cut leaves, all under key version 8.
PINNED_STAGE_KEYS = (
    (
        "385[mh]",
        "7112ade01efd51db06ce0794452c2c36a19211b5",
        "b976a78f5c6cfb4511a5e4c357a653734794465c",
        "d6cd5fdf9e66986ecf70eb88fdaf6684e80954d0",
        "33b38b28a1c197596f84aec04c2ab473b3275750",
    ),
    (
        "422[mh]",
        "2bb5da837001ed659a90fc5b7c1f06b30b2faf83",
        "0ac518a9aca3b5facfe5b1a181c0bdda9527d008",
        "49fb19c56dfcec380c6552b085e0e638946940c1",
        "4824bb03ab3dc328ce182515ba3ef46161cc95f3",
    ),
    (
        "443[mh]",
        "74ca2d3a21c98d554b04c5d2bf3539a71dfa2ccb",
        "033ba5a0a0a91edee4ad972ffd92b36fcebfb457",
        "9c6b6e8ab506e59027133d5ecbdba50508529f31",
        "3e575ea55ede1ac3c243536b1cfa06b3fea84a07",
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
