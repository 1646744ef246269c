"""Shared fixtures: a hand-crafted paper-fragment scenario and a small workload.

The *fragment* fixtures build a navigation scenario on the embedded MeSH
fragment with known, hand-assigned citations, so tests can assert exact
counts (the numbers loosely follow the paper's prothymosin walkthrough).
The *workload* fixture materializes a scaled-down Table I deployment once
per session for integration-level tests; the *deployment* fixture is a
seeded synthetic substrate with a few small one-concept queries, for
pipeline property tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

import numpy as np
import pytest

from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.eutils.client import EntrezClient
from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.hierarchy.mesh import paper_fragment
from repro.search.engine import SearchEngine
from repro.storage.database import BioNavDatabase
from repro.substrate import (
    SubstrateBuilder,
    SynthSpec,
    synthetic_background,
    synthetic_chunks,
)
from repro.workload.builder import Workload, build_workload
from tests.oracles.member_sets import tree_from_mapping

# Citations (small integers) hand-attached to fragment concepts.  Several
# citations appear under multiple concepts on purpose — duplicates are what
# make EdgeCut selection interesting.
FRAGMENT_ANNOTATIONS: Dict[str, FrozenSet[int]] = {
    "Apoptosis": frozenset(range(1, 36)),          # 35 citations
    "Autophagy": frozenset({36, 37, 38}),
    "Necrosis": frozenset({39, 40}),
    "Cell Death": frozenset({1, 2, 41, 42}),       # overlaps Apoptosis
    "Cell Proliferation": frozenset(range(20, 50)),  # overlaps Apoptosis/others
    "Cell Division": frozenset(range(30, 45)),
    "Cell Differentiation": frozenset({50, 51, 52}),
    "Chromatin": frozenset(range(60, 80)),
    "Nucleosomes": frozenset({60, 61, 62, 63}),
    "Heterochromatin": frozenset({64, 65}),
    "Euchromatin": frozenset({66, 67}),
    "Histones": frozenset(range(70, 90)),          # overlaps Chromatin
    "Transcription, Genetic": frozenset(range(85, 100)),
    "Reverse Transcription": frozenset({85, 86, 87, 88}),
    "Gene Expression": frozenset(range(90, 110)),
    "Immunity, Innate": frozenset({110, 111, 112}),
    "Mice, Transgenic": frozenset(range(1, 15)),   # overlaps Apoptosis
}

# Simulated MEDLINE-wide counts per label (LT): broad concepts common,
# specific ones rare.
FRAGMENT_MEDLINE_COUNTS: Dict[str, int] = {
    "Apoptosis": 90_000,
    "Autophagy": 8_000,
    "Necrosis": 30_000,
    "Cell Death": 120_000,
    "Cell Proliferation": 150_000,
    "Cell Division": 110_000,
    "Cell Differentiation": 140_000,
    "Chromatin": 45_000,
    "Nucleosomes": 9_000,
    "Heterochromatin": 4_000,
    "Euchromatin": 1_500,
    "Histones": 40_000,
    "Transcription, Genetic": 160_000,
    "Reverse Transcription": 12_000,
    "Gene Expression": 300_000,
    "Immunity, Innate": 60_000,
    "Mice, Transgenic": 200_000,
}


@pytest.fixture(scope="session")
def fragment_hierarchy() -> ConceptHierarchy:
    return paper_fragment()


@pytest.fixture(scope="session")
def fragment_annotations(fragment_hierarchy) -> Dict[int, FrozenSet[int]]:
    return {
        fragment_hierarchy.by_label(label): citations
        for label, citations in FRAGMENT_ANNOTATIONS.items()
    }


@pytest.fixture()
def fragment_tree(fragment_hierarchy, fragment_annotations) -> NavigationTree:
    return tree_from_mapping(fragment_hierarchy, fragment_annotations)


@pytest.fixture()
def fragment_medline_count(fragment_hierarchy):
    counts = {
        fragment_hierarchy.by_label(label): count
        for label, count in FRAGMENT_MEDLINE_COUNTS.items()
    }

    def lookup(node: int) -> int:
        return counts.get(node, 1000)

    return lookup


@pytest.fixture()
def fragment_probs(fragment_tree, fragment_medline_count) -> ProbabilityModel:
    return ProbabilityModel(fragment_tree, fragment_medline_count)


@pytest.fixture(scope="session")
def small_workload() -> Workload:
    """A scaled-down Table I deployment, built once per test session."""
    return build_workload(hierarchy_size=1200, background_citations=60)


@pytest.fixture(scope="session")
def deployment():
    """A seeded in-memory substrate (seed 13) plus four one-concept queries
    with 25–45 citations each: (database, entrez, queries)."""
    hierarchy = generate_hierarchy(target_size=1200, seed=13)
    builder = SubstrateBuilder(None, num_concepts=len(hierarchy))
    builder.build(
        synthetic_chunks(
            SynthSpec(citations=4000, num_concepts=len(hierarchy), seed=13)
        ),
        hierarchy=hierarchy,
        background=synthetic_background(len(hierarchy), seed=13),
    )
    store = builder.open()
    database = BioNavDatabase.from_store(store, hierarchy=hierarchy)
    entrez = EntrezClient(store, SearchEngine(store, hierarchy=hierarchy))
    counts = np.array([store.result_count(c) for c in range(len(hierarchy))])
    concepts = np.flatnonzero((counts >= 25) & (counts <= 45))[:4]
    assert len(concepts) == 4
    return database, entrez, ["%d[mh]" % c for c in concepts.tolist()]
