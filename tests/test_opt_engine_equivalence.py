"""Bitmask Opt-EdgeCut engine vs the exhaustive reference oracle.

The bitmask engine must be *observationally identical* to the retained
legacy implementation: same cut edges (ties included), same expected cost
and expansion term (bit for bit), and a memo that agrees with the
reference on every component it holds.  These tests enforce that on a seeded
randomized sweep of navigation-tree components up to ``MAX_OPT_NODES``
nodes plus hand-built supernode trees like the ones Heuristic-ReducedOpt
produces.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.cost_model import CostParams
from repro.core.edgecut import Component
from repro.core.opt_edgecut import MAX_OPT_NODES, CutTree, OptEdgeCut
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles.member_sets import tree_from_mapping
from tests.oracles.opt_edgecut_reference import ReferenceOptEdgeCut, engine_memo_items


def random_scenario(size: int, seed: int):
    """A random ``size``-node navigation tree lifted into a CutTree."""
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
    return CutTree.from_component(tree, probs, Component(tree, tree.root)), probs


def supernode_cut_tree(seed: int, size: int) -> CutTree:
    """A CutTree with multi-member supernodes (reduced-tree shape)."""
    rng = random.Random(seed)
    children = [[] for _ in range(size)]
    for node in range(1, size):
        children[rng.randrange(node)].append(node)
    results = []
    member_counts = []
    for _ in range(size):
        counts = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
        member_counts.append(counts)
        results.append(np.array(rng.sample(range(200), sum(counts)), dtype=np.int64))
    return CutTree(
        children=children,
        results=results,
        explore=[rng.uniform(0.2, 5.0) for _ in range(size)],
        member_counts=member_counts,
        payload=list(range(size)),
    )


def threshold_cut_tree(seed: int, size: int, distinct: int) -> CutTree:
    """A supernode CutTree whose whole tree holds exactly ``distinct`` citations.

    Every citation of ``range(distinct)`` lands on at least one node, and
    nodes repeat citations, so sub-components fall on both sides of the
    EXPAND thresholds too.
    """
    rng = random.Random(seed)
    children = [[] for _ in range(size)]
    for node in range(1, size):
        children[rng.randrange(node)].append(node)
    owners = [rng.randrange(size) for _ in range(distinct)]
    results = []
    member_counts = []
    for node in range(size):
        own = {c for c, owner in enumerate(owners) if owner == node}
        extra = rng.sample(range(distinct), rng.randint(0, min(distinct, 6)))
        citations = sorted(own | set(extra))
        members = rng.randint(1, 4)
        cuts = sorted(rng.randint(0, len(citations)) for _ in range(members - 1))
        member_counts.append(
            [b - a for a, b in zip([0] + cuts, cuts + [len(citations)])]
        )
        results.append(np.array(citations, dtype=np.int64))
    return CutTree(
        children=children,
        results=results,
        explore=[rng.uniform(0.2, 5.0) for _ in range(size)],
        member_counts=member_counts,
        payload=list(range(size)),
    )


def star_cut_tree(seed: int, leaves: int, descending: bool) -> CutTree:
    """A star (a root whose kids are all leaves) of supernodes.

    ``from_component`` lists a star's kids in descending index order and
    the heuristic's reduced trees in ascending order; both are drawn.
    Citations come from a small pool, so leaves repeat each other's, and
    the pool size spreads the distinct counts of the upper components
    below, between and above the EXPAND thresholds (10 and 50).  EXPLORE
    masses are drawn from a few values, zero included, so expansion
    terms tie.
    """
    rng = random.Random(seed)
    kids = list(range(1, leaves + 1))
    if descending:
        kids.reverse()
    pool = rng.choice([6, 12, 30, 60, 150])
    masses = rng.choice([[0.0], [1.5], [0.0, 1.0], [0.0, 0.5, 2.0]])
    results = []
    member_counts = []
    for _ in range(leaves + 1):
        counts = [rng.randint(0, 6) for _ in range(rng.randint(1, 3))]
        member_counts.append(counts)
        results.append(np.array([rng.randrange(pool) for _ in range(sum(counts))], dtype=np.int64))
    return CutTree(
        children=[kids] + [[] for _ in kids],
        results=results,
        explore=[rng.choice(masses) for _ in range(leaves + 1)],
        member_counts=member_counts,
        payload=list(range(leaves + 1)),
    )


@pytest.fixture(scope="module")
def shared_probs():
    """A probability model for raw CutTrees.

    ``expand_from_distribution`` only reads component statistics, so the
    host tree is irrelevant for hand-built CutTrees.
    """
    h = ConceptHierarchy.from_parents([-1, 0], ["root", "a"])
    tree = tree_from_mapping(h, {1: set(range(30))})
    return ProbabilityModel(tree, lambda n: 1000)


class TestEngineEquivalence:
    # Four chunks of 55 seeded trees = 220 random instances.
    @pytest.mark.parametrize("chunk", range(4))
    def test_best_cut_identical_on_random_trees(self, chunk):
        params = CostParams()
        for trial in range(55):
            seed = chunk * 55 + trial
            rng = random.Random(seed)
            size = rng.randint(2, 13)
            cut_tree, probs = random_scenario(size, 9000 + seed)
            new = OptEdgeCut(cut_tree, probs, params).solve()
            old = ReferenceOptEdgeCut(cut_tree, probs, params).solve()
            assert new.cut == old.cut, "seed %d" % seed
            assert new.expected_cost == old.expected_cost, "seed %d" % seed
            assert new.expansion_term == old.expansion_term, "seed %d" % seed

    def test_best_cut_identical_at_max_size(self):
        """A few instances at the MAX_OPT_NODES ceiling."""
        params = CostParams()
        for seed in range(3):
            cut_tree, probs = random_scenario(MAX_OPT_NODES, 500 + seed)
            assert len(cut_tree) == MAX_OPT_NODES
            new = OptEdgeCut(cut_tree, probs, params).solve()
            old = ReferenceOptEdgeCut(cut_tree, probs, params).solve()
            assert new == old

    def test_best_cut_identical_on_supernode_trees(self, shared_probs):
        """Reduced-tree shapes: multi-member member_counts histograms."""
        params = CostParams()
        for seed in range(40):
            rng = random.Random(seed)
            cut_tree = supernode_cut_tree(3000 + seed, rng.randint(2, 10))
            new = OptEdgeCut(cut_tree, shared_probs, params).solve()
            old = ReferenceOptEdgeCut(cut_tree, shared_probs, params).solve()
            assert new == old, "seed %d" % seed

    @pytest.mark.parametrize("distinct", [9, 10, 50, 51])
    def test_threshold_edges_identical(self, shared_probs, distinct):
        """Distinct counts on both sides of the thresholds (10 and 50):
        the histogram is built lazily, only between them, and the
        engines must still agree to the last bit, memo included."""
        assert (shared_probs.lower_threshold, shared_probs.upper_threshold) == (10, 50)
        params = CostParams()
        for seed in range(15):
            cut_tree = threshold_cut_tree(7000 + seed, 2 + seed % 8, distinct)
            new = OptEdgeCut(cut_tree, shared_probs, params)
            old = ReferenceOptEdgeCut(cut_tree, shared_probs, params)
            assert new.solve() == old.solve(), "seed %d" % seed
            reference_memo = dict(old.memo_items())
            for component, best in engine_memo_items(new):
                assert reference_memo[component] == best, "seed %d" % seed
            whole = new._component_stats(new._subtree_mask[0])
            assert whole[1] == distinct
            assert whole[2] == sum(len(c) for c in cut_tree.member_counts)

    @pytest.mark.parametrize("descending", [False, True])
    def test_star_tables_identical(self, shared_probs, monkeypatch, descending):
        """Stars of 1-9 leaves are solved by tables, never by the search,
        and still agree with the reference to the last bit."""

        def no_search(*args):
            raise AssertionError("a star reached the cut search")

        monkeypatch.setattr(OptEdgeCut, "_search_cuts", no_search)
        entropy = ProbabilityModel._normalized_entropy
        entropy_calls = []

        def counted_entropy(model, counts):
            entropy_calls.append(len(counts))
            return entropy(model, counts)

        monkeypatch.setattr(ProbabilityModel, "_normalized_entropy", counted_entropy)
        ties = entropy_solves = 0
        distinct_counts = set()
        for seed in range(120):
            leaves = 1 + seed % 9
            cut_tree = star_cut_tree(11_000 + seed, leaves, descending)
            params = CostParams() if seed % 3 else CostParams(2.5, 0.75, 1.5)
            calls = len(entropy_calls)
            new = OptEdgeCut(cut_tree, shared_probs, params).solve()
            entropy_solves += len(entropy_calls) > calls
            old = ReferenceOptEdgeCut(cut_tree, shared_probs, params)
            assert new == old.solve(), "seed %d" % seed
            whole = frozenset(range(leaves + 1))
            terms = [old._expansion_term(whole, 0, c) for c in old._enumerate_cuts(0, whole) if c]
            ties += terms.count(new.expansion_term) > 1
            distinct_counts.add(len(np.unique(np.concatenate(cut_tree.results))))
        assert ties and entropy_solves
        assert min(distinct_counts) < 10 and max(distinct_counts) > 50
        assert any(10 <= count <= 50 for count in distinct_counts)

    def test_nonuniform_costs_agree(self, shared_probs):
        """Equivalence must not depend on the default unit costs."""
        params = CostParams(expand_cost=2.5, reveal_cost=0.75, citation_cost=1.5)
        for seed in range(20):
            cut_tree, probs = random_scenario(2 + seed % 11, 40_000 + seed)
            new = OptEdgeCut(cut_tree, probs, params).solve()
            old = ReferenceOptEdgeCut(cut_tree, probs, params).solve()
            assert new == old, "seed %d" % seed

    def test_memo_covers_and_matches_reference(self):
        """Every component the bitmask engine memoizes, the reference
        solved too — with the identical BestCut.  (The bitmask memo can be
        a subset: pruning skips work the exhaustive engine does.)"""
        for seed in range(25):
            cut_tree, probs = random_scenario(2 + seed % 10, 60_000 + seed)
            new_solver = OptEdgeCut(cut_tree, probs)
            old_solver = ReferenceOptEdgeCut(cut_tree, probs)
            assert new_solver.solve() == old_solver.solve()
            reference_memo = dict(old_solver.memo_items())
            for component, best in engine_memo_items(new_solver):
                assert component in reference_memo, "seed %d" % seed
                assert reference_memo[component] == best, "seed %d" % seed

    def test_oversized_tree_rejected_by_both(self, shared_probs):
        cut_tree = supernode_cut_tree(1, MAX_OPT_NODES + 1)
        with pytest.raises(ValueError):
            OptEdgeCut(cut_tree, shared_probs)
        with pytest.raises(ValueError):
            ReferenceOptEdgeCut(cut_tree, shared_probs)
