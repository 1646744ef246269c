"""Array-native k-partition and reduced solve vs the dict-based oracle.

``repro.core.partition`` runs the §VI-A partitioner over preorder
arrays, with δ passes over the tree's heavy core;
``tests/oracles/partition_reference.py`` keeps the original per-node
implementation.  The two must return the *same list
of lists* — same parts, same part order, same member order — because
member order feeds Opt-EdgeCut's sequential entropy sums, and a
reordered histogram can flip a tie-break.  The solver-level checks pin
``HeuristicReducedOpt.best_cut`` (array reduction) to
``ReferenceHeuristicReducedOpt`` (dict reduction) on root components and
on the upper and lower components random EXPANDs leave behind.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition
from repro.core.active_tree import ActiveTree
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.probabilities import ProbabilityModel
from repro.hierarchy.concept import ConceptHierarchy
from tests.oracles import partition_reference as oracle
from tests.oracles.member_sets import tree_from_mapping

SHAPES = ("random", "star", "chain", "broom", "bushy")
#: "halves" (non-integral) and "huge" (2^40-scale) weights stay exactly
#: summable in float64, so the oracle's lists are still the target.
WEIGHTS = ("zero", "ties", "wide", "sparse", "halves", "huge", "heavy")
IDS = ("identity", "permuted", "sparse")


def random_parents(rng: random.Random, n: int, shape: str) -> List[int]:
    """Parent index of nodes 1..n-1 (node 0 is the root)."""
    parents = [-1]
    for i in range(1, n):
        if shape == "star":
            parents.append(0)
        elif shape == "chain":
            parents.append(i - 1)
        elif shape == "broom":  # a long handle ending in a wide fan
            parents.append(i - 1 if i < n // 2 else n // 2 - 1 if n > 2 else 0)
        elif shape == "bushy":
            parents.append(rng.randrange(max(1, i // 4)))
        else:
            parents.append(rng.randrange(i))
    return parents


def random_weights(rng: random.Random, n: int, style: str) -> List[float]:
    if style == "zero":
        return [0.0] * n
    if style == "ties":
        return [float(rng.choice((0, 1, 1, 2))) for _ in range(n)]
    if style == "sparse":
        return [float(rng.choice((0, 0, 0, 3, 40))) for _ in range(n)]
    if style == "halves":
        return [rng.randrange(8) / 2 for _ in range(n)]
    if style == "huge":
        return [float(rng.choice((0, 1, 2**40, 2**40 + 1))) for _ in range(n)]
    if style == "heavy":  # a few atoms outweigh W / N on their own
        return [float(n if rng.random() < 0.05 else rng.choice((0, 1))) for _ in range(n)]
    return [float(rng.randrange(1000)) for _ in range(n)]


def random_ids(rng: random.Random, n: int, style: str) -> List[int]:
    if style == "identity":
        return list(range(n))
    if style == "permuted":
        ids = list(range(n))
        rng.shuffle(ids)
        return ids
    return rng.sample(range(10**7), n)


def build_tree(
    rng: random.Random, n: int, shape: str, weight_style: str, id_style: str
) -> Tuple[Dict[int, List[int]], int, Dict[int, float]]:
    """(adjacency, root, weights) in the oracle's form."""
    parents = random_parents(rng, n, shape)
    ids = random_ids(rng, n, id_style)
    weights = random_weights(rng, n, weight_style)
    adjacency: Dict[int, List[int]] = {node: [] for node in ids}
    for i in range(1, n):
        adjacency[ids[parents[i]]].append(ids[i])
    return adjacency, ids[0], dict(zip(ids, weights))


@st.composite
def trees(draw, min_nodes: int = 1, max_nodes: int = 400, shapes=SHAPES):
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_nodes, max_nodes))
    return build_tree(
        rng,
        n,
        draw(st.sampled_from(shapes)),
        draw(st.sampled_from(WEIGHTS)),
        draw(st.sampled_from(IDS)),
    )


def array_k_partition(adjacency, root, weights, delta):
    parents, sizes, node_weights, ids = oracle.preorder_arrays(adjacency, root, weights)
    return partition.k_partition(parents, sizes, node_weights, ids, delta)


def array_partition_with_limit(adjacency, root, weights, limit):
    parents, sizes, node_weights, ids = oracle.preorder_arrays(adjacency, root, weights)
    parts = partition.partition_with_limit(parents, sizes, node_weights, ids, limit)
    return partition._as_lists(ids, parts)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------
class TestPartitionLists:
    @given(trees(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_k_partition_equals_oracle(self, tree, data):
        adjacency, root, weights = tree
        total = int(sum(weights.values()))
        # Integer thresholds land exactly on residual sums, the `>` edge.
        delta = data.draw(
            st.one_of(
                st.integers(0, total + 1).map(float),
                st.floats(0.0, total * 1.2 + 1.0, allow_nan=False),
            )
        )
        expected = oracle.k_partition(adjacency, root, weights, delta)
        assert array_k_partition(adjacency, root, weights, delta) == expected

    @given(trees(), st.integers(1, 16))
    @settings(max_examples=150, deadline=None)
    def test_partition_with_limit_equals_oracle(self, tree, limit):
        adjacency, root, weights = tree
        expected = oracle.partition_with_limit(adjacency, root, weights, limit)
        assert array_partition_with_limit(adjacency, root, weights, limit) == expected

    @given(trees(min_nodes=2001, max_nodes=2600, shapes=("chain", "broom")), st.integers(1, 16))
    @settings(max_examples=4, deadline=None)
    def test_deep_chains_equal_oracle(self, tree, limit):
        adjacency, root, weights = tree
        expected = oracle.partition_with_limit(adjacency, root, weights, limit)
        assert array_partition_with_limit(adjacency, root, weights, limit) == expected

    def test_force_split_equals_oracle(self):
        # All-zero weights: the first δ keeps one part, so the heaviest
        # (here: highest-id) root child is forced out.
        rng = random.Random(5)
        for _ in range(20):
            adjacency, root, weights = build_tree(rng, 30, "random", "zero", "permuted")
            expected = oracle.partition_with_limit(adjacency, root, weights, 4)
            assert len(expected) == 2
            assert array_partition_with_limit(adjacency, root, weights, 4) == expected


class TestDeltaSearch:
    """The δ scan over passes that visit only groups under heavy parents.

    ``partition_with_limit`` must pick the δ of the oracle's linear scan
    (the same repeated ``*= growth`` floats) and return its parts and
    member order exactly, as positions.
    """

    @given(
        trees(shapes=("star", "chain", "broom", "random")),
        st.integers(1, 16),
        st.sampled_from((1.05, 1.3, 2.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_positions_equal_linear_scan(self, tree, limit, growth):
        adjacency, root, weights = tree
        parents, sizes, node_weights, ids = oracle.preorder_arrays(
            adjacency, root, weights
        )
        members, ends = partition.partition_with_limit(
            parents, sizes, node_weights, ids, limit, growth
        )
        assert sorted(members.tolist()) == list(range(len(ids)))
        labels = [ids[m] for m in members.tolist()]
        bounds = [0] + ends.tolist()
        parts = [labels[bounds[i] : bounds[i + 1]] for i in range(len(ends))]
        assert parts == oracle.partition_with_limit(
            adjacency, root, weights, limit, growth
        )

    @pytest.mark.parametrize("shape", ["star", "bushy"])
    def test_collapse_to_one_part_forces_a_split(self, shape):
        # The root alone outweighs every δ that splits off fewer parts than
        # it has children, so the scan ends on one part.
        rng = random.Random(11)
        for _ in range(10):
            adjacency, root, weights = build_tree(rng, 25, shape, "zero", "permuted")
            weights[root] = 100.0
            expected = oracle.partition_with_limit(adjacency, root, weights, 3)
            assert len(expected) == 2
            assert array_partition_with_limit(adjacency, root, weights, 3) == expected


def heavy_chain(rng: random.Random, length: int, fan: int):
    """A heavy chain under the root, each link with a fan of light leaves.

    Weight sits at the chain's bottom, so every link outweighs W/N and
    the heavy core is several levels deep.
    """
    adjacency: Dict[int, List[int]] = {}
    weights: Dict[int, float] = {}
    ids = rng.sample(range(10**6), length * (fan + 1))
    for link in range(length):
        base = link * (fan + 1)
        node, leaves = ids[base], ids[base + 1 : base + fan + 1]
        below = [ids[base + fan + 1]] if link + 1 < length else []
        adjacency[node] = leaves[: fan // 2] + below + leaves[fan // 2 :]
        weights[node] = float(rng.choice((0, 1, 5)))
        for leaf in leaves:
            adjacency[leaf] = []
            weights[leaf] = float(rng.choice((1, 2, 3)))
    weights[ids[(length - 1) * (fan + 1)]] = float(20 * length * fan)
    return adjacency, ids[0], weights


def subtree_weights(adjacency, root, weights) -> Dict[int, float]:
    totals: Dict[int, float] = {}
    for node in reversed(oracle.preorder_arrays(adjacency, root, weights)[3]):
        totals[node] = weights[node] + sum(totals[c] for c in adjacency[node])
    return totals


class TestHeavyCore:
    """Shapes whose heavy core is more than the root.

    perfbench components have a core of the root (and at most one child),
    so these pin the passes that re-rank a group holding a heavy child.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_nested_heavy_nodes_equal_oracle(self, seed):
        rng = random.Random(seed)
        adjacency, root, weights = heavy_chain(rng, rng.randint(3, 12), rng.randint(1, 6))
        limit = rng.choice((3, 5, 10))
        totals = subtree_weights(adjacency, root, weights)
        assert sum(t > totals[root] / limit for t in totals.values()) >= 3
        expected = oracle.partition_with_limit(adjacency, root, weights, limit)
        assert array_partition_with_limit(adjacency, root, weights, limit) == expected
        for delta in sorted(set(totals.values()))[-6:]:
            expected = oracle.k_partition(adjacency, root, weights, delta)
            assert array_k_partition(adjacency, root, weights, delta) == expected

    @pytest.mark.parametrize("heavy_id", [0, 2, 4, 6, 8])
    @pytest.mark.parametrize("root_weight", [0.0, 3.0, 5.0])
    def test_heavy_child_tied_with_light_siblings(self, heavy_id, root_weight):
        # At δ = 10 the heavy child H (subtree 20) splits off both of its
        # 9-weight kids and keeps residual 2, tying the light siblings
        # (ids 1, 3, 5, 7): its id alone fixes its rank among them, both
        # in the root's member order and in which tied child is popped.
        adjacency = {10: [1, heavy_id, 3, 5, 7], heavy_id: [11, 12]}
        adjacency.update({n: [] for n in (1, 3, 5, 7, 11, 12)})
        weights = {10: root_weight, heavy_id: 2.0, 11: 9.0, 12: 9.0}
        weights.update(dict.fromkeys((1, 3, 5, 7), 2.0))
        expected = oracle.k_partition(adjacency, 10, weights, 10.0)
        assert array_k_partition(adjacency, 10, weights, 10.0) == expected
        for limit in (2, 3, 4, 6):
            expected = oracle.partition_with_limit(adjacency, 10, weights, limit)
            assert array_partition_with_limit(adjacency, 10, weights, limit) == expected

    @given(st.randoms(use_true_random=False), st.integers(11, 160))
    @settings(max_examples=30, deadline=None)
    def test_components_with_excluded_positions(self, rng, size):
        # Upper components lose the subtrees an EXPAND cut away, and lower
        # components are rooted below the tree root: their sizes come
        # from `component_arrays`, not from the whole tree's subtrees.
        tree, probs = navigation_instance(rng, size)
        active = ActiveTree(tree)
        for _ in range(3):
            for root in sorted(active.component_roots()):
                component = active.component(root)
                adjacency = {
                    n: [c for c in tree.children(n) if c in component] for n in component
                }
                positions, parents, sizes = tree.component_arrays(component)
                counts = probs.result_counts[positions]
                weights = dict(zip(tree.preorder_array()[positions].tolist(), counts.tolist()))
                reference = oracle.preorder_arrays(adjacency, root, weights)
                assert parents.tolist() == reference[0]
                assert sizes.tolist() == reference[1]
                ids = tree.preorder_array()[positions]
                for limit in (2, 4, 10):
                    parts = partition.partition_with_limit(parents, sizes, counts, ids, limit)
                    expected = oracle.partition_with_limit(adjacency, root, weights, limit)
                    assert partition._as_lists(ids, parts) == expected
            roots = sorted(r for r in active.component_roots() if len(active.component(r)) > 1)
            if not roots:
                break
            root = rng.choice(roots)
            active.expand(root, random_cut(rng, tree, active.component(root), root))


# ---------------------------------------------------------------------------
# Solver decisions
# ---------------------------------------------------------------------------
def navigation_instance(rng: random.Random, size: int):
    """A random navigation tree with tie-heavy result sets."""
    parents = [-1] + [
        rng.randrange(max(1, i - rng.choice((1, 3, i)))) for i in range(1, size)
    ]
    hierarchy = ConceptHierarchy.from_parents(
        parents, ["MeSH"] + ["c%d" % i for i in range(1, size)]
    )
    universe = rng.choice((8, 40, 200))
    annotations = {
        node: set(rng.sample(range(universe), rng.randint(1, min(universe, 12))))
        for node in range(1, size)
        if rng.random() < 0.8
    }
    tree = tree_from_mapping(hierarchy, annotations)
    lt = {node: rng.choice((2, 50, 500, 5000)) for node in range(size)}
    return tree, ProbabilityModel(tree, lt.__getitem__)


def random_cut(rng: random.Random, tree: NavigationTree, component, root):
    """A valid EdgeCut of ``component``: parent edges of unrelated nodes."""
    chosen: List[int] = []
    candidates = sorted(set(component) - {root})
    rng.shuffle(candidates)
    for node in candidates[: rng.randint(1, 4)]:
        if not any(
            tree.is_tree_ancestor(other, node) or tree.is_tree_ancestor(node, other)
            for other in chosen
        ):
            chosen.append(node)
    return [(tree.parent(node), node) for node in chosen]


def decision(solver, component):
    made = solver.best_cut(component)
    return made.cut, made.reduced_size, made.expected_cost


class TestBestCut:
    @given(st.randoms(use_true_random=False), st.integers(11, 160))
    @settings(max_examples=40, deadline=None)
    def test_best_cut_equals_oracle_after_random_expands(self, rng, size):
        tree, probs = navigation_instance(rng, size)
        limit = rng.choice((3, 5, 8, 10))
        solver = HeuristicReducedOpt(tree, probs, max_reduced_nodes=limit)
        reference = oracle.ReferenceHeuristicReducedOpt(
            tree, probs, max_reduced_nodes=limit
        )
        active = ActiveTree(tree)
        for _ in range(3):
            roots = active.component_roots()
            if not roots:
                break
            root = rng.choice(sorted(roots))
            component = active.component(root)
            assert decision(solver, component) == decision(reference, component)
            active.expand(root, random_cut(rng, tree, component, root))

    @given(st.randoms(use_true_random=False), st.integers(11, 160))
    @settings(max_examples=30, deadline=None)
    def test_component_child_order_is_preorder(self, rng, size):
        # The vector pass takes a component's sorted preorder positions as
        # its preorder; that holds iff each node's in-component children,
        # left to right, sit at increasing positions.
        tree, _ = navigation_instance(rng, size)
        active = ActiveTree(tree)
        active.expand(tree.root, random_cut(rng, tree, active.component(tree.root), tree.root))
        for root in active.component_roots():
            component = active.component(root)
            adjacency = {
                n: [c for c in tree.children(n) if c in component] for n in component
            }
            for kids in adjacency.values():
                positions = tree.positions(kids).tolist()
                assert positions == sorted(positions)
            ref_parents, _, _, ref_ids = oracle.preorder_arrays(
                adjacency, root, dict.fromkeys(component, 0)
            )
            positions, parents, _ = tree.component_arrays(active.component(root))
            assert tree.preorder_array()[positions].tolist() == ref_ids
            assert parents.tolist() == ref_parents
