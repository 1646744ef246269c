"""Unit tests for repro.core.partition (k-partition algorithm).

The fixtures describe trees as adjacency dicts; ``preorder_arrays``
turns them into the preorder arrays the partitioner takes.
"""

from __future__ import annotations

import pytest

from repro.core import partition
from tests.oracles.partition_reference import preorder_arrays


def k_partition(adjacency, root, weights, delta):
    parents, sizes, node_weights, ids = preorder_arrays(adjacency, root, weights)
    return partition.k_partition(parents, sizes, node_weights, ids, delta)


def partition_with_limit(adjacency, root, weights, max_partitions, growth=1.3):
    parents, sizes, node_weights, ids = preorder_arrays(adjacency, root, weights)
    parts = partition.partition_with_limit(
        parents, sizes, node_weights, ids, max_partitions, growth=growth
    )
    return partition._as_lists(ids, parts)


@pytest.fixture()
def adjacency():
    # 0 -> 1 -> {3, 4}
    #   -> 2 -> {5, 6, 7}
    return {0: [1, 2], 1: [3, 4], 2: [5, 6, 7], 3: [], 4: [], 5: [], 6: [], 7: []}


@pytest.fixture()
def unit_weights(adjacency):
    return {n: 1.0 for n in adjacency}


class TestKPartition:
    def test_huge_delta_single_partition(self, adjacency, unit_weights):
        parts = k_partition(adjacency, 0, unit_weights, delta=100)
        assert len(parts) == 1
        assert sorted(parts[0]) == list(range(8))

    def test_partitions_cover_all_nodes_exactly_once(self, adjacency, unit_weights):
        parts = k_partition(adjacency, 0, unit_weights, delta=3)
        seen = [n for part in parts for n in part]
        assert sorted(seen) == list(range(8))

    def test_partitions_are_contiguous_subtrees(self, adjacency, unit_weights):
        parts = k_partition(adjacency, 0, unit_weights, delta=3)
        for part in parts:
            root = part[0]
            members = set(part)
            # Every member other than the root has its parent in the part.
            parents = {c: p for p, cs in adjacency.items() for c in cs}
            for member in part:
                if member != root:
                    assert parents[member] in members

    def test_weight_threshold_respected(self, adjacency, unit_weights):
        parts = k_partition(adjacency, 0, unit_weights, delta=3)
        for part in parts:
            assert sum(unit_weights[n] for n in part) <= 3

    def test_heaviest_child_split_first(self, adjacency):
        weights = {n: 1.0 for n in adjacency}
        weights[2] = 10.0  # subtree of 2 is by far the heaviest
        parts = k_partition(adjacency, 0, weights, delta=12)
        # Node 2's subtree must have been split off on its own.
        split_roots = [part[0] for part in parts]
        assert 2 in split_roots

    def test_single_overweight_node_allowed(self):
        adjacency = {0: [1], 1: []}
        weights = {0: 100.0, 1: 1.0}
        parts = k_partition(adjacency, 0, weights, delta=5)
        # Node 0 alone is heavier than delta; it still forms a partition.
        assert [0] in parts

    def test_zero_delta_splits_every_positive_subtree(self, adjacency):
        weights = {n: 1.0 for n in adjacency}
        parts = k_partition(adjacency, 0, weights, delta=0)
        assert len(parts) == 8  # every node its own partition

    def test_negative_delta_rejected(self, adjacency, unit_weights):
        with pytest.raises(ValueError):
            k_partition(adjacency, 0, unit_weights, delta=-1)

    def test_negative_weight_rejected(self, adjacency):
        weights = {n: 1.0 for n in adjacency}
        weights[3] = -2.0
        with pytest.raises(ValueError):
            k_partition(adjacency, 0, weights, delta=3)

    def test_partition_root_is_first_element(self, adjacency, unit_weights):
        parts = k_partition(adjacency, 0, unit_weights, delta=3)
        parents = {c: p for p, cs in adjacency.items() for c in cs}
        for part in parts:
            root = part[0]
            assert root == 0 or parents[root] not in part


class TestPartitionWithLimit:
    def test_respects_max_partitions(self, adjacency, unit_weights):
        for limit in (2, 3, 5, 8):
            parts = partition_with_limit(adjacency, 0, unit_weights, limit)
            assert 1 <= len(parts) <= max(limit, 2)

    def test_never_collapses_multi_node_tree_to_one_part(self):
        # A pathological weighting where the first delta already yields a
        # single partition: the forced split must still produce 2 parts.
        adjacency = {0: [1, 2], 1: [], 2: []}
        weights = {0: 0.0, 1: 0.0, 2: 0.0}
        parts = partition_with_limit(adjacency, 0, weights, 4)
        assert len(parts) >= 2

    def test_single_node_tree(self):
        parts = partition_with_limit({0: []}, 0, {0: 5.0}, 4)
        assert parts == [[0]]

    def test_bad_max_partitions(self, adjacency, unit_weights):
        with pytest.raises(ValueError):
            partition_with_limit(adjacency, 0, unit_weights, 0)

    def test_bad_growth(self, adjacency, unit_weights):
        with pytest.raises(ValueError):
            partition_with_limit(adjacency, 0, unit_weights, 3, growth=1.0)

    def test_coverage_preserved(self, adjacency, unit_weights):
        parts = partition_with_limit(adjacency, 0, unit_weights, 3)
        seen = sorted(n for part in parts for n in part)
        assert seen == list(range(8))

    def test_paper_setting_ten_partitions(self):
        # A 60-node caterpillar with unit weights partitions into ≤ 10.
        adjacency = {i: [i + 1] for i in range(59)}
        adjacency[59] = []
        weights = {i: 1.0 for i in range(60)}
        parts = partition_with_limit(adjacency, 0, weights, 10)
        assert len(parts) <= 10
        assert sorted(n for p in parts for n in p) == list(range(60))
