"""The positional-array form behind every ConceptHierarchy read.

Random trees are built through ``from_parents`` plus a ``relabeled``
pass, then every public accessor is checked against a plain
parent-list oracle.  The same answers (and the same ``content_key``)
must survive save -> ``ConceptHierarchy.open`` -> pickle, and a
substrate directory from the pre-arrays format must be refused.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.citation import Citation
from repro.hierarchy.arrays import HierarchyArrays
from repro.hierarchy.concept import Concept, ConceptHierarchy
from repro.substrate import MmapStore, SubstrateBuilder, citation_chunks
from repro.substrate.store import FORMAT_VERSION

LABELS = ("alpha", "beta", "gamma", "delta")


class ParentListOracle:
    """The tree as bare parent/label/uid lists, answered by brute force."""

    def __init__(self) -> None:
        self.parents: List[int] = [-1]
        self.labels: List[str] = ["root"]
        self.uids: List[str] = ["ROOT"]

    def __len__(self) -> int:
        return len(self.parents)

    def children(self, node: int) -> List[int]:
        return [n for n, p in enumerate(self.parents) if p == node]

    def path_to_root(self, node: int) -> List[int]:
        path = [node]
        while self.parents[path[-1]] != -1:
            path.append(self.parents[path[-1]])
        return path

    def depth(self, node: int) -> int:
        return len(self.path_to_root(node)) - 1

    def preorder(self, node: int) -> List[int]:
        out = [node]
        for child in self.children(node):
            out.extend(self.preorder(child))
        return out

    def postorder(self, node: int) -> List[int]:
        out: List[int] = []
        for child in self.children(node):
            out.extend(self.postorder(child))
        return out + [node]

    def tree_number(self, node: int) -> str:
        parts = []
        for current in self.path_to_root(node)[:-1]:
            siblings = self.children(self.parents[current])
            parts.append("%03d" % (siblings.index(current) + 1))
        return ".".join(reversed(parts))

    def by_label(self) -> Dict[str, int]:
        index: Dict[str, int] = {}
        for node, label in enumerate(self.labels):
            index.setdefault(label, node)
        return index


def assert_matches(hierarchy: ConceptHierarchy, oracle: ParentListOracle) -> None:
    size = len(oracle)
    assert len(hierarchy) == size
    assert hierarchy.root == 0
    for node in range(size):
        subtree = oracle.preorder(node)
        depths = [oracle.depth(n) for n in subtree]
        assert hierarchy.parent(node) == oracle.parents[node]
        assert hierarchy.label(node) == oracle.labels[node]
        assert hierarchy.uid(node) == oracle.uids[node]
        assert list(hierarchy.children(node)) == oracle.children(node)
        assert hierarchy.depth(node) == oracle.depth(node)
        assert hierarchy.is_leaf(node) == (not oracle.children(node))
        assert hierarchy.tree_number(node) == oracle.tree_number(node)
        assert hierarchy.path_to_root(node) == oracle.path_to_root(node)
        assert hierarchy.concept(node) == Concept(
            node_id=node,
            uid=oracle.uids[node],
            label=oracle.labels[node],
            tree_number=oracle.tree_number(node),
            depth=oracle.depth(node),
        )
        assert list(hierarchy.iter_dfs(node)) == subtree
        assert hierarchy.subtree(node) == subtree
        assert list(hierarchy.iter_postorder(node)) == oracle.postorder(node)
        assert hierarchy.subtree_size(node) == len(subtree)
        assert hierarchy.leaves(node) == [n for n in subtree if not oracle.children(n)]
        assert hierarchy.height(node) == max(depths) - oracle.depth(node)
        assert hierarchy.max_width(node) == max(depths.count(d) for d in set(depths))
        assert hierarchy.by_uid(oracle.uids[node]) == node
        for other in range(size):
            ancestors = oracle.path_to_root(other)
            assert hierarchy.is_ancestor(node, other) == (node in ancestors)
            assert hierarchy.lowest_common_ancestor(node, other) == next(
                n for n in oracle.path_to_root(node) if n in ancestors
            )
    for label, node in oracle.by_label().items():
        assert hierarchy.by_label(label) == node
    assert hierarchy.to_records() == list(
        zip(oracle.uids, oracle.labels, oracle.parents)
    )
    with pytest.raises(IndexError):
        hierarchy.label(size)
    with pytest.raises(KeyError):
        hierarchy.by_label("no such label")


# One step of construction: add a child or relabel a node.
_steps = st.lists(
    st.tuples(
        st.sampled_from(("add", "add", "relabel")),
        st.integers(0, 10**6),
        st.sampled_from(LABELS),
    ),
    min_size=1,
    max_size=30,
)


def build(steps) -> tuple:
    """Apply ``steps`` to the oracle, then build the hierarchy from its
    lists with one ``from_parents`` call and one ``relabeled`` pass."""
    oracle = ParentListOracle()
    renames: Dict[int, str] = {}
    for op, pick, label in steps:
        node = pick % len(oracle)
        if op == "add":
            oracle.parents.append(node)
            oracle.labels.append(label)
            oracle.uids.append("U%d" % len(oracle))
        else:
            renames[node] = label
    hierarchy = ConceptHierarchy.from_parents(oracle.parents, oracle.labels, oracle.uids)
    if renames:
        hierarchy = hierarchy.relabeled(renames)
        for node, label in renames.items():
            oracle.labels[node] = label
    return hierarchy, oracle


class TestAccessorsAgainstOracle:
    @given(_steps)
    @settings(max_examples=60, deadline=None)
    def test_every_accessor_matches_the_parent_list(self, steps):
        hierarchy, oracle = build(steps)
        assert_matches(hierarchy, oracle)

    def test_single_root(self):
        hierarchy, oracle = build([("read", 0, "alpha")])
        assert_matches(hierarchy, oracle)


class TestRoundTrips:
    @given(_steps)
    @settings(max_examples=30, deadline=None)
    def test_save_open_pickle_preserve_content_and_answers(self, steps):
        hierarchy, oracle = build(steps)
        key = hierarchy.arrays().content_key
        with tempfile.TemporaryDirectory() as directory:
            hierarchy.arrays().save(directory)
            opened = ConceptHierarchy.open(directory)
            reopened = pickle.loads(pickle.dumps(opened))
            shipped = pickle.loads(pickle.dumps(hierarchy))
            for copy in (opened, reopened, shipped):
                assert copy.arrays().content_key == key
                assert_matches(copy, oracle)

    def test_opened_arrays_are_mmapped_and_read_only(self, tmp_path):
        hierarchy, _ = build([("add", 0, "alpha"), ("add", 1, "beta")])
        hierarchy.arrays().save(str(tmp_path))
        arrays = ConceptHierarchy.open(str(tmp_path)).arrays()
        assert isinstance(arrays.parents, np.memmap)
        shipped = pickle.loads(pickle.dumps(hierarchy)).arrays()
        for arrays in (arrays, shipped):
            assert not arrays.parents.flags.writeable
            assert not arrays.label_blob.flags.writeable

    def test_reopening_a_directory_shares_its_mapped_arrays(self, tmp_path):
        hierarchy, oracle = build([("add", 0, "alpha"), ("add", 1, "beta")])
        hierarchy.arrays().save(str(tmp_path))
        opened = ConceptHierarchy.open(str(tmp_path))
        reopened = pickle.loads(pickle.dumps(opened))
        assert reopened is not opened
        assert reopened.arrays() is opened.arrays()
        assert ConceptHierarchy.open(str(tmp_path)).arrays() is opened.arrays()
        # Relabelling one opened hierarchy leaves the shared arrays alone.
        reopened.relabeled({0: "gamma"})
        assert_matches(opened, oracle)
        # Rewritten files are mapped afresh, never served stale.
        other, other_oracle = build([("add", 0, "a"), ("add", 0, "b"), ("add", 2, "c")])
        other.arrays().save(str(tmp_path))
        fresh = ConceptHierarchy.open(str(tmp_path))
        assert fresh.arrays() is not opened.arrays()
        assert_matches(fresh, other_oracle)

    def test_relabeled_opened_hierarchy_ships_its_arrays(self, tmp_path):
        hierarchy, oracle = build([("add", 0, "alpha"), ("add", 0, "beta")])
        hierarchy.arrays().save(str(tmp_path))
        opened = ConceptHierarchy.open(str(tmp_path))
        relabeled = opened.relabeled({0: "delta"})
        assert_matches(opened, oracle)
        oracle.labels[0] = "delta"
        assert_matches(relabeled, oracle)
        assert relabeled.arrays().parents is opened.arrays().parents
        # No longer the persisted tree: pickling ships the arrays.
        shipped = pickle.loads(pickle.dumps(relabeled))
        assert shipped.arrays() is not opened.arrays()
        assert_matches(shipped, oracle)


class TestByLabelIsFormIndependent:
    def test_relabel_onto_a_later_label(self, tmp_path):
        """Relabelling node 1 to the label node 2 already holds: every
        form answers the lowest id carrying the label."""
        first = 1
        hierarchy = ConceptHierarchy.from_parents(
            [-1, 0, 0], ["root", "A", "B"]
        ).relabeled({first: "B"})
        records = ConceptHierarchy.from_records(hierarchy.to_records())
        assert [h.by_label("B") for h in (hierarchy, records)] == [first] * 2
        hierarchy.arrays().save(str(tmp_path))
        opened = ConceptHierarchy.open(str(tmp_path))
        assert opened.by_label("B") == first
        for form in (hierarchy, records, opened):
            with pytest.raises(KeyError):
                form.by_label("A")


class TestSubstrateFormat:
    def test_format_version_1_directory_is_refused(self, tmp_path):
        hierarchy, _ = build([("add", 0, "alpha"), ("add", 1, "beta")])
        citations = [
            Citation(pmid=1000 + i, title="t%d" % i, year=2000, index_concepts=(i % 3,))
            for i in range(6)
        ]
        SubstrateBuilder(str(tmp_path), num_concepts=len(hierarchy)).build(
            citation_chunks(iter(citations), chunk_size=4), hierarchy=hierarchy
        )
        assert MmapStore.open(str(tmp_path)).hierarchy().arrays().content_key == (
            hierarchy.arrays().content_key
        )
        assert HierarchyArrays.present(str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == FORMAT_VERSION
        assert "hierarchy.jsonl" not in manifest["files"]
        manifest["format_version"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="format_version"):
            MmapStore.open(str(tmp_path))
