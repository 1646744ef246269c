"""Positional array form of a concept hierarchy (its one read form).

:class:`HierarchyArrays` is a concept tree flattened into a handful of
numpy arrays in *hierarchy preorder* encoding:

* ``parents``       int32[C]    parent node id, -1 for the root
* ``child_offsets`` int64[C+1]  CSR offsets into ``children``
* ``children``      int32[C-1]  child ids grouped by parent, ascending
* ``depths``        int32[C]    edge distance from the root
* ``preorder``      int32[C]    node ids in depth-first preorder
* ``positions``     int32[C]    preorder position of each node id
* ``subtree_sizes`` int64[C]    node count of each subtree
* ``label_blob`` / ``label_offsets`` and ``uid_blob`` / ``uid_offsets``
  — UTF-8 string pools for labels and uids

The preorder encoding gives every subtree a contiguous interval
``[positions[n], positions[n] + subtree_sizes[n])``, which is what lets
the navigation-tree embedding run as whole-array passes instead of a
per-node traversal (DESIGN.md §15).

A :class:`~repro.hierarchy.concept.ConceptHierarchy` is one of these
array sets and nothing else: an in-memory hierarchy computes them once
from its parent/label/uid lists, and a persisted one memory-maps its
``hier_*.npy`` files from the substrate directory, so a cold hierarchy
open is a file open.
"""

from __future__ import annotations

import hashlib
import os
import weakref
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["HierarchyArrays", "HIERARCHY_ARRAY_FILES"]

#: Files a persisted hierarchy-array set occupies inside a substrate
#: directory, in the order they are hashed into the manifest.
HIERARCHY_ARRAY_FILES: Tuple[str, ...] = (
    "hier_parents.npy",
    "hier_child_offsets.npy",
    "hier_children.npy",
    "hier_depths.npy",
    "hier_preorder.npy",
    "hier_positions.npy",
    "hier_subtree_sizes.npy",
    "hier_label_blob.npy",
    "hier_label_offsets.npy",
    "hier_uid_blob.npy",
    "hier_uid_offsets.npy",
)

# Attribute order mirrors HIERARCHY_ARRAY_FILES (strip "hier_"/".npy").
_FIELDS: Tuple[str, ...] = tuple(
    name[len("hier_") : -len(".npy")] for name in HIERARCHY_ARRAY_FILES
)

#: Array sets this process has mapped, by the identity of their files.
#: Every unpickled directory-backed hierarchy reopens its directory, so
#: without this each one would map the eleven files again.
_LOADED: "weakref.WeakValueDictionary[tuple, HierarchyArrays]" = (
    weakref.WeakValueDictionary()
)


def _encode_strings(values: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack strings into a UTF-8 byte pool + int64 offsets array."""
    encoded = [value.encode("utf-8") for value in values]
    lengths = np.fromiter(
        (len(chunk) for chunk in encoded), dtype=np.int64, count=len(encoded)
    )
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, offsets


def _decode_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    """Inverse of :func:`_encode_strings`: every string of the pool."""
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[bounds[i] : bounds[i + 1]].decode("utf-8")
        for i in range(len(bounds) - 1)
    ]


class HierarchyArrays:
    """Immutable positional-array encoding of one concept hierarchy.

    Instances come from :meth:`_from_parent_arrays` (via
    ``ConceptHierarchy.from_parents``) or :meth:`load` (mmap open of a
    substrate directory).  All
    arrays are frozen; the structural arrays are int32/int64 in the
    layouts listed in the module docstring.
    """

    __slots__ = tuple(_FIELDS) + ("_content_key", "__weakref__")

    def __init__(self, **arrays: np.ndarray):
        for name in _FIELDS:
            value = arrays[name]
            if hasattr(value, "setflags"):
                try:
                    value.setflags(write=False)
                except ValueError:
                    pass  # mmap views opened read-only already are
            setattr(self, name, value)
        self._content_key: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_parent_arrays(
        cls,
        parents: np.ndarray,
        labels: Sequence[str],
        uids: Sequence[str],
    ) -> "HierarchyArrays":
        """Flatten an insertion-ordered parent array into the full form.

        Depths, preorder positions and subtree sizes are computed with
        whole-array passes (pointer jumping for depths, then one pass per
        tree level, ~11 for MeSH) rather than a per-node traversal.
        """
        parents = np.asarray(parents, dtype=np.int32)
        size = len(parents)
        # Depths by pointer jumping: depths[n] is the edge count from n to
        # jump[n]; doubling the jumps reaches the root in log2(height) passes.
        depths = (parents >= 0).astype(np.int32)
        jump = np.maximum(parents, 0)
        while jump.any():
            depths = depths + depths[jump]
            jump = jump[jump]

        # Children CSR: node ids are assigned in insertion order, so a
        # stable sort of 1..C-1 by parent groups each sibling list in
        # ascending id order — insertion order.
        nonroot = np.arange(1, size, dtype=np.int32)
        counts = np.bincount(parents[1:].astype(np.int64), minlength=size)
        child_offsets = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=child_offsets[1:])
        order = np.argsort(parents[1:], kind="stable")
        children = nonroot[order]

        # Group nodes by depth once; every later pass is one slice per level.
        depth_order = np.argsort(depths, kind="stable")
        sorted_depths = depths[depth_order]
        max_depth = int(sorted_depths[-1]) if size else 0
        level_bounds = np.searchsorted(
            sorted_depths, np.arange(max_depth + 2), side="left"
        )

        # Subtree sizes bottom-up: each level adds its sizes into parents.
        subtree_sizes = np.ones(size, dtype=np.int64)
        for depth in range(max_depth, 0, -1):
            level = depth_order[level_bounds[depth] : level_bounds[depth + 1]]
            gathered = np.bincount(
                parents[level].astype(np.int64),
                weights=subtree_sizes[level],
                minlength=size,
            )
            subtree_sizes += gathered.astype(np.int64)

        # Preorder positions top-down.  A node's position is its parent's
        # plus one plus the subtree sizes of its earlier siblings; the
        # sibling prefix sums come from one segmented cumsum over the CSR.
        child_sizes = subtree_sizes[children]
        inclusive = np.cumsum(child_sizes)
        # Exclusive prefix with a trailing total as sentinel, so offsets of
        # empty sibling segments at the end of the CSR stay in bounds.
        exclusive = np.concatenate(([0], inclusive))
        segment_base = np.repeat(
            exclusive[child_offsets[:-1]], np.diff(child_offsets)
        )
        sibling_prefix = exclusive[: len(children)] - segment_base

        positions = np.zeros(size, dtype=np.int64)
        offset = np.zeros(size, dtype=np.int64)
        offset[children] = 1 + sibling_prefix
        positions[:] = offset
        for depth in range(1, max_depth + 1):
            level = depth_order[level_bounds[depth] : level_bounds[depth + 1]]
            positions[level] += positions[parents[level]]
        preorder = np.empty(size, dtype=np.int32)
        preorder[positions] = np.arange(size, dtype=np.int32)

        label_blob, label_offsets = _encode_strings(labels)
        uid_blob, uid_offsets = _encode_strings(uids)
        return cls(
            parents=parents,
            child_offsets=child_offsets,
            children=children,
            depths=depths,
            preorder=preorder,
            positions=positions.astype(np.int32, copy=False),
            subtree_sizes=subtree_sizes,
            label_blob=label_blob,
            label_offsets=label_offsets,
            uid_blob=uid_blob,
            uid_offsets=uid_offsets,
        )

    def relabeled(self, labels: Sequence[str]) -> "HierarchyArrays":
        """The same tree with a new label pool; structure arrays shared."""
        fields = {name: getattr(self, name) for name in _FIELDS}
        fields["label_blob"], fields["label_offsets"] = _encode_strings(labels)
        return HierarchyArrays(**fields)

    def __reduce__(self):
        # Rebuild through __init__ so unpickled arrays are frozen too.
        return (_from_fields, tuple(getattr(self, name) for name in _FIELDS))

    # ------------------------------------------------------------------
    # Strings
    # ------------------------------------------------------------------
    def label(self, node: int) -> str:
        """Label of ``node``, decoded from the label pool."""
        offsets = self.label_offsets
        return bytes(self.label_blob[offsets[node] : offsets[node + 1]]).decode("utf-8")

    def uid(self, node: int) -> str:
        """Uid of ``node``, decoded from the uid pool."""
        offsets = self.uid_offsets
        return bytes(self.uid_blob[offsets[node] : offsets[node + 1]]).decode("utf-8")

    def labels(self) -> List[str]:
        """Every label, in node-id order."""
        return _decode_strings(self.label_blob, self.label_offsets)

    def uids(self) -> List[str]:
        """Every uid, in node-id order."""
        return _decode_strings(self.uid_blob, self.uid_offsets)

    # ------------------------------------------------------------------
    # Identity and persistence
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parents)

    @property
    def content_key(self) -> str:
        """40-hex sha-256 over every array; identical trees hash equal."""
        if self._content_key is None:
            digest = hashlib.sha256()
            for name in _FIELDS:
                array = getattr(self, name)
                digest.update(name.encode("ascii"))
                digest.update(str(array.dtype).encode("ascii"))
                digest.update(np.ascontiguousarray(array).tobytes())
            self._content_key = digest.hexdigest()[:40]
        return self._content_key

    def files(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(file name, array)`` pairs in :data:`HIERARCHY_ARRAY_FILES` order."""
        for file_name, field in zip(HIERARCHY_ARRAY_FILES, _FIELDS):
            yield file_name, np.ascontiguousarray(getattr(self, field))

    def save(self, directory: str) -> List[str]:
        """Write the ``hier_*.npy`` files into ``directory``.

        Returns the file names written, in :data:`HIERARCHY_ARRAY_FILES`
        order, for manifest registration.
        """
        for file_name, array in self.files():
            np.save(os.path.join(directory, file_name), array, allow_pickle=False)
        return list(HIERARCHY_ARRAY_FILES)

    @classmethod
    def load(cls, directory: str) -> "HierarchyArrays":
        """Memory-map persisted arrays copy-free.

        The arrays are frozen, so files this process already mapped
        (same device, inode, size and mtime) are shared, not mapped again.
        """
        paths = [os.path.join(directory, name) for name in HIERARCHY_ARRAY_FILES]
        identity = tuple(
            (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
            for stat in map(os.stat, paths)
        )
        loaded = _LOADED.get(identity)
        if loaded is not None:
            return loaded
        arrays = {
            field: np.load(path, mmap_mode="r", allow_pickle=False)
            for path, field in zip(paths, _FIELDS)
        }
        loaded = _LOADED[identity] = cls(**arrays)
        return loaded

    @classmethod
    def present(cls, directory: str) -> bool:
        """True when ``directory`` holds a complete hier_*.npy set."""
        return all(
            os.path.exists(os.path.join(directory, name))
            for name in HIERARCHY_ARRAY_FILES
        )


def _from_fields(*values: np.ndarray) -> HierarchyArrays:
    """Unpickle helper: field arrays in :data:`_FIELDS` order."""
    return HierarchyArrays(**dict(zip(_FIELDS, values)))
