"""Parser/writer for the NLM MeSH descriptor ASCII format.

The paper populates its database from the MeSH 2008 distribution, which
NLM ships as ASCII descriptor records (``d2008.bin``)::

    *NEWRECORD
    RECTYPE = D
    MH = Apoptosis
    MN = G04.335.122
    UI = D017209

A descriptor may carry several ``MN`` tree numbers (MeSH is a polyhierarchy
presented as a forest of trees); following the paper's tree model, each
tree number becomes its own concept node carrying the descriptor's label.
Intermediate tree numbers that never appear as records (rare, but present
in real MeSH) are materialized as placeholder concepts so the result is a
proper tree.

This module lets the reproduction ingest a real MeSH dump when one is
available, and round-trips the synthetic hierarchies into the same format
for inspection with standard MeSH tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from repro.hierarchy.concept import ConceptHierarchy

__all__ = [
    "DescriptorRecord",
    "parse_descriptor_records",
    "hierarchy_from_records",
    "load_mesh_ascii",
    "dump_mesh_ascii",
]

_RECORD_MARKER = "*NEWRECORD"


@dataclass
class DescriptorRecord:
    """One MeSH descriptor: heading, unique id, and its tree numbers."""

    heading: str
    unique_id: str
    tree_numbers: List[str] = field(default_factory=list)


def parse_descriptor_records(lines: Iterable[str]) -> List[DescriptorRecord]:
    """Parse MeSH ASCII descriptor records from an iterable of lines.

    Only the fields the hierarchy needs are read (``MH``, ``MN``, ``UI``);
    all other fields are ignored, as are record types other than
    descriptors (``RECTYPE = D``).

    Raises:
        ValueError: on a record missing its heading or unique id.
    """
    records: List[DescriptorRecord] = []
    current: Optional[Dict[str, List[str]]] = None

    def flush() -> None:
        if current is None:
            return
        rectype = current.get("RECTYPE", ["D"])[0]
        if rectype != "D":
            return
        headings = current.get("MH")
        uids = current.get("UI")
        if not headings:
            raise ValueError("descriptor record missing MH field")
        if not uids:
            raise ValueError("descriptor record %r missing UI field" % headings[0])
        records.append(
            DescriptorRecord(
                heading=headings[0],
                unique_id=uids[0],
                tree_numbers=list(current.get("MN", [])),
            )
        )

    for raw_line in lines:
        line = raw_line.rstrip("\n")
        if line.strip() == _RECORD_MARKER:
            flush()
            current = {}
            continue
        if current is None or "=" not in line:
            continue
        key, _, value = line.partition("=")
        current.setdefault(key.strip(), []).append(value.strip())
    flush()
    return records


def hierarchy_from_records(
    records: Iterable[DescriptorRecord], root_label: str = "MeSH"
) -> ConceptHierarchy:
    """Build a concept hierarchy from descriptor records.

    Each tree number becomes one concept node; a descriptor with k tree
    numbers contributes k nodes sharing the heading (uids get a positional
    suffix past the first).  Missing intermediate tree numbers are created
    as placeholders labeled with their tree number.
    """
    by_tree_number: Dict[str, Tuple[str, str]] = {}
    for record in records:
        for position, tree_number in enumerate(record.tree_numbers):
            if not tree_number:
                continue
            if tree_number in by_tree_number:
                raise ValueError("duplicate tree number %r" % tree_number)
            uid = record.unique_id if position == 0 else "%s.%d" % (
                record.unique_id,
                position,
            )
            by_tree_number[tree_number] = (record.heading, uid)

    parents: List[int] = [-1]
    labels: List[str] = [root_label]
    uids: List[str] = ["ROOT"]
    node_of: Dict[str, int] = {"": 0}

    def ensure(tree_number: str) -> int:
        existing = node_of.get(tree_number)
        if existing is not None:
            return existing
        parent = ensure(_parent_tree_number(tree_number))
        heading, uid = by_tree_number.get(
            tree_number, ("[%s]" % tree_number, "PLACEHOLDER-%s" % tree_number)
        )
        node = node_of[tree_number] = len(parents)
        parents.append(parent)
        labels.append(heading)
        uids.append(uid)
        return node

    for tree_number in sorted(by_tree_number):
        ensure(tree_number)
    return ConceptHierarchy.from_parents(parents, labels, uids)


def load_mesh_ascii(handle: TextIO, root_label: str = "MeSH") -> ConceptHierarchy:
    """Parse an open MeSH ASCII file into a concept hierarchy."""
    return hierarchy_from_records(parse_descriptor_records(handle), root_label)


def dump_mesh_ascii(hierarchy: ConceptHierarchy, handle: TextIO) -> int:
    """Write a hierarchy in MeSH descriptor ASCII format.

    Every non-root concept becomes one descriptor record with a single
    ``MN`` (its hierarchy tree number, letter-prefixed to look like MeSH).
    Returns the number of records written.
    """
    written = 0
    for node in hierarchy.iter_dfs():
        if node == hierarchy.root:
            continue
        handle.write("%s\n" % _RECORD_MARKER)
        handle.write("RECTYPE = D\n")
        handle.write("MH = %s\n" % hierarchy.label(node))
        handle.write("MN = %s\n" % _letter_tree_number(hierarchy, node))
        handle.write("UI = %s\n" % hierarchy.uid(node))
        handle.write("\n")
        written += 1
    return written


# ---------------------------------------------------------------------------
def _parent_tree_number(tree_number: str) -> str:
    """Parent tree number in MeSH notation.

    ``"G04.335.122"`` → ``"G04.335"``; top-level categories like ``"G04"``
    parent to the root (``""``).
    """
    if "." not in tree_number:
        return ""
    return tree_number.rsplit(".", 1)[0]


def _letter_tree_number(hierarchy: ConceptHierarchy, node: int) -> str:
    """MeSH-style tree number: letter-prefixed top level, dotted below.

    The top-level category at position i becomes ``A01``, ``A02``, ...
    (wrapping through the alphabet), deeper levels keep their 3-digit
    sibling positions.
    """
    path = list(reversed(hierarchy.path_to_root(node)))  # root .. node
    top = path[1]
    siblings = hierarchy.children(hierarchy.root)
    index = siblings.index(top)
    letter = chr(ord("A") + (index % 26))
    parts = ["%s%02d" % (letter, index + 1)]
    for ancestor, child in zip(path[1:], path[2:]):
        position = hierarchy.children(ancestor).index(child) + 1
        parts.append("%03d" % position)
    return ".".join(parts)
