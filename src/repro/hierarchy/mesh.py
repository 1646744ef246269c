"""MeSH specifics: tree-number utilities and an embedded real fragment.

The real MeSH 2008 hierarchy (~48k descriptors) is not redistributable here,
so this module provides two things instead:

* tree-number parsing/formatting helpers compatible with the dotted
  identifiers MeSH uses (``"G04.335.122"``), which BioNav's online phase
  relies on to place citations in the hierarchy, and
* :func:`paper_fragment`, a curated sub-hierarchy embedding the actual
  concept labels appearing in the paper's figures (Fig. 1–5), used by the
  worked examples and the unit tests so that the reproduced navigations read
  exactly like the paper's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.hierarchy.concept import ConceptHierarchy

__all__ = [
    "parse_tree_number",
    "format_tree_number",
    "tree_number_parent",
    "is_tree_number_ancestor",
    "paper_fragment",
    "PAPER_FRAGMENT_EDGES",
]


def parse_tree_number(tree_number: str) -> Tuple[int, ...]:
    """Split a dotted MeSH tree number into integer components.

    The empty string (the root) parses to the empty tuple.

    Raises:
        ValueError: when a component is not a positive integer.
    """
    if tree_number == "":
        return ()
    parts = tree_number.split(".")
    values = []
    for part in parts:
        if not part.isdigit():
            raise ValueError("bad tree number component %r in %r" % (part, tree_number))
        value = int(part)
        if value <= 0:
            raise ValueError("tree number components are 1-based: %r" % tree_number)
        values.append(value)
    return tuple(values)


def format_tree_number(components: Sequence[int]) -> str:
    """Inverse of :func:`parse_tree_number` (three-digit zero padding)."""
    return ".".join("%03d" % c for c in components)


def tree_number_parent(tree_number: str) -> str:
    """Tree number of the parent concept ('' for depth-1 concepts).

    Raises:
        ValueError: when called on the root's empty tree number.
    """
    components = parse_tree_number(tree_number)
    if not components:
        raise ValueError("the root has no parent")
    return format_tree_number(components[:-1])


def is_tree_number_ancestor(ancestor: str, descendant: str) -> bool:
    """True when ``ancestor``'s tree number is a prefix of ``descendant``'s.

    Every tree number is an ancestor of itself; the root ('') is an
    ancestor of everything.
    """
    a = parse_tree_number(ancestor)
    d = parse_tree_number(descendant)
    return d[: len(a)] == a


# ---------------------------------------------------------------------------
# Embedded fragment with the paper's actual concepts
# ---------------------------------------------------------------------------

# (label, parent label) edges; parents always precede children.  The root is
# "MeSH".  Labels are taken from the paper's Figures 1-5 plus the Table I
# target concepts, arranged per the 2008 MeSH tree.
PAPER_FRAGMENT_EDGES: List[Tuple[str, str]] = [
    # --- Amino Acids, Peptides, and Proteins branch (Fig. 1) ---
    ("Amino Acids, Peptides, and Proteins", "MeSH"),
    ("Proteins", "Amino Acids, Peptides, and Proteins"),
    ("Nucleoproteins", "Proteins"),
    ("Chromatin", "Nucleoproteins"),
    ("Nucleosomes", "Chromatin"),
    ("Heterochromatin", "Chromatin"),
    ("Euchromatin", "Chromatin"),
    ("Histones", "Nucleoproteins"),
    ("Transcription Factors", "Proteins"),
    ("Membrane Proteins", "Proteins"),
    ("Membrane Transport Proteins", "Membrane Proteins"),
    ("GABA Plasma Membrane Transport Proteins", "Membrane Transport Proteins"),
    ("Carrier Proteins", "Proteins"),
    ("Intercellular Signaling Peptides and Proteins", "Proteins"),
    ("Follistatin", "Intercellular Signaling Peptides and Proteins"),
    ("Peptide Hormones", "Amino Acids, Peptides, and Proteins"),
    ("Follicle Stimulating Hormone", "Peptide Hormones"),
    # --- Biological Phenomena branch (Figs. 2-5) ---
    ("Biological Phenomena, Cell Phenomena, and Immunity", "MeSH"),
    ("Cell Physiology", "Biological Phenomena, Cell Phenomena, and Immunity"),
    ("Cell Death", "Cell Physiology"),
    ("Autophagy", "Cell Death"),
    ("Apoptosis", "Cell Death"),
    ("Necrosis", "Cell Death"),
    ("Cell Growth Processes", "Cell Physiology"),
    ("Cell Proliferation", "Cell Growth Processes"),
    ("Cell Division", "Cell Proliferation"),
    ("Cell Differentiation", "Cell Physiology"),
    ("Immunity", "Biological Phenomena, Cell Phenomena, and Immunity"),
    ("Immunity, Innate", "Immunity"),
    ("Adaptation, Physiological", "Biological Phenomena, Cell Phenomena, and Immunity"),
    # --- Genetic Processes branch (Fig. 1) ---
    ("Genetic Processes", "MeSH"),
    ("Gene Expression", "Genetic Processes"),
    ("Transcription, Genetic", "Gene Expression"),
    ("Reverse Transcription", "Transcription, Genetic"),
    ("Gene Expression Regulation", "Genetic Processes"),
    ("Polymorphism, Single Nucleotide", "Genetic Processes"),
    # --- Chemicals and Drugs (Table I targets) ---
    ("Chemicals and Drugs", "MeSH"),
    ("Nicotinic Agonists", "Chemicals and Drugs"),
    ("Phosphodiesterase Inhibitors", "Chemicals and Drugs"),
    ("Perchloric Acid", "Chemicals and Drugs"),
    ("Inorganic Chemicals", "Chemicals and Drugs"),
    # --- Organisms (Table I targets) ---
    ("Organisms", "MeSH"),
    ("Animals", "Organisms"),
    ("Mice", "Animals"),
    ("Mice, Transgenic", "Mice"),
    ("Plants", "Organisms"),
    ("Plants, Genetically Modified", "Plants"),
    # --- Phenomena and Processes (Table I targets) ---
    ("Phenomena and Processes", "MeSH"),
    ("Metabolic Phenomena", "Phenomena and Processes"),
    ("Substrate Specificity", "Metabolic Phenomena"),
    ("Chemical Phenomena", "Phenomena and Processes"),
]


def paper_fragment() -> ConceptHierarchy:
    """Build the embedded MeSH fragment used by examples and tests.

    Returns a :class:`ConceptHierarchy` whose labels match the paper's
    figures; concept uids are autogenerated.
    """
    parents: List[int] = [-1]
    labels: List[str] = ["MeSH"]
    ids: Dict[str, int] = {"MeSH": 0}
    for label, parent_label in PAPER_FRAGMENT_EDGES:
        if parent_label not in ids:
            raise ValueError("fragment edge references unknown parent %r" % parent_label)
        if label in ids:
            raise ValueError("duplicate fragment label %r" % label)
        ids[label] = len(parents)
        parents.append(ids[parent_label])
        labels.append(label)
    return ConceptHierarchy.from_parents(parents, labels)
