"""Synthetic MeSH-like hierarchy generation.

The real MeSH 2008 hierarchy has ~48,000 concepts, is notably bushy at the
upper levels (98 children under the root in the paper's Fig. 1) and about
eleven levels deep.  The navigation algorithms only consume tree structure
and labels, so a synthetic hierarchy reproducing those shape statistics is a
faithful substrate (see DESIGN.md §4).

:class:`HierarchyGenerator` grows a tree level by level with a branching
factor that decays geometrically with depth, which yields the wide-top /
narrow-bottom silhouette of MeSH.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hierarchy.concept import ConceptHierarchy

__all__ = [
    "HierarchyShape",
    "HierarchyGenerator",
    "generate_hierarchy",
    "mesh_2008_hierarchy",
    "MESH_2008_SEED",
]

# Vocabulary for synthetic concept labels: biomedical-flavored stems so
# rendered navigation trees remain readable in examples and bench output.
_STEMS = [
    "Protein", "Receptor", "Kinase", "Pathway", "Cell", "Tissue", "Gene",
    "Enzyme", "Hormone", "Antigen", "Antibody", "Transporter", "Channel",
    "Factor", "Complex", "Signal", "Membrane", "Nucleus", "Cytokine",
    "Peptide", "Lipid", "Carbohydrate", "Metabolite", "Inhibitor", "Agonist",
]
_QUALIFIERS = [
    "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Type I", "Type II",
    "Type III", "Neuronal", "Hepatic", "Cardiac", "Renal", "Pulmonary",
    "Vascular", "Epithelial", "Mitochondrial", "Nuclear", "Cytosolic",
    "Synaptic", "Embryonic",
]


@dataclass(frozen=True)
class HierarchyShape:
    """Shape parameters of a synthetic MeSH-like hierarchy.

    Attributes:
        target_size: approximate number of concepts to generate.
        root_fanout: number of top-level categories (MeSH has 98 under the
            root in the paper's navigation trees; default scaled down).
        branching: mean number of children of an internal non-root node at
            depth 1; decays by ``decay`` per extra level.
        decay: multiplicative per-level decay of the branching factor.
        max_depth: hard depth cap (MeSH is ~11 levels deep).
    """

    target_size: int = 5000
    root_fanout: int = 24
    branching: float = 4.0
    decay: float = 0.82
    max_depth: int = 11

    @classmethod
    def mesh_2008(cls) -> "HierarchyShape":
        """The shape of the real MeSH 2008 tree the paper navigates.

        ~48k concepts with a very bushy top (the paper's Fig. 1 shows 98
        children under the root) and ~11 levels of depth.  Generating at
        this size takes a few seconds; the algorithms are unchanged.
        """
        return cls(
            target_size=48_000,
            root_fanout=98,
            branching=5.0,
            decay=0.86,
            max_depth=11,
        )

    @classmethod
    def deep(cls, target_size: int = 5000) -> "HierarchyShape":
        """A deliberately deep variant (narrow top, slow decay).

        Useful for experiments where navigation depth matters more than
        width — targets end up 7-9 levels down instead of 4-5.
        """
        return cls(
            target_size=target_size,
            root_fanout=8,
            branching=3.0,
            decay=0.95,
            max_depth=14,
        )


class HierarchyGenerator:
    """Grows random MeSH-like hierarchies reproducibly from a seed."""

    def __init__(self, shape: Optional[HierarchyShape] = None, seed: int = 0):
        self.shape = shape or HierarchyShape()
        self._rng = random.Random(seed)

    def generate(self) -> ConceptHierarchy:
        """Generate one hierarchy of roughly ``shape.target_size`` concepts."""
        shape = self.shape
        parents: List[int] = [-1]
        labels: List[str] = ["MeSH"]

        def add(parent: int, depth: int) -> int:
            parents.append(parent)
            labels.append(self._make_label(depth))
            return len(parents) - 1

        frontier = [add(0, 1) for _ in range(shape.root_fanout)]
        depth = 1
        while frontier and len(parents) < shape.target_size and depth < shape.max_depth:
            mean_children = shape.branching * (shape.decay ** (depth - 1))
            next_frontier: List[int] = []
            for node in frontier:
                if len(parents) >= shape.target_size:
                    break
                for _ in range(self._sample_fanout(mean_children)):
                    if len(parents) >= shape.target_size:
                        break
                    next_frontier.append(add(node, depth + 1))
            frontier = next_frontier
            depth += 1
        return ConceptHierarchy.from_parents(parents, labels)

    # ------------------------------------------------------------------
    def _sample_fanout(self, mean: float) -> int:
        """Draw a child count with the given mean; some nodes stay leaves."""
        if self._rng.random() < 0.25:
            return 0
        # Geometric-ish draw centered on mean/(1-0.25) to keep the overall
        # expected fanout close to ``mean``.
        value = int(self._rng.expovariate(1.0 / max(mean / 0.75, 1e-9)) + 0.5)
        return min(value, 40)

    def _make_label(self, depth: int) -> str:
        stem = self._rng.choice(_STEMS)
        qualifier = self._rng.choice(_QUALIFIERS)
        return "%s, %s (L%d-%04d)" % (stem, qualifier, depth, self._rng.randrange(10000))


#: Seed of the canonical paper-scale hierarchy preset.  Fixed so every
#: consumer (the substrate bench, workload scenarios, two same-seed
#: builds in the determinism gate) generates the identical tree.
MESH_2008_SEED = 2008

#: Seed-keyed cache of paper-scale hierarchies.  Generation draws ~48k
#: labels and fanouts in Python; every bench/test that re-derives the
#: canonical tree would otherwise pay it again.
_MESH_2008_CACHE: Dict[int, ConceptHierarchy] = {}


def mesh_2008_hierarchy(seed: int = MESH_2008_SEED) -> ConceptHierarchy:
    """The deterministic paper-scale MeSH-shaped hierarchy (~48k concepts).

    :meth:`HierarchyShape.mesh_2008` shape statistics (98 root
    categories, geometric branching decay, 11 levels) generated from a
    fixed seed: the same tree — node ids, uids, labels — on every call,
    which is what lets the substrate build manifest fingerprint it.

    Cache-identity contract: same seed ⇒ the *same object*, not a fresh
    copy.  That is sound because the tree is a pure function of the seed
    and :class:`ConceptHierarchy` is immutable: there is no method that
    changes one (:meth:`ConceptHierarchy.relabeled` returns a new tree),
    so sharing the instance cannot leak a write between callers.
    """
    hierarchy = _MESH_2008_CACHE.get(seed)
    if hierarchy is None:
        hierarchy = HierarchyGenerator(HierarchyShape.mesh_2008(), seed=seed).generate()
        _MESH_2008_CACHE[seed] = hierarchy
    return hierarchy


def generate_hierarchy(
    target_size: int = 5000,
    seed: int = 0,
    root_fanout: int = 24,
    branching: float = 4.0,
    max_depth: int = 11,
) -> ConceptHierarchy:
    """Convenience wrapper around :class:`HierarchyGenerator`."""
    shape = HierarchyShape(
        target_size=target_size,
        root_fanout=root_fanout,
        branching=branching,
        max_depth=max_depth,
    )
    return HierarchyGenerator(shape, seed=seed).generate()
