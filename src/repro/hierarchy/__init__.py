"""Concept-hierarchy substrate: tree structures, MeSH helpers, generators."""

from repro.hierarchy.arrays import HierarchyArrays
from repro.hierarchy.concept import Concept, ConceptHierarchy
from repro.hierarchy.generator import HierarchyGenerator, HierarchyShape, generate_hierarchy
from repro.hierarchy.mesh import paper_fragment
from repro.hierarchy.stats import ShapeStats, branching_histogram, level_widths, shape_stats
from repro.hierarchy.mesh_loader import (
    DescriptorRecord,
    dump_mesh_ascii,
    hierarchy_from_records,
    load_mesh_ascii,
    parse_descriptor_records,
)

__all__ = [
    "Concept",
    "DescriptorRecord",
    "ConceptHierarchy",
    "HierarchyArrays",
    "HierarchyGenerator",
    "HierarchyShape",
    "ShapeStats",
    "dump_mesh_ascii",
    "generate_hierarchy",
    "hierarchy_from_records",
    "load_mesh_ascii",
    "parse_descriptor_records",
    "branching_histogram",
    "level_widths",
    "shape_stats",
    "paper_fragment",
]
