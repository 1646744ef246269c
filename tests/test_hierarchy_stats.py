"""Unit tests for hierarchy shape statistics."""

from __future__ import annotations

import pytest

from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.hierarchy.stats import branching_histogram, level_widths, shape_stats


@pytest.fixture()
def small() -> ConceptHierarchy:
    return ConceptHierarchy.from_parents(
        [-1, 0, 0, 1, 1, 1], ["root", "a", "b", "c", "d", "e"]
    )


class TestLevelWidths:
    def test_counts_per_level(self, small):
        assert level_widths(small) == {0: 1, 1: 2, 2: 3}

    def test_single_node(self):
        assert level_widths(ConceptHierarchy.from_parents([-1], ["MeSH"])) == {0: 1}


class TestBranchingHistogram:
    def test_histogram(self, small):
        # root has 2 children, a has 3, b/c/d/e are leaves.
        assert branching_histogram(small) == {2: 1, 3: 1, 0: 4}


class TestShapeStats:
    def test_small_hierarchy(self, small):
        stats = shape_stats(small)
        assert stats.size == 6
        assert stats.height == 2
        assert stats.root_fanout == 2
        assert stats.max_width == 3
        assert stats.widest_level == 2
        assert stats.leaf_fraction == pytest.approx(4 / 6)
        assert stats.mean_branching == pytest.approx(2.5)
        assert stats.max_branching == 3

    def test_generator_reproduces_mesh_silhouette(self):
        """The DESIGN.md shape claims, checked against the generator."""
        stats = shape_stats(generate_hierarchy(target_size=3000, seed=5))
        # Bushy top: the root has many children.
        assert stats.root_fanout >= 20
        # Deep enough for multi-step navigations.
        assert stats.height >= 5
        # Long-tailed branching with a realistic leaf share.
        assert 0.4 <= stats.leaf_fraction <= 0.9
        assert stats.max_branching >= 2 * stats.mean_branching

    def test_widest_level_is_not_root(self):
        stats = shape_stats(generate_hierarchy(target_size=2000, seed=6))
        assert stats.widest_level >= 1
