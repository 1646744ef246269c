"""Pinned content keys of every hierarchy builder.

Each builder — the synthetic generator, the paper-scale preset, the
curated paper fragment, the MeSH ASCII loader and the workload builders
that graft Table I target labels — must keep producing the identical
tree: same node ids, structure, labels and uids.  The keys below are
:attr:`HierarchyArrays.content_key` values; a change to any of them
means a builder changed the hierarchy it emits, which would also move
every substrate manifest and cut-plan key built on top of it.
"""

from __future__ import annotations

import io

from repro.hierarchy import dump_mesh_ascii, generate_hierarchy, load_mesh_ascii, paper_fragment
from repro.hierarchy.generator import mesh_2008_hierarchy
from repro.workload.builder import build_workload
from repro.workload.scenarios import build_scenario


def _key(hierarchy) -> str:
    return hierarchy.arrays().content_key


def test_generated_hierarchy_key():
    assert (
        _key(generate_hierarchy(target_size=800, seed=1))
        == "625817ce41dd91d25f00b06acfc8fb2756d666cd"
    )


def test_mesh_2008_preset_key():
    assert _key(mesh_2008_hierarchy()) == "c247bd4edf42014e3cd3f3465cd3665bd40c2099"


def test_paper_fragment_key():
    assert _key(paper_fragment()) == "1f6297f8209294a62369ada24e7c40e9683c98dc"


def test_mesh_ascii_round_trip_key():
    buffer = io.StringIO()
    dump_mesh_ascii(generate_hierarchy(target_size=800, seed=1), buffer)
    buffer.seek(0)
    assert _key(load_mesh_ascii(buffer)) == "a2b493a39ea3375c6796828126801271a29375e7"


def test_workload_hierarchy_key():
    # Covers the Table I target relabels.
    assert _key(build_workload().hierarchy) == "4f08b773aaf1f64a9de7cf287242fbe192091797"


def test_scenario_hierarchy_key():
    # Covers the relabel on a pre-built hierarchy.
    assert (
        _key(build_scenario("deep_hierarchy").hierarchy)
        == "5e32b936a7dc5f62546ee553bf5e9acd54cc6190"
    )
