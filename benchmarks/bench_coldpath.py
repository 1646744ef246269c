"""Cold-path bench — array-native first-query latency vs the legacy path.

A *cold* query is the paper's worst case: a fresh process opens the
substrate directory, loads the hierarchy, answers a conjunctive
boolean-AND, and builds the navigation tree for the result (§II, §VII).
The legacy path ran through per-node Python: ~190ms rebuilding the
~48k-concept hierarchy from ``hierarchy.jsonl`` (no longer part of the
substrate; the bench writes it before timing) and a dict-per-node tree
build; its AND is the ``np.intersect1d`` fold perfbench checks answers
against.  The array-native path replaced every stage; this bench
measures both paths on the same directory and gates the speedups:

* **hierarchy open** — mmapping the persisted ``hier_*.npy`` arrays
  must beat the jsonl rebuild >= ``HIERARCHY_SPEEDUP_MIN``x (full scale);
* **AND + tree build** — the ``searchsorted`` AND over the concept CSR
  plus the vectorized maximum embedding must beat the ``np.intersect1d``
  fold plus the dict-based reference build >= ``COMBINED_SPEEDUP_MIN``x
  (full scale);
* **bit-identity** — the array-native tree matches the retained
  :class:`ReferenceNavigationTree` oracle node for node (preorder,
  parents, per-node results) and yields a bit-identical probability
  model — preorder ids, results CSR, result counts, log LT, EXPLORE
  mass and normalizer (hence identical navigation costs) — on **both**
  store backends, at every scale;
* **first-EXPAND identity** — on the cold tree, the array-native
  Heuristic-ReducedOpt (heavy-core k-partition over the preorder
  arrays) returns the same cut, reduced size and expected cost as the
  dict-based reduction kept in ``tests/oracles``, and the probability
  model built through the batched LT lookup is bit-identical to the
  one built with a per-node ``medline_count`` call.  Both paths
  are timed (fastest of three) and recorded; neither timing is gated.
  The array path is also recorded in three layers: the partition
  (component arrays plus the δ scan), the supernode build (the rest of
  the reduction) and the Opt-EdgeCut solve of the reduced tree;
* **active tree** — opening a session's interval
  :class:`~repro.core.active_tree.ActiveTree` over the cold tree must
  take at most ``ACTIVE_TREE_BUDGET_S`` (full scale; the frozenset
  oracle in ``tests/oracles`` is timed beside it), and its first view —
  before and after the first EXPAND — must match the oracle's rows.

``COLDPATH_BENCH_SMOKE=1`` runs the same identity gates at 20k
citations over a 2k-concept hierarchy for CI (speedup gates are only
meaningful at scale); the full run (1M citations over the paper-scale
MeSH-2008 preset) writes ``BENCH_coldpath.json`` at the repository
root.  Run from the repository root (``python -m pytest``) so the
``tests.oracles`` package is importable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.active_tree import ActiveTree
from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.navigation_tree import NavigationTree
from repro.core.opt_edgecut import OptEdgeCut
from repro.core.partition import partition_with_limit
from repro.core.probabilities import ProbabilityModel
from repro.corpus.citation import Citation
from repro.corpus.medline import MedlineDatabase
from repro.hierarchy.concept import ConceptHierarchy
from repro.hierarchy.generator import generate_hierarchy
from repro.substrate import MmapStore, medline_store
from tests.oracles.active_tree_reference import ReferenceActiveTree
from tests.oracles.cost_identity import models_identical
from tests.oracles.navigation_tree_reference import ReferenceNavigationTree
from tests.oracles.partition_reference import ReferenceHeuristicReducedOpt
from tests.oracles.store_reference import InMemoryStore

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_coldpath.json"

SMOKE = os.environ.get("COLDPATH_BENCH_SMOKE") == "1"

CITATIONS = 20_000 if SMOKE else 1_000_000
HIERARCHY_SIZE = 2_000 if SMOKE else 0  # 0 = the paper-scale MeSH preset
SEED = 2008
RESULT_CAP = 5_000

#: Identity cross-check corpus for an in-memory substrate build (the
#: full 1M corpus as Python citation objects would defeat the point of
#: the substrate; identity is scale-independent).
IDENTITY_CITATIONS = 4_000
IDENTITY_HIERARCHY = 600

#: Timed repeats of the model build and first EXPAND (the fastest is
#: recorded; neither is gated).
FIRST_EXPAND_REPEATS = 3

#: Full-scale speedup gates (ISSUE 10 acceptance: 286ms -> <=70ms
#: combined, 190ms -> <=19ms hierarchy open).
COMBINED_SPEEDUP_MIN = 4.0
HIERARCHY_SPEEDUP_MIN = 10.0

#: Full-scale budget for opening an ActiveTree over the cold tree (the
#: frozenset form took ~3.3 ms on the 29k-node probe tree).
ACTIVE_TREE_BUDGET_S = 1e-4
#: Timed repeats of the (microsecond-scale) ActiveTree construction.
ACTIVE_TREE_REPEATS = 50


def run_build(out_dir: Path) -> dict:
    """One CLI build in a subprocess; returns its JSON report."""
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.substrate.build",
            "--out",
            str(out_dir),
            "--citations",
            str(CITATIONS),
            "--seed",
            str(SEED),
            "--hierarchy-size",
            str(HIERARCHY_SIZE),
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=str(REPO_ROOT),
    )
    return json.loads(result.stdout)


# ---------------------------------------------------------------------------
# Legacy-path reimplementations and the reference AND
# ---------------------------------------------------------------------------
def write_hierarchy_jsonl(out_dir: Path) -> None:
    """Write the legacy ``hierarchy.jsonl`` record stream.

    Substrate directories no longer carry it (format 2 ships only the
    ``hier_*.npy`` arrays), so the bench writes it from the persisted
    hierarchy before timing the legacy open.
    """
    hierarchy = MmapStore.open(str(out_dir)).hierarchy()
    with open(out_dir / "hierarchy.jsonl", "w") as handle:
        for uid, label, parent in hierarchy.to_records():
            handle.write(json.dumps([uid, label, parent]) + "\n")


def hierarchy_from_jsonl(out_dir: Path) -> ConceptHierarchy:
    """The pre-arrays hierarchy open: rebuild every node from jsonl."""
    records = []
    with open(out_dir / "hierarchy.jsonl") as handle:
        for line in handle:
            if line.strip():
                uid, label, parent = json.loads(line)
                records.append((uid, label, parent))
    return ConceptHierarchy.from_records(records)


def boolean_and_reference(store: MmapStore, concepts) -> np.ndarray:
    """The oracle AND perfbench checks against: an ``np.intersect1d``
    fold over each concept's PMIDs."""
    pmids = store.citations_for_concept(concepts[0])
    for concept in concepts[1:]:
        pmids = np.intersect1d(pmids, store.citations_for_concept(concept))
    return pmids


def trees_identical(tree: NavigationTree, ref: ReferenceNavigationTree) -> bool:
    """Node-for-node equality: preorder, parents, per-node results."""
    if list(tree.iter_dfs()) != list(ref.iter_dfs()):
        return False
    for node in ref.nodes():
        if tree.parent(node) != ref.parent(node):
            return False
        if tuple(tree.children(node)) != tuple(ref.children(node)):
            return False
        if tree.results(node).tolist() != sorted(ref.results(node)):
            return False
    return True


def cost_keys_identical(store, tree, ref) -> bool:
    """Bit-identical probability models => identical navigation costs."""
    return models_identical(
        ProbabilityModel(tree, store.medline_count),
        ProbabilityModel(ref, store.medline_count),
    )


def fastest(func, repeats: int = FIRST_EXPAND_REPEATS):
    """``(best seconds, last value)`` over ``repeats`` calls of ``func``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - started)
    return best, value


def first_expand(store, tree: NavigationTree) -> dict:
    """Time and compare the first EXPAND: array path vs the oracle path.

    The model is built twice — per-node ``medline_count`` calls
    (legacy) and the store's batched ``medline_counts`` (new) — and the
    root component is solved by the array-native reduction and by the
    dict-based oracle reduction on the same model, each with a fresh
    solver per repeat.
    """
    prob_model_ref_s, legacy_probs = fastest(
        lambda: ProbabilityModel(tree, store.medline_count)
    )
    prob_model_new_s, probs = fastest(lambda: ProbabilityModel(tree, store))
    component = Component(tree, tree.root)
    first_expand_ref_s, ref = fastest(
        lambda: ReferenceHeuristicReducedOpt(tree, probs).best_cut(component)
    )
    first_expand_new_s, new = fastest(
        lambda: HeuristicReducedOpt(tree, probs).best_cut(component)
    )
    return {
        **first_expand_layers(tree, probs, component),
        "prob_model_ref_s": prob_model_ref_s,
        "prob_model_new_s": prob_model_new_s,
        "prob_model_keys_identical": models_identical(legacy_probs, probs),
        "first_expand_ref_s": first_expand_ref_s,
        "first_expand_new_s": first_expand_new_s,
        "reduced_size": new.reduced_size,
        "first_expand_identical": (
            (new.cut, new.reduced_size, new.expected_cost)
            == (ref.cut, ref.reduced_size, ref.expected_cost)
        ),
        **first_view(tree, new.cut),
    }


def first_expand_layers(
    tree: NavigationTree, probs: ProbabilityModel, component: Component
) -> dict:
    """The array first EXPAND in layers: partition, supernodes, solve.

    Each layer is timed on its own (fastest of ``FIRST_EXPAND_REPEATS``);
    the supernode build is the reduction minus its partition.
    """
    solver = HeuristicReducedOpt(tree, probs)

    def partition():
        positions, parents, sizes = tree.component_arrays(component)
        return partition_with_limit(
            parents,
            sizes,
            probs.result_counts[positions],
            tree.preorder_array()[positions],
            solver.max_reduced_nodes,
        )

    partition_s, _ = fastest(partition)
    reduce_s, (reduced, _) = fastest(lambda: solver._reduce(component))
    solve_s, _ = fastest(lambda: OptEdgeCut(reduced, probs, solver.params).solve())
    return {
        "first_expand_partition_s": partition_s,
        "first_expand_supernodes_s": max(0.0, reduce_s - partition_s),
        "first_expand_opt_edgecut_s": solve_s,
    }


def first_view(tree: NavigationTree, cut) -> dict:
    """Time ActiveTree construction and compare the first view's rows.

    The interval tree and the frozenset oracle are each opened over the
    cold tree (fastest of ``ACTIVE_TREE_REPEATS``); their rows must be
    equal on the initial view and after applying the first EXPAND's cut.
    """
    active_tree_ref_s, oracle = fastest(
        lambda: ReferenceActiveTree(tree), ACTIVE_TREE_REPEATS
    )
    active_tree_new_s, active = fastest(lambda: ActiveTree(tree), ACTIVE_TREE_REPEATS)
    identical = active.visualize() == oracle.visualize()
    active.expand(tree.root, cut)
    oracle.expand(tree.root, cut)
    return {
        "active_tree_ref_s": active_tree_ref_s,
        "active_tree_new_s": active_tree_new_s,
        "first_view_rows": len(active.visualize()),
        "first_view_identical": identical and active.visualize() == oracle.visualize(),
    }


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------
def pick_query_concepts(out_dir: Path) -> list:
    """Two popular concepts — the selective-AND shape users issue."""
    counts = np.load(out_dir / "concept_counts.npy", mmap_mode="r")
    order = np.argsort(np.asarray(counts))
    return [int(order[-1]), int(order[-3])]


def measure_cold_paths(out_dir: Path) -> dict:
    """Time legacy vs array-native stages on a fresh store."""
    # Hierarchy open: jsonl rebuild (legacy) vs mmapped arrays (new).
    write_hierarchy_jsonl(out_dir)
    started = time.perf_counter()
    hierarchy_from_jsonl(out_dir)
    hierarchy_jsonl_s = time.perf_counter() - started

    store = MmapStore.open(str(out_dir))
    started = time.perf_counter()
    hierarchy = store.hierarchy()
    hierarchy_arrays_s = time.perf_counter() - started

    concepts = pick_query_concepts(out_dir)

    # Boolean AND: the np.intersect1d fold vs the CSR searchsorted AND.
    started = time.perf_counter()
    pmids_ref = boolean_and_reference(store, concepts)
    boolean_and_ref_s = time.perf_counter() - started

    started = time.perf_counter()
    pmids_new = store.boolean_and(concepts)
    boolean_and_new_s = time.perf_counter() - started
    assert np.array_equal(pmids_ref, pmids_new)

    # Navigation tree: dict-based oracle vs vectorized embedding.
    result = [int(p) for p in pmids_new[:RESULT_CAP]]
    started = time.perf_counter()
    ref_tree = ReferenceNavigationTree.from_store(hierarchy, store, result)
    nav_tree_ref_s = time.perf_counter() - started

    started = time.perf_counter()
    tree = NavigationTree.from_store(hierarchy, store, result)
    nav_tree_new_s = time.perf_counter() - started

    return {
        "query_concepts": concepts,
        "result_size": int(pmids_new.size),
        "tree_size": tree.size(),
        "hierarchy_jsonl_s": hierarchy_jsonl_s,
        "hierarchy_arrays_s": hierarchy_arrays_s,
        "boolean_and_ref_s": boolean_and_ref_s,
        "boolean_and_new_s": boolean_and_new_s,
        "nav_tree_ref_s": nav_tree_ref_s,
        "nav_tree_new_s": nav_tree_new_s,
        "mmap_identical": trees_identical(tree, ref_tree),
        "mmap_costs_identical": cost_keys_identical(store, tree, ref_tree),
        **first_expand(store, tree),
    }


def check_inmemory_identity() -> dict:
    """Bit-identity on an in-memory substrate build (scale-independent).

    The result set must also equal the dict-based store oracle's.
    """
    hierarchy = generate_hierarchy(target_size=IDENTITY_HIERARCHY, seed=SEED)
    rng = np.random.default_rng(SEED)
    medline = MedlineDatabase(
        background_counts={c: 120 + 2 * c for c in range(len(hierarchy))}
    )
    for i in range(IDENTITY_CITATIONS):
        concepts = tuple(
            sorted(
                set(rng.integers(1, len(hierarchy), size=rng.integers(1, 10)).tolist())
            )
        )
        medline.add(
            Citation(
                pmid=50_000_000 + i,
                title="Cold-path identity citation %d" % i,
                year=int(1990 + (i % 20)),
                index_concepts=concepts,
            )
        )
    store = medline_store(medline, len(hierarchy), hierarchy=hierarchy)
    # One concept: random co-annotation makes ANDs of two busy concepts
    # of this small corpus empty, and an empty tree checks nothing.
    busiest = pick_busiest(store, k=1)
    pmids = store.boolean_and(busiest)[:RESULT_CAP]
    oracle = InMemoryStore(medline, hierarchy=hierarchy).boolean_and(busiest)
    assert pmids.tolist() == oracle[:RESULT_CAP].tolist()
    result = [int(p) for p in pmids]
    tree = NavigationTree.from_store(hierarchy, store, result)
    ref = ReferenceNavigationTree.from_store(hierarchy, store, result)
    return {
        "citations": IDENTITY_CITATIONS,
        "result_size": len(result),
        "tree_size": tree.size(),
        "identical": trees_identical(tree, ref),
        "costs_identical": cost_keys_identical(store, tree, ref),
    }


def pick_busiest(store, k: int = 2) -> list:
    counts = [(store.result_count(c), c) for c in range(store.num_concepts)]
    return [c for _, c in sorted(counts, reverse=True)[:k]]


# ---------------------------------------------------------------------------
# The bench
# ---------------------------------------------------------------------------
def test_coldpath_speedup_and_identity(tmp_path_factory, report, benchmark):
    base = tmp_path_factory.mktemp("coldpath-bench")

    def measure():
        build = run_build(base / "substrate")
        cold = measure_cold_paths(base / "substrate")
        inmemory = check_inmemory_identity()
        return build, cold, inmemory

    build, cold, inmemory = benchmark.pedantic(measure, rounds=1, iterations=1)

    combined_ref = cold["boolean_and_ref_s"] + cold["nav_tree_ref_s"]
    combined_new = cold["boolean_and_new_s"] + cold["nav_tree_new_s"]
    combined_speedup = combined_ref / combined_new
    hierarchy_speedup = cold["hierarchy_jsonl_s"] / cold["hierarchy_arrays_s"]

    rows = {
        "benchmark": "coldpath",
        "smoke": SMOKE,
        "citations": build["citations"],
        "concepts": build["concepts"],
        "digest": build["digest"],
        "cold": cold,
        "inmemory_identity": inmemory,
        "combined_ref_s": combined_ref,
        "combined_new_s": combined_new,
        "combined_speedup": combined_speedup,
        "hierarchy_speedup": hierarchy_speedup,
        "gates": {
            "combined_speedup_min": COMBINED_SPEEDUP_MIN,
            "hierarchy_speedup_min": HIERARCHY_SPEEDUP_MIN,
            "active_tree_budget_s": ACTIVE_TREE_BUDGET_S,
        },
    }

    report(
        "\n"
        + "=" * 78
        + "\nCOLD PATH — legacy vs array-native (%s citations x %s concepts)"
        % (format(build["citations"], ","), format(build["concepts"], ","))
        + "\n"
        + "=" * 78
        + "\n%-38s %9.1f ms -> %7.1f ms  (%.1fx)"
        % (
            "hierarchy open (jsonl -> arrays)",
            cold["hierarchy_jsonl_s"] * 1e3,
            cold["hierarchy_arrays_s"] * 1e3,
            hierarchy_speedup,
        )
        + "\n%-38s %9.1f ms -> %7.1f ms  (%.1fx)"
        % (
            "boolean AND (intersect1d -> CSR)",
            cold["boolean_and_ref_s"] * 1e3,
            cold["boolean_and_new_s"] * 1e3,
            cold["boolean_and_ref_s"] / cold["boolean_and_new_s"],
        )
        + "\n%-38s %9.1f ms -> %7.1f ms  (%.1fx)"
        % (
            "navigation tree (dicts -> arrays)",
            cold["nav_tree_ref_s"] * 1e3,
            cold["nav_tree_new_s"] * 1e3,
            cold["nav_tree_ref_s"] / cold["nav_tree_new_s"],
        )
        + "\n%-38s %9.1f ms -> %7.1f ms  (%.1fx, gate >= %.1fx at full scale)"
        % (
            "AND + tree combined",
            combined_ref * 1e3,
            combined_new * 1e3,
            combined_speedup,
            COMBINED_SPEEDUP_MIN,
        )
        + "\n%-38s %9.1f ms -> %7.1f ms  (%.1fx)"
        % (
            "probability model (per-node LT -> batch)",
            cold["prob_model_ref_s"] * 1e3,
            cold["prob_model_new_s"] * 1e3,
            cold["prob_model_ref_s"] / cold["prob_model_new_s"],
        )
        + "\n%-38s %9.1f ms -> %7.1f ms  (%.1fx)"
        % (
            "first EXPAND (dict -> array partition)",
            cold["first_expand_ref_s"] * 1e3,
            cold["first_expand_new_s"] * 1e3,
            cold["first_expand_ref_s"] / cold["first_expand_new_s"],
        )
        + "\n%-38s %9.1f / %.1f / %.1f ms"
        % (
            "  partition / supernodes / solve",
            cold["first_expand_partition_s"] * 1e3,
            cold["first_expand_supernodes_s"] * 1e3,
            cold["first_expand_opt_edgecut_s"] * 1e3,
        )
        + "\n%-38s %9.3f ms -> %7.3f ms  (budget %.1f ms at full scale)"
        % (
            "active tree open (frozenset -> interval)",
            cold["active_tree_ref_s"] * 1e3,
            cold["active_tree_new_s"] * 1e3,
            ACTIVE_TREE_BUDGET_S * 1e3,
        )
        + "\n%-38s %12s / %s"
        % (
            "bit-identity (mmap / in-memory)",
            cold["mmap_identical"] and cold["mmap_costs_identical"],
            inmemory["identical"] and inmemory["costs_identical"],
        )
        + "\n%-38s %12s"
        % (
            "first-EXPAND identity (array / oracle)",
            cold["first_expand_identical"] and cold["prob_model_keys_identical"],
        )
        + "\n%-38s %12s"
        % ("first-view identity (interval / oracle)", cold["first_view_identical"])
        + "\n"
        + "=" * 78
    )

    # Identity gates hold at every scale, on both backends.
    assert cold["mmap_identical"] and cold["mmap_costs_identical"]
    assert inmemory["identical"] and inmemory["costs_identical"]
    assert cold["result_size"] > 0 and cold["tree_size"] > 1
    assert inmemory["result_size"] > 0 and inmemory["tree_size"] > 1
    assert cold["first_expand_identical"] and cold["prob_model_keys_identical"]
    assert cold["first_view_identical"]

    # Speedup gates are only meaningful at full scale: at smoke size the
    # legacy path is already a few milliseconds and the ratio is noise.
    if not SMOKE:
        assert combined_speedup >= COMBINED_SPEEDUP_MIN, (
            "cold AND+tree %.1f ms is only %.1fx faster than the legacy "
            "%.1f ms (gate %.1fx)"
            % (
                combined_new * 1e3,
                combined_speedup,
                combined_ref * 1e3,
                COMBINED_SPEEDUP_MIN,
            )
        )
        assert hierarchy_speedup >= HIERARCHY_SPEEDUP_MIN, (
            "cold hierarchy open %.1f ms is only %.1fx faster than the "
            "jsonl rebuild %.1f ms (gate %.1fx)"
            % (
                cold["hierarchy_arrays_s"] * 1e3,
                hierarchy_speedup,
                cold["hierarchy_jsonl_s"] * 1e3,
                HIERARCHY_SPEEDUP_MIN,
            )
        )
        assert cold["active_tree_new_s"] <= ACTIVE_TREE_BUDGET_S, (
            "ActiveTree construction %.3f ms over the %d-node cold tree "
            "exceeds the %.1f ms budget"
            % (
                cold["active_tree_new_s"] * 1e3,
                cold["tree_size"],
                ACTIVE_TREE_BUDGET_S * 1e3,
            )
        )
        OUTPUT.write_text(json.dumps(rows, indent=2) + "\n")
