"""Substrate bench — offline build footprint + cold online latency.

The paper's offline pre-processing pass populated an Oracle MEDLINE
snapshot over ~20 days; the reproduction's substrate builder must do its
scaled-down equivalent in bounded memory and hand the online phase a
store it can answer from cold.  The bench runs the build CLI twice in
subprocesses (so each build's peak RSS is its own) and gates:

* **determinism** — two same-seed builds produce byte-identical
  manifest digests;
* **bounded memory** — build peak RSS stays under ``4x`` the final
  on-disk size plus a fixed interpreter baseline (a builder that
  materializes the corpus as Python objects fails this by an order of
  magnitude at 1M citations);
* **cold latency** — a fresh process opening the directory answers a
  two-concept boolean-AND and builds the navigation tree for the
  result inside the budgets below.

``SUBSTRATE_BENCH_SMOKE=1`` runs the same gates at 20k citations over a
2k-concept hierarchy for CI; the full run (1M citations over the
~48k-concept MeSH-2008 preset) writes ``BENCH_substrate.json`` at the
repository root so the measured margins are versioned with the code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.navigation_tree import NavigationTree
from repro.substrate import MmapStore

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_substrate.json"

SMOKE = os.environ.get("SUBSTRATE_BENCH_SMOKE") == "1"

CITATIONS = 20_000 if SMOKE else 1_000_000
HIERARCHY_SIZE = 2_000 if SMOKE else 0  # 0 = the paper-scale MeSH preset
SEED = 2008

#: RSS gate: build peak < RSS_FACTOR * on-disk bytes + baseline.  The
#: baseline covers the bare interpreter + numpy, which dominates at
#: smoke scale where the directory itself is only a few MB.
RSS_FACTOR = 4.0
RSS_BASELINE_BYTES = 256 * 1024 * 1024

#: Cold-path budgets (fresh MmapStore, untouched page cache).  Set to
#: measured-plus-headroom over the array-native cold path (PR 10) —
#: ~5x the observed full-scale numbers — so a regression back toward
#: per-node Python construction actually fails, instead of hiding
#: under the old placeholder 2s/15s ceilings.
BOOLEAN_AND_BUDGET_S = 0.2
NAV_TREE_BUDGET_S = 1.0
RESULT_CAP = 5_000


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


def pick_query_concepts(out_dir: Path) -> list:
    """Two popular concepts — the selective-AND shape users issue."""
    counts = np.load(out_dir / "concept_counts.npy", mmap_mode="r")
    order = np.argsort(np.asarray(counts))
    return [int(order[-1]), int(order[-3])]


def measure_cold_online(out_dir: Path) -> dict:
    """Open the store fresh and time the first-query path."""
    started = time.perf_counter()
    store = MmapStore.open(str(out_dir))
    open_s = time.perf_counter() - started

    started = time.perf_counter()
    hierarchy = store.hierarchy()
    hierarchy_load_s = time.perf_counter() - started

    concepts = pick_query_concepts(out_dir)
    started = time.perf_counter()
    pmids = store.boolean_and(concepts)
    boolean_and_s = time.perf_counter() - started

    result = [int(p) for p in pmids[:RESULT_CAP]]
    started = time.perf_counter()
    tree = NavigationTree.from_store(hierarchy, store, result)
    nav_tree_s = time.perf_counter() - started

    return {
        "open_s": open_s,
        "hierarchy_load_s": hierarchy_load_s,
        "query_concepts": concepts,
        "result_size": int(pmids.size),
        "tree_size": tree.size(),
        "boolean_and_s": boolean_and_s,
        "nav_tree_s": nav_tree_s,
    }


def test_substrate_build_and_cold_query(tmp_path_factory, report, benchmark):
    base = tmp_path_factory.mktemp("substrate-bench")

    def measure():
        first = run_build(base / "a")
        second = run_build(base / "b")
        online = measure_cold_online(base / "a")
        return first, second, online

    first, second, online = benchmark.pedantic(measure, rounds=1, iterations=1)

    rss_ceiling = RSS_FACTOR * first["disk_bytes"] + RSS_BASELINE_BYTES
    rows = {
        "benchmark": "substrate",
        "smoke": SMOKE,
        "citations": first["citations"],
        "pairs": first["pairs"],
        "concepts": first["concepts"],
        "digest": first["digest"],
        "digest_second_build": second["digest"],
        "build_elapsed_s": first["elapsed_s"],
        "build_max_rss_bytes": first["max_rss_bytes"],
        "disk_bytes": first["disk_bytes"],
        "rss_factor": RSS_FACTOR,
        "rss_baseline_bytes": RSS_BASELINE_BYTES,
        "rss_ceiling_bytes": int(rss_ceiling),
        "cold": online,
        "budgets": {
            "boolean_and_s": BOOLEAN_AND_BUDGET_S,
            "nav_tree_s": NAV_TREE_BUDGET_S,
        },
    }

    report(
        "\n"
        + "=" * 78
        + "\nSUBSTRATE — streaming build + cold mmap query (%s citations)"
        % format(first["citations"], ",")
        + "\n"
        + "=" * 78
        + "\n%-34s %12.1f s" % ("offline build", first["elapsed_s"])
        + "\n%-34s %9.1f MB  (disk %0.1f MB, ceiling %0.1f MB)"
        % (
            "build peak RSS",
            first["max_rss_bytes"] / 1e6,
            first["disk_bytes"] / 1e6,
            rss_ceiling / 1e6,
        )
        + "\n%-34s %12s" % ("same-seed digests equal", first["digest"] == second["digest"])
        + "\n%-34s %12.3f s" % ("cold store open", online["open_s"])
        + "\n%-34s %12.3f s" % ("cold hierarchy load", online["hierarchy_load_s"])
        + "\n%-34s %12.3f s  (%d hits)"
        % ("cold boolean-AND", online["boolean_and_s"], online["result_size"])
        + "\n%-34s %12.3f s  (%d nodes)"
        % ("cold navigation tree", online["nav_tree_s"], online["tree_size"])
        + "\n"
        + "=" * 78
    )

    # Determinism gate: byte-identical manifests across same-seed builds.
    assert first["digest"] == second["digest"]
    # Bounded-memory gate.
    assert first["max_rss_bytes"] < rss_ceiling, (
        "build RSS %.1f MB exceeds %.1f MB ceiling"
        % (first["max_rss_bytes"] / 1e6, rss_ceiling / 1e6)
    )
    # Cold-latency gates.
    assert online["boolean_and_s"] < BOOLEAN_AND_BUDGET_S
    assert online["nav_tree_s"] < NAV_TREE_BUDGET_S
    assert online["result_size"] > 0 and online["tree_size"] > 1

    if not SMOKE:
        OUTPUT.write_text(json.dumps(rows, indent=2) + "\n")
