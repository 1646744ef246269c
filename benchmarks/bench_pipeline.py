"""Staged-pipeline cache benchmark: cold builds vs warm stage hits.

The refactor's performance claim is that the expensive navigation-tree
stage runs once per query and every later session is a cache hit: a
``nav_tree()`` call on a warm pipeline must cost at least
``HIT_SPEEDUP_FLOOR``× less than the cold build it replaces (in
practice the gap is orders of magnitude — a hit is a locked dict
lookup).  The gate measures the whole Table I workload on the
benchmark-scale hierarchy, so the cold side includes annotation
harvesting, tree embedding, and probability estimation.

Results are written to ``BENCH_pipeline.json`` at the repository root so
the measured margin is versioned alongside the code it certifies.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.pipeline.pipeline import NavigationPipeline

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

WARM_REPEATS = 5
HIT_SPEEDUP_FLOOR = 2.0


def measure(workload):
    pipeline = NavigationPipeline(workload.database, workload.entrez)
    keywords = [built.spec.keyword for built in workload.queries]
    rows = []
    for keyword in keywords:
        started = time.perf_counter()
        cold_artifact = pipeline.nav_tree(keyword)
        cold_s = time.perf_counter() - started
        warm_best = float("inf")
        for _ in range(WARM_REPEATS):
            started = time.perf_counter()
            warm_artifact = pipeline.nav_tree(keyword)
            warm_best = min(warm_best, time.perf_counter() - started)
        assert warm_artifact is cold_artifact, "warm hit must reuse the artifact"
        rows.append(
            {
                "query": keyword,
                "tree_nodes": cold_artifact.tree.size(),
                "cold_ms": cold_s * 1000.0,
                "warm_ms": warm_best * 1000.0,
                "speedup": cold_s / warm_best if warm_best > 0 else float("inf"),
            }
        )
    stats = pipeline.cache.snapshot()
    return rows, stats


def test_pipeline_tree_stage_cache_speedup(workload, report, benchmark):
    rows, stats = benchmark.pedantic(
        lambda: measure(workload), rounds=1, iterations=1
    )
    cold_total = sum(row["cold_ms"] for row in rows)
    warm_total = sum(row["warm_ms"] for row in rows)
    overall = cold_total / warm_total if warm_total > 0 else float("inf")
    lines = [
        "",
        "=" * 72,
        "STAGED PIPELINE — nav-tree stage: cold build vs warm cache hit",
        "=" * 72,
        "%-22s %8s %12s %12s %10s"
        % ("query", "nodes", "cold ms", "warm ms", "speedup"),
        "-" * 72,
    ]
    for row in rows:
        lines.append(
            "%-22s %8d %12.3f %12.4f %9.0fx"
            % (
                row["query"],
                row["tree_nodes"],
                row["cold_ms"],
                row["warm_ms"],
                row["speedup"],
            )
        )
    lines.append("-" * 72)
    lines.append(
        "total: cold %.2f ms, warm %.4f ms, overall %.0fx (floor %.1fx)"
        % (cold_total, warm_total, overall, HIT_SPEEDUP_FLOOR)
    )
    report("\n".join(lines))

    nav_stats = stats["nav_tree"]
    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "pipeline",
                "hit_speedup_floor": HIT_SPEEDUP_FLOOR,
                "warm_repeats": WARM_REPEATS,
                "cold_ms_total": cold_total,
                "warm_ms_total": warm_total,
                "overall_speedup": overall,
                "nav_tree_stage": {
                    "builds": nav_stats["builds"],
                    "hits": nav_stats["hits"],
                    "misses": nav_stats["misses"],
                    "build_ms_avg": nav_stats["build_ms_avg"],
                },
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )

    assert nav_stats["builds"] == len(rows), "each query builds exactly once"
    assert nav_stats["hits"] == len(rows) * WARM_REPEATS
    assert overall >= HIT_SPEEDUP_FLOOR, (
        "warm nav-tree hits must be at least %.1fx faster than cold builds "
        "(measured %.1fx)" % (HIT_SPEEDUP_FLOOR, overall)
    )
