"""Serving bench — closed-loop load generation against ServingRuntime.

A fleet of client threads drives the mixed interactive workload the
paper's deployment serves (search, view, EXPAND/BACKTRACK, SHOWRESULTS)
with Zipf-skewed popularity over the Table I keywords — a few hot
queries dominate, exactly the regime the single-flight tree cache and
the shared decision cache exist for.  The runtime simulates the
deployed system's per-request Entrez round-trip (``backend_latency``),
so request handling is I/O-bound and more admission slots (``workers``,
requests running at once on the client threads) overlap the waits; the
bench runs the identical workload at 1 worker and 4 workers and gates:

* throughput scaling ≥ 2.5x from 1 → 4 workers on the cached-query
  mixed workload;
* zero lost sessions — every session id handed out still answers at
  the end of the run;
* zero shed requests (the queue is sized for the offered load).

``SERVE_BENCH_SMOKE=1`` runs a reduced load for CI smoke (asserts the
no-shed/no-lost invariants only; does not gate scaling or rewrite the
JSON).  The full run writes ``BENCH_serving.json`` at the repository
root so the measured margin is versioned alongside the code.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path

from repro.bionav import BioNav
from repro.serving import ServingRuntime

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

SMOKE = os.environ.get("SERVE_BENCH_SMOKE") == "1"

CLIENTS = 4 if SMOKE else 8
ITERATIONS = 4 if SMOKE else 40
WORKER_COUNTS = (2,) if SMOKE else (1, 4)
BACKEND_LATENCY = 0.004
SCALING_FLOOR = 2.5
ZIPF_EXPONENT = 1.1
SEED = 7


def zipf_keywords(keywords, count: int, seed: int):
    """``count`` keyword picks, popularity ~ 1/rank^s (deterministic)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(keywords))]
    return rng.choices(list(keywords), weights=weights, k=count)


class ClientStats:
    """One client thread's tally (written single-threaded, read after join)."""

    def __init__(self) -> None:
        self.ops = 0
        self.sessions = []
        self.errors = []


def run_client(runtime: ServingRuntime, keywords, stats: ClientStats, start):
    """Closed loop: search, view, EXPAND, BACKTRACK, periodic SHOWRESULTS."""
    start.wait()
    for turn, keyword in enumerate(keywords):
        try:
            opened = runtime.search(keyword)
            stats.sessions.append(opened.session)
            stats.ops += 1
            view = runtime.view(opened.session)
            stats.ops += 1
            root = view.rows[0].node
            runtime.expand(opened.session, root)
            runtime.backtrack(opened.session)
            stats.ops += 2
            if turn % 4 == 0:
                runtime.results(opened.session, root)
                stats.ops += 1
        except Exception as exc:  # noqa: BLE001 - tallied, then failed loudly
            stats.errors.append(repr(exc))
            return


def run_load(
    bionav: BioNav,
    workers: int,
    keywords,
    backend_latency: float = BACKEND_LATENCY,
) -> dict:
    """One closed-loop run; returns the measured row."""
    runtime = ServingRuntime(
        bionav,
        tree_cache_size=32,
        max_sessions=CLIENTS * ITERATIONS + 8,
        workers=workers,
        max_queue=4 * CLIENTS * len(WORKER_COUNTS) + 64,
        backend_latency=backend_latency,
    )
    try:
        for keyword in keywords:  # warm trees: the cached-query regime
            runtime.search(keyword)
        plans = [
            zipf_keywords(keywords, ITERATIONS, SEED + 100 * workers + c)
            for c in range(CLIENTS)
        ]
        stats = [ClientStats() for _ in range(CLIENTS)]
        start = threading.Event()
        threads = [
            threading.Thread(
                target=run_client, args=(runtime, plans[c], stats[c], start)
            )
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        start.set()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        errors = [e for s in stats for e in s.errors]
        assert not errors, "client requests failed: %s" % errors[:3]
        sessions = [sid for s in stats for sid in s.sessions]
        lost = [sid for sid in sessions if not _answers(runtime, sid)]
        snapshot = runtime.stats()
        ops = sum(s.ops for s in stats)
        return {
            "workers": workers,
            "backend_latency_s": backend_latency,
            "clients": CLIENTS,
            "iterations": ITERATIONS,
            "ops": ops,
            "seconds": elapsed,
            "throughput_rps": ops / elapsed,
            "sessions_opened": len(sessions),
            "sessions_lost": len(lost),
            "shed": snapshot["serving"]["shed"]["total"],
            "cache_hit_ratio": snapshot["pipeline"]["nav_tree"]["hit_ratio"],
            "single_flight_coalesced": snapshot["pipeline"]["nav_tree"]["coalesced"],
        }
    finally:
        runtime.close()


def _answers(runtime: ServingRuntime, sid: str) -> bool:
    try:
        runtime.view(sid)
        return True
    except KeyError:
        return False


def test_serving_throughput_scaling(workload, report, benchmark):
    bionav = BioNav(workload.database, workload.entrez)
    keywords = [built.spec.keyword for built in workload.queries]

    def measure():
        return [run_load(bionav, workers, keywords) for workers in WORKER_COUNTS]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "",
        "=" * 78,
        "SERVING — closed-loop mixed workload (%d clients, Zipf queries)" % CLIENTS,
        "=" * 78,
        "%8s %8s %10s %12s %8s %8s %10s"
        % ("workers", "ops", "seconds", "rps", "shed", "lost", "hit ratio"),
        "-" * 78,
    ]
    for row in rows:
        lines.append(
            "%8d %8d %10.2f %12.1f %8d %8d %9.1f%%"
            % (
                row["workers"],
                row["ops"],
                row["seconds"],
                row["throughput_rps"],
                row["shed"],
                row["sessions_lost"],
                100.0 * row["cache_hit_ratio"],
            )
        )
    lines.append("-" * 78)
    for row in rows:
        assert row["shed"] == 0, "requests shed at %d workers" % row["workers"]
        assert row["sessions_lost"] == 0, (
            "%d sessions lost at %d workers"
            % (row["sessions_lost"], row["workers"])
        )
    if SMOKE:
        report("\n".join(lines + ["(smoke run: scaling gate skipped)"]))
        return
    by_workers = {row["workers"]: row for row in rows}
    scaling = by_workers[4]["throughput_rps"] / by_workers[1]["throughput_rps"]
    lines.append("scaling 1 -> 4 workers: %.2fx (floor %.1fx)" % (scaling, SCALING_FLOOR))
    # The same load with zero backend latency: request handling becomes
    # pure CPU, so the thread pool scales only as far as the GIL lets it.
    # Recorded (not gated) — this ceiling is what the multiprocess
    # cluster (benchmarks/bench_cluster.py) exists to break.
    cpu_rows = [
        run_load(bionav, workers, keywords, backend_latency=0.0)
        for workers in WORKER_COUNTS
    ]
    cpu_by_workers = {row["workers"]: row for row in cpu_rows}
    cpu_scaling = (
        cpu_by_workers[4]["throughput_rps"] / cpu_by_workers[1]["throughput_rps"]
    )
    lines.append(
        "CPU-bound (backend_latency=0) scaling 1 -> 4 workers: %.2fx"
        " (GIL ceiling; not gated)" % cpu_scaling
    )
    report("\n".join(lines))
    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "serving",
                "scaling_floor": SCALING_FLOOR,
                "backend_latency_s": BACKEND_LATENCY,
                "scaling": scaling,
                "rows": rows,
                "cpu_bound": {
                    "backend_latency_s": 0.0,
                    "scaling": cpu_scaling,
                    "rows": cpu_rows,
                },
            },
            indent=2,
        )
        + "\n"
    )
    assert scaling >= SCALING_FLOOR, (
        "throughput scaling %.2fx below the %.1fx floor" % (scaling, SCALING_FLOOR)
    )
    for row in cpu_rows:
        assert row["shed"] == 0 and row["sessions_lost"] == 0, (
            "CPU-bound run shed or lost sessions at %d workers" % row["workers"]
        )
