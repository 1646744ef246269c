"""Cluster bench — closed-loop Zipf load against the multiprocess fleet.

The single-process serving bench scales only because its simulated
Entrez latency is I/O: with ``backend_latency=0`` the GIL caps a
thread-pool runtime near 1x no matter how many workers it has (the
CPU-bound rows in ``BENCH_serving.json`` record that ceiling).  This
bench drives the same mixed interactive workload (search, view,
EXPAND/BACKTRACK, periodic SHOWRESULTS; Zipf-skewed keyword popularity)
against :class:`repro.cluster.BioNavCluster` — worker *processes*, one
``ServingRuntime`` each, sharing stage artifacts through the
file-backed L2 — and gates what the GIL forbids in-process:

* throughput scaling ≥ 2.5x from 1 → 4 worker processes on CPU-bound
  (zero backend-latency) load;
* zero lost sessions — every cluster session id handed out still
  answers at the end of the run — and zero shed requests;
* a warm cross-worker L2 hit: a navigation tree built by worker 0 is
  fetched, not rebuilt, by worker 1 (its nav_tree stage-row deltas prove it).

``CLUSTER_BENCH_SMOKE=1`` runs a reduced 2-worker load for CI smoke
(asserts the no-shed/no-lost and L2 invariants only; does not gate
scaling or rewrite the JSON).  The full run writes ``BENCH_cluster.json``
at the repository root so the measured margin is versioned with the code.

The scaling *gate* is enforced only on machines with >= 4 CPU cores:
1 -> 4 process scaling needs 4 cores to exist, and on a smaller box the
processes time-slice one core, so the measured ratio reflects L2 file
I/O overlap rather than the CPU parallelism under test.  The rows and
ratio are measured and recorded either way, with ``cpu_count`` and
``scaling_gate_enforced`` in the JSON, so the committed trajectory is
honest about the environment it came from.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro.bionav import BioNav
from repro.cluster import BioNavCluster, ClusterConfig
from repro.serving.sessions import SessionExpired

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

SMOKE = os.environ.get("CLUSTER_BENCH_SMOKE") == "1"

CLIENTS = 4 if SMOKE else 8
ITERATIONS = 3 if SMOKE else 25
WORKER_COUNTS = (2,) if SMOKE else (1, 4)
SCALING_FLOOR = 2.5
#: Cores needed for the 1 -> 4 process scaling gate to be physically
#: meaningful (see the module docstring).
SCALING_GATE_MIN_CORES = 4
ZIPF_EXPONENT = 1.1
SEED = 7

#: Minimal per-stage L1 so alternating queries miss in-process and every
#: search exercises rebuild-or-L2-fetch work in the workers (~10-15ms of
#: CPU each at the bench hierarchy size — the work the cluster exists to
#: parallelize), not just in-memory cache reads.
TREE_CACHE_SIZE = 1


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


def run_client(cluster: BioNavCluster, keywords, stats: ClientStats, start):
    """Closed loop: search, view, EXPAND, BACKTRACK, periodic SHOWRESULTS."""
    start.wait()
    for turn, keyword in enumerate(keywords):
        try:
            opened = cluster.search(keyword)
            stats.sessions.append(opened.session)
            stats.ops += 1
            view = cluster.view(opened.session)
            stats.ops += 1
            root = view.rows[0].node
            cluster.expand(opened.session, root)
            cluster.backtrack(opened.session)
            stats.ops += 2
            if turn % 4 == 0:
                cluster.results(opened.session, root)
                stats.ops += 1
        except Exception as exc:  # noqa: BLE001 - tallied, then failed loudly
            stats.errors.append(repr(exc))
            return


def demo_cross_worker_l2(cluster: BioNavCluster, keyword: str) -> dict:
    """Prove the warm cross-worker hit on a cold fleet.

    Drive the same query through worker 0 then worker 1 directly and
    read worker 1's nav_tree stage row: its navigation tree must arrive
    via L2 fetch (``l2_hits`` grows) with zero local ``builds``.
    """
    def nav_tree_row() -> dict:
        return cluster.stats()["workers"][1]["stats"]["pipeline"]["nav_tree"]

    before = nav_tree_row()
    cluster._supervisor.call(0, "search", {"query": keyword})
    cluster._supervisor.call(1, "search", {"query": keyword})
    after = nav_tree_row()
    return {
        "keyword": keyword,
        "l2_hits_delta": after["l2_hits"] - before["l2_hits"],
        "builds_delta": after["builds"] - before["builds"],
    }


def run_load(bionav: BioNav, workers: int, keywords) -> dict:
    """One closed-loop run against a fresh fleet; returns the measured row."""
    cache_dir = tempfile.mkdtemp(prefix="bionav-bench-l2-")
    config = ClusterConfig(
        workers=workers,
        cache_dir=cache_dir,
        runtime={
            "tree_cache_size": TREE_CACHE_SIZE,
            "max_sessions": CLIENTS * ITERATIONS + 8,
            "max_queue": 8 * CLIENTS + 64,
            "backend_latency": 0.0,
        },
    )
    cluster = BioNavCluster(bionav, config)
    try:
        l2_demo = (
            demo_cross_worker_l2(cluster, keywords[0]) if workers >= 2 else None
        )
        for keyword in keywords:  # warm the shared L2 store
            cluster.search(keyword)
        plans = [
            zipf_keywords(keywords, ITERATIONS, SEED + 100 * workers + c)
            for c in range(CLIENTS)
        ]
        stats = [ClientStats() for _ in range(CLIENTS)]
        start = threading.Event()
        threads = [
            threading.Thread(
                target=run_client, args=(cluster, plans[c], stats[c], start)
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
        lost = [sid for sid in sessions if not _answers(cluster, sid)]
        snapshot = cluster.stats()
        ops = sum(s.ops for s in stats)
        row = {
            "workers": workers,
            "clients": CLIENTS,
            "iterations": ITERATIONS,
            "ops": ops,
            "seconds": elapsed,
            "throughput_rps": ops / elapsed,
            "sessions_opened": len(sessions),
            "sessions_lost": len(lost),
            "shed": snapshot["cluster"]["shed_total"],
            "crashes": snapshot["cluster"]["crashes"],
            "l2_hits": snapshot["l2"]["hits"],
            "l2_publishes": snapshot["l2"]["publishes"],
        }
        if l2_demo is not None:
            row["l2_cross_worker"] = l2_demo
        return row
    finally:
        cluster.close()
        shutil.rmtree(cache_dir, ignore_errors=True)


def _answers(cluster: BioNavCluster, sid: str) -> bool:
    try:
        cluster.view(sid)
        return True
    except (KeyError, SessionExpired):
        return False


def test_cluster_throughput_scaling(workload, report, benchmark):
    bionav = BioNav(workload.database, workload.entrez)
    keywords = [built.spec.keyword for built in workload.queries]

    def measure():
        return [run_load(bionav, workers, keywords) for workers in WORKER_COUNTS]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "",
        "=" * 78,
        "CLUSTER — closed-loop mixed workload, CPU-bound (%d clients, Zipf)"
        % CLIENTS,
        "=" * 78,
        "%8s %8s %10s %12s %8s %8s %10s"
        % ("procs", "ops", "seconds", "rps", "shed", "lost", "l2 hits"),
        "-" * 78,
    ]
    for row in rows:
        lines.append(
            "%8d %8d %10.2f %12.1f %8d %8d %10d"
            % (
                row["workers"],
                row["ops"],
                row["seconds"],
                row["throughput_rps"],
                row["shed"],
                row["sessions_lost"],
                row["l2_hits"],
            )
        )
    lines.append("-" * 78)
    for row in rows:
        assert row["shed"] == 0, "requests shed at %d workers" % row["workers"]
        assert row["sessions_lost"] == 0, (
            "%d sessions lost at %d workers"
            % (row["sessions_lost"], row["workers"])
        )
        assert row["crashes"] == 0, "workers crashed under load"
        demo = row.get("l2_cross_worker")
        if demo is not None:
            assert demo["l2_hits_delta"] >= 1, "no cross-worker L2 fetch"
            assert demo["builds_delta"] == 0, "worker 1 rebuilt a shared tree"
    if SMOKE:
        report("\n".join(lines + ["(smoke run: scaling gate skipped)"]))
        return
    cores = os.cpu_count() or 1
    gate = cores >= SCALING_GATE_MIN_CORES
    by_workers = {row["workers"]: row for row in rows}
    scaling = by_workers[4]["throughput_rps"] / by_workers[1]["throughput_rps"]
    lines.append(
        "scaling 1 -> 4 processes: %.2fx (floor %.1fx, %d cores%s)"
        % (
            scaling,
            SCALING_FLOOR,
            cores,
            "" if gate else "; gate skipped, needs %d" % SCALING_GATE_MIN_CORES,
        )
    )
    report("\n".join(lines))
    OUTPUT.write_text(
        json.dumps(
            {
                "benchmark": "cluster",
                "scaling_floor": SCALING_FLOOR,
                "backend_latency_s": 0.0,
                "scaling": scaling,
                "cpu_count": cores,
                "scaling_gate_enforced": gate,
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )
    if gate:
        assert scaling >= SCALING_FLOOR, (
            "throughput scaling %.2fx below the %.1fx floor"
            % (scaling, SCALING_FLOOR)
        )
