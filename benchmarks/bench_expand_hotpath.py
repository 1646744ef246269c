"""EXPAND hot path — warm-serving EXPAND p99 under closed-loop load.

After a warm-up pass populates the pipeline's cut-stage cache of a
:class:`~repro.serving.ServingRuntime` (bench_serving's shape, zero
simulated backend latency so the measurement is the compute path), two
phases run, gated and written to ``BENCH_expand_hotpath.json`` at the
repository root:

* a concurrent client fleet drives search/EXPAND/BACKTRACK loops.
  Gate: the cut stage records **zero new misses** — every EXPAND of the
  storm is answered from the cache, i.e. the runtime actually serves
  warm under load.  Client-observed request latency is reported for
  context only: it adds view rendering, queue waits and GIL preemption
  across the request threads (at the default 5 ms switch interval a 0.2 ms
  decision can be descheduled for tens of milliseconds under 4
  CPU-bound threads), none of which is the decision path gated here.
* a solo probe client then replays warm EXPANDs with the runtime idle.
  The runtime's metrics registry records every EXPAND decision in its
  ``solver.decision_seconds`` histogram; the histogram's growth between
  a snapshot before and one after the probe is exactly the probe's warm
  decisions.  Gate: warm per-EXPAND decision p99 below one millisecond.
  The quantiles read bucket upper bounds, so they never read lower than
  the exact nearest-rank value (and at most ~19% higher).
"""

from __future__ import annotations

import gc
import json
import random
import threading
import time
from pathlib import Path

from repro.bionav import BioNav
from repro.obs import histogram, quantile
from repro.serving import ServingRuntime

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_expand_hotpath.json"

CLIENTS = 4
ITERATIONS = 25
PROBE_EXPANDS = 300
P99_FLOOR_MS = 1.0
DECISIONS = "solver.decision_seconds"


def decisions_between(before: dict, after: dict) -> dict:
    """The decision histogram of the EXPANDs between two snapshots.

    Its ``max`` is the all-time maximum, an upper bound the quantiles
    are capped at.
    """
    old, new = histogram(before, DECISIONS), histogram(after, DECISIONS)
    return {
        "count": new["count"] - old["count"],
        "sum": new["sum"] - old["sum"],
        "max": new["max"],
        "buckets": [b - a for a, b in zip(old["buckets"], new["buckets"])],
    }


def run_serving_measurement(workload) -> dict:
    bionav = BioNav(workload.database, workload.entrez)
    keywords = [built.spec.keyword for built in workload.queries]
    runtime = ServingRuntime(
        bionav,
        tree_cache_size=32,
        max_sessions=CLIENTS * ITERATIONS + PROBE_EXPANDS + len(keywords) + 16,
        workers=CLIENTS,
        max_queue=8 * CLIENTS + 64,
        backend_latency=0.0,
    )
    try:
        # Warm-up: build every tree and populate the cut-stage cache for
        # the root expansion every client below replays.
        for keyword in keywords:
            opened = runtime.search(keyword)
            view = runtime.view(opened.session)
            root = view.rows[0].node
            runtime.expand(opened.session, root)
            runtime.backtrack(opened.session)
        warm_misses = runtime.stats()["pipeline"]["cut"]["misses"]

        # Phase A — concurrent fleet: prove the cut cache serves the
        # whole storm (zero new misses) and report what clients observe.
        latencies = [[] for _ in range(CLIENTS)]
        errors = []

        def client(index: int) -> None:
            rng = random.Random(4000 + index)
            try:
                for _ in range(ITERATIONS):
                    keyword = rng.choice(keywords)
                    opened = runtime.search(keyword)
                    view = runtime.view(opened.session)
                    root = view.rows[0].node
                    started = time.perf_counter()
                    runtime.expand(opened.session, root)
                    latencies[index].append(time.perf_counter() - started)
                    runtime.backtrack(opened.session)
            except Exception as exc:  # noqa: BLE001 - tallied, failed loudly
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, "client requests failed: %s" % errors[:3]
        fleet_misses = (
            runtime.stats()["pipeline"]["cut"]["misses"] - warm_misses
        )

        requests = sorted(value for batch in latencies for value in batch)
        assert requests, "no EXPAND latencies recorded"

        # Phase B — solo probe: warm per-EXPAND decision latency with the
        # pool idle.  Every decision recorded during the probe is a warm,
        # cut-cache-served decision.  The cyclic collector is
        # paused for the probe (standard latency-bench hygiene): a GC
        # pause landing inside the timed decision would charge the
        # allocator, not the §IV evaluation path this gate certifies.
        before = runtime.metrics.snapshot()
        rng = random.Random(4999)
        gc.collect()
        gc.disable()
        try:
            for _ in range(PROBE_EXPANDS):
                keyword = rng.choice(keywords)
                opened = runtime.search(keyword)
                view = runtime.view(opened.session)
                runtime.expand(opened.session, view.rows[0].node)
                runtime.backtrack(opened.session)
        finally:
            gc.enable()
        decisions = decisions_between(before, runtime.metrics.snapshot())
        assert decisions["count"] == PROBE_EXPANDS, (
            "registry recorded %d decisions for %d probe EXPANDs"
            % (decisions["count"], PROBE_EXPANDS)
        )

        def percentile(series, q: float) -> float:
            rank = int(round((q / 100.0) * (len(series) - 1)))
            return series[rank]

        return {
            "clients": CLIENTS,
            "iterations": ITERATIONS,
            "fleet_expands": len(requests),
            "fleet_new_cut_misses": fleet_misses,
            "request_p50_ms": percentile(requests, 50) * 1000.0,
            "request_p99_ms": percentile(requests, 99) * 1000.0,
            "probe_expands": PROBE_EXPANDS,
            "warm_decision_p50_ms": quantile(decisions, 0.50) * 1000.0,
            "warm_decision_p95_ms": quantile(decisions, 0.95) * 1000.0,
            "warm_decision_p99_ms": quantile(decisions, 0.99) * 1000.0,
            "warm_decision_max_ms": quantile(decisions, 1.0) * 1000.0,
            "p99_floor_ms": P99_FLOOR_MS,
        }
    finally:
        runtime.close()


# ----------------------------------------------------------------------
def test_expand_hotpath(workload, report, benchmark):
    serving = benchmark.pedantic(
        run_serving_measurement, args=(workload,), rounds=1, iterations=1
    )
    lines = [
        "",
        "=" * 74,
        "EXPAND HOT PATH — warm serving p99",
        "=" * 74,
        "fleet (%d clients x %d iters): %d EXPANDs, %d new cut misses "
        "(gated zero); request p50 %.3f ms / p99 %.3f ms (view render + "
        "queueing + GIL, context only)"
        % (
            serving["clients"],
            serving["iterations"],
            serving["fleet_expands"],
            serving["fleet_new_cut_misses"],
            serving["request_p50_ms"],
            serving["request_p99_ms"],
        ),
        "warm EXPAND decision (solo probe, %d expands): p50 %.3f ms  "
        "p95 %.3f ms  p99 %.3f ms  max %.3f ms (floor %.1f ms)"
        % (
            serving["probe_expands"],
            serving["warm_decision_p50_ms"],
            serving["warm_decision_p95_ms"],
            serving["warm_decision_p99_ms"],
            serving["warm_decision_max_ms"],
            serving["p99_floor_ms"],
        ),
    ]
    report("\n".join(lines))
    OUTPUT.write_text(
        json.dumps({"benchmark": "expand_hotpath", "serving": serving}, indent=2)
        + "\n"
    )
    assert serving["fleet_new_cut_misses"] == 0, (
        "%d cut-stage misses during the warm fleet phase — the storm was "
        "not served from cache" % serving["fleet_new_cut_misses"]
    )
    assert serving["warm_decision_p99_ms"] < P99_FLOOR_MS, (
        "warm EXPAND decision p99 %.3f ms at or above the %.1f ms floor"
        % (serving["warm_decision_p99_ms"], P99_FLOOR_MS)
    )
