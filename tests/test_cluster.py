"""Tests for ``repro.cluster``: L2 stage cache, fleet serving.

Covers the three layers of the scale-out subsystem bottom-up: the
cross-process content-addressed store
(:class:`ClusterStageCache`) and its L2 hook inside
:class:`~repro.pipeline.cache.StageCache`, the worker fleet
(supervised spawn / crash / respawn), and the
:class:`~repro.cluster.router.BioNavCluster` facade end to end —
including the WSGI app mounted over a cluster and the 410-after-respawn
session contract.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import pytest

from repro.bionav import BioNav
from repro.cluster import BioNavCluster, ClusterConfig, ClusterStageCache
from repro.cluster import stagecache
from repro.cluster.stagecache import MISS
from repro.core.edgecut import Component
from repro.core.heuristic import HeuristicReducedOpt
from repro.core.strategy import CutDecision
from repro.pipeline import artifacts
from repro.pipeline.artifacts import CutPlan
from repro.pipeline.pipeline import NavigationPipeline
from repro.pipeline.stages import CutStage, params_key
from repro.pipeline.cache import StageCache
from repro.obs import Metrics
from repro.serving.dispatcher import DeadlineExceeded
from repro.serving.runtime import ServingRuntime, render_stats
from repro.serving.sessions import SessionExpired
from repro.web.app import BioNavWebApp

KEY_A = "a" * 40
KEY_B = "b" * 40
KEY_C = "c" * 40


def request_page(
    app: BioNavWebApp, path: str, query: Optional[Dict[str, str]] = None
) -> Tuple[str, Dict[str, str], str]:
    """Drive the WSGI callable; returns (status, headers, body)."""
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path,
        "QUERY_STRING": urlencode(query or {}),
    }
    captured: Dict[str, object] = {}

    def start_response(status: str, headers: List[Tuple[str, str]]) -> None:
        captured["status"] = status
        captured["headers"] = dict(headers)

    body = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], body.decode("utf-8")


# ----------------------------------------------------------------------
# The file-backed L2 store
# ----------------------------------------------------------------------
def counters(store: ClusterStageCache) -> Dict[str, float]:
    return store.metrics.snapshot()["counters"]


class TestClusterStageCache:
    def test_roundtrip_and_miss(self, tmp_path):
        store = ClusterStageCache(tmp_path)
        assert store.get("nav_tree", KEY_A) is MISS
        assert store.put("nav_tree", KEY_A, {"value": 1})
        assert store.get("nav_tree", KEY_A) == {"value": 1}
        assert store.census()["entries"] == 1
        # Lookups are counted by the consumer (StageCache), once each.
        assert counters(store) == {}

    def test_unpicklable_value_is_skipped_not_raised(self, tmp_path):
        store = ClusterStageCache(tmp_path)
        assert not store.put("nav_tree", KEY_A, lambda: None)
        assert counters(store) == {"l2.errors": 1}

    def test_corrupt_entry_is_deleted_and_reported_as_miss(self, tmp_path):
        store = ClusterStageCache(tmp_path)
        store.put("nav_tree", KEY_A, [1, 2, 3])
        path = store._entry_path("nav_tree", KEY_A)
        path.write_bytes(b"not a pickle")
        assert store.get("nav_tree", KEY_A) is MISS
        assert not path.exists()
        assert counters(store) == {"l2.errors": 1}

    def test_entry_naming_a_missing_module_is_a_miss(self, tmp_path):
        # An entry written by an older build can pickle a class whose
        # module no longer exists; reading it must miss, not raise.
        store = ClusterStageCache(tmp_path)
        store.put("nav_tree", KEY_A, [1, 2, 3])
        path = store._entry_path("nav_tree", KEY_A)
        path.write_bytes(b"crepro_removed_module_for_l2_test\nGone\n.")
        assert store.get("nav_tree", KEY_A) is MISS
        assert not path.exists()
        assert counters(store) == {"l2.errors": 1}

    def test_entry_published_under_another_key_version_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        store = ClusterStageCache(tmp_path)
        current = artifacts.content_key("cut", "component")
        older = artifacts.KEY_FORMAT_VERSION - 1
        monkeypatch.setattr(artifacts, "KEY_FORMAT_VERSION", older)
        monkeypatch.setattr(stagecache, "KEY_FORMAT_VERSION", older)
        stale = artifacts.content_key("cut", "component")
        assert stale != current
        assert store.put("cut", stale, "stale plan")
        # Even a key string the older build happened to share is not read.
        assert store.put("cut", current, "stale plan")
        monkeypatch.undo()
        assert store.get("cut", current) is MISS
        assert store.get("cut", stale) is MISS
        assert store.census()["entries"] == 2

    def test_plan_published_under_another_key_version_is_not_served(
        self, tmp_path, monkeypatch, small_workload
    ):
        store = ClusterStageCache(tmp_path)
        pipeline = NavigationPipeline(
            small_workload.database, small_workload.entrez, l2=store
        )
        nav = pipeline.nav_tree("prothymosin")
        root = Component(nav.tree, nav.tree.root)
        older = artifacts.KEY_FORMAT_VERSION - 1
        monkeypatch.setattr(artifacts, "KEY_FORMAT_VERSION", older)
        monkeypatch.setattr(stagecache, "KEY_FORMAT_VERSION", older)
        stale_key = CutStage.key(
            nav,
            "heuristic",
            params_key(pipeline.params),
            root,
            pipeline.options_key(),
        )
        wrong = CutPlan(
            solver="heuristic",
            root=root.root,
            decision=CutDecision(cut=((root.root, root.root),)),
            content_key=stale_key,
        )
        assert store.put(CutStage.name, stale_key, wrong)
        monkeypatch.undo()
        plan = pipeline.plan_cut(nav, root, "heuristic")
        assert plan.content_key != stale_key
        assert plan.decision.cut != wrong.decision.cut
        assert plan.decision == HeuristicReducedOpt(nav.tree, nav.probs).best_cut(root)

    def test_lru_eviction_by_entry_count(self, tmp_path):
        store = ClusterStageCache(tmp_path, max_entries=2)
        store.put("nav_tree", KEY_A, "a")
        time.sleep(0.02)
        store.put("nav_tree", KEY_B, "b")
        time.sleep(0.02)
        store.get("nav_tree", KEY_A)  # touch: A becomes newest
        time.sleep(0.02)
        store.put("nav_tree", KEY_C, "c")
        assert store.get("nav_tree", KEY_B) is MISS  # oldest went
        assert store.get("nav_tree", KEY_A) == "a"
        assert counters(store)["l2.evictions"] >= 1

    def test_lru_eviction_by_bytes(self, tmp_path):
        store = ClusterStageCache(tmp_path, max_bytes=4096)
        store.put("nav_tree", KEY_A, b"x" * 3000)
        time.sleep(0.02)
        store.put("nav_tree", KEY_B, b"y" * 3000)
        assert store.get("nav_tree", KEY_A) is MISS
        assert store.get("nav_tree", KEY_B) is not MISS
        assert store.census()["bytes"] <= 4096

    def test_build_lock_is_single_flight_with_stale_break(self, tmp_path):
        store = ClusterStageCache(tmp_path, stale_after=0.2)
        with store.build_lock("cut", KEY_A) as lock:
            assert lock.acquired
            with store.build_lock("cut", KEY_A) as second:
                assert not second.acquired  # held by the first
        # A crashed builder's lock (simulated: left on disk, then aged
        # past stale_after) is broken by the next builder.
        lock = store.build_lock("cut", KEY_A)
        lock.__enter__()
        assert lock.acquired
        time.sleep(0.25)
        with store.build_lock("cut", KEY_A) as taker:
            assert taker.acquired  # stale lock broken

    def test_wait_for_returns_published_value_or_times_out(self, tmp_path):
        store = ClusterStageCache(tmp_path)
        assert store.wait_for("nav_tree", KEY_A, timeout=0.05) is MISS
        store.put("nav_tree", KEY_A, "published")
        assert store.wait_for("nav_tree", KEY_A, timeout=0.05) == "published"

    def test_clear_removes_entries(self, tmp_path):
        store = ClusterStageCache(tmp_path)
        store.put("nav_tree", KEY_A, "a")
        store.put("results", KEY_B, "b")
        store.clear()
        assert store.census()["entries"] == 0

    def test_bounds_are_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ClusterStageCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ClusterStageCache(tmp_path, max_bytes=0)


class TestStageCacheL2Hook:
    def test_artifact_published_by_one_cache_is_not_rebuilt_by_another(
        self, tmp_path
    ):
        """Two StageCaches (two 'processes') share one store: the second
        build of a key unpickles the first's publish — the ISSUE's
        never-rebuilt guarantee, here without forking for precision."""
        store_a = ClusterStageCache(tmp_path)
        store_b = ClusterStageCache(tmp_path)
        cache_a = StageCache(l2=store_a)
        cache_b = StageCache(l2=store_b)
        built: List[str] = []

        def builder() -> str:
            built.append("x")
            return "artifact"

        assert cache_a.get_or_build("nav_tree", KEY_A, builder) == "artifact"
        assert cache_b.get_or_build("nav_tree", KEY_A, builder) == "artifact"
        assert built == ["x"], "second cache must fetch, not rebuild"
        a_row = cache_a.snapshot()["nav_tree"]
        b_row = cache_b.snapshot()["nav_tree"]
        assert a_row["l2_misses"] == 1 and a_row["l2_publishes"] == 1
        assert b_row["l2_hits"] == 1 and b_row["builds"] == 0

    def test_lock_loser_waits_for_the_winners_publish(self, tmp_path):
        """When another process holds the build lock, the loser polls
        and picks up the publish instead of building a duplicate."""
        store = ClusterStageCache(tmp_path, stale_after=5.0)
        cache = StageCache(l2=store)
        winner = store.build_lock("nav_tree", KEY_A)
        winner.__enter__()
        try:
            store.put("nav_tree", KEY_A, "from-winner")
            value = cache.get_or_build(
                "nav_tree", KEY_A, lambda: pytest.fail("must not build")
            )
        finally:
            winner.__exit__(None, None, None)
        assert value == "from-winner"
        assert cache.snapshot()["nav_tree"]["l2_hits"] == 1

    def test_coalesced_wait_counts_one_hit(self, tmp_path):
        """A lookup that waits out another process's build is one L2
        hit and no miss — in its stage row and in the ``l2`` block —
        however many times the waiter polls the shared directory."""
        store_a = ClusterStageCache(tmp_path)
        store_b = ClusterStageCache(tmp_path)
        cache_a = StageCache(l2=store_a)
        cache_b = StageCache(l2=store_b, metrics=store_b.metrics)
        building = threading.Event()

        def slow_builder() -> str:
            building.set()  # cache A holds the build lock from here on
            time.sleep(0.2)
            return "artifact"

        winner = threading.Thread(
            target=cache_a.get_or_build, args=("nav_tree", KEY_A, slow_builder)
        )
        winner.start()
        assert building.wait(5)
        value = cache_b.get_or_build(
            "nav_tree", KEY_A, lambda: pytest.fail("must not build")
        )
        winner.join(5)
        assert value == "artifact"
        row = cache_b.snapshot()["nav_tree"]
        assert (row["l2_hits"], row["l2_misses"], row["builds"]) == (1, 0, 0)
        gauges = dict(cache_b.gauges(), l2=store_b.census())
        l2 = render_stats(cache_b.metrics.snapshot(), gauges)["l2"]
        assert (l2["hits"], l2["misses"], l2["publishes"]) == (1, 0, 0)


# ----------------------------------------------------------------------
# The fleet, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster_bionav(small_workload) -> BioNav:
    return BioNav(small_workload.database, small_workload.entrez)


class TestSingleProcessL2:
    def test_runtime_stats_report_a_corrupt_entry(self, cluster_bionav, small_workload, tmp_path):
        """A single-process runtime over an L2 reports the store's own
        counters and census in ``/api/stats``, as a fleet worker does."""
        keyword = small_workload.queries[0].spec.keyword
        with ServingRuntime(cluster_bionav, workers=1, l2=ClusterStageCache(tmp_path)) as first:
            first.search(keyword)
        (entry,) = tmp_path.glob("nav_tree.v*/*/*.pkl")
        entry.write_bytes(b"torn")
        with ServingRuntime(cluster_bionav, workers=1, l2=ClusterStageCache(tmp_path)) as runtime:
            assert runtime.stats()["l2"]["errors"] == 0
            runtime.search(keyword)
            l2 = runtime.stats()["l2"]
        assert (l2["errors"], l2["evictions"]) == (1, 0)
        assert (l2["hits"], l2["misses"], l2["publishes"]) == (1, 1, 1)
        assert l2["entries"] == 2


@pytest.fixture(scope="module")
def keywords(small_workload) -> List[str]:
    return [q.spec.keyword for q in small_workload.queries]


@pytest.fixture(scope="module")
def cluster(cluster_bionav, tmp_path_factory):
    """A 2-worker fleet with a shared L2, reused across the module."""
    config = ClusterConfig(
        workers=2,
        cache_dir=str(tmp_path_factory.mktemp("l2")),
        heartbeat_interval=0.05,
        poll_interval=0.02,
        request_timeout=30.0,
    )
    with BioNavCluster(cluster_bionav, config) as fleet:
        yield fleet


@pytest.fixture()
def fresh_cluster(cluster_bionav, tmp_path):
    """A 2-worker fleet of its own, for tests that count or crash."""
    config = ClusterConfig(
        workers=2,
        cache_dir=str(tmp_path / "l2"),
        heartbeat_interval=0.05,
        poll_interval=0.02,
        request_timeout=30.0,
    )
    with BioNavCluster(cluster_bionav, config) as fleet:
        yield fleet


class TestClusterServing:
    def test_full_session_roundtrip_through_the_fleet(self, cluster, keywords):
        result = cluster.search(keywords[0])
        assert result.session.startswith("w")
        assert "g" in result.session and "-s" in result.session
        assert result.count > 0
        view = cluster.view(result.session)
        assert view.session == result.session
        assert view.rows
        node = next(row.node for row in view.rows if row.expandable)
        expanded = cluster.expand(result.session, node)
        assert len(expanded.rows) > len(view.rows)
        listed = cluster.results(result.session, expanded.rows[0].node)
        assert listed.pmids and listed.session == result.session
        back = cluster.backtrack(result.session)
        assert len(back.rows) == len(view.rows)

    def test_unknown_and_malformed_sids_answer_not_found(self, cluster):
        with pytest.raises(KeyError):
            cluster.view("not-a-cluster-sid")
        with pytest.raises(KeyError):
            cluster.view("w9g0-s000001")  # no such worker slot
        with pytest.raises(KeyError):
            cluster.view("w0g0-s999999")  # never-issued local sid

    def test_consecutive_searches_alternate_workers(self, cluster, keywords):
        """Round-robin: two back-to-back searches land on both workers."""
        first = cluster.search(keywords[1]).session
        second = cluster.search(keywords[1]).session
        assert {first[:2], second[:2]} == {"w0", "w1"}

    def test_cross_worker_l2_hit(self, cluster, keywords):
        """Worker B never rebuilds a navigation tree worker A built:
        drive the same query through both workers directly and read the
        second worker's pipeline ledger."""
        query = keywords[3]  # untouched by the other module-scoped tests
        before = cluster.stats()["workers"][1]["stats"]["pipeline"]["nav_tree"]
        cluster._supervisor.call(0, "search", {"query": query})
        cluster._supervisor.call(1, "search", {"query": query})
        row = cluster.stats()["workers"][1]["stats"]["pipeline"]["nav_tree"]
        assert row["l2_hits"] >= before["l2_hits"] + 1, (
            "worker 1 must fetch, not rebuild"
        )
        assert row["builds"] == before["builds"]
        merged = cluster.stats()
        assert merged["l2"]["hits"] >= 1
        assert merged["l2"]["entries"] >= 1

    def test_merged_health_and_stats_cover_the_fleet(self, cluster):
        health = cluster.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert len(health["shards"]) == 2
        for shard in health["shards"]:
            assert shard["alive"]
            assert "queue_depth" in shard and "respawns" in shard
        stats = cluster.stats()
        assert stats["cluster"]["size"] == 2
        assert len(stats["workers"]) == 2
        assert "hit_ratio" in stats["l2"]

    def test_fleet_queue_depth_sums_the_router_gates(self, cluster, monkeypatch):
        """Each shard row's ``queue_depth`` (and the gate fields of its
        ``health`` answer) is its router gate's depth; the top-level
        ``queue_depth`` sums them.  The workers' own readings are not
        used: a worker admits nothing."""
        probed = [
            (
                {"name": "w%d" % index, "generation": 0, "alive": True,
                 "respawns": 0},
                {"status": "ok", "sessions_active": 1, "queue_depth": 7},
            )
            for index in range(2)
        ]
        monkeypatch.setattr(cluster, "_probe", lambda op: probed)
        gate = cluster._gates[0]
        release = threading.Event()
        holders = [
            threading.Thread(target=lambda: gate.call(release.wait), daemon=True)
            for _ in range(3)
        ]
        for holder in holders:
            holder.start()
        try:
            deadline = time.monotonic() + 5
            while gate.queue_depth < 2:
                assert time.monotonic() < deadline, "gate never queued"
                time.sleep(0.005)
            health = cluster.health()
        finally:
            release.set()
            for holder in holders:
                holder.join(5)
        assert not any(holder.is_alive() for holder in holders)
        assert health["queue_depth"] == 2
        assert [shard["queue_depth"] for shard in health["shards"]] == [2, 0]
        busy = health["shards"][0]["health"]
        assert (busy["workers"], busy["queue_depth"], busy["in_flight"]) == (1, 2, 1)
        assert health["status"] == "ok" and health["sessions_active"] == 2

    def test_merged_stage_timings_are_not_summed(self, cluster, monkeypatch):
        """Two workers reporting the same stage history merge to that
        history's average and slowest build time; only the counts add up."""

        def answer() -> Dict[str, object]:
            metrics = Metrics()
            for seconds in (0.009, 0.001):
                metrics.observe("pipeline.nav_tree.build_seconds", seconds)
            metrics.add("pipeline.nav_tree.hits", 3)
            metrics.add("pipeline.nav_tree.misses", 2)
            gauges = {"pipeline.nav_tree.size": 2, "pipeline.nav_tree.capacity": 8}
            return {"snapshot": metrics.snapshot(), "gauges": dict(gauges, l2=None)}

        probed = [
            (
                {"name": "w%d" % index, "generation": 0, "alive": True,
                 "respawns": 0, "queue_depth": 0},
                answer(),
            )
            for index in range(2)
        ]
        monkeypatch.setattr(cluster, "_probe", lambda op: probed)
        stats = cluster.stats()
        merged = stats["pipeline"]["nav_tree"]
        single = stats["workers"][0]["stats"]["pipeline"]["nav_tree"]
        assert merged["build_ms_avg"] == pytest.approx(5.0)
        assert merged["build_ms_max"] == pytest.approx(9.0)
        assert merged["hit_ratio"] == pytest.approx(single["hit_ratio"]) == 0.6
        assert (merged["builds"], merged["hits"], merged["capacity"]) == (4, 6, 16)
        assert stats["l2"] is None

    def test_wsgi_app_mounts_the_cluster(self, cluster, keywords):
        app = BioNavWebApp(runtime=cluster)
        status, _, body = request_page(app, "/api/search", {"q": keywords[0]})
        assert status == "200 OK"
        sid = json.loads(body)["session"]
        status, _, body = request_page(app, "/api/nav/%s" % sid)
        assert status == "200 OK"
        assert json.loads(body)["rows"]
        status, _, body = request_page(app, "/api/health")
        assert json.loads(body)["workers"] == 2
        status, _, body = request_page(app, "/nav/%s" % sid)
        assert status == "200 OK" and "<ul" in body


class TestFleetStats:
    def test_each_search_counts_one_lookup_per_stage(self, fresh_cluster, keywords):
        """A search looks its result set and navigation tree up once:
        the merged ledger over N searches holds exactly N lookups."""
        queries = (keywords * 2)[:6]
        for query in queries:
            fresh_cluster.search(query)
        pipeline = fresh_cluster.stats()["pipeline"]
        for stage in ("results", "nav_tree"):
            row = pipeline[stage]
            assert row["hits"] + row["misses"] == len(queries), stage

    def test_fleet_solver_block_adds_up_the_workers(self, fresh_cluster, keywords):
        """Each EXPAND is one decision in exactly one worker's histogram,
        so the fleet's ``solver.expands`` is the sum over workers."""
        for query in keywords[:4]:
            sid = fresh_cluster.search(query).session
            fresh_cluster.expand(sid, fresh_cluster.view(sid).rows[0].node)
        stats = fresh_cluster.stats()
        per_worker = [entry["stats"]["solver"] for entry in stats["workers"]]
        assert all(solver["expands"] >= 1 for solver in per_worker)
        assert stats["solver"]["expands"] == sum(s["expands"] for s in per_worker) == 4
        assert stats["solver"]["max_ms"] == max(s["max_ms"] for s in per_worker)
        assert stats["sessions"]["created"] == 4
        assert stats["serving"]["admitted"] >= 12


def fleet_config(tmp_path, **runtime: Any) -> ClusterConfig:
    """A 2-worker test fleet's config with the given runtime options."""
    return ClusterConfig(
        workers=2,
        cache_dir=str(tmp_path / "l2"),
        heartbeat_interval=0.05,
        poll_interval=0.02,
        request_timeout=30.0,
        runtime=runtime,
    )


def count_sends(fleet: BioNavCluster, monkeypatch) -> Tuple[Counter, Counter]:
    """Wrap the fleet's supervisor so every request sent to a worker is
    counted: returns (requests sent per worker, most sent to one worker
    at once and still unanswered).  Health and stats probes bypass the
    gates by design and are not counted."""
    sent: Counter = Counter()
    peak: Counter = Counter()
    open_now: Counter = Counter()
    guard = threading.Lock()
    real = fleet._supervisor.call

    def call(index, op, kwargs=None, timeout=None):
        if op in ("health", "stats"):
            return real(index, op, kwargs, timeout)
        with guard:
            sent[index] += 1
            open_now[index] += 1
            peak[index] = max(peak[index], open_now[index])
        try:
            return real(index, op, kwargs, timeout)
        finally:
            with guard:
                open_now[index] -= 1

    monkeypatch.setattr(fleet._supervisor, "call", call)
    return sent, peak


def concurrently(count: int, request) -> List[Tuple[Any, float]]:
    """Run ``request()`` on ``count`` threads released at once; returns
    each call's (value or raised exception, seconds it took)."""
    gate = threading.Barrier(count)
    outcomes: List[Tuple[Any, float]] = []
    lock = threading.Lock()

    def run() -> None:
        gate.wait()
        started = time.monotonic()
        try:
            value: Any = request()
        except Exception as exc:  # tallied by the caller
            value = exc
        with lock:
            outcomes.append((value, time.monotonic() - started))

    threads = [threading.Thread(target=run, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert len(outcomes) == count
    return outcomes


class TestFleetAdmission:
    """The router admits: one gate per worker, one request in flight."""

    LATENCY = 0.05

    def test_overload_is_shed_at_the_router_with_503(
        self, cluster_bionav, keywords, tmp_path, monkeypatch
    ):
        """20 concurrent searches over 2 serial workers with room for 4
        waiting each: 10 run, the other 10 are answered 503 at once, and
        no worker is ever sent a second request before its first is
        answered."""
        config = fleet_config(tmp_path, backend_latency=self.LATENCY, max_queue=4)
        with BioNavCluster(cluster_bionav, config) as fleet:
            sent, peak = count_sends(fleet, monkeypatch)
            app = BioNavWebApp(runtime=fleet)
            outcomes = concurrently(
                20, lambda: request_page(app, "/api/search", {"q": keywords[0]})
            )
            stats = fleet.stats()
        statuses = Counter(page[0] for page, _ in outcomes)
        assert statuses == {"200 OK": 10, "503 Service Unavailable": 10}
        for (status, headers, body), seconds in outcomes:
            if status.startswith("503"):
                assert json.loads(body)["error_code"] == "overloaded"
                assert headers["Retry-After"] == "1"
                assert seconds < self.LATENCY
        assert peak == {0: 1, 1: 1}
        assert sent == {0: 5, 1: 5}
        serving = stats["serving"]
        assert (serving["admitted"], serving["completed"]) == (10, 10)
        assert serving["shed"] == {"overload": 10, "deadline": 0, "total": 10}
        assert stats["sessions"]["created"] == 10

    def test_request_expired_in_the_router_queue_never_runs(
        self, cluster_bionav, keywords, tmp_path, monkeypatch
    ):
        """With a queueing deadline, a request that expires while it
        waits at the router is answered DeadlineExceeded and never sent:
        the workers open exactly one session per admitted, unexpired
        search."""
        config = fleet_config(
            tmp_path, backend_latency=self.LATENCY, max_queue=4, deadline=0.08
        )
        with BioNavCluster(cluster_bionav, config) as fleet:
            sent, peak = count_sends(fleet, monkeypatch)
            outcomes = concurrently(10, lambda: fleet.search(keywords[1]))
            stats = fleet.stats()
        expired = [v for v, _ in outcomes if isinstance(v, DeadlineExceeded)]
        served = [v for v, _ in outcomes if not isinstance(v, Exception)]
        assert len(expired) + len(served) == 10
        assert expired, "no request waited past the deadline"
        serving = stats["serving"]
        ran = serving["admitted"] - serving["shed"]["deadline"]
        assert serving["admitted"] == 10
        assert serving["shed"]["deadline"] == len(expired)
        assert stats["sessions"]["created"] == ran == len(served)
        assert sum(sent.values()) == ran
        assert serving["completed"] == ran
        assert max(peak.values()) == 1

    def test_serving_counts_each_request_once(self, fresh_cluster, keywords):
        """N requests through the fleet read admitted == completed == N,
        in the fleet block and summed over the workers' drill-down."""
        sid = fresh_cluster.search(keywords[0]).session
        node = fresh_cluster.view(sid).rows[0].node
        fresh_cluster.expand(sid, node)
        fresh_cluster.results(sid, node)
        fresh_cluster.backtrack(sid)
        fresh_cluster.search(keywords[1])
        stats = fresh_cluster.stats()
        serving = stats["serving"]
        assert (serving["admitted"], serving["completed"]) == (6, 6)
        assert serving["shed"]["total"] == 0
        assert (serving["workers"], serving["queue_capacity"]) == (2, 128)
        per_worker = [entry["stats"]["serving"] for entry in stats["workers"]]
        assert [row["admitted"] for row in per_worker] == [5, 1]
        assert all(row["workers"] == 1 for row in per_worker)
        assert fresh_cluster.health()["queue_depth"] == 0

    def test_runtime_workers_other_than_one_is_refused(self):
        """A worker is serial: a ``workers`` setting it cannot honour is
        an error, not silently ignored."""
        with pytest.raises(ValueError):
            ClusterConfig(runtime={"workers": 2})
        assert ClusterConfig(runtime={"workers": 1}).runtime["workers"] == 1


class TestWorkerCrashRecovery:
    @staticmethod
    def _sessions_on_both_workers(fleet, keywords) -> Dict[int, str]:
        """One search per worker (round-robin puts them on both)."""
        owned: Dict[int, str] = {}
        for keyword in keywords[:2]:
            sid = fleet.search(keyword).session
            owned[int(sid[1 : sid.index("g")])] = sid
        assert sorted(owned) == [0, 1]
        return owned

    def test_crash_respawn_410_and_other_shard_survives(
        self, fresh_cluster, keywords
    ):
        """The ISSUE's crash contract: killing one worker mid-session
        loses no other shard's sessions, and the dead worker's sessions
        answer 410 Gone (re-run the search) after automatic respawn."""
        owned = self._sessions_on_both_workers(fresh_cluster, keywords)
        victim, survivor = sorted(owned)[0], sorted(owned)[1]
        fresh_cluster.kill_worker(victim)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            health = fresh_cluster.health()
            if health["cluster"]["crashes"] >= 1 and all(
                s["alive"] for s in health["shards"]
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("worker was not respawned in time")
        # The dead worker's session: gone, honestly.
        with pytest.raises(SessionExpired):
            fresh_cluster.view(owned[victim])
        # The other shard's session: untouched.
        assert fresh_cluster.view(owned[survivor]).rows
        # The respawned slot serves fresh sessions again.
        fresh = fresh_cluster.search(keywords[0])
        assert fresh_cluster.view(fresh.session).rows
        assert fresh_cluster.health()["cluster"]["crashes"] == 1

    def test_stale_sid_maps_to_410_with_research_hint_over_http(
        self, fresh_cluster, keywords
    ):
        app = BioNavWebApp(runtime=fresh_cluster)
        sid = fresh_cluster.search(keywords[0]).session
        victim = int(sid[1 : sid.index("g")])
        fresh_cluster.kill_worker(victim)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            health = fresh_cluster.health()
            if all(s["alive"] for s in health["shards"]) and health["cluster"][
                "crashes"
            ]:
                break
            time.sleep(0.05)
        status, _, body = request_page(app, "/api/nav/%s" % sid)
        assert status == "410 Gone"
        payload = json.loads(body)
        assert payload["error_code"] == "session_expired"
        assert "re-run the search" in payload["error"]


class TestSessionPayloadsArePicklable:
    def test_view_objects_cross_the_process_boundary(self, cluster, keywords):
        """The wire format is pickle: every view object a worker returns
        must survive a round-trip (guards against artifacts growing a
        reference to the unpicklable runtime)."""
        result = cluster.search(keywords[0])
        view = cluster.view(result.session)
        for payload in (result, view):
            clone = pickle.loads(pickle.dumps(payload))
            assert clone.session == payload.session
