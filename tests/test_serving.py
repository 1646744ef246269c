"""Concurrency tests for the ``repro.serving`` runtime.

The suite hammers the primitives from many threads: single-flight cache
builds must collapse to one factory call, overload and deadline misses
must shed cleanly (503 + Retry-After at the web layer), and a session's
expand log must stay consistent under interleaved EXPAND/BACKTRACK.
"""

from __future__ import annotations

import contextvars
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

import pytest

from repro.bionav import BioNav
from repro.obs import Metrics
from repro.pipeline.concurrency import SingleFlightCache
from repro.serving.dispatcher import DeadlineExceeded, RetryLater, WorkerPoolDispatcher
from repro.serving.runtime import ServingRuntime, render_stats
from repro.serving.sessions import SessionExpired, SessionRegistry
from repro.web.app import BioNavWebApp


def run_threads(count: int, target, timeout: float = 30.0) -> List[object]:
    """Run ``target(i)`` on ``count`` threads; return results or raise."""
    results: List[object] = [None] * count
    errors: List[BaseException] = []

    def runner(i: int) -> None:
        try:
            results[i] = target(i)
        except BaseException as exc:  # propagated after join
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,), daemon=True)
        for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "worker thread did not finish"
    if errors:
        raise errors[0]
    return results


def counts(metrics: Metrics, prefix: str) -> Dict[str, float]:
    """The registry's counters under ``prefix``, prefix stripped."""
    return {
        name[len(prefix):]: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


def request_page(
    app: BioNavWebApp, path: str, query: Optional[Dict[str, str]] = None
) -> Tuple[str, Dict[str, str], str]:
    """Drive the WSGI callable; returns (status, headers, body)."""
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path,
        "QUERY_STRING": urlencode(query or {}),
    }
    captured: List[Tuple[str, List[Tuple[str, str]]]] = []

    def start_response(status: str, headers: List[Tuple[str, str]]) -> None:
        captured.append((status, headers))

    body = b"".join(app(environ, start_response)).decode("utf-8")
    status, headers = captured[0]
    return status, dict(headers), body


class TestSingleFlightCache:
    def test_concurrent_misses_build_once(self):
        metrics = Metrics()
        cache: SingleFlightCache = SingleFlightCache(4, metrics, "c")
        calls: List[int] = []
        barrier = threading.Barrier(16)

        def factory() -> str:
            calls.append(1)
            time.sleep(0.05)
            return "value"

        def worker(i: int) -> str:
            barrier.wait()
            return cache.get_or_create("key", factory)

        results = run_threads(16, worker)
        assert results == ["value"] * 16
        assert len(calls) == 1
        assert counts(metrics, "c.") == {"misses": 1, "coalesced": 15}
        # A later lookup is a plain hit.
        assert cache.get_or_create("key", factory) == "value"
        assert counts(metrics, "c.")["hits"] == 1
        assert len(calls) == 1

    def test_factory_error_reaches_waiters_and_caches_nothing(self):
        cache: SingleFlightCache = SingleFlightCache(4, Metrics(), "c")
        barrier = threading.Barrier(4)

        def failing() -> str:
            time.sleep(0.05)
            raise RuntimeError("backend down")

        def worker(i: int) -> str:
            barrier.wait()
            return cache.get_or_create("key", failing)

        with pytest.raises(RuntimeError):
            run_threads(4, worker)
        assert len(cache) == 0
        # The next call retries the factory rather than caching the error.
        assert cache.get_or_create("key", lambda: "recovered") == "recovered"

    def test_lru_eviction_and_counters_stay_consistent(self):
        metrics = Metrics()
        cache: SingleFlightCache = SingleFlightCache(2, metrics, "c")
        for key, value in (("a", 1), ("b", 2), ("a", None), ("c", 3)):
            cache.get_or_create(key, lambda: value)  # "a" hits; "c" evicts b
        assert cache.items() == [("a", 1), ("c", 3)]
        assert counts(metrics, "c.") == {"misses": 3, "hits": 1, "evictions": 1}

    def test_evicted_value_still_held_is_shared_not_rebuilt(self):
        class Artifact:
            pass

        metrics = Metrics()
        cache: SingleFlightCache = SingleFlightCache(1, metrics, "c")
        held = cache.get_or_create("a", Artifact)
        cache.get_or_create("b", Artifact)  # evicts "a", which the caller holds
        assert cache.get_or_create("a", lambda: pytest.fail("must share")) is held
        assert cache.items() == [("a", held)]  # re-admitted; "b" evicted, unheld
        cache.get_or_create("b", Artifact)  # so "b" is built again
        assert counts(metrics, "c.") == {"misses": 3, "hits": 1, "evictions": 3}
        cache.clear()
        assert cache.get_or_create("a", Artifact) is not held  # clear forgets it

    def test_counters_exact_under_contention(self):
        metrics = Metrics()
        cache: SingleFlightCache = SingleFlightCache(8, metrics, "c")
        cache.get_or_create("k", lambda: 0)

        def worker(i: int) -> None:
            for _ in range(500):
                cache.get_or_create("k", lambda: pytest.fail("must hit"))

        run_threads(8, worker)
        # 8 threads x 500 locked lookups: nothing lost to races.
        assert counts(metrics, "c.")["hits"] == 8 * 500


class TestSolverProfile:
    def test_concurrent_records_all_land(self):
        metrics = Metrics()

        def worker(i: int) -> None:
            for j in range(200):
                metrics.observe("solver.decision_seconds", 0.001 * (i + 1))
                metrics.add("solver.reduced_size", 5)

        run_threads(8, worker)
        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["solver.decision_seconds"]["count"] == 1600
        summary = render_stats(snapshot, {})["solver"]
        assert summary["expands"] == 1600
        assert summary["mean_reduced_size"] == 5.0
        assert summary["max_ms"] == pytest.approx(8.0)
        assert summary["p95_ms"] >= summary["p50_ms"] >= 0.0


class TestSessionRegistry:
    def test_expired_vs_unknown_classification(self):
        registry = SessionRegistry(1)
        first = registry.create("q", object(), object())  # type: ignore[arg-type]
        second = registry.create("q", object(), object())  # type: ignore[arg-type]
        with pytest.raises(SessionExpired):
            with registry.checkout(first):
                pass
        with pytest.raises(KeyError):
            with registry.checkout("s999999"):
                pass
        with registry.checkout(second) as entry:
            assert entry.query == "q"
        assert counts(registry.metrics, "sessions.") == {
            "created": 2,
            "evicted": 1,
            "expired_lookups": 1,
        }


class TestDispatcher:
    def test_results_and_exceptions_propagate(self):
        with WorkerPoolDispatcher(2, max_queue=4) as pool:
            assert pool.call(lambda: 42) == 42
            with pytest.raises(ZeroDivisionError):
                pool.call(lambda: 1 // 0)
            assert counts(pool.metrics, "serving.")["completed"] == 2
            assert pool.in_flight == 0

    def test_overload_sheds_with_retry_after(self):
        release = threading.Event()
        started = threading.Event()

        def occupy() -> None:
            started.set()
            release.wait(10)

        with WorkerPoolDispatcher(1, max_queue=1, retry_after=2.0) as pool:
            first = threading.Thread(target=lambda: pool.call(occupy), daemon=True)
            first.start()
            assert started.wait(5)
            # Fill the single queue slot.
            second = threading.Thread(
                target=lambda: pool.call(lambda: None), daemon=True
            )
            second.start()
            deadline = time.monotonic() + 5
            while pool.queue_depth < 1:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.005)
            with pytest.raises(RetryLater) as excinfo:
                pool.call(lambda: None)
            assert excinfo.value.retry_after == 2.0
            release.set()
            first.join(5)
            second.join(5)
            assert counts(pool.metrics, "serving.")["shed_overload"] == 1
            assert pool.queue_depth == 0

    def test_deadline_exceeded_while_queued(self):
        release = threading.Event()
        started = threading.Event()

        def occupy() -> None:
            started.set()
            release.wait(10)

        with WorkerPoolDispatcher(1, max_queue=4) as pool:
            first = threading.Thread(target=lambda: pool.call(occupy), daemon=True)
            first.start()
            assert started.wait(5)
            holder: List[BaseException] = []

            def doomed() -> None:
                try:
                    pool.call(lambda: None, deadline=0.05)
                except BaseException as exc:
                    holder.append(exc)

            second = threading.Thread(target=doomed, daemon=True)
            second.start()
            time.sleep(0.2)  # let the deadline lapse while queued
            release.set()
            first.join(5)
            second.join(5)
            assert holder and isinstance(holder[0], DeadlineExceeded)
            counted = counts(pool.metrics, "serving.")
            assert counted["shed_deadline"] == 1
            assert counted["completed"] == 1  # only the occupier ran

    def test_queued_callers_run_in_arrival_order(self):
        release = threading.Event()
        started = threading.Event()
        order: List[str] = []

        def occupy() -> None:
            started.set()
            release.wait(10)

        def occupier() -> None:
            pool.call(occupy)
            # Arrives the instant the slot frees, before any waiter woke:
            # it must queue behind all three, not take the slot.
            pool.call(lambda: order.append("late"))

        with WorkerPoolDispatcher(1, max_queue=4) as pool:
            first = threading.Thread(target=occupier, daemon=True)
            first.start()
            assert started.wait(5)
            waiters = []
            for name in ("a", "b", "c"):
                waiter = threading.Thread(
                    target=lambda name=name: pool.call(lambda: order.append(name)),
                    daemon=True,
                )
                waiter.start()
                waiters.append(waiter)
                deadline = time.monotonic() + 5
                while pool.queue_depth < len(waiters):
                    assert time.monotonic() < deadline, "caller never queued"
                    time.sleep(0.005)
            release.set()
            for t in [first] + waiters:
                t.join(5)
                assert not t.is_alive()
            assert order == ["a", "b", "c", "late"]
            assert counts(pool.metrics, "serving.")["completed"] == 5

    def test_fn_runs_on_the_callers_thread_with_its_context(self):
        request_id: contextvars.ContextVar[str] = contextvars.ContextVar(
            "request_id", default="unset"
        )
        token = request_id.set("r-42")
        try:
            with WorkerPoolDispatcher(2) as pool:
                seen = pool.call(lambda: (threading.get_ident(), request_id.get()))
            assert seen == (threading.get_ident(), "r-42")
        finally:
            request_id.reset(token)

    def test_call_after_close_sheds_and_is_not_admitted(self):
        pool = WorkerPoolDispatcher(1)
        assert pool.call(lambda: 7) == 7
        pool.close()
        with pytest.raises(RetryLater):
            pool.call(lambda: 8)
        counted = counts(pool.metrics, "serving.")
        assert counted["admitted"] == 1
        assert counted["admitted"] == counted["completed"] + counted.get("shed_deadline", 0)


    def test_gate_holds_its_bounds_under_contention(self):
        """12 threads over 3 slots, a tight switch interval and short
        deadlines: never more than 3 running, every admitted request
        completes or expires, and the gate drains to empty."""
        running = 0
        peak = 0
        guard = threading.Lock()

        def body() -> None:
            nonlocal running, peak
            with guard:
                running += 1
                peak = max(peak, running)
            time.sleep(0.0005)
            with guard:
                running -= 1

        def client(i: int) -> int:
            sheds = 0
            for j in range(40):
                try:
                    pool.call(body, deadline=0.002 if (i + j) % 3 == 0 else None)
                except (DeadlineExceeded, RetryLater):
                    sheds += 1
            return sheds

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPoolDispatcher(3, max_queue=6) as pool:
                shed = sum(run_threads(12, client))
                counted = counts(pool.metrics, "serving.")
                assert peak <= 3
                assert counted["admitted"] == counted["completed"] + counted.get(
                    "shed_deadline", 0
                )
                assert counted["admitted"] + counted.get("shed_overload", 0) == 12 * 40
                assert shed == 12 * 40 - counted["completed"]
                assert pool.queue_depth == 0 and pool.in_flight == 0
        finally:
            sys.setswitchinterval(interval)

    def test_runtime_starts_no_threads(self, bionav):
        # Compared as sets, so a thread of an earlier test that exits
        # meanwhile cannot mask one this runtime started.
        before = set(threading.enumerate())
        with ServingRuntime(bionav, workers=4) as runtime:
            sid = runtime.search("prothymosin").session
            root = runtime.view(sid).rows[0].node
            runtime.expand(sid, root)
            runtime.results(sid, root)
            assert set(threading.enumerate()) <= before
        assert set(threading.enumerate()) <= before

@pytest.fixture()
def bionav(small_workload) -> BioNav:
    return BioNav(small_workload.database, small_workload.entrez)


class TestRuntimeSingleFlight:
    def test_16_concurrent_identical_searches_build_one_tree(self, bionav, monkeypatch):
        from repro.pipeline.stages import NavTreeStage

        builds: List[str] = []
        original = NavTreeStage.build

        def counting_build(database, results, key):
            builds.append(results.query)
            time.sleep(0.05)  # widen the race window
            return original(database, results, key)

        monkeypatch.setattr(NavTreeStage, "build", staticmethod(counting_build))
        with ServingRuntime(bionav, workers=16, max_queue=32) as runtime:
            barrier = threading.Barrier(16)

            def worker(i: int) -> str:
                barrier.wait()
                return runtime.search("prothymosin").session

            sids = run_threads(16, worker)
            assert len(builds) == 1, "tree must be built exactly once"
            assert len(set(sids)) == 16
            # The 15 losers either coalesced onto the in-flight build or
            # (if scheduled late) hit the freshly cached tree.
            nav_tree = runtime.stats()["pipeline"]["nav_tree"]
            assert nav_tree["misses"] == 1
            assert nav_tree["hits"] + nav_tree["coalesced"] == 15
            assert runtime.pipeline.cache.snapshot()["nav_tree"]["builds"] == 1
            # Zero lost sessions: every issued id still answers.
            for sid in sids:
                assert runtime.view(sid).rows


class TestOnePipelinePerDeployment:
    def test_served_system_builds_only_the_runtime_pipeline(self, bionav):
        with ServingRuntime(bionav, workers=2, max_queue=4) as runtime:
            runtime.search("prothymosin")
        assert "pipeline" not in vars(bionav)
        assert bionav.search("prothymosin").result_count > 0


class TestPipelineStatsAcrossQueries:
    def test_cold_runtime_lists_every_stage_with_zero_counters(self, bionav):
        with ServingRuntime(bionav, workers=2, max_queue=4) as runtime:
            stages = runtime.stats()["pipeline"]
            assert set(stages) == {"results", "nav_tree", "cut"}
            for row in stages.values():
                assert row["builds"] == row["l2_hits"] == 0
                assert row["hits"] == row["misses"] == row["size"] == 0
                assert row["hit_ratio"] == 0.0

    def test_repeat_query_hits_every_shared_stage(self, bionav):
        with ServingRuntime(bionav, workers=4, max_queue=16) as runtime:
            runtime.search("prothymosin")
            runtime.search("prothymosin")
            stages = runtime.stats()["pipeline"]
            assert stages["nav_tree"]["builds"] == 1
            assert stages["nav_tree"]["hits"] == 1
            assert stages["results"]["hits"] >= 1


class TestRuntimeSessionSerialization:
    def test_interleaved_expand_backtrack_stays_consistent(self, bionav):
        with ServingRuntime(bionav, workers=8, max_queue=64) as runtime:
            sid = runtime.search("prothymosin").session
            root = runtime.view(sid).rows[0].node
            conflicts: List[int] = []

            def worker(i: int) -> None:
                for step in range(25):
                    try:
                        if (i + step) % 2 == 0:
                            runtime.expand(sid, root)
                        else:
                            runtime.backtrack(sid)
                    except ValueError:
                        # Another thread expanded first; a legitimate
                        # 400 for this request, not corruption.
                        conflicts.append(i)

            run_threads(8, worker)
            # The per-session lock kept the log and the tree in step.
            with runtime.sessions.checkout(sid) as entry:
                session = entry.session
                assert session.active.expansions_performed == len(
                    session.expand_log
                )
                assert session.visualize()
            # Drain every expansion; the session must return to the root.
            for _ in range(300):
                with runtime.sessions.checkout(sid) as entry:
                    if entry.session.active.expansions_performed == 0:
                        break
                runtime.backtrack(sid)
            final = runtime.view(sid)
            assert len(final.rows) == 1
            with runtime.sessions.checkout(sid) as entry:
                assert entry.session.expand_log == []


class TestWebShedding:
    def test_deadline_exceeded_returns_503(self, bionav):
        app = BioNavWebApp(
            bionav, workers=1, max_queue=4, deadline=0.05, backend_latency=0.3
        )
        try:
            outcome: List[Tuple[str, Dict[str, str], str]] = []

            def occupier() -> None:
                outcome.append(request_page(app, "/api/search", {"q": "a"}))

            first = threading.Thread(target=occupier, daemon=True)
            first.start()
            deadline = time.monotonic() + 5
            while app.runtime.dispatcher.in_flight < 1:
                assert time.monotonic() < deadline, "occupier never started"
                time.sleep(0.005)
            status, headers, body = request_page(
                app, "/api/search", {"q": "prothymosin"}
            )
            first.join(5)
            assert status == "503 Service Unavailable"
            assert headers["Retry-After"] == "1"
            assert json.loads(body)["error_code"] == "deadline_exceeded"
            assert app.runtime.stats()["serving"]["shed"]["deadline"] == 1
            # The occupying request itself completed fine.
            assert outcome[0][0] == "200 OK"
        finally:
            app.close()

    def test_overload_returns_503_with_retry_after(self, bionav):
        app = BioNavWebApp(bionav, workers=1, max_queue=1, backend_latency=0.6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: request_page(app, "/api/search", {"q": "a"}),
                    daemon=True,
                )
                for _ in range(2)
            ]
            # Occupy the single worker, then fill the single queue slot;
            # sequencing against observed state keeps the test determinate.
            threads[0].start()
            deadline = time.monotonic() + 5
            while app.runtime.dispatcher.in_flight < 1:
                assert time.monotonic() < deadline, "occupier never started"
                time.sleep(0.005)
            threads[1].start()
            while app.runtime.dispatcher.queue_depth < 1:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.005)
            status, headers, body = request_page(
                app, "/api/search", {"q": "prothymosin"}
            )
            for t in threads:
                t.join(5)
            assert status == "503 Service Unavailable"
            assert int(headers["Retry-After"]) >= 1
            payload = json.loads(body)
            assert payload["error_code"] == "overloaded"
            assert payload["retry_after"] >= 1
            stats = app.runtime.stats()
            assert stats["serving"]["shed"]["overload"] == 1
            assert app.runtime.health()["status"] in ("ok", "overloaded")
        finally:
            app.close()


class TestShedRetryAfterDerivation:
    def test_backoff_derives_from_queueing_deadline(self, bionav):
        with ServingRuntime(bionav, deadline=2.5) as runtime:
            assert runtime.shed_retry_after == 2.5
        # A short deadline never undercuts the admission hint's floor.
        with ServingRuntime(bionav, deadline=0.05) as runtime:
            assert runtime.shed_retry_after == 1.0
        with ServingRuntime(bionav) as runtime:
            assert runtime.shed_retry_after == 1.0

    def test_deadline_503_carries_derived_retry_after(self):
        """The web layer's Retry-After is ceil(shed_retry_after), not 1."""

        class _DeadlineRuntime:
            results_page_size = 10
            shed_retry_after = 2.2

            def search(self, query):
                raise DeadlineExceeded(2.2)

            def close(self):
                pass

        app = BioNavWebApp(runtime=_DeadlineRuntime())
        try:
            status, headers, body = request_page(
                app, "/api/search", {"q": "prothymosin"}
            )
            assert status == "503 Service Unavailable"
            assert headers["Retry-After"] == "3"
            assert json.loads(body)["retry_after"] == 3
        finally:
            app.close()
