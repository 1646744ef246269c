"""End-to-end BioNav benchmark: scripted navigation sessions over HTTP.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 10 --trace 0

One run sets up three times (once with ``--trace 1``): build the
workload's substrate from ``--seed`` in a subprocess, start the serving
stack in a server process (``perfbench/server.py``) and play the untimed
warm-up. After each set-up that fresh server plays the same sequence of
timed sessions, about ``--seconds`` of scripted TOPDOWN sessions in all,
over one loopback HTTP connection, and every answer is checked. Each
timed request is thus played once per set-up (twice on ``cold_paper``)
from the same server-side state. Latencies are scaled to a reference
host speed by a host kernel timed around each request
(:func:`scaled_ms`) and summarized per request class
(:func:`class_p50`).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (see
``perfbench/METRICS.md``). Lines above it give a readable summary.

The client is one thread with no timers; every process it starts is
waited for before it exits.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, self_times  # noqa: E402
from workload import (  # noqa: E402
    MAX_EXPANDS,
    SPECS,
    Substrate,
    WorkloadSpec,
    make_script,
)

#: Every process of the benchmark hashes strings the same way.
HASH_SEED = "0"
#: Timed set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Each server plays at least one pattern period.
MIN_PERIODS = 1
#: Socket timeout of one request, in seconds.
REQUEST_TIMEOUT = 60.0
#: Percentiles are reported only with this many samples beyond them.
TAIL_SAMPLES = 10
#: Layers whose time is the EdgeCut solver's.
SOLVER_LAYERS = ("core.partition", "core.heuristic", "core.opt_edgecut")
#: Host-kernel time (ms) of the CPU speed latencies are scaled to.
KERNEL_REF_MS = 2.0
#: Catch-all layers: their self time is whatever the layers below them
#: leave, so ``trace.coverage`` counts only the layers beneath them.
OUTER_LAYERS = ("http", "web", "serving", "cluster.router")
#: Pipeline stages whose cache hit ratio is reported.
CACHED_STAGES = ("results", "nav_tree", "cut")
WORK = ROOT / ".perfbench-work"


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def ref_kernel_ms() -> float:
    """A fixed stdlib + numpy kernel, independent of the program.

    Like the program, it is interpreter work on many small objects: it
    builds 2,000 dicts, sorts them by a key function and gathers one
    field into a numpy array. When the CPU is in its slow state this work
    slows down about as much as the program does, which makes it a scale
    for the program's latencies; an integer loop and a numpy sort,
    tried first, slowed down noticeably less than the program.
    """
    started = time.perf_counter()
    rows = [{"node": i, "label": "c%d" % i, "count": i % 17} for i in range(2000)]
    rows.sort(key=lambda row: (row["count"], row["label"]))
    np.fromiter((row["node"] for row in rows), dtype=np.int64, count=len(rows))
    return (time.perf_counter() - started) * 1000.0


def scaled_ms(op: Tuple[str, float, float, float]) -> float:
    """A timed request's latency in ms at the reference host speed.

    ``op`` is ``(name, seconds, kernel ms before, kernel ms after)``: the
    client time is scaled by :data:`KERNEL_REF_MS` over the mean of the
    host-kernel readings taken right before and right after it on the
    same CPU (with the server stopped), which tracks how fast the CPU ran
    while the request did.
    """
    _, seconds, before, after = op
    return seconds * 1000.0 * 2.0 * KERNEL_REF_MS / (before + after)


def class_p50(samples: Sequence[Tuple[Any, float]]) -> float:
    """Median latency over ``(class, value)`` samples, class by class.

    A class is a request played from the same server-side state on every
    play (see :meth:`Bench.play_chunk`). Each sample is replaced by its
    class's median and the median is taken over all samples; every run
    has the same classes with the same sample counts, so no run medians
    over a different mix.
    """
    by_class: Dict[Any, List[float]] = {}
    for key, value in samples:
        by_class.setdefault(key, []).append(value)
    level = {key: _median(values) for key, values in by_class.items()}
    return _median([level[key] for key, _ in samples])


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


class Client:
    """One keep-alive HTTP connection to the server, reopened after a
    transport failure."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str, headers: Dict[str, str]) -> Tuple[int, bytes, float]:
        """``(status, body, seconds)``; status 0 on a transport failure."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        started = time.perf_counter()
        try:
            self._conn.request("GET", path, headers=headers)
            response = self._conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = None
            return 0, b"", time.perf_counter() - started
        return response.status, body, time.perf_counter() - started

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Server:
    """One ``perfbench/server.py`` process and its client connection."""

    def __init__(self, args: List[str], env: Dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")] + args,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        if not line.startswith("PORT "):
            self.kill()
            raise BenchError("server did not start: %r" % line)
        self.client = Client(int(line.split()[1]))

    def finish(self) -> Dict[str, Any]:
        """Stop the server and return the report it prints on exit."""
        status, _, _ = self.client.get("/__bench/finish", {})
        self.client.close()
        output = self.proc.stdout.read() if status == 200 and self.proc.stdout else ""
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        self.kill()
        if self.proc.returncode != 0 or not output.strip():
            raise BenchError("server exited with %s" % self.proc.returncode)
        return json.loads(output.strip().splitlines()[-1])

    def probe(self) -> float:
        """:func:`ref_kernel_ms` with the server's processes stopped, so
        that work the server does between requests cannot slow the
        kernel (it waits for, and slows, the next request instead)."""
        os.killpg(self.proc.pid, signal.SIGSTOP)
        try:
            return ref_kernel_ms()
        finally:
            os.killpg(self.proc.pid, signal.SIGCONT)

    def kill(self) -> None:
        """Stop the server's whole process group (the fleet worker too)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Session:
    """The outcome of one played session."""

    def __init__(self, script_id: str, traced: bool, key: Any = None):
        self.script_id = script_id
        self.traced = traced
        #: The request class of this session's requests (see play_chunk).
        self.key = key
        # (op, seconds, host kernel ms right before, right after)
        self.ops: List[Tuple[str, float, float, float]] = []
        self.navigation: Optional[float] = None
        self.revealed: List[Tuple[int, ...]] = []
        self.reached = False
        self.shown: Optional[int] = None

    @property
    def scaled_ms(self) -> float:
        """The session's time: the sum of its requests' scaled latencies."""
        return sum(map(scaled_ms, self.ops))


class Bench:
    """One run of one workload."""

    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float, trace: bool):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = WORK / ("run-%d" % os.getpid())
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED=HASH_SEED,
        )
        self.failures: Dict[str, int] = {}
        self.attempted = 0
        self.sub: Optional[Substrate] = None
        self.store: Any = None
        self.script: Dict[str, Any] = {}
        self.expected: Dict[Tuple[int, ...], np.ndarray] = {}
        self.replays: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
        self.request_log: List[Tuple[int, str, float]] = []
        self.servers: List[Server] = []
        self.builds: List[Dict[str, Any]] = []
        self.setup_times: List[float] = []
        self.sessions: List[Session] = []
        self.probes: List[float] = []
        self.counters: Dict[str, int] = {}
        self.rss_mb = 0.0
        self.spans: List[Any] = []

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def result_pmids(self, concepts: Sequence[int]) -> np.ndarray:
        """The oracle: ``np.intersect1d`` over the store's posting lists."""
        key = tuple(concepts)
        if key not in self.expected:
            pmids = self.store.citations_for_concept(concepts[0])
            for concept in concepts[1:]:
                pmids = np.intersect1d(pmids, self.store.citations_for_concept(concept))
            self.expected[key] = pmids
        return self.expected[key]

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def build(self, out: Path) -> Dict[str, Any]:
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.substrate.build",
                "--out", str(out),
                "--citations", str(self.spec.citations),
                "--seed", str(self.seed),
            ],
            env=self.env,
            stdout=subprocess.PIPE,
            check=False,
        )
        if done.returncode != 0:
            raise BenchError("substrate build failed (exit %d)" % done.returncode)
        return json.loads(done.stdout.decode().strip().splitlines()[-1])

    def start_server(self, store_dir: Path, index: int, trace: bool) -> Server:
        args = ["--store", str(store_dir), "--tree-cache", str(self.spec.tree_cache)]
        if self.spec.mode == "fleet":
            args += ["--fleet", "--cache-dir", str(self.workdir / ("l2-%d" % index))]
        if trace:
            args.append("--trace")
        server = Server(args, self.env)
        self.servers.append(server)
        return server

    def setup(self, index: int) -> Server:
        """One timed set-up: build, stand up, play the warm-up.

        The first set-up also generates the script (untimed); later ones
        check that the same seed built the same substrate.
        """
        from repro.substrate.store import MmapStore

        started = time.perf_counter()
        store_dir = self.workdir / ("store-%d" % index)
        self.builds.append(self.build(store_dir))
        untimed = 0.0
        if index == 0:
            paused = time.perf_counter()
            self.sub = Substrate(str(store_dir))
            self.store = MmapStore.open(str(store_dir))
            self.script = make_script(self.spec, self.sub, self.seed)
            untimed = time.perf_counter() - paused
        else:
            self.attempted += 1
            if self.builds[-1]["digest"] != self.builds[0]["digest"]:
                self.fail("same-seed builds disagree on the manifest digest")
        server = self.start_server(store_dir, index, self.trace)
        for session in self.script["warmup"]:
            self.play(server, session, traced=False)
        self.setup_times.append(time.perf_counter() - started - untimed)
        return server

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def request(
        self, server: Server, session: Session, op: str, path: str
    ) -> Optional[Dict[str, Any]]:
        """One timed request; None (and a recorded failure) if it failed."""
        self.attempted += 1
        request_id = self.attempted
        headers = {
            "X-Bench-Trace": "1" if session.traced else "0",
            "X-Bench-Session": session.script_id,
            "X-Bench-Op": op,
            "X-Bench-Request": str(request_id),
        }
        status, body, seconds = server.client.get(path, headers)
        if session.key is not None:
            before = self.probes[-1]
            self.probes.append(server.probe())
            session.ops.append((op, seconds, before, self.probes[-1]))
        if session.traced:
            self.request_log.append((request_id, op, seconds))
        if not 200 <= status < 300:
            self.fail("%s answered %d" % (op, status))
            return None
        return json.loads(body)

    def play(
        self, server: Server, script: Dict[str, Any], traced: bool, key: Any = None
    ) -> Session:
        """Play one TOPDOWN session and check every answer; ``key`` is the
        request class of a timed session (None in the warm-up)."""
        assert self.sub is not None
        sub = self.sub
        session = Session(str(script["id"]), traced, key)
        concepts = [int(c) for c in script["concepts"]]
        target = int(script["target"])
        expected = self.result_pmids(concepts)
        query = quote(" ".join("%d[mh]" % c for c in concepts))
        found = self.request(server, session, "search", "/api/search?q=" + query)
        if found is None:
            return session
        if found["count"] != len(expected):
            self.fail("search count differs from the posting-list AND")
        sid = found["session"]
        chain = sub.ancestors(target)
        visible = {sub.root}
        node = sub.root
        for expands in range(MAX_EXPANDS):
            op = "first_expand" if expands == 0 else "expand"
            view = self.request(
                server, session, op, "/api/nav/%s/expand?node=%d" % (sid, node)
            )
            if view is None:
                return session
            rows = {int(row["node"]) for row in view["rows"]}
            revealed = np.array(sorted(rows - visible), dtype=np.int64)
            if len(revealed) == 0:
                self.fail("EXPAND revealed no new row")
            elif not sub.descends_from(revealed, node).all():
                self.fail("EXPAND revealed a row outside the expanded subtree")
            session.revealed.append(tuple(int(n) for n in revealed))
            session.navigation = float(view["cost"]["navigation"])
            visible = rows
            expandable = {int(row["node"]) for row in view["rows"] if row["expandable"]}
            node = next(n for n in chain if n in visible)
            if node == target or node not in expandable:
                break
        shown = self.request(
            server, session, "showresults", "/api/nav/%s/results?node=%d" % (sid, node)
        )
        if shown is None:
            return session
        if not np.isin(np.asarray(shown["pmids"], dtype=np.int64), expected).all():
            self.fail("SHOWRESULTS listed a citation outside the result")
        session.reached = node == target
        session.shown = node
        outcome = tuple(session.revealed) + ((node,),)
        previous = self.replays.setdefault(str(script["script"]), outcome)
        if previous != outcome:
            self.fail("identical scripts revealed different rows")
        return session

    def timed_count(self) -> int:
        """Timed sessions each server plays.

        About ``--seconds`` of work over the :data:`SETUPS` servers at
        the workload's nominal session time, in whole pattern periods
        (at least ``MIN_PERIODS``). The count depends on ``--seconds``
        alone, not on how fast this run goes, so every run of a workload
        plays the same mix.
        """
        period = self.spec.period
        plays = SETUPS * self.spec.replays
        periods = round(self.seconds / (self.spec.session_seconds * period * plays))
        return min(max(MIN_PERIODS, periods) * period, len(self.script["timed"]))

    def play_chunk(self, server: Server) -> None:
        """Play the timed sessions on a freshly set-up server.

        Every server plays the same sequence from the same state, so a
        request's class is its position in the sequence (a cold query, a
        fleet L2 load or never-seen build), except on the warm workload,
        where every lookup hits whatever came before and the class is the
        script. The plays of a class are seconds apart, on different
        servers (on ``cold_paper`` also before and after a cache clear).
        """
        period = self.spec.period
        self.probes.append(server.probe())
        for replay in range(self.spec.replays):
            if replay:
                status, _, _ = server.client.get("/__bench/clear", {})
                if status != 200:
                    raise BenchError("/__bench/clear answered %d" % status)
            for index in range(self.timed_count()):
                script = self.script["timed"][index]
                key = script["script"] if self.spec.mode == "warm" else index
                # Traced and untraced sessions alternate by whole periods
                # (a cold round, a fleet cycle with its never-seen query),
                # so both halves see the same mix.
                traced = self.trace and (index // period) % 2 == 0
                self.sessions.append(self.play(server, script, traced, key))

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Set up ``SETUPS`` times (once when tracing), each set-up's server
        playing the timed sessions."""
        count = 1 if self.trace else SETUPS
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            for index in range(count):
                server = self.setup(index)
                before = self.stats(server.client)
                self.play_chunk(server)
                self.count_stats(before, self.stats(server.client))
                report = server.finish()
                self.rss_mb = max(self.rss_mb, sum(report["rss_kb"]) / 1024.0)
                self.spans.extend(report["spans"])
        finally:
            for server in self.servers:
                server.kill()
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass
        return self.summarize()

    def count_stats(self, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        """Add the timed phase's cache and L2 counters from ``/api/stats``."""
        for stage in CACHED_STAGES:
            for key in ("hits", "misses"):
                old = before["pipeline"].get(stage, {}).get(key, 0)
                new = after["pipeline"].get(stage, {}).get(key, 0)
                name = "%s.%s" % (stage, key)
                self.counters[name] = self.counters.get(name, 0) + new - old
        for key in ("hits", "misses", "publishes"):
            old = (before.get("l2") or {}).get(key, 0)
            new = (after.get("l2") or {}).get(key, 0)
            name = "l2.%s" % key
            self.counters[name] = self.counters.get(name, 0) + new - old

    def stats(self, client: Client) -> Dict[str, Any]:
        status, body, _ = client.get("/api/stats", {})
        if status != 200:
            raise BenchError("/api/stats answered %d" % status)
        return json.loads(body)

    def summarize(self) -> Dict[str, Any]:
        sessions = self.sessions
        probes = self.probes

        def op_p50(name: str, measure: Any = scaled_ms) -> float:
            return class_p50(
                [
                    ((s.key, position), measure(op))
                    for s in sessions
                    for position, op in enumerate(s.ops)
                    if op[0] == name
                ]
            )

        costs = [s.navigation for s in sessions if s.navigation is not None]
        all_expand_ms = [
            scaled_ms(op) for s in sessions for op in s.ops if op[0] == "expand"
        ]
        end_to_end = {
            "setup_s": (_median(self.setup_times), "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "search_p50_ms": (op_p50("search"), "ms"),
            "first_expand_p50_ms": (op_p50("first_expand"), "ms"),
            "expand_p50_ms": (op_p50("expand"), "ms"),
            "showresults_p50_ms": (op_p50("showresults"), "ms"),
            "session_p50_ms": (
                class_p50([(s.key, s.scaled_ms) for s in sessions]), "ms"
            ),
            "nav_cost_mean": (float(np.mean(costs)) if costs else float("nan"), "cost"),
        }
        failed = sum(self.failures.values())
        lines = [
            "workload %s seed %d trace %d: %d timed sessions (%d reached their "
            "target, %d ended on the root), %d requests, digest %s"
            % (self.spec.name, self.seed, int(self.trace), len(sessions),
               sum(s.reached for s in sessions),
               sum(s.shown == self.sub.root for s in sessions),
               sum(len(s.ops) for s in sessions),
               self.builds[0]["digest"][:16]),
        ]
        for name, (value, unit) in end_to_end.items():
            lines.append("%-22s %12.4f %s" % (name, value, unit))
        lines.append(
            "%-22s %12.4f %% (%d of %d)"
            % ("failed_pct", 100.0 * failed / max(self.attempted, 1), failed,
               self.attempted)
        )
        for reason, count in sorted(self.failures.items()):
            lines.append("  failure: %s x%d" % (reason, count))
        if len(all_expand_ms) >= 10 * TAIL_SAMPLES:
            lines.append(
                "%-22s %12.4f ms (n=%d)"
                % ("expand_p90_ms", float(np.percentile(all_expand_ms, 90)),
                   len(all_expand_ms))
            )
        else:
            lines.append(
                "expand_p90_ms          not reported: %d follow-up EXPANDs, %d needed"
                % (len(all_expand_ms), 10 * TAIL_SAMPLES)
            )
        lines.append(
            "%-22s %12.4f ms (min %.3f, max %.3f, %d readings)"
            % ("host.ref_kernel_ms", _median(probes), min(probes), max(probes),
               len(probes))
        )
        lines.append(
            "unscaled p50 (ms): %s"
            % ", ".join(
                "%s %.3f" % (name, op_p50(name, lambda op: op[1] * 1000.0))
                for name in ("search", "first_expand", "expand", "showresults")
            )
        )
        lines.append("set-ups (s): %s" % ", ".join("%.3f" % t for t in self.setup_times))
        metrics = (
            self.layer_metrics(len(all_expand_ms), _median(probes))
            if self.trace
            else end_to_end
        )
        if self.trace:
            for name, (value, unit) in metrics.items():
                lines.append("%-34s %14.6f %s" % (name, value, unit))
        return {
            "lines": lines,
            "result": {
                "correct": failed == 0,
                "attempted": self.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            },
        }

    def layer_metrics(self, expands: int, kernel_ms: float) -> Dict[str, Tuple[float, str]]:
        layers, web = self_times(self.spans)
        client_s = sum(seconds for _, _, seconds in self.request_log)
        http_s = sum(seconds - web.get(rid, 0.0) for rid, _, seconds in self.request_log)
        metrics: Dict[str, Tuple[float, str]] = {
            "http.self_s": (http_s, "s"),
            "http.calls": (float(len(self.request_log)), "count"),
        }
        for layer in LAYERS[1:]:
            row = layers.get(layer, {"calls": 0, "self_s": 0.0})
            metrics[layer + ".self_s"] = (row["self_s"], "s")
            metrics[layer + ".calls"] = (float(row["calls"]), "count")
        for stage in CACHED_STAGES:
            hits = self.counters["%s.hits" % stage]
            misses = self.counters["%s.misses" % stage]
            ratio = hits / (hits + misses) if hits + misses else 0.0
            metrics["pipeline.%s.hit_ratio" % stage] = (float(ratio), "ratio")
        for key in ("hits", "misses", "publishes"):
            metrics["cluster.l2.%s" % key] = (float(self.counters["l2." + key]), "count")
        first_s = sum(s for _, op, s in self.request_log if op == "first_expand")
        solver_s = sum(
            layers.get("%s@first_expand" % layer, {"self_s": 0.0})["self_s"]
            for layer in SOLVER_LAYERS
        )
        attributed = sum(
            layers.get(layer, {"self_s": 0.0})["self_s"]
            for layer in LAYERS
            if layer not in OUTER_LAYERS
        )
        traced = [s.scaled_ms for s in self.sessions if s.traced]
        plain = [s.scaled_ms for s in self.sessions if not s.traced]
        overhead = (
            100.0 * (float(np.mean(traced)) / float(np.mean(plain)) - 1.0)
            if traced and plain
            else 0.0
        )
        metrics.update(
            {
                "first_expand.solver_share": (
                    solver_s / first_s if first_s else 0.0, "ratio"
                ),
                "trace.coverage": (attributed / client_s if client_s else 0.0, "ratio"),
                "trace.overhead_pct": (overhead, "%"),
                "expand.samples": (float(expands), "count"),
                "substrate.build.s": (
                    _median([b["elapsed_s"] for b in self.builds]), "s"
                ),
                "substrate.build.peak_rss_mb": (
                    _median([b["max_rss_bytes"] / 2**20 for b in self.builds]), "MB"
                ),
                "host.ref_kernel_ms": (kernel_ms, "ms"),
            }
        )
        return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One request is in flight at a time, so nothing runs in parallel;
    # on one CPU the host kernel between requests probes the CPU the
    # server just ran on. Child processes inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        outcome = bench.run()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
