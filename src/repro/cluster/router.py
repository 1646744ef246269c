"""The cluster front end: round-robin sessions over a worker fleet.

:class:`BioNavCluster` presents the *same* request surface as a single
:class:`~repro.serving.runtime.ServingRuntime` — ``search`` / ``view``
/ ``expand`` / ``results`` / ``backtrack`` plus ``health()`` /
``stats()`` — so :class:`~repro.web.app.BioNavWebApp` mounts either
interchangeably.  Underneath, requests fan out to a
:class:`~repro.cluster.workers.WorkerSupervisor` fleet:

* **Placement** — a new session goes to the next worker in round-robin
  order, so concurrent sessions of one hot query spread over the fleet
  (CPU-bound scaling).  No query affinity is needed: the shared L2
  keeps stage work build-once, so a worker that has not seen a query
  fetches its artifacts instead of rebuilding them.
* **Session identity** — cluster session ids are
  ``w<worker>g<generation>-<local sid>``.  The worker index pins every
  follow-up action to the owning process; the generation makes worker
  death observable: after a crash and respawn the slot's generation has
  advanced, so stale ids answer
  :class:`~repro.serving.sessions.SessionExpired` (``410 Gone``, re-run
  the search) without consulting the respawned worker.  Other
  workers' sessions never notice.
* **Admission** — the router admits through one
  :class:`~repro.serving.dispatcher.WorkerPoolDispatcher` gate per
  worker, the class a single process uses: one request in flight per
  (serial) worker, at most ``max_queue`` waiting, the rest shed; a
  request whose queueing ``deadline`` passes is never sent.
* **Crash windows** — a request in flight when its worker dies
  surfaces as :class:`~repro.serving.dispatcher.RetryLater` (``503`` +
  ``Retry-After``), the same contract as load shedding.

``health()`` merges the per-worker answers with fleet-level rows
(per-shard gate depth, respawns).  ``stats()`` merges the workers' and
the gates' raw metrics snapshots with :func:`repro.obs.merge` —
counters and histogram buckets add — and renders the result with the
same :func:`~repro.serving.runtime.render_stats` a single process uses,
so fleet counts, ratios and quantiles are exact arithmetic over every
worker's events.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.bionav import BioNav
from repro.cluster.workers import WorkerCrashed, WorkerSupervisor, WorkerUnavailable
from repro.obs import add_up, merge
from repro.serving.dispatcher import RetryLater, WorkerPoolDispatcher
from repro.serving.runtime import (
    DEFAULT_RESULTS_PAGE_SIZE,
    ResultsView,
    SearchResult,
    SessionView,
    render_stats,
)
from repro.serving.sessions import SessionExpired

__all__ = ["ClusterConfig", "BioNavCluster"]

#: Cluster session ids: worker index, generation, then the local sid.
_SID = re.compile(r"^w(\d+)g(\d+)-(s\d{6,})$")

#: ``ClusterConfig.runtime`` keywords that shape the router's gates.
_GATE_OPTIONS = ("max_queue", "deadline", "retry_after")


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet shape and per-worker serving options.

    Attributes:
        workers: fleet size (processes).
        cache_dir: directory of the shared
            :class:`~repro.cluster.stagecache.ClusterStageCache`; None
            disables the L2 (workers still scale, but rebuild stages
            independently).
        heartbeat_interval: seconds between worker heartbeats.
        heartbeat_timeout: seconds without a heartbeat before a live
            worker is declared wedged and restarted.
        poll_interval: supervisor crash-detection sampling period.
        request_timeout: cap on one proxied request's wait.
        health_timeout: cap on each worker's answer to a merged
            ``health()``/``stats()`` probe.
        runtime: :class:`~repro.serving.runtime.ServingRuntime`
            keywords.  ``max_queue``, ``deadline`` and ``retry_after``
            shape the router's admission gate of each worker; the rest
            apply in every worker (``solver``, ``results_page_size``,
            ...).  A worker serves one request at a time, so
            ``workers``, if given, must be 1.
    """

    workers: int = 2
    cache_dir: Optional[str] = None
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 30.0
    poll_interval: float = 0.05
    request_timeout: float = 60.0
    health_timeout: float = 5.0
    runtime: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate fleet shape."""
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.runtime.get("workers", 1) != 1:
            raise ValueError("runtime workers must be 1: a fleet worker is serial")


class BioNavCluster:
    """Multiprocess serving behind a runtime-shaped facade.

    Args:
        bionav: the system every worker serves (shared copy-on-write
            via fork); the HTML results page reads its ESummary.
        config: fleet shape and per-worker options.

    Thread safety: the only routing state is the round-robin counter
    (``itertools.count``, atomic under the GIL); the gates and the
    supervisor manage their own synchronization.
    """

    def __init__(self, bionav: BioNav, config: Optional[ClusterConfig] = None):
        self.bionav = bionav
        self.config = config or ClusterConfig()
        options: Dict[str, Any] = dict(
            self.config.runtime,
            cache_dir=self.config.cache_dir,
            heartbeat_interval=self.config.heartbeat_interval,
        )
        options.pop("workers", None)
        gate = {key: options.pop(key) for key in _GATE_OPTIONS if key in options}
        self._gates = [
            WorkerPoolDispatcher(1, **gate) for _ in range(self.config.workers)
        ]
        self._supervisor = WorkerSupervisor(
            bionav,
            self.config.workers,
            options,
            heartbeat_timeout=self.config.heartbeat_timeout,
            poll_interval=self.config.poll_interval,
            request_timeout=self.config.request_timeout,
        )
        self._spread = itertools.count()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Runtime-shaped configuration surface (what the web app reads)
    # ------------------------------------------------------------------
    @property
    def results_page_size(self) -> int:
        """Citations per SHOWRESULTS page (every worker's setting)."""
        return int(
            self.config.runtime.get("results_page_size", DEFAULT_RESULTS_PAGE_SIZE)
        )

    @property
    def shed_retry_after(self) -> float:
        """Client back-off for shed requests, in seconds (every gate's
        :attr:`~repro.serving.dispatcher.WorkerPoolDispatcher.shed_retry_after`)."""
        return self._gates[0].shed_retry_after

    # ------------------------------------------------------------------
    # The request surface
    # ------------------------------------------------------------------
    def search(self, query: str) -> SearchResult:
        """Run a search on the next worker; return a cluster sid."""
        index = next(self._spread) % self.config.workers
        payload = self._admit(
            index, lambda: self._supervisor.call(index, "search", {"query": query})
        )
        result: SearchResult = payload["result"]
        sid = "w%dg%d-%s" % (index, payload["generation"], result.session)
        return replace(result, session=sid)

    def view(self, sid: str) -> SessionView:
        """The session's current interface rows and cost ledger."""
        return self._session_call(sid, "view")

    def expand(self, sid: str, node: int) -> SessionView:
        """EXPAND ``node`` in the session; returns the new state."""
        return self._session_call(sid, "expand", {"node": node})

    def results(self, sid: str, node: int) -> ResultsView:
        """SHOWRESULTS for ``node``'s component in the session."""
        return self._session_call(sid, "results", {"node": node})

    def backtrack(self, sid: str) -> SessionView:
        """Undo the session's most recent EXPAND; returns the state."""
        return self._session_call(sid, "backtrack")

    def _session_call(
        self, sid: str, op: str, extra: Optional[Dict[str, Any]] = None
    ) -> Any:
        """Route one session action to the owning worker incarnation."""
        index, generation, local = self._parse_sid(sid)
        if index >= self.config.workers:
            raise KeyError("session %s" % sid)
        kwargs: Dict[str, Any] = {"sid": local}
        kwargs.update(extra or {})

        def send() -> Any:
            if self._supervisor.generation_of(index) != generation:
                # The owning worker died and was respawned: its in-memory
                # sessions are gone.  410 Gone — re-run the search.
                raise SessionExpired(sid)
            try:
                return self._supervisor.call(index, op, kwargs)
            except SessionExpired:
                raise SessionExpired(sid)  # evicted locally; report the cluster id

        return replace(self._admit(index, send), session=sid)

    def _admit(self, index: int, send: Callable[[], Any]) -> Any:
        """Run ``send`` once worker ``index``'s gate admits it."""
        gate = self._gates[index]
        try:
            return gate.call(send)
        except (WorkerCrashed, WorkerUnavailable):
            raise RetryLater(gate.shed_retry_after)

    @staticmethod
    def _parse_sid(sid: str) -> Tuple[int, int, str]:
        """Split a cluster sid into (worker index, generation, local sid)."""
        match = _SID.match(sid)
        if match is None:
            raise KeyError("session %s" % sid)
        return int(match.group(1)), int(match.group(2)), match.group(3)

    # ------------------------------------------------------------------
    # Merged observability
    # ------------------------------------------------------------------
    def _probe(self, op: str) -> List[Tuple[Dict[str, Any], Optional[Any]]]:
        """(supervision row, worker answer or None) per fleet slot, in
        slot order (the order of the gates)."""

        def ask(index: int) -> Optional[Any]:
            try:
                return self._supervisor.call(
                    index, op, timeout=self.config.health_timeout
                )
            except Exception:
                return None

        return [(row, ask(row["index"])) for row in self._supervisor.describe()]

    def health(self) -> Dict[str, object]:
        """Fleet liveness/saturation summary for ``GET /api/health``.

        Each shard's ``queue_depth``, and the gate fields of its
        ``health`` answer, read its router gate; the top-level
        ``queue_depth`` sums them.  A shard whose gate queue is full
        reads ``overloaded`` and the fleet ``degraded``."""
        probed = self._probe("health")
        shards = []
        status = "ok"
        sessions = 0
        for (row, answer), gate in zip(probed, self._gates):
            admission = gate.health()
            if answer is None:
                shard_status = "unreachable"
            else:
                answer = dict(answer, **admission)
                shard_status = str(admission["status"])
                sessions += int(answer.get("sessions_active", 0))
            if shard_status != "ok":
                status = "degraded"
            shards.append(
                {
                    "name": row["name"],
                    "generation": row["generation"],
                    "alive": row["alive"],
                    "respawns": row["respawns"],
                    "queue_depth": admission["queue_depth"],
                    "status": shard_status,
                    "health": answer,
                }
            )
        return {
            "status": status,
            "workers": len(shards),
            "queue_depth": sum(shard["queue_depth"] for shard in shards),
            "sessions_active": sessions,
            "results_page_size": self.results_page_size,
            "uptime_seconds": time.monotonic() - self._started,
            "cluster": {
                "size": self.config.workers,
                "crashes": self._supervisor.crashes,
            },
            "shards": shards,
        }

    def stats(self) -> Dict[str, object]:
        """Fleet-merged operational statistics for ``GET /api/stats``.

        Each worker's snapshot and gauges join its gate's, which alone
        fill the ``serving`` block (a worker admits nothing); the
        shards' snapshots merge by addition and their gauges add up.
        The ``l2`` directory census is one worker's reading, as every
        worker reads the same shared directory.  Each shard's own
        rendering rides along under ``workers`` for drill-down.
        """
        probed = self._probe("stats")
        answers = [answer for _, answer in probed if answer is not None]
        shards = []  # (snapshot, gauges) of each worker with its gate
        for (_, answer), gate in zip(probed, self._gates):
            snapshot, gauges = gate.metrics.snapshot(), gate.gauges()
            if answer is not None:
                snapshot = merge([answer["snapshot"], snapshot])
                gauges = dict(answer["gauges"], **gauges)
            shards.append((snapshot, gauges))
        fleet: Dict[str, Any] = add_up(gauges for _, gauges in shards)
        fleet["l2"] = answers[-1]["gauges"].get("l2") if answers else None
        stats = render_stats(merge(snapshot for snapshot, _ in shards), fleet)
        stats["cluster"] = {
            "size": self.config.workers,
            "crashes": self._supervisor.crashes,
            "shed_total": stats["serving"]["shed"]["total"],
        }
        stats["workers"] = [
            {
                "name": row["name"],
                "generation": row["generation"],
                "alive": row["alive"],
                "respawns": row["respawns"],
                "queue_depth": gauges["serving.queue_depth"],
                "stats": None if answer is None else render_stats(snapshot, gauges),
            }
            for (row, answer), (snapshot, gauges) in zip(probed, shards)
        ]
        return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> None:
        """Crash-inject one worker (tests and resilience drills)."""
        self._supervisor.kill(index)

    def close(self) -> None:
        """Shut the fleet down."""
        self._supervisor.close()

    def __enter__(self) -> "BioNavCluster":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the fleet down."""
        self.close()
