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
* **Crash windows** — a request in flight when its worker dies
  surfaces as :class:`~repro.serving.dispatcher.RetryLater` (``503`` +
  ``Retry-After``), the same contract as load shedding.

``health()`` merges the per-worker answers with fleet-level rows
(per-shard queue depth, respawns).  ``stats()`` merges the workers'
raw metrics snapshots with :func:`repro.obs.merge` — counters and
histogram buckets add — and renders the result with the same
:func:`~repro.serving.runtime.render_stats` a single process uses, so
fleet counts, ratios and quantiles are exact arithmetic over every
worker's events.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.bionav import BioNav
from repro.cluster.workers import WorkerCrashed, WorkerSupervisor, WorkerUnavailable
from repro.obs import add_up, merge
from repro.serving.dispatcher import RetryLater
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
        runtime: extra :class:`~repro.serving.runtime.ServingRuntime`
            keywords applied in every worker (``solver``,
            ``results_page_size``, ...).  A worker serves its queue one
            request at a time, so ``workers``, ``max_queue`` and
            ``deadline`` never take effect: nothing bounds a worker's
            backlog (the shard row's ``queue_depth``).
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


class BioNavCluster:
    """Multiprocess serving behind a runtime-shaped facade.

    Args:
        bionav: the system every worker serves (shared copy-on-write
            via fork); the HTML results page reads its ESummary.
        config: fleet shape and per-worker options.

    Thread safety: the only routing state is the round-robin counter
    (``itertools.count``, atomic under the GIL); the supervisor manages
    its own synchronization.
    """

    def __init__(self, bionav: BioNav, config: Optional[ClusterConfig] = None):
        self.bionav = bionav
        self.config = config or ClusterConfig()
        options: Dict[str, Any] = dict(self.config.runtime)
        options["cache_dir"] = self.config.cache_dir
        options["heartbeat_interval"] = self.config.heartbeat_interval
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
    def deadline(self) -> Optional[float]:
        """Per-request queueing budget applied inside every worker."""
        value = self.config.runtime.get("deadline")
        return float(value) if value is not None else None

    @property
    def shed_retry_after(self) -> float:
        """Honest client back-off for shed requests, in seconds.

        Same contract as
        :attr:`~repro.serving.runtime.ServingRuntime.shed_retry_after`,
        derived from the fleet-wide runtime options.
        """
        hint = float(self.config.runtime.get("retry_after", 1.0))
        if self.deadline is not None:
            hint = max(hint, self.deadline)
        return hint

    # ------------------------------------------------------------------
    # The request surface
    # ------------------------------------------------------------------
    def search(self, query: str) -> SearchResult:
        """Run a search on the next worker; return a cluster sid."""
        index = next(self._spread) % self.config.workers
        try:
            payload = self._supervisor.call(index, "search", {"query": query})
        except (WorkerCrashed, WorkerUnavailable):
            raise RetryLater(self.shed_retry_after)
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
        try:
            current = self._supervisor.generation_of(index)
        except KeyError:
            raise KeyError("session %s" % sid)
        if current != generation:
            # The owning worker died and was respawned: its in-memory
            # sessions are gone.  410 Gone — re-run the search.
            raise SessionExpired(sid)
        kwargs: Dict[str, Any] = {"sid": local}
        kwargs.update(extra or {})
        try:
            value = self._supervisor.call(index, op, kwargs)
        except SessionExpired:
            raise SessionExpired(sid)  # evicted locally; report the cluster id
        except (WorkerCrashed, WorkerUnavailable):
            raise RetryLater(self.shed_retry_after)
        return replace(value, session=sid)

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
        """(supervision row, worker answer or None) per fleet slot."""
        rows = self._supervisor.describe()
        answers: List[Tuple[Dict[str, Any], Optional[Any]]] = []
        for row in rows:
            try:
                value = self._supervisor.call(
                    row["index"], op, timeout=self.config.health_timeout
                )
            except Exception:
                value = None
            answers.append((row, value))
        return answers

    def health(self) -> Dict[str, object]:
        """Fleet liveness/saturation summary for ``GET /api/health``.

        The top-level ``queue_depth`` sums the workers' own admission
        queues, which always read 0 (a worker serves one request at a
        time, see :class:`ClusterConfig`); the real backlog is each
        shard row's ``queue_depth``, the supervisor's queue to it."""
        probed = self._probe("health")
        shards = []
        status = "ok"
        sessions = 0
        queue_depth = 0
        for row, answer in probed:
            if answer is None:
                status = "degraded"
                shard_status = "unreachable"
            else:
                shard_status = str(answer.get("status", "ok"))
                sessions += int(answer.get("sessions_active", 0))
                queue_depth += int(answer.get("queue_depth", 0))
                if shard_status != "ok":
                    status = "degraded"
            shards.append(
                {
                    "name": row["name"],
                    "generation": row["generation"],
                    "alive": row["alive"],
                    "respawns": row["respawns"],
                    "queue_depth": row["queue_depth"],
                    "status": shard_status,
                    "health": answer,
                }
            )
        return {
            "status": status,
            "workers": len(shards),
            "queue_depth": queue_depth,
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

        The workers' snapshots merge by addition and their gauges add
        up; the ``l2`` directory census is one worker's reading, as
        every worker reads the same shared directory.  Each worker's
        own rendering rides along under ``workers`` for drill-down.
        """
        probed = self._probe("stats")
        answers = [answer for _, answer in probed if answer is not None]
        gauges: Dict[str, Any] = add_up(answer["gauges"] for answer in answers)
        gauges["l2"] = answers[-1]["gauges"].get("l2") if answers else None
        stats = render_stats(merge(answer["snapshot"] for answer in answers), gauges)
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
                "queue_depth": row["queue_depth"],
                "stats": (
                    None
                    if answer is None
                    else render_stats(answer["snapshot"], answer["gauges"])
                ),
            }
            for row, answer in probed
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
