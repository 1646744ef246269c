"""The :class:`ServingRuntime` facade the web layer mounts.

Every user action (search / view / EXPAND / SHOWRESULTS / BACKTRACK)
becomes one dispatched operation: admitted through the bounded queue,
executed on the caller's thread, and returned as an immutable view object
the renderer (HTML or JSON) consumes without touching shared state.
The runtime owns all cross-request state and its locking:

* the staged :class:`~repro.pipeline.NavigationPipeline`, whose
  per-stage single-flight caches mean a hot query's result set and
  navigation tree are built once no matter how many users issue it
  concurrently, and repeated EXPANDs replay cached cut plans;
* the session registry, whose per-session locks serialize interleaved
  EXPAND/BACKTRACK on one session;
* one :class:`~repro.obs.Metrics` registry, handed to the pipeline's
  stage cache, the session registry, the dispatcher and every session,
  so each counter and latency series of the process lives in one
  place; :func:`render_stats` turns a snapshot of it plus the live
  gauges into the ``/api/stats`` answer.

``backend_latency`` models the per-request backend round-trip of the
deployed system (the paper's server calls NCBI Entrez over the network
on the user's behalf); the simulated corpus answers from memory, so the
bench sets this to a few milliseconds to reproduce the I/O-bound
request profile a real deployment schedules around.  The sleep runs on
the request's thread, inside its admission slot, outside every lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:  # import cycle: repro.bionav builds on repro.pipeline
    from repro.bionav import BioNav

from repro.core.active_tree import VisNode
from repro.core.relevance import ranked_visualization
from repro.obs import Metrics, Snapshot, histogram, merge, quantile
from repro.pipeline.cache import stage_rows
from repro.pipeline.pipeline import NavigationPipeline
from repro.pipeline.stages import NavTreeStage
from repro.serving.dispatcher import WorkerPoolDispatcher
from repro.serving.sessions import SessionEntry, SessionRegistry

__all__ = [
    "DEFAULT_RESULTS_PAGE_SIZE",
    "CostView",
    "SearchResult",
    "SessionView",
    "ResultsView",
    "ServingRuntime",
    "render_stats",
]

#: Citations a SHOWRESULTS response materializes ESummary records for;
#: the component's full pmid list is always returned, this only bounds
#: the per-request display payload (paper §VII: the deployed interface
#: pages the citation list).
DEFAULT_RESULTS_PAGE_SIZE = 50


@dataclass(frozen=True)
class CostView:
    """The cost ledger of one session at one point in time.

    Attributes:
        total: navigation cost plus SHOWRESULTS citation cost.
        navigation: concepts revealed + EXPAND actions (Fig. 8 metric).
        expands: EXPAND actions charged.
        revealed: concepts revealed.
        citations: citations displayed by SHOWRESULTS.
    """

    total: float
    navigation: float
    expands: int
    revealed: int
    citations: int


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search request: a fresh session over the query.

    Attributes:
        session: the new session id.
        query: the keyword query.
        count: distinct citations in the query's navigation tree (result
            citations without any concept in the hierarchy are not
            counted).
    """

    session: str
    query: str
    count: int


@dataclass(frozen=True)
class SessionView:
    """One session's visible interface state.

    Attributes:
        session: session id.
        query: the session's keyword query.
        rows: the ranked visualization rows.
        cost: the session's cost ledger snapshot.
    """

    session: str
    query: str
    rows: Tuple[VisNode, ...]
    cost: CostView


@dataclass(frozen=True)
class ResultsView:
    """One SHOWRESULTS answer: the component's PMIDs, no display records.

    Attributes:
        session: session id.
        query: the session's keyword query.
        node: the concept whose component was listed.
        label: the concept's label.
        pmids: every citation id in the component (sorted); the HTML
            results page fetches display records for its own page.
        cost: the session's cost ledger snapshot after charging.
    """

    session: str
    query: str
    node: int
    label: str
    pmids: Tuple[int, ...]
    cost: CostView


class ServingRuntime:
    """Thread-safe serving facade over a :class:`~repro.bionav.BioNav`.

    Args:
        bionav: the system to serve.
        tree_cache_size: bound on cached result sets / navigation trees
            (the pipeline's ``results`` and ``nav_tree`` stages).
        max_sessions: bound on live sessions.
        workers, max_queue, deadline, retry_after: the admission gate's
            (:class:`~repro.serving.dispatcher.WorkerPoolDispatcher`;
            requests run on their caller's thread, the runtime starts
            no threads).
        backend_latency: simulated per-request backend round-trip in
            seconds (see the module docstring); 0 disables it.
        solver: registry name of the expansion strategy new sessions
            run (canonical or alias; resolved by the pipeline).
        results_page_size: citations per SHOWRESULTS display page
            (the HTML page fetches this many summaries; the full pmid
            list is unaffected).  Surfaced in ``/api/health``.
        l2: optional cross-process stage store (the cluster's shared
            artifact cache); wired into the pipeline's
            :class:`~repro.pipeline.cache.StageCache` so stage misses
            consult it before building; :meth:`stats` reports it.
    """

    def __init__(
        self,
        bionav: BioNav,
        tree_cache_size: int = 32,
        max_sessions: int = 256,
        workers: int = 4,
        max_queue: int = 64,
        deadline: Optional[float] = None,
        retry_after: float = 1.0,
        backend_latency: float = 0.0,
        solver: str = "heuristic",
        results_page_size: int = DEFAULT_RESULTS_PAGE_SIZE,
        l2: Optional[Any] = None,
    ):
        if results_page_size < 1:
            raise ValueError("results_page_size must be positive")
        self.bionav = bionav
        self.backend_latency = backend_latency
        self.solver = bionav.registry.resolve(solver)
        self.results_page_size = results_page_size
        self.l2 = l2
        self.metrics = Metrics()
        self.pipeline = NavigationPipeline(
            bionav.database,
            bionav.entrez,
            registry=bionav.registry,
            params=bionav.params,
            max_reduced_nodes=bionav.max_reduced_nodes,
            capacities={
                "results": tree_cache_size,
                "nav_tree": tree_cache_size,
            },
            l2=l2,
            metrics=self.metrics,
        )
        self.sessions = SessionRegistry(max_sessions, metrics=self.metrics)
        self.dispatcher = WorkerPoolDispatcher(
            workers,
            max_queue=max_queue,
            deadline=deadline,
            retry_after=retry_after,
            metrics=self.metrics,
        )
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Dispatched operations (the request surface)
    # ------------------------------------------------------------------
    def search(self, query: str) -> SearchResult:
        """Resolve ``query`` (single-flight) and open a new session."""
        return self.dispatcher.call(lambda: self._do_search(query))

    def view(self, sid: str) -> SessionView:
        """The session's current interface rows and cost ledger."""
        return self.dispatcher.call(lambda: self._do_view(sid))

    def expand(self, sid: str, node: int) -> SessionView:
        """EXPAND ``node`` in the session; returns the new state."""
        return self.dispatcher.call(lambda: self._do_expand(sid, node))

    def results(self, sid: str, node: int) -> ResultsView:
        """SHOWRESULTS for ``node``'s component in the session."""
        return self.dispatcher.call(lambda: self._do_results(sid, node))

    def backtrack(self, sid: str) -> SessionView:
        """Undo the session's most recent EXPAND; returns the state."""
        return self.dispatcher.call(lambda: self._do_backtrack(sid))

    # ------------------------------------------------------------------
    # Operation bodies (run on the caller's thread once admitted; a fleet
    # worker runs them directly, its router having admitted the request)
    # ------------------------------------------------------------------
    def _do_search(self, query: str) -> SearchResult:
        self._simulate_backend()
        nav = self.pipeline.nav_tree(query)
        session = self.pipeline.activate(nav, solver=self.solver, metrics=self.metrics)
        sid = self.sessions.create(query, session, nav)
        return SearchResult(session=sid, query=query, count=nav.root_stats.count)

    def _do_view(self, sid: str) -> SessionView:
        self._simulate_backend()
        with self.sessions.checkout(sid) as entry:
            return self._view_locked(sid, entry)

    def _do_expand(self, sid: str, node: int) -> SessionView:
        self._simulate_backend()
        with self.sessions.checkout(sid) as entry:
            if not entry.session.active.is_expandable(node):
                raise ValueError("node %d has nothing hidden to reveal" % node)
            entry.session.expand(node)
            return self._view_locked(sid, entry)

    def _do_results(self, sid: str, node: int) -> ResultsView:
        self._simulate_backend()
        with self.sessions.checkout(sid) as entry:
            if not entry.session.active.is_visible(node):
                raise ValueError("node %d is not visible" % node)
            return ResultsView(
                session=sid,
                query=entry.query,
                node=node,
                label=entry.session.tree.label(node),
                pmids=tuple(entry.session.show_results(node)),
                cost=self._cost_locked(entry),
            )

    def _do_backtrack(self, sid: str) -> SessionView:
        self._simulate_backend()
        with self.sessions.checkout(sid) as entry:
            entry.session.backtrack()
            return self._view_locked(sid, entry)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _simulate_backend(self) -> None:
        if self.backend_latency > 0:
            time.sleep(self.backend_latency)

    def _view_locked(self, sid: str, entry: SessionEntry) -> SessionView:
        """Render a session view; caller holds the session's lock."""
        state = entry.state
        rows = tuple(ranked_visualization(entry.session.active, state.probs))
        return SessionView(
            session=sid, query=entry.query, rows=rows, cost=self._cost_locked(entry)
        )

    @staticmethod
    def _cost_locked(entry: SessionEntry) -> CostView:
        """Snapshot the ledger; caller holds the session's lock."""
        session = entry.session
        return CostView(
            total=session.total_cost,
            navigation=session.navigation_cost,
            expands=session.ledger.expand_actions,
            revealed=session.ledger.concepts_revealed,
            citations=session.ledger.citations_displayed,
        )

    # ------------------------------------------------------------------
    # Observability (never dispatched: must answer even under overload)
    # ------------------------------------------------------------------
    @property
    def shed_retry_after(self) -> float:
        """Client back-off for shed requests, in seconds (see
        :attr:`~repro.serving.dispatcher.WorkerPoolDispatcher.shed_retry_after`)."""
        return self.dispatcher.shed_retry_after

    def health(self) -> Dict[str, object]:
        """Liveness/saturation summary for ``GET /api/health``."""
        return dict(
            self.dispatcher.health(),
            sessions_active=len(self.sessions),
            solver=self.solver,
            results_page_size=self.results_page_size,
            uptime_seconds=time.monotonic() - self._started,
            # Which corpus backend this process serves from.  Cluster
            # tests assert every worker reports the same mmap directory
            # (one page-cached corpus, not N private copies).
            store=self.bionav.database.store.store_info(),
        )

    def gauges(self) -> Dict[str, Any]:
        """The live readings :func:`render_stats` shows beside the counters.

        Stage-cache sizes and capacities, queue depth and capacity,
        in-flight requests, admission slots and live sessions (all of
        which add up across a fleet), plus the ``queries`` rows of the
        cached navigation trees and, with an L2, its directory census.
        """
        gauges: Dict[str, Any] = self.pipeline.cache.gauges()
        gauges.update(self.dispatcher.gauges())
        gauges.update(
            {
                "sessions.active": len(self.sessions),
                "sessions.capacity": self.sessions.capacity,
                "queries": [
                    {"query": nav.query, "tree_size": len(nav.tree)}
                    for _, nav in self.pipeline.cache.items(NavTreeStage.name)
                ],
            }
        )
        if self.l2 is not None:
            gauges["l2"] = self.l2.census()
        return gauges

    def snapshot(self) -> Snapshot:
        """The process's counters and histograms, the L2's merged in."""
        l2 = [] if self.l2 is None else [self.l2.metrics.snapshot()]
        return merge([self.metrics.snapshot()] + l2)

    def stats(self) -> Dict[str, object]:
        """Operational statistics for ``GET /api/stats`` (see
        :func:`render_stats`)."""
        return render_stats(self.snapshot(), self.gauges())

    def close(self) -> None:
        """Refuse new requests, waiting for admitted ones to finish."""
        self.dispatcher.close()

    def __enter__(self) -> "ServingRuntime":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the runtime."""
        self.close()


def render_stats(snapshot: Snapshot, gauges: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``/api/stats`` answer for one registry snapshot plus gauges.

    A process renders its own snapshot; a fleet renders the
    :func:`~repro.obs.merge` of its workers' snapshots with their summed
    gauges, so fleet counts and quantiles are exact arithmetic over every
    worker's events.  ``pipeline`` holds the stage rows
    (:func:`~repro.pipeline.cache.stage_rows`); ``solver`` reads the
    ``solver.decision_seconds`` histogram in milliseconds, its quantiles
    being bucket upper bounds (never below the exact value).  ``queries``
    and ``l2`` appear when the gauges carry them (``l2`` is None for a
    fleet without an L2; its hits, misses and publishes are the stage
    rows' L2 counts summed).
    """
    counters = snapshot["counters"]
    shed = _block("serving.shed_", counters, "overload", "deadline")
    decisions = histogram(snapshot, "solver.decision_seconds")
    expands = decisions["count"]
    stats: Dict[str, Any] = {
        "pipeline": stage_rows(snapshot, gauges),
        "sessions": dict(
            _block("sessions.", gauges, "active", "capacity"),
            **_block("sessions.", counters, "created", "evicted", "expired_lookups"),
        ),
        "serving": dict(
            _block("serving.", gauges, "workers", "queue_depth", "queue_capacity"),
            **_block("serving.", gauges, "in_flight"),
            **_block("serving.", counters, "admitted", "completed"),
            shed=dict(shed, total=shed["overload"] + shed["deadline"]),
        ),
        "solver": {
            "expands": expands,
            "total_ms": 1000.0 * decisions["sum"],
            "mean_ms": 1000.0 * decisions["sum"] / expands if expands else 0.0,
            "p50_ms": 1000.0 * quantile(decisions, 0.50),
            "p95_ms": 1000.0 * quantile(decisions, 0.95),
            "p99_ms": 1000.0 * quantile(decisions, 0.99),
            "max_ms": 1000.0 * decisions["max"],
            "mean_reduced_size": (
                counters.get("solver.reduced_size", 0) / expands if expands else 0.0
            ),
        },
    }
    if "queries" in gauges:
        stats["queries"] = gauges["queries"]
    if gauges.get("l2") is not None:
        rows = stats["pipeline"].values()
        hits, misses, publishes = (
            sum(row["l2_" + key] for row in rows) for key in ("hits", "misses", "publishes")
        )
        stats["l2"] = dict(
            hits=hits,
            misses=misses,
            hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
            publishes=publishes,
            **_block("l2.", counters, "evictions", "errors"),
            **gauges["l2"],
        )
    elif "l2" in gauges:
        stats["l2"] = None
    return stats


def _block(prefix: str, source: Mapping[str, Any], *names: str) -> Dict[str, Any]:
    """``{name: source[prefix + name]}``, 0 for names not yet counted."""
    return {name: source.get(prefix + name, 0) for name in names}
