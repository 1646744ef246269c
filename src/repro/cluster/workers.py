"""Worker lifecycle: one serving process per fleet slot, supervised respawn.

Each worker is one forked process hosting a full
:class:`~repro.serving.runtime.ServingRuntime` (its own GIL, session
registry and L1 stage caches) wired to the shared
:class:`~repro.cluster.stagecache.ClusterStageCache` as its L2.  The
parent-side :class:`WorkerSupervisor` owns the fleet: it spawns
workers, relays requests over per-worker queues, watches heartbeats,
and respawns crashed or wedged workers in place.  Admission is the
router's (:mod:`repro.cluster.router`): a worker runs the runtime's
operation bodies directly, one message at a time.

Wire protocol (plain picklable tuples over ``multiprocessing`` queues):

* request — ``("op", req_id, name, kwargs)`` or ``("stop",)``;
* response — ``("res", req_id, outcome)`` where *outcome* is
  ``("ok", value)`` or ``("err", code, details)``;
* heartbeat — ``("hb", index, generation, payload)`` on the shared
  response queue, every ``heartbeat_interval`` seconds.

Workers never pickle exceptions (their ``args`` round-trip is not
reliable for the serving layer's rich constructors); they return
structured error codes that :meth:`WorkerSupervisor.call` decodes back
into the *same* exception types a local runtime would raise, so the web
layer's error mapping works unchanged against a cluster.

Crash semantics: when a worker dies, its in-flight requests fail with
:class:`WorkerCrashed`, its **generation** is bumped, and a new process
is forked into the same slot under the same name — other workers'
sessions are untouched.  Every incarnation reads fresh queues, so a
request queued for the dead one is never run: its pending slot fails
with it (see :meth:`WorkerSupervisor._respawn`), and a put on the
retired queue fails at once.  Session ids embed
the generation (see :mod:`repro.cluster.router`), which is what turns
"my worker was respawned" into an honest ``410 Gone``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bionav import BioNav
from repro.cluster.stagecache import ClusterStageCache
from repro.serving.runtime import ServingRuntime
from repro.serving.sessions import SessionExpired

__all__ = [
    "WorkerCrashed",
    "WorkerUnavailable",
    "worker_main",
    "WorkerHandle",
    "WorkerSupervisor",
]

Outcome = Tuple[Any, ...]


class WorkerCrashed(Exception):
    """The owning worker died before answering."""


class WorkerUnavailable(Exception):
    """No live worker answered within the supervisor's request timeout."""


# ----------------------------------------------------------------------
# Child-process side
# ----------------------------------------------------------------------
#: Operations whose body is the runtime's ``_do_<name>`` method.
_BODIES = frozenset({"search", "view", "expand", "results", "backtrack"})


def _execute(
    runtime: ServingRuntime,
    generation: int,
    op: str,
    kwargs: Dict[str, Any],
) -> Outcome:
    """Run one operation, mapping exceptions to wire error codes.

    A request runs the runtime's operation body, not its admitting
    method: the router's gate already admitted and counted it.
    """
    try:
        if op in _BODIES:
            value = getattr(runtime, "_do_" + op)(**kwargs)
            if op == "search":
                return ("ok", {"result": value, "generation": generation})
            return ("ok", value)
        if op == "health":
            return ("ok", runtime.health())
        if op == "stats":
            # Raw, so the router can merge workers before rendering.
            return ("ok", {"snapshot": runtime.snapshot(), "gauges": runtime.gauges()})
        return ("err", "bad_request", {"message": "unknown operation %r" % op})
    except SessionExpired as exc:
        return ("err", "session_expired", {"sid": exc.sid})
    except KeyError as exc:
        return ("err", "not_found", {"message": str(exc)})
    except ValueError as exc:
        return ("err", "bad_request", {"message": str(exc)})
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return ("err", "internal", {"message": repr(exc)})


def worker_main(
    index: int,
    generation: int,
    bionav: BioNav,
    requests: "multiprocessing.Queue",
    responses: "multiprocessing.Queue",
    options: Optional[Dict[str, Any]] = None,
) -> None:
    """Entry point of one worker process (fork start method).

    Args:
        index: the worker's slot in the fleet (stable across respawns).
        generation: incarnation number, returned with each search so
            the router can stamp it into the session id.
        bionav: the system to serve (inherited via fork).  Toy corpora
            are shared copy-on-write; a substrate-backed system carries
            an :class:`~repro.substrate.store.MmapStore`, whose
            read-only memmaps mean every worker reads the *same* OS
            page cache — the corpus lives once regardless of fleet
            size.  Each heartbeat reports the store identity so the
            supervisor (and tests) can verify the fleet shares one
            store rather than N private copies.
        requests: this worker's inbound operation queue.
        responses: this incarnation's outbound queue (results + beats).
        options: ``cache_dir`` (L2 store directory, optional),
            ``heartbeat_interval`` (seconds), plus any
            :class:`~repro.serving.runtime.ServingRuntime` keyword.
    """
    options = dict(options or {})
    heartbeat_interval = float(options.pop("heartbeat_interval", 0.25))
    cache_dir = options.pop("cache_dir", None)
    l2 = ClusterStageCache(cache_dir) if cache_dir else None
    stop = threading.Event()

    with ServingRuntime(bionav, l2=l2, **options) as runtime:
        store_info = bionav.database.store.store_info()

        def beat() -> None:
            while not stop.is_set():
                try:
                    responses.put(
                        (
                            "hb",
                            index,
                            generation,
                            {
                                "pid": os.getpid(),
                                "sessions_active": len(runtime.sessions),
                                "store": store_info,
                            },
                        )
                    )
                except (OSError, ValueError):  # queue torn down mid-exit
                    return
                stop.wait(heartbeat_interval)

        heart = threading.Thread(
            target=beat, name="bionav-heartbeat-%d" % index, daemon=True
        )
        heart.start()
        try:
            while True:
                message = requests.get()
                if message[0] == "stop":
                    break
                _, req_id, op, kwargs = message
                responses.put(
                    ("res", req_id, _execute(runtime, generation, op, kwargs))
                )
        finally:
            stop.set()


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
class _Pending:
    """One awaited response: event + outcome + owning worker index."""

    __slots__ = ("event", "outcome", "worker")

    def __init__(self, worker: int):
        self.event = threading.Event()
        self.outcome: Optional[Outcome] = None
        self.worker = worker


class WorkerHandle:
    """Parent-side view of one worker slot (mutated under the supervisor lock).

    Attributes:
        index: fleet slot (stable across respawns).
        name: ``w<index>`` (stable across respawns).
        generation: current incarnation (bumped on every respawn).
        process: the live child process.
        requests: the incarnation's inbound queue (fresh per respawn).
        responses: the incarnation's outbound queue (fresh per respawn).
        last_heartbeat: monotonic time of the newest heartbeat.
        heartbeat: the newest heartbeat payload.
        respawns: incarnations after the first.
    """

    __slots__ = (
        "index",
        "name",
        "generation",
        "process",
        "requests",
        "responses",
        "last_heartbeat",
        "heartbeat",
        "respawns",
    )

    def __init__(
        self,
        index: int,
        process: "multiprocessing.process.BaseProcess",
        requests: "multiprocessing.Queue",
        responses: "multiprocessing.Queue",
    ):
        self.index = index
        self.name = "w%d" % index
        self.generation = 0
        self.process = process
        self.requests = requests
        self.responses = responses
        self.last_heartbeat = time.monotonic()
        self.heartbeat: Dict[str, Any] = {}
        self.respawns = 0


class WorkerSupervisor:
    """Spawn, monitor, and talk to a fleet of serving workers.

    Args:
        bionav: the system every worker serves (shared via fork).
        count: fleet size.
        options: per-worker options passed to :func:`worker_main`
            (``cache_dir``, ``heartbeat_interval``, runtime keywords).
        heartbeat_timeout: seconds without a heartbeat before a live
            process is declared wedged and restarted.
        poll_interval: monitor thread's sampling period.
        request_timeout: default cap on one :meth:`call`'s wait.

    Thread safety: every mutation of supervisor state (handles, pending
    requests, counters) happens inside ``self._lock``; queue puts and
    process management run outside it.
    """

    def __init__(
        self,
        bionav: BioNav,
        count: int,
        options: Optional[Dict[str, Any]] = None,
        heartbeat_timeout: float = 30.0,
        poll_interval: float = 0.05,
        request_timeout: float = 60.0,
    ):
        if count < 1:
            raise ValueError("count must be positive")
        self._lock = threading.Lock()
        self._bionav = bionav
        self._options = dict(options or {})
        self._ctx = multiprocessing.get_context("fork")
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout
        self._handles: Dict[int, WorkerHandle] = {}
        self._pending: Dict[int, _Pending] = {}
        self._collectors: List[threading.Thread] = []
        self._next_request = 0
        self._crashes = 0
        self._closed = False
        self._stop = threading.Event()
        for index in range(count):
            requests = self._ctx.Queue()
            responses = self._ctx.Queue()
            process = self._spawn(index, 0, requests, responses)
            self._handles[index] = WorkerHandle(
                index, process, requests, responses
            )
        for index in sorted(self._handles):
            handle = self._handles[index]
            self._start_collector(handle.index, 0, handle.responses)
        self._monitor = threading.Thread(
            target=self._watch, name="bionav-cluster-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Fleet shape
    # ------------------------------------------------------------------
    def generation_of(self, index: int) -> int:
        """Current incarnation of slot ``index``."""
        with self._lock:
            return self._handles[index].generation

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def call(
        self,
        index: int,
        op: str,
        kwargs: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Run ``op`` on worker ``index`` and return its value.

        Raises the same exception the operation body would raise
        in-process (``SessionExpired``/``KeyError``/``ValueError``),
        :class:`WorkerCrashed` when the worker died mid-request, or
        :class:`WorkerUnavailable` on timeout.
        """
        with self._lock:
            if self._closed:
                raise WorkerUnavailable("supervisor is closed")
            handle = self._handles[index]
            req_id = self._next_request
            self._next_request += 1
            slot = _Pending(index)
            self._pending[req_id] = slot
            requests = handle.requests
        try:
            requests.put(("op", req_id, op, dict(kwargs or {})))
        except (OSError, ValueError):
            # The queue was retired by a concurrent respawn between our
            # snapshot and the put; the worker of that generation is gone.
            with self._lock:
                self._pending.pop(req_id, None)
            raise WorkerCrashed(
                "worker %d restarted during %s" % (index, op)
            ) from None
        budget = self.request_timeout if timeout is None else timeout
        if not slot.event.wait(budget):
            with self._lock:
                self._pending.pop(req_id, None)
            raise WorkerUnavailable(
                "worker %d did not answer %s within %.1fs" % (index, op, budget)
            )
        outcome = slot.outcome
        assert outcome is not None
        if outcome[0] == "ok":
            return outcome[1]
        if outcome[0] == "crashed":
            raise WorkerCrashed("worker %d died during %s" % (index, op))
        _, code, details = outcome
        self._raise(code, details, index, op)

    @staticmethod
    def _raise(code: str, details: Dict[str, Any], index: int, op: str) -> None:
        """Decode a wire error back into the in-process exception."""
        if code == "session_expired":
            raise SessionExpired(str(details.get("sid", "?")))
        if code == "not_found":
            raise KeyError(str(details.get("message", "not found")))
        if code == "bad_request":
            raise ValueError(str(details.get("message", "bad request")))
        raise WorkerUnavailable(
            "worker %d failed %s: %s" % (index, op, details.get("message", code))
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _start_collector(
        self,
        index: int,
        generation: int,
        responses: "multiprocessing.Queue",
    ) -> None:
        """Start the drain thread for one worker incarnation's responses.

        Each incarnation gets its own response queue and collector:
        queue locks live in shared memory, so a SIGKILLed worker dying
        mid-``put`` would wedge every *other* writer of a shared queue
        — poisoning heartbeats fleet-wide and cascading one crash into
        false respawns of healthy workers.  Per-worker queues confine
        the blast radius to the incarnation that died.
        """
        thread = threading.Thread(
            target=self._collect,
            args=(index, generation, responses),
            name="bionav-cluster-collect-w%d-g%d" % (index, generation),
            daemon=True,
        )
        thread.start()
        self._collectors.append(thread)

    def _collect(
        self,
        index: int,
        generation: int,
        responses: "multiprocessing.Queue",
    ) -> None:
        """Drain one incarnation's responses (results and heartbeats)."""
        while True:
            try:
                message = responses.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return
                with self._lock:
                    handle = self._handles.get(index)
                    retired = (
                        handle is None or handle.generation != generation
                    )
                if retired:
                    return  # this incarnation was respawned; queue is dead
                continue
            except (OSError, ValueError):  # queue closed during shutdown
                return
            if message[0] == "hb":
                _, hb_index, hb_generation, payload = message
                with self._lock:
                    handle = self._handles.get(hb_index)
                    if handle is not None and handle.generation == hb_generation:
                        handle.last_heartbeat = time.monotonic()
                        handle.heartbeat = payload
            elif message[0] == "res":
                _, req_id, outcome = message
                with self._lock:
                    slot = self._pending.pop(req_id, None)
                if slot is not None:
                    slot.outcome = outcome
                    slot.event.set()

    def _watch(self) -> None:
        """Detect dead or wedged workers and respawn them in place."""
        while not self._stop.wait(self.poll_interval):
            with self._lock:
                handles = list(self._handles.values())
            now = time.monotonic()
            for handle in handles:
                if not handle.process.is_alive():
                    self._respawn(handle)
                elif now - handle.last_heartbeat > self.heartbeat_timeout:
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                    self._respawn(handle)

    def _respawn(self, stale: WorkerHandle) -> None:
        """Replace one dead worker: fail its in-flight work, fork anew.

        The new incarnation gets *fresh* request and response queues: a
        SIGKILLed worker can die holding a queue's shared reader or
        writer lock, which would wedge any successor (or, for a shared
        response queue, every healthy worker) touching the same queue
        forever.  The dead generation's queued messages go down with
        its queues — their pending slots are failed right here, so no
        caller waits on them.
        """
        with self._lock:
            handle = self._handles.get(stale.index)
            if handle is not stale or self._closed or handle.process.is_alive():
                return  # already replaced, or shutting down
            failed = [
                (req_id, slot)
                for req_id, slot in self._pending.items()
                if slot.worker == handle.index
            ]
            for req_id, _ in failed:
                del self._pending[req_id]
            handle.generation += 1
            handle.respawns += 1
            self._crashes += 1
            generation = handle.generation
            poisoned = (handle.requests, handle.responses)
            handle.requests = self._ctx.Queue()
            handle.responses = self._ctx.Queue()
            requests = handle.requests
            responses = handle.responses
        for _, slot in failed:
            slot.outcome = ("crashed",)
            slot.event.set()
        for dead_queue in poisoned:
            dead_queue.close()
            dead_queue.cancel_join_thread()
        process = self._spawn(stale.index, generation, requests, responses)
        with self._lock:
            handle.process = process
            handle.last_heartbeat = time.monotonic()
        self._start_collector(stale.index, generation, responses)

    def _spawn(
        self,
        index: int,
        generation: int,
        requests: "multiprocessing.Queue",
        responses: "multiprocessing.Queue",
    ) -> "multiprocessing.process.BaseProcess":
        """Fork one worker process onto its incarnation's queue pair."""
        process = self._ctx.Process(
            target=worker_main,
            args=(
                index,
                generation,
                self._bionav,
                requests,
                responses,
                self._options,
            ),
            name="bionav-worker-%d" % index,
            daemon=True,
        )
        process.start()
        return process

    def kill(self, index: int) -> None:
        """Hard-kill one worker (crash injection for tests/benchmarks)."""
        with self._lock:
            process = self._handles[index].process
        process.kill()
        process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def describe(self) -> List[Dict[str, Any]]:
        """Per-worker liveness rows for the merged health surface."""
        with self._lock:
            return [
                {
                    "name": handle.name,
                    "index": handle.index,
                    "generation": handle.generation,
                    "alive": handle.process.is_alive(),
                    "respawns": handle.respawns,
                    "heartbeat": dict(handle.heartbeat),
                }
                for _, handle in sorted(self._handles.items())
            ]

    @property
    def crashes(self) -> int:
        """Workers respawned over the supervisor's lifetime."""
        with self._lock:
            return self._crashes

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop monitoring, shut workers down, and fail pending work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
        self._stop.set()
        for handle in handles:
            try:
                handle.requests.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover
                pass
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._monitor.join(timeout=5.0)
        for collector in self._collectors:
            collector.join(timeout=5.0)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.outcome = ("crashed",)
            slot.event.set()
        for handle in handles:
            handle.requests.cancel_join_thread()
            handle.responses.cancel_join_thread()

    def __enter__(self) -> "WorkerSupervisor":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut the fleet down."""
        self.close()
