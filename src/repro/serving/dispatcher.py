"""The worker pool: a ThreadPoolExecutor behind admission control.

An unbounded executor queue converts overload into unbounded latency —
every queued request eventually runs, long after its user gave up.
Requests instead enter through :meth:`WorkerPoolDispatcher.call`, which
blocks the calling (WSGI) thread until its request ran: at most
``workers`` requests execute at once, at most ``max_queue`` wait, and
everything beyond that is shed immediately with :class:`RetryLater`
(the web layer answers ``503`` with a ``Retry-After`` header).  A
request still queued when its deadline passes is dropped with
:class:`DeadlineExceeded` instead of doing work nobody is waiting for;
running requests are never preempted — deadlines bound *queueing*
delay (``queue_depth``: admitted, not yet picked up by a worker), the
component overload actually inflates.

The queued and running counts are control state, kept under the
dispatcher's lock; ``serving.admitted``, ``serving.completed``,
``serving.shed_overload`` and ``serving.shed_deadline`` are counters in
the :class:`~repro.obs.Metrics` registry.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, TypeVar

from repro.obs import Metrics

__all__ = ["DeadlineExceeded", "RetryLater", "WorkerPoolDispatcher"]

T = TypeVar("T")


class RetryLater(Exception):
    """The request was shed at admission because the queue is full.

    Attributes:
        retry_after: suggested client back-off in seconds (the value of
            the HTTP ``Retry-After`` header).
    """

    def __init__(self, retry_after: float):
        super().__init__(
            "serving queue is full; retry in %.0f second(s)" % retry_after
        )
        self.retry_after = retry_after


class DeadlineExceeded(Exception):
    """The request's deadline passed while it waited for a worker."""

    def __init__(self, waited: float):
        super().__init__(
            "request deadline exceeded after %.3fs in the queue" % waited
        )
        self.waited = waited


class WorkerPoolDispatcher:
    """Bounded synchronous dispatch onto a thread pool.

    Args:
        workers: worker-thread count (the concurrency cap).
        max_queue: admitted requests allowed to wait for a worker
            (requests already running do not count).
        retry_after: back-off hint attached to shed requests.
        metrics: the registry admissions and sheds are counted in; a
            standalone dispatcher makes its own.
    """

    def __init__(
        self,
        workers: int,
        max_queue: int = 64,
        retry_after: float = 1.0,
        metrics: Optional[Metrics] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        self.workers = workers
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._queued = 0
        self._running = 0
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serving"
        )

    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet running."""
        with self._lock:
            return self._queued

    @property
    def in_flight(self) -> int:
        """Requests currently executing on a worker."""
        with self._lock:
            return self._running

    def call(self, fn: Callable[[], T], deadline: Optional[float] = None) -> T:
        """Run ``fn`` on the pool and return its result (or raise).

        Args:
            fn: the request body.
            deadline: optional per-request budget in seconds, measured
                from admission; a request still queued when it expires
                is dropped instead of executed.

        Raises:
            RetryLater: shed at admission (queue full).
            DeadlineExceeded: deadline passed while queued.
            Exception: whatever ``fn`` raised, unchanged.
        """
        with self._lock:
            admitted = self._queued < self.max_queue
            if admitted:
                self._queued += 1
        if not admitted:
            self.metrics.add("serving.shed_overload")
            raise RetryLater(self.retry_after)
        self.metrics.add("serving.admitted")
        admitted_at = time.monotonic()
        expires_at = None if deadline is None else admitted_at + deadline
        try:
            future = self._pool.submit(self._run, fn, admitted_at, expires_at)
        except RuntimeError:
            # The pool is shut down; give the queued slot back and shed.
            with self._lock:
                self._queued -= 1
            raise RetryLater(self.retry_after)
        return future.result()

    def _run(self, fn: Callable[[], T], admitted_at: float, expires_at: Optional[float]) -> T:
        now = time.monotonic()
        expired = expires_at is not None and now > expires_at
        with self._lock:
            self._queued -= 1
            if not expired:
                self._running += 1
        if expired:
            self.metrics.add("serving.shed_deadline")
            raise DeadlineExceeded(now - admitted_at)
        try:
            return fn()
        finally:
            with self._lock:
                self._running -= 1
            self.metrics.add("serving.completed")

    def close(self) -> None:
        """Shut the pool down, waiting for running requests."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPoolDispatcher":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the pool."""
        self.close()
