"""Admission control: a bounded gate in front of every request.

An unbounded queue converts overload into unbounded latency — every
queued request eventually runs, long after its user gave up.  Requests
instead enter through :meth:`WorkerPoolDispatcher.call`, which runs the
request on the calling (WSGI) thread once admitted, so the request
keeps its thread and its ``contextvars``: at most ``workers`` requests
run at once, at most ``max_queue`` wait, in arrival order, and
everything beyond that is shed immediately with :class:`RetryLater`
(the web layer answers ``503`` with a ``Retry-After`` header).  A
request still queued when its deadline passes leaves the queue with
:class:`DeadlineExceeded` instead of doing work nobody is waiting for;
running requests are never preempted — deadlines bound *queueing*
delay (``queue_depth``: admitted, not yet running), the component
overload actually inflates.

The waiting queue and running count are control state, kept under the
dispatcher's condition variable (``self._lock``); ``serving.admitted``,
``serving.completed``, ``serving.shed_overload`` and
``serving.shed_deadline`` are counters in the
:class:`~repro.obs.Metrics` registry, and every admitted request ends
as exactly one of completed or shed by deadline.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, TypeVar

from repro.obs import Metrics

__all__ = ["DeadlineExceeded", "RetryLater", "WorkerPoolDispatcher"]

T = TypeVar("T")


class RetryLater(Exception):
    """The request was shed at admission: the queue is full or closed.

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
    """The request's deadline passed while it waited for a free slot."""

    def __init__(self, waited: float):
        super().__init__(
            "request deadline exceeded after %.3fs in the queue" % waited
        )
        self.waited = waited


class WorkerPoolDispatcher:
    """Bounded admission that runs each request on its caller's thread.

    Args:
        workers: requests allowed to run at once (the concurrency cap).
        max_queue: admitted requests allowed to wait for a free slot
            (requests already running do not count).
        deadline: optional per-request budget in seconds, measured from
            admission; a request still queued when it expires is dropped
            instead of executed.
        retry_after: back-off hint attached to shed requests.
        metrics: the registry admissions and sheds are counted in; a
            standalone dispatcher makes its own.
    """

    def __init__(
        self,
        workers: int,
        max_queue: int = 64,
        deadline: Optional[float] = None,
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
        self.deadline = deadline
        self.retry_after = retry_after
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Condition()
        self._queue: Deque[object] = deque()  # waiters' tickets, oldest first
        self._running = 0
        self._closed = False

    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet running."""
        with self._lock:
            return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Requests currently running."""
        with self._lock:
            return self._running

    @property
    def shed_retry_after(self) -> float:
        """Client back-off for shed requests, in seconds: never below the
        queueing deadline, since a request shed by it shows the queue
        needs that long to drain (rounded up for ``Retry-After``)."""
        return max(self.retry_after, self.deadline or 0.0)

    def health(self) -> Dict[str, object]:
        """The gate's ``/api/health`` fields, read at one instant."""
        with self._lock:
            depth = len(self._queue)
            return {
                "status": "overloaded" if depth >= self.max_queue else "ok",
                "workers": self.workers,
                "queue_depth": depth,
                "queue_capacity": self.max_queue,
                "in_flight": self._running,
            }

    def gauges(self) -> Dict[str, object]:
        """The gate's ``serving.*`` gauges: :meth:`health` but ``status``."""
        readings = self.health().items()
        return {"serving." + key: value for key, value in readings if key != "status"}

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` on this thread once admitted; return its result.

        Raises:
            RetryLater: shed at admission (queue full, or closed).
            DeadlineExceeded: deadline passed while queued.
            Exception: whatever ``fn`` raised, unchanged.
        """
        ticket = object()
        deadline = self.deadline
        with self._lock:
            if self._closed:
                raise RetryLater(self.retry_after)
            if len(self._queue) >= self.max_queue:
                self.metrics.add("serving.shed_overload")
                raise RetryLater(self.retry_after)
            self.metrics.add("serving.admitted")
            admitted_at = time.monotonic()
            self._queue.append(ticket)
            while self._queue[0] is not ticket or self._running >= self.workers:
                waited = time.monotonic() - admitted_at
                if deadline is not None and waited >= deadline:
                    self._queue.remove(ticket)
                    self._lock.notify_all()  # the next waiter may be head now
                    self.metrics.add("serving.shed_deadline")
                    raise DeadlineExceeded(waited)
                self._lock.wait(None if deadline is None else deadline - waited)
            self._queue.popleft()
            self._running += 1
            self._lock.notify_all()  # a second free slot goes to the new head
        try:
            return fn()
        finally:
            with self._lock:
                self._running -= 1
                self._lock.notify_all()
            self.metrics.add("serving.completed")

    def close(self) -> None:
        """Refuse new requests; wait until every admitted one finished."""
        with self._lock:
            self._closed = True
            self._lock.wait_for(lambda: not self._running and not self._queue)

    def __enter__(self) -> "WorkerPoolDispatcher":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the dispatcher."""
        self.close()
