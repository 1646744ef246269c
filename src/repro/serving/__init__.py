"""Concurrent serving runtime for the BioNav web deployment (paper §VII).

The paper's system is a multi-user web application, but the substrate
modules (`repro.web.app`, the shared Heuristic-ReducedOpt decision
cache) are single-threaded shared state.  This package supplies the
runtime that makes them safe to drive from many threads at once:

* the locked, **single-flight** LRU cache (concurrent misses on one
  query build the navigation tree exactly once) is
  :class:`~repro.pipeline.concurrency.SingleFlightCache`; every count
  and latency series lives in one :class:`~repro.obs.Metrics` registry
  per runtime.
* :mod:`repro.serving.sessions` — a bounded session registry handing out
  per-session locks, so interleaved EXPAND/BACKTRACK on one session stay
  serializable, and distinguishing *expired* sessions from unknown ones.
* :mod:`repro.serving.dispatcher` — bounded admission that runs each
  request on its caller's thread (no pool, no hand-off), with load
  shedding (503 + ``Retry-After`` instead of an unbounded queue) and
  per-request queueing deadlines.
* :mod:`repro.serving.runtime` — the :class:`ServingRuntime` facade the
  web layer mounts; every user action becomes a dispatched, lock-correct
  operation returning plain view data.

Locking discipline in this package is machine-checked by the
``lock-discipline`` analyzer rule (``tools/analyzer/rules/locking.py``).
"""

from __future__ import annotations

from repro.pipeline.concurrency import SingleFlightCache
from repro.serving.dispatcher import DeadlineExceeded, RetryLater, WorkerPoolDispatcher
from repro.serving.runtime import (
    CostView,
    ResultsView,
    SearchResult,
    ServingRuntime,
    SessionView,
)
from repro.serving.sessions import SessionExpired, SessionRegistry

__all__ = [
    "CostView",
    "DeadlineExceeded",
    "ResultsView",
    "RetryLater",
    "SearchResult",
    "ServingRuntime",
    "SessionExpired",
    "SessionRegistry",
    "SessionView",
    "SingleFlightCache",
    "WorkerPoolDispatcher",
]
