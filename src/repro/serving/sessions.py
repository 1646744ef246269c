"""Bounded session registry with per-session locks.

Navigation sessions are stateful (an active tree plus an expand log), so
two threads interleaving EXPAND and BACKTRACK on one session can corrupt
it — the log can record an expand the active tree already undid.  The
registry therefore pairs every session with its own reentrant lock;
:meth:`SessionRegistry.checkout` hands the session out only with that
lock held, making each user action atomic with respect to the others
while leaving *different* sessions free to run in parallel.

Eviction is the second concern: the store is a bounded LRU (as in the
single-threaded web layer), but an evicted session used to surface as a
bare 404, indistinguishable from a typo'd id.  Session ids are issued
from one monotonic counter, so the registry can classify a miss exactly:
ids it has issued but no longer holds raise :class:`SessionExpired`
(clients re-run the search), ids it never issued raise ``KeyError``.
The registry counts ``sessions.created``, ``sessions.evicted`` and
``sessions.expired_lookups`` in its :class:`~repro.obs.Metrics`.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core.session import NavigationSession
from repro.obs import Metrics

__all__ = ["SessionExpired", "SessionEntry", "SessionRegistry"]

_SID_RE = re.compile(r"^s(\d{6,})$")


class SessionExpired(KeyError):
    """A previously issued session was evicted from the bounded store.

    Subclasses ``KeyError`` so callers that only distinguish "found /
    not found" keep working; the web layer maps it to a distinct
    ``session_expired`` error so clients recover by re-running the
    search instead of retrying a dead id.
    """

    def __init__(self, sid: str):
        super().__init__(sid)
        self.sid = sid


@dataclass
class SessionEntry:
    """One live session plus everything its requests need.

    Attributes:
        query: the keyword query the session navigates.
        session: the navigation session itself.
        state: the shared per-query artifacts (tree/probs)
            the web layer caches; held here by reference so the session
            keeps working even after the query cache evicts the entry.
        lock: the per-session lock serializing this session's actions.
    """

    query: str
    session: NavigationSession
    state: object
    lock: threading.RLock = field(default_factory=threading.RLock)


class SessionRegistry:
    """A bounded, thread-safe LRU store of navigation sessions.

    Args:
        capacity: live-session bound.
        metrics: the registry session churn is counted in; a standalone
            store makes its own.
    """

    def __init__(self, capacity: int, metrics: Optional[Metrics] = None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._counter = 0

    def create(self, query: str, session: NavigationSession, state: object) -> str:
        """Register a new session; returns its id (``s000001``, ...)."""
        with self._lock:
            self._counter += 1
            sid = "s%06d" % self._counter
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.metrics.add("sessions.evicted")
            self._entries[sid] = SessionEntry(query=query, session=session, state=state)
            self.metrics.add("sessions.created")
            return sid

    @contextmanager
    def checkout(self, sid: str) -> Iterator[SessionEntry]:
        """Yield ``sid``'s entry with its per-session lock held.

        Raises:
            SessionExpired: the id was issued but has been evicted.
            KeyError: the id was never issued by this registry.
        """
        with self._lock:
            entry = self._entries.get(sid)
            if entry is None:
                match = _SID_RE.match(sid)
                if match and 1 <= int(match.group(1)) <= self._counter:
                    self.metrics.add("sessions.expired_lookups")
                    raise SessionExpired(sid)
                raise KeyError("session %s" % sid)
            self._entries.move_to_end(sid)
        with entry.lock:
            yield entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
