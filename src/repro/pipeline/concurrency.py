"""The single-flight LRU cache backing every pipeline stage.

:class:`SingleFlightCache` is a thread-safe LRU cache whose one lookup,
``get_or_create``, has *single-flight* semantics: when N threads miss
on the same key at once, one runs the factory while the other N-1 block
on a per-key event and receive the same value — the navigation tree for
a hot query is built exactly once no matter how many users issue it
concurrently.  It counts its hits, misses, evictions and coalesced
lookups in the :class:`~repro.obs.Metrics` registry it is given.

An evicted value something else still holds (a live session's tree)
stays reachable through a weak reference, so a later lookup returns it
instead of building, or fetching from the L2, a second copy.

The class lives in the pipeline layer because the
:class:`~repro.pipeline.cache.StageCache` is its primary holder; the
serving layer re-exports it from :mod:`repro.serving`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.obs import Metrics

__all__ = ["SingleFlightCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class _Flight:
    """One in-progress factory call other threads can wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


class SingleFlightCache(Generic[K, V]):
    """A locked LRU cache with single-flight ``get_or_create``.

    All entry mutation happens inside ``self._lock``; the factory
    itself runs *outside* the lock so a slow build (a cold
    navigation-tree construction) never blocks hits on other keys.

    Args:
        capacity: entry bound.
        metrics: registry the cache counts into, as ``<prefix>.hits``,
            ``.misses``, ``.evictions`` and ``.coalesced`` (lookups that
            piggy-backed on another thread's in-flight build instead of
            running the factory again).
        prefix: counter-name prefix.
    """

    def __init__(self, capacity: int, metrics: Metrics, prefix: str):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._metrics = metrics
        self._prefix = prefix + "."
        self._lock = threading.Lock()
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._evicted: "weakref.WeakValueDictionary[K, V]" = weakref.WeakValueDictionary()
        self._flights: Dict[K, _Flight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _put_locked(self, key: K, value: V) -> None:
        """Insert/refresh assuming ``self._lock`` is already held."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.capacity:
            old_key, old_value = self._entries.popitem(last=False)
            try:
                self._evicted[old_key] = old_value
            except TypeError:
                pass  # not weakly referenceable: nothing else can share it
            self._metrics.add(self._prefix + "evictions")
        self._entries[key] = value

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """Fetch ``key``, or build it exactly once across all threads.

        The first thread to miss runs ``factory`` and publishes the
        value; concurrent missers block on a per-key event and return
        the published value (counted in ``coalesced``).  A factory
        exception propagates to the builder *and* every waiter, and
        nothing is cached, so the next lookup retries.  A held evicted
        value is re-admitted and counts as a hit.
        """
        with self._lock:
            held = self._evicted.pop(key, None)
            if held is not None:
                self._put_locked(key, held)
            if key in self._entries:
                self._metrics.add(self._prefix + "hits")
                self._entries.move_to_end(key)
                return self._entries[key]
            flight = self._flights.get(key)
            if flight is None:
                self._metrics.add(self._prefix + "misses")
                flight = _Flight()
                self._flights[key] = flight
                building = True
            else:
                self._metrics.add(self._prefix + "coalesced")
                building = False
        if not building:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value  # type: ignore[return-value]
        try:
            value = factory()
        except BaseException as exc:
            with self._lock:
                self._flights.pop(key, None)
            flight.error = exc
            flight.event.set()
            raise
        with self._lock:
            self._put_locked(key, value)
            self._flights.pop(key, None)
        flight.value = value
        flight.event.set()
        return value

    def items(self) -> List[Tuple[K, V]]:
        """Snapshot of (key, value) pairs, LRU first.

        Neither refreshes recency nor counts a lookup — stats endpoints
        observe the cache without perturbing it.
        """
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry, held evicted ones too (counts stay in the registry)."""
        with self._lock:
            self._entries.clear()
            self._evicted.clear()
