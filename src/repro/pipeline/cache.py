"""Per-stage caching with hit/miss/latency accounting.

:class:`StageCache` gives every pipeline stage its own
:class:`~repro.pipeline.concurrency.SingleFlightCache` plus a latency
ledger, under one façade: ``get_or_build(stage, key, builder)`` is the
only way stage values come into existence, so hits, misses, coalesced
lookups and build latency are measured at the exact point the work
happens.  N concurrent requests missing on the same stage key still run
the builder exactly once (the single-flight guarantee the serving layer
relies on), and the per-stage counters feed ``GET /api/stats``.

Stages that are deliberately uncached — activating a session's active
tree is per-user state — still report through :meth:`record_run`, so
the stats surface covers every stage of the dataflow, cached or not.
The pipeline declares each of its stages up front
(:meth:`StageCache.declare`), so a stage has its zero row before its
first lookup.

An optional **L2** extends the single-flight guarantee across
*processes*: when the in-process cache misses, the builder path first
consults the L2 store (content-addressed by the same stage keys —
:class:`repro.cluster.stagecache.ClusterStageCache` is the shipped
implementation), takes the store's cross-process build lock, and
publishes what it builds.  A navigation tree built by one cluster
worker is then unpickled, never rebuilt, by the others.  The L2 is
duck-typed (``stages``/``get``/``put``/``build_lock``/``wait_for``,
with :data:`L2_MISS` as the miss sentinel) so this layer stays free of
cluster imports.

Thread safety follows the serving layer's lock discipline: every
counter mutation happens inside ``self._lock`` (the per-stage entry
stores live in ``SingleFlightCache`` instances, which lock themselves).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.pipeline.concurrency import SingleFlightCache

__all__ = ["DEFAULT_STAGE_CAPACITY", "L2_MISS", "StageCache"]

V = TypeVar("V")

#: Entries a stage's cache holds unless the capacity map says otherwise.
DEFAULT_STAGE_CAPACITY = 64

#: Sentinel an L2 store's ``get``/``wait_for`` return on a miss, so that
#: ``None`` stays a legal cached value.  Defined here (not in the
#: cluster package) because this is the consumer side of the protocol.
L2_MISS = object()


class _StageLedger:
    """Mutable latency/run counters for one stage (guarded by StageCache)."""

    __slots__ = (
        "builds",
        "build_seconds",
        "build_seconds_max",
        "runs",
        "l2_hits",
        "l2_misses",
        "l2_publishes",
    )

    def __init__(self) -> None:
        self.builds = 0
        self.build_seconds = 0.0
        self.build_seconds_max = 0.0
        self.runs = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.l2_publishes = 0


class StageCache:
    """Named single-flight caches, one per pipeline stage.

    Args:
        capacities: stage name → entry bound; stages absent from the map
            get ``default_capacity``.  The hierarchy stage holds one
            entry per deployment, so even a capacity of 1 never evicts
            it; result-set and navigation-tree stages typically share
            the serving layer's tree-cache bound; the cut stage wants a
            larger bound (one entry per distinct expanded component).
        default_capacity: bound for unconfigured stages.
        l2: optional cross-process artifact store (see the module
            docstring); its ``stages`` attribute gates which stages
            consult it.
    """

    def __init__(
        self,
        capacities: Optional[Dict[str, int]] = None,
        default_capacity: int = DEFAULT_STAGE_CAPACITY,
        l2: Optional[object] = None,
    ):
        if default_capacity < 1:
            raise ValueError("default_capacity must be positive")
        self._lock = threading.Lock()
        self._capacities = dict(capacities or {})
        self._default_capacity = default_capacity
        self._caches: Dict[str, SingleFlightCache] = {}
        self._ledgers: Dict[str, _StageLedger] = {}
        self._l2 = l2
        # How long a loser of the cross-process build race waits for the
        # winner's publish before building locally anyway.
        self._l2_wait = float(getattr(l2, "stale_after", 30.0))

    # ------------------------------------------------------------------
    def get_or_build(self, stage: str, key: str, builder: Callable[[], V]) -> V:
        """Fetch ``key`` from ``stage``'s cache or build it exactly once.

        The builder runs outside every lock; its wall-clock time is
        recorded against the stage.  Concurrent misses on the same key
        coalesce onto one build (see ``SingleFlightCache``), and when an
        L2 store covers the stage the build path goes through it: fetch
        a published artifact, or take the cross-process build lock,
        build, and publish.
        """
        cache = self._cache_for(stage)
        l2 = self._l2
        if l2 is not None and stage in l2.stages:  # type: ignore[attr-defined]
            return cache.get_or_create(
                key, lambda: self._build_via_l2(stage, key, builder)
            )

        def timed_builder() -> V:
            started = time.perf_counter()
            value = builder()
            self._record_build(stage, time.perf_counter() - started)
            return value

        return cache.get_or_create(key, timed_builder)

    def _build_via_l2(self, stage: str, key: str, builder: Callable[[], V]) -> V:
        """The L1-miss path when an L2 store covers ``stage``.

        Order: published artifact → cross-process single-flight (wait
        for the winner) → build locally and publish.  Runs outside this
        object's lock; only counter updates take it.
        """
        l2 = self._l2
        value = l2.get(stage, key)  # type: ignore[union-attr]
        if value is not L2_MISS:
            self._record_l2(stage, hits=1)
            return value  # type: ignore[return-value]
        with l2.build_lock(stage, key) as lock:  # type: ignore[union-attr]
            if not lock.acquired:
                value = l2.wait_for(stage, key, self._l2_wait)  # type: ignore[union-attr]
                if value is not L2_MISS:
                    # Coalesced onto another process's build.
                    self._record_l2(stage, hits=1)
                    return value  # type: ignore[return-value]
            self._record_l2(stage, misses=1)
            started = time.perf_counter()
            built = builder()
            self._record_build(stage, time.perf_counter() - started)
            if l2.put(stage, key, built):  # type: ignore[union-attr]
                self._record_l2(stage, publishes=1)
        return built

    def declare(self, stage: str, cached: bool = True) -> None:
        """List ``stage`` in :meth:`snapshot`, with zero counters, before
        its first lookup or run, so a cold deployment reports every stage."""
        if cached:
            self._cache_for(stage)
        else:
            with self._lock:
                self._ledger_locked(stage)

    def record_run(self, stage: str, seconds: float) -> None:
        """Account one execution of an uncached stage."""
        with self._lock:
            ledger = self._ledger_locked(stage)
            ledger.runs += 1
            ledger.build_seconds += seconds
            ledger.build_seconds_max = max(ledger.build_seconds_max, seconds)

    def items(self, stage: str) -> List[Tuple[str, object]]:
        """Snapshot of one stage's (key, value) entries, LRU first.

        Empty when the stage has no cache yet; never perturbs recency
        or the hit/miss counters.
        """
        with self._lock:
            cache = self._caches.get(stage)
        return cache.items() if cache is not None else []

    def clear(self) -> None:
        """Drop every stage's entries (statistics are kept)."""
        with self._lock:
            caches = list(self._caches.values())
        for cache in caches:
            cache.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """stage name → one consistent reading of its counters.

        Cached stages report ``hits``/``misses``/``coalesced``/
        ``evictions``/``size``/``capacity``/``hit_ratio`` from their
        single-flight cache plus the build-latency ledger; uncached
        stages report ``runs`` and the same latency fields.
        """
        with self._lock:
            caches = dict(self._caches)
            ledgers = {name: self._ledger_row_locked(name) for name in self._ledgers}
        stages: Dict[str, Dict[str, float]] = {}
        for name, row in ledgers.items():
            stages[name] = row
        for name, cache in caches.items():
            row = stages.setdefault(name, self._empty_ledger_row())
            row.update(cache.snapshot())
        return stages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_for(self, stage: str) -> SingleFlightCache:
        with self._lock:
            cache = self._caches.get(stage)
            if cache is None:
                capacity = self._capacities.get(stage, self._default_capacity)
                cache = SingleFlightCache(capacity)
                self._caches[stage] = cache
                self._ledger_locked(stage)
            return cache

    def _record_build(self, stage: str, seconds: float) -> None:
        with self._lock:
            ledger = self._ledger_locked(stage)
            ledger.builds += 1
            ledger.build_seconds += seconds
            ledger.build_seconds_max = max(ledger.build_seconds_max, seconds)

    def _record_l2(
        self, stage: str, hits: int = 0, misses: int = 0, publishes: int = 0
    ) -> None:
        with self._lock:
            ledger = self._ledger_locked(stage)
            ledger.l2_hits += hits
            ledger.l2_misses += misses
            ledger.l2_publishes += publishes

    def _ledger_locked(self, stage: str) -> _StageLedger:
        """Fetch/create a stage's ledger; caller holds the lock."""
        ledger = self._ledgers.get(stage)
        if ledger is None:
            ledger = _StageLedger()
            self._ledgers[stage] = ledger
        return ledger

    def _ledger_row_locked(self, stage: str) -> Dict[str, float]:
        """Render one ledger as a stats row; caller holds the lock."""
        ledger = self._ledgers[stage]
        executed = ledger.builds + ledger.runs
        return {
            "builds": ledger.builds,
            "runs": ledger.runs,
            "build_seconds_total": ledger.build_seconds,
            "build_ms_avg": (
                1000.0 * ledger.build_seconds / executed if executed else 0.0
            ),
            "build_ms_max": 1000.0 * ledger.build_seconds_max,
            "l2_hits": ledger.l2_hits,
            "l2_misses": ledger.l2_misses,
            "l2_publishes": ledger.l2_publishes,
        }

    @staticmethod
    def _empty_ledger_row() -> Dict[str, float]:
        return {
            "builds": 0,
            "runs": 0,
            "build_seconds_total": 0.0,
            "build_ms_avg": 0.0,
            "build_ms_max": 0.0,
            "l2_hits": 0,
            "l2_misses": 0,
            "l2_publishes": 0,
        }
