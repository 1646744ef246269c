"""Per-stage caching with hit/miss/latency accounting.

:class:`StageCache` gives every pipeline stage its own
:class:`~repro.pipeline.concurrency.SingleFlightCache`:
``get_or_build(stage, key, builder)`` is the only way stage values come
into existence, so N concurrent misses on one key run the builder once,
and hits, misses, coalesced lookups and build latency are counted where
the work happens, in the cache's :class:`~repro.obs.Metrics` registry
under ``pipeline.<stage>.``.  :func:`stage_rows` renders them as the
per-stage rows of ``GET /api/stats``.  The pipeline declares every
stage up front, so a cold deployment lists each one.

An optional **L2** extends single-flight across *processes*: on an L1
miss the builder path reads the L2 store (content-addressed by the same
stage keys; :class:`repro.cluster.stagecache.ClusterStageCache` is the
shipped implementation), else takes its cross-process build lock and
waits for the winner or builds and publishes.  The L2 is duck-typed
(``get``/``put``/``build_lock``/``wait_for``, with :data:`L2_MISS` as
the miss sentinel) so this layer stays free of cluster imports.  Each
such lookup is counted once, here: an L2 hit when the value came from
the store (directly or after waiting), an L2 miss when this process
built it.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.obs import Metrics, Snapshot, histogram
from repro.pipeline.concurrency import SingleFlightCache

__all__ = ["DEFAULT_STAGE_CAPACITY", "L2_MISS", "StageCache", "stage_rows"]

V = TypeVar("V")

#: Entries a stage's cache holds unless the capacity map says otherwise.
DEFAULT_STAGE_CAPACITY = 64

#: Sentinel an L2 store's ``get``/``wait_for`` return on a miss, so that
#: ``None`` stays a legal cached value.  Defined here (not in the
#: cluster package) because this is the consumer side of the protocol.
L2_MISS = object()


class StageCache:
    """Named single-flight caches, one per pipeline stage.

    Args:
        capacities: stage name → entry bound; stages absent from the map
            get ``default_capacity``.  Result-set and navigation-tree
            stages typically share the serving layer's tree-cache bound;
            the cut stage wants a larger bound (one entry per distinct
            expanded component).
        default_capacity: bound for unconfigured stages.
        l2: optional cross-process artifact store (see the module
            docstring) every stage's misses consult.
        metrics: the registry every count goes into; the serving
            runtime passes its own, a standalone cache makes one.
    """

    def __init__(
        self,
        capacities: Optional[Dict[str, int]] = None,
        default_capacity: int = DEFAULT_STAGE_CAPACITY,
        l2: Optional[object] = None,
        metrics: Optional[Metrics] = None,
    ):
        if default_capacity < 1:
            raise ValueError("default_capacity must be positive")
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._capacities = dict(capacities or {})
        self._default_capacity = default_capacity
        self._caches: Dict[str, SingleFlightCache] = {}
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
        L2 store is wired in the build path goes through it: fetch a
        published artifact, or take the cross-process build lock, build,
        and publish.
        """
        cache = self._cache_for(stage)
        if self._l2 is not None:
            return cache.get_or_create(
                key, lambda: self._build_via_l2(stage, key, builder)
            )
        return cache.get_or_create(key, lambda: self._timed_build(stage, builder))

    def _timed_build(self, stage: str, builder: Callable[[], V]) -> V:
        started = time.perf_counter()
        value = builder()
        self.metrics.observe(
            "pipeline.%s.build_seconds" % stage, time.perf_counter() - started
        )
        return value

    def _build_via_l2(self, stage: str, key: str, builder: Callable[[], V]) -> V:
        """The L1-miss path when an L2 store is wired in.

        Order: published artifact → cross-process single-flight (wait
        for the winner) → build locally and publish.  Runs outside this
        object's lock.
        """
        l2 = self._l2
        counter = "pipeline.%s.l2_" % stage
        value = l2.get(stage, key)  # type: ignore[union-attr]
        if value is L2_MISS:
            with l2.build_lock(stage, key) as lock:  # type: ignore[union-attr]
                if not lock.acquired:
                    # Coalesce onto another process's build.
                    value = l2.wait_for(  # type: ignore[union-attr]
                        stage, key, self._l2_wait
                    )
                if value is L2_MISS:
                    self.metrics.add(counter + "misses")
                    built = self._timed_build(stage, builder)
                    if l2.put(stage, key, built):  # type: ignore[union-attr]
                        self.metrics.add(counter + "publishes")
                    return built
        self.metrics.add(counter + "hits")
        return value  # type: ignore[return-value]

    def declare(self, stage: str) -> None:
        """List ``stage`` in :meth:`snapshot`, with zero counters, before
        its first lookup, so a cold deployment reports every stage."""
        self._cache_for(stage)

    def items(self, stage: str) -> List[Tuple[str, object]]:
        """Snapshot of one stage's (key, value) entries, LRU first.

        Empty when the stage has no cache yet; never perturbs recency
        or the hit/miss counters.
        """
        with self._lock:
            cache = self._caches.get(stage)
        return cache.items() if cache is not None else []

    def clear(self) -> None:
        """Drop every stage's entries (counts stay in the registry)."""
        with self._lock:
            caches = list(self._caches.values())
        for cache in caches:
            cache.clear()

    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, int]:
        """Live ``pipeline.<stage>.size``/``.capacity`` of every stage."""
        with self._lock:
            caches = dict(self._caches)
        gauges: Dict[str, int] = {}
        for stage, cache in caches.items():
            gauges["pipeline.%s.size" % stage] = len(cache)
            gauges["pipeline.%s.capacity" % stage] = cache.capacity
        return gauges

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """stage name → its stats row (see :func:`stage_rows`)."""
        return stage_rows(self.metrics.snapshot(), self.gauges())

    # ------------------------------------------------------------------
    def _cache_for(self, stage: str) -> SingleFlightCache:
        with self._lock:
            cache = self._caches.get(stage)
            if cache is None:
                capacity = self._capacities.get(stage, self._default_capacity)
                cache = SingleFlightCache(capacity, self.metrics, "pipeline." + stage)
                self._caches[stage] = cache
            return cache


def stage_rows(
    snapshot: Snapshot, gauges: Mapping[str, Any]
) -> Dict[str, Dict[str, float]]:
    """Per-stage stats rows from a registry snapshot plus live gauges.

    Every stage named by a ``pipeline.<stage>.*`` entry gets a row of
    one shape: ``builds`` and the build-latency fields (read from the
    stage's ``build_seconds`` histogram), ``l2_hits``/``l2_misses``/
    ``l2_publishes``, the ``size``/``capacity`` gauges,
    ``hits``/``misses``/``evictions``/``coalesced`` and ``hit_ratio``
    (coalesced lookups count as neither hit nor miss).  A count or gauge
    nothing recorded reads 0.
    """
    counters = snapshot["counters"]
    stages = dict.fromkeys(
        name.split(".")[1]
        for name in itertools.chain(gauges, counters, snapshot["histograms"])
        if name.startswith("pipeline.")
    )
    rows: Dict[str, Dict[str, float]] = {}
    for stage in stages:
        prefix = "pipeline.%s." % stage
        build = histogram(snapshot, prefix + "build_seconds")
        builds = build["count"]
        row = {
            "builds": builds,
            "build_seconds_total": build["sum"],
            "build_ms_avg": 1000.0 * build["sum"] / builds if builds else 0.0,
            "build_ms_max": 1000.0 * build["max"],
        }
        for key in ("l2_hits", "l2_misses", "l2_publishes"):
            row[key] = counters.get(prefix + key, 0)
        for key in ("size", "capacity"):
            row[key] = gauges.get(prefix + key, 0)
        for key in ("hits", "misses", "evictions", "coalesced"):
            row[key] = counters.get(prefix + key, 0)
        lookups = row["hits"] + row["misses"]
        row["hit_ratio"] = row["hits"] / lookups if lookups else 0.0
        rows[stage] = row
    return rows
