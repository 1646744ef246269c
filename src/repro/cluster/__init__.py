"""Multiprocess serving over a shared stage cache.

The serving runtime (:mod:`repro.serving`) is one process: request
threads over CPU-bound solver work, so the GIL caps real scaling.  This package is the horizontal scale-out layer the ROADMAP
calls for — the shape of the deployed BioNav system (paper §VII), where
many concurrent navigation sessions front one shared MEDLINE/MeSH
store:

* :class:`~repro.cluster.stagecache.ClusterStageCache` — a file-backed,
  content-addressed artifact store the per-process
  :class:`~repro.pipeline.cache.StageCache` consults as an L2, so a
  navigation tree built by one worker is never rebuilt by another;
* :mod:`~repro.cluster.workers` — worker-process lifecycle: spawn,
  heartbeats, crash detection, automatic respawn;
* :class:`~repro.cluster.router.BioNavCluster` — the front-end facade
  that places each new session on the next worker in round-robin
  order, admits every request through its worker's
  :class:`~repro.serving.dispatcher.WorkerPoolDispatcher` gate (one
  request in flight per worker; the excess waits or is shed),
  routes EXPAND/BACKTRACK to the worker that owns the session,
  and merges ``/api/health`` / ``/api/stats`` across the fleet.  It
  exposes the same operation surface as
  :class:`~repro.serving.runtime.ServingRuntime`, so
  :class:`~repro.web.app.BioNavWebApp` mounts either interchangeably
  (``python -m repro.web --cluster N``).
"""

from repro.cluster.router import BioNavCluster, ClusterConfig
from repro.cluster.stagecache import ClusterStageCache

__all__ = [
    "BioNavCluster",
    "ClusterConfig",
    "ClusterStageCache",
]
