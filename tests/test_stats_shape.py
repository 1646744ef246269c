"""Guard on the shape of ``/api/stats`` and ``/api/health``.

Dashboards and ``perfbench/run.py`` read these answers by key, so the
full key tree of both endpoints is pinned here, for a single-process
:class:`~repro.serving.runtime.ServingRuntime` and for a one-worker
:class:`~repro.cluster.router.BioNavCluster` with a shared L2.  Every
key ``perfbench``'s ``count_stats`` reads must exist in the answers.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.bionav import BioNav
from repro.cluster import BioNavCluster, ClusterConfig
from repro.serving.runtime import ServingRuntime

RUN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _cached_stages():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CACHED_STAGES


def key_tree(value: Any) -> Any:
    """Dicts become {key: subtree}, lists [subtree of every element]."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        shapes = [key_tree(item) for item in value]
        assert all(shape == shapes[0] for shape in shapes), shapes
        return shapes[:1]
    return None


def leaves(names: str) -> Dict[str, None]:
    return dict.fromkeys(names.split())


STAGE_ROW = leaves(
    "builds build_seconds_total build_ms_avg build_ms_max l2_hits l2_misses "
    "l2_publishes size capacity hits misses evictions coalesced hit_ratio"
)
PIPELINE = dict.fromkeys(["results", "nav_tree", "cut"], STAGE_ROW)
SESSIONS = leaves("active capacity created evicted expired_lookups")
SERVING = dict(
    leaves("workers queue_depth queue_capacity in_flight admitted completed"),
    shed=leaves("overload deadline total"),
)
SOLVER = leaves("expands total_ms mean_ms p50_ms p95_ms p99_ms max_ms mean_reduced_size")
L2 = leaves("hits misses hit_ratio publishes evictions errors entries bytes")
RUNTIME_STATS = dict(
    pipeline=PIPELINE,
    sessions=SESSIONS,
    serving=SERVING,
    queries=[leaves("query tree_size")],
    solver=SOLVER,
)
RUNTIME_HEALTH = dict(
    leaves(
        "status workers queue_depth queue_capacity in_flight sessions_active solver "
        "results_page_size uptime_seconds"
    ),
    store=leaves("backend path manifest citations"),
)
WORKER = leaves("name generation alive respawns queue_depth")
CLUSTER_STATS = dict(
    cluster=leaves("size crashes shed_total"),
    pipeline=PIPELINE,
    l2=L2,
    workers=[dict(WORKER, stats=dict(RUNTIME_STATS, l2=L2))],
    solver=SOLVER,
    serving=SERVING,
    sessions=SESSIONS,
)
CLUSTER_HEALTH = dict(
    leaves("status workers queue_depth sessions_active results_page_size uptime_seconds"),
    cluster=leaves("size crashes"),
    shards=[dict(WORKER, status=None, health=RUNTIME_HEALTH)],
)


def _drive(service, keyword: str) -> None:
    sid = service.search(keyword).session
    service.expand(sid, service.view(sid).rows[0].node)


def _assert_count_stats_keys(stats: Dict[str, Any], with_l2: bool) -> None:
    for stage in _cached_stages():
        for key in ("hits", "misses"):
            assert key in stats["pipeline"][stage], (stage, key)
    if with_l2:
        for key in ("hits", "misses", "publishes"):
            assert key in stats["l2"], key


@pytest.fixture(scope="module")
def bionav(small_workload) -> BioNav:
    return BioNav(small_workload.database, small_workload.entrez)


@pytest.fixture(scope="module")
def keyword(small_workload) -> str:
    return small_workload.queries[0].spec.keyword


def test_runtime_stats_and_health_key_trees(bionav, keyword):
    with ServingRuntime(bionav, workers=2) as runtime:
        _drive(runtime, keyword)
        stats = runtime.stats()
        assert key_tree(stats) == RUNTIME_STATS
        assert key_tree(runtime.health()) == RUNTIME_HEALTH
    _assert_count_stats_keys(stats, with_l2=False)


def test_one_worker_cluster_stats_and_health_key_trees(bionav, keyword, tmp_path):
    config = ClusterConfig(
        workers=1,
        cache_dir=str(tmp_path / "l2"),
        heartbeat_interval=0.05,
        poll_interval=0.02,
        request_timeout=30.0,
    )
    with BioNavCluster(bionav, config) as cluster:
        _drive(cluster, keyword)
        stats = cluster.stats()
        health = cluster.health()
    assert key_tree(stats) == CLUSTER_STATS
    assert key_tree(health) == CLUSTER_HEALTH
    _assert_count_stats_keys(stats, with_l2=True)
    _assert_count_stats_keys(stats["workers"][0]["stats"], with_l2=True)
