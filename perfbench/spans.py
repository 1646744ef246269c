"""Span recording around the program's public entry points.

The traced server process installs :class:`Recorder` wrappers on the
functions in :data:`TARGETS` (nothing under ``src/`` changes). A span is
``(name, start, end, parent, tag)``: ``parent`` is the index of the
enclosing span, ``tag`` the ``(session, op, request)`` triple the client
sent in ``X-Bench-*`` headers. Spans stay in memory until the client asks
for them at the end of the run.

The recorder keeps one stack per process, not per thread: the WSGI
thread blocks in the dispatcher while a pool thread runs the operation,
and the benchmark has one request in flight at a time, so the calls on
both threads nest strictly in time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["TARGETS", "LAYERS", "Recorder", "self_times"]

#: (module, attribute path, layer) for every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.web.app", "BioNavWebApp.__call__", "web"),
    ("repro.serving.runtime", "ServingRuntime.search", "serving"),
    ("repro.serving.runtime", "ServingRuntime.expand", "serving"),
    ("repro.serving.runtime", "ServingRuntime.results", "serving"),
    ("repro.cluster.router", "BioNavCluster.search", "cluster.router"),
    ("repro.cluster.router", "BioNavCluster.expand", "cluster.router"),
    ("repro.cluster.router", "BioNavCluster.results", "cluster.router"),
    ("repro.pipeline.cache", "StageCache.get_or_build", "pipeline"),
    ("repro.pipeline.stages", "CutStage.key", "pipeline.cut_key"),
    ("repro.substrate.store", "MmapStore.boolean_and", "substrate.boolean_and"),
    ("repro.core.navigation_tree", "NavigationTree.from_store", "core.navigation_tree"),
    ("repro.core.probabilities", "ProbabilityModel.__init__", "core.probabilities"),
    ("repro.core.heuristic", "partition_with_limit", "core.partition"),
    ("repro.core.heuristic", "HeuristicReducedOpt.best_cut", "core.heuristic"),
    ("repro.core.opt_edgecut", "OptEdgeCut.solve", "core.opt_edgecut"),
    ("repro.core.active_tree", "ActiveTree.component", "core.active_tree"),
    ("repro.core.active_tree", "ActiveTree.expand", "core.active_tree"),
    ("repro.core.active_tree", "ActiveTree.visualize", "core.active_tree"),
    ("repro.core.session", "NavigationSession.expand", "core.session"),
    ("repro.core.session", "NavigationSession.show_results", "core.session"),
    ("repro.bionav", "BioNav.summaries", "bionav.summaries"),
    ("repro.serving.runtime", "ranked_visualization", "core.relevance"),
)

#: Every layer a trace reports, ``http`` being client time outside the
#: WSGI span.
LAYERS: Tuple[str, ...] = ("http",) + tuple(dict.fromkeys(t[2] for t in TARGETS))

Span = Tuple[str, float, float, int, Optional[Tuple[str, str, int]]]


class Recorder:
    """In-memory span recorder; records only while a traced request runs."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.tag: Optional[Tuple[str, str, int]] = None
        self.enabled = False

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` recording one span named ``name`` per traced call."""

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return func(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.tag)

        return traced

    def wrap_wsgi(self, app_call: Callable[..., Any]) -> Callable[..., Any]:
        """The WSGI entry: reads the client's tags, then records ``web``."""
        traced = self.wrap(app_call, "web")

        @functools.wraps(app_call)
        def entry(app: Any, environ: Dict[str, Any], start_response: Any) -> Any:
            self.enabled = environ.get("HTTP_X_BENCH_TRACE") == "1"
            if not self.enabled:
                return app_call(app, environ, start_response)
            self.tag = (
                environ.get("HTTP_X_BENCH_SESSION", ""),
                environ.get("HTTP_X_BENCH_OP", ""),
                int(environ.get("HTTP_X_BENCH_REQUEST", "-1")),
            )
            try:
                return traced(app, environ, start_response)
            finally:
                self.enabled = False

        return entry

    def install(self, targets: Iterable[Tuple[str, str, str]] = TARGETS) -> None:
        """Replace every target with its recording wrapper."""
        for module_name, path, layer in targets:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            raw = vars(owner)[attr]
            if layer == "web":
                setattr(owner, attr, self.wrap_wsgi(raw))
            elif isinstance(raw, (staticmethod, classmethod)):
                setattr(owner, attr, type(raw)(self.wrap(raw.__func__, layer)))
            else:
                setattr(owner, attr, self.wrap(raw, layer))


def self_times(
    spans: Sequence[Sequence[Any]],
) -> Tuple[Dict[str, Dict[str, float]], Dict[int, float]]:
    """Per-layer calls and self time, plus each request's WSGI span length.

    A span's self time is its duration minus the durations of its
    direct children (children never overlap: one request at a time).

    Returns:
        ``({layer: {"calls", "self_s"}}, {request id: web span seconds})``
        — per layer and op via ``"<layer>@<op>"`` keys as well.
    """
    own = [float(end) - float(start) for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= float(end) - float(start)
    layers: Dict[str, Dict[str, float]] = {}
    web: Dict[int, float] = {}
    for (name, start, end, _, tag), seconds in zip(spans, own):
        op = tag[1] if tag else ""
        for key in (name, "%s@%s" % (name, op)):
            row = layers.setdefault(key, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += seconds
        if name == "web" and tag:
            web[int(tag[2])] = float(end) - float(start)
    return layers, web
