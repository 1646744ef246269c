"""The BioNav web application (paper §VII — the deployed interface).

The paper's system is a web app (hosted at db.cse.buffalo.edu/bionav):
the user types a keyword query, gets the root of the navigation tree, and
clicks ``>>>`` hyperlinks to EXPAND components or concept labels to
SHOWRESULTS.  This module reproduces that interface as a dependency-free
WSGI application over the simulated substrate:

    GET /                      search form
    GET /search?q=...          run ESearch, create a session, show the root
    GET /nav/<sid>             current interface state
    GET /nav/<sid>/expand?node=N       EXPAND (Heuristic-ReducedOpt)
    GET /nav/<sid>/results?node=N      SHOWRESULTS (simulated ESummary)
    GET /nav/<sid>/backtrack           undo the last EXPAND

plus a JSON API for programmatic clients:

    GET /api/search?q=...      {"session": sid, "count": N}
    GET /api/nav/<sid>                  the visible rows + cost ledger
    GET /api/nav/<sid>/expand?node=N    expand, then the new state
    GET /api/nav/<sid>/results?node=N   the component's PMIDs
    GET /api/stats                      cache/admission/solver statistics
    GET /api/health                     liveness + saturation summary

All cross-request state lives in a
:class:`~repro.serving.runtime.ServingRuntime`: navigation trees are
shared across sessions of the same query through a single-flight LRU
cache, sessions live in a bounded registry with per-session locks, and
every action passes an admission gate and then runs on the server's own
request thread.  The WSGI callable is therefore safe under any
multi-threaded server.
Overload answers ``503`` with a ``Retry-After`` header instead of
queueing unboundedly, and a session evicted from the bounded store
answers ``410 Gone`` with the machine-readable error code
``session_expired`` (re-run the search), distinct from the ``404`` an
unknown id gets.  Serve it with ``python -m repro.web`` or mount the
:class:`BioNavWebApp` callable under any WSGI server; tests drive the
callable directly.
"""

from __future__ import annotations

import html
import json
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from urllib.parse import parse_qs

from repro.bionav import BioNav
from repro.serving.dispatcher import DeadlineExceeded, RetryLater
from repro.serving.runtime import (
    DEFAULT_RESULTS_PAGE_SIZE,
    ResultsView,
    ServingRuntime,
    SessionView,
)
from repro.serving.sessions import SessionExpired

__all__ = ["BioNavWebApp"]

StartResponse = Callable[[str, List[Tuple[str, str]]], None]

_PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>%(title)s</title>
<style>
body { font-family: sans-serif; margin: 1.5em; max-width: 60em; }
ul.bionav { list-style: none; padding-left: 1.2em; border-left: 1px dotted #bbb; }
span.count { color: #555; }
a.expand { color: #0645ad; text-decoration: none; margin-left: 0.4em; }
p.cost { color: #333; background: #f2f2f2; padding: 0.4em; }
</style></head><body>
<h1><a href="/">BioNav</a></h1>
%(body)s
</body></html>
"""


class BioNavWebApp:
    """A WSGI callable serving the BioNav interface.

    Holds no mutable state of its own — every shared structure lives in
    the runtime behind it, which is what makes the callable safe to
    mount under a threaded WSGI server.

    The runtime is normally built here from ``bionav``, but any object
    with the :class:`ServingRuntime` request surface (``search`` /
    ``view`` / ``expand`` / ``results`` / ``backtrack`` plus
    ``health()`` / ``stats()`` / ``results_page_size`` /
    ``shed_retry_after`` / ``close()``, and the ``bionav`` whose ESummary
    the HTML results page reads) mounts the same way — pass it
    as ``runtime``.  That is how a
    :class:`~repro.cluster.router.BioNavCluster` fleet serves this
    exact interface (``python -m repro.web --cluster N``); the
    remaining keyword arguments are ignored in that case, since the
    injected runtime already carries its own configuration.
    """

    def __init__(
        self,
        bionav: Optional[BioNav] = None,
        tree_cache_size: int = 32,
        max_sessions: int = 256,
        workers: int = 4,
        max_queue: int = 64,
        deadline: Optional[float] = None,
        backend_latency: float = 0.0,
        solver: str = "heuristic",
        results_page_size: int = DEFAULT_RESULTS_PAGE_SIZE,
        runtime: Optional[object] = None,
    ):
        if runtime is None:
            if bionav is None:
                raise ValueError("either bionav or runtime is required")
            runtime = ServingRuntime(
                bionav,
                tree_cache_size=tree_cache_size,
                max_sessions=max_sessions,
                workers=workers,
                max_queue=max_queue,
                deadline=deadline,
                backend_latency=backend_latency,
                solver=solver,
                results_page_size=results_page_size,
            )
        self.runtime = runtime
        self.bionav = bionav

    def close(self) -> None:
        """Close the runtime: refuse new requests, finish admitted ones."""
        self.runtime.close()

    # ------------------------------------------------------------------
    # WSGI entry point
    # ------------------------------------------------------------------
    def __call__(self, environ: Dict, start_response: StartResponse) -> Iterable[bytes]:
        path = environ.get("PATH_INFO", "/")
        params = parse_qs(environ.get("QUERY_STRING", ""))
        is_api = path.startswith("/api/")
        extra_headers: List[Tuple[str, str]] = []
        try:
            if is_api:
                status, body = self._route_api(path[len("/api") :], params)
            else:
                status, body = self._route(path, params)
        except SessionExpired as exc:
            status = "410 Gone"
            if is_api:
                body = json.dumps(
                    {
                        "error": "session %s expired; re-run the search" % exc.sid,
                        "error_code": "session_expired",
                    }
                )
            else:
                body = self._page(
                    "Session expired",
                    "<p>Session %s expired (the session store is bounded). "
                    '<a href="/">Re-run your search</a>.</p>'
                    % html.escape(exc.sid),
                )
        except KeyError as exc:
            if is_api:
                status, body = "404 Not Found", json.dumps(
                    {"error": "unknown resource: %s" % exc, "error_code": "not_found"}
                )
            else:
                status, body = "404 Not Found", self._page(
                    "Not found", "<p>Unknown resource: %s</p>" % html.escape(str(exc))
                )
        except ValueError as exc:
            if is_api:
                status, body = "400 Bad Request", json.dumps(
                    {"error": str(exc), "error_code": "bad_request"}
                )
            else:
                status, body = "400 Bad Request", self._page(
                    "Bad request", "<p>%s</p>" % html.escape(str(exc))
                )
        except RetryLater as exc:
            status = "503 Service Unavailable"
            retry_after = max(1, int(round(exc.retry_after)))
            extra_headers.append(("Retry-After", str(retry_after)))
            if is_api:
                body = json.dumps(
                    {
                        "error": str(exc),
                        "error_code": "overloaded",
                        "retry_after": retry_after,
                    }
                )
            else:
                body = self._page(
                    "Overloaded",
                    "<p>The server is overloaded; retry in %d second(s).</p>"
                    % retry_after,
                )
        except DeadlineExceeded as exc:
            status = "503 Service Unavailable"
            # The honest back-off is the runtime's: at least the
            # configured queueing deadline (the queue needs that long
            # to drain), never a hardcoded constant.
            retry_after = max(1, math.ceil(self.runtime.shed_retry_after))
            extra_headers.append(("Retry-After", str(retry_after)))
            if is_api:
                body = json.dumps(
                    {
                        "error": str(exc),
                        "error_code": "deadline_exceeded",
                        "retry_after": retry_after,
                    }
                )
            else:
                body = self._page(
                    "Timed out",
                    "<p>The request waited too long in the queue; retry.</p>",
                )
        payload = body.encode("utf-8")
        content_type = (
            "application/json; charset=utf-8"
            if is_api
            else "text/html; charset=utf-8"
        )
        start_response(
            status,
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(payload))),
            ]
            + extra_headers,
        )
        return [payload]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, path: str, params: Dict[str, List[str]]) -> Tuple[str, str]:
        if path in ("", "/"):
            return "200 OK", self._render_home()
        if path == "/search":
            query = params.get("q", [""])[0].strip()
            if not query:
                raise ValueError("missing query parameter q")
            return "200 OK", self._render_search(query)
        if path.startswith("/nav/"):
            parts = path[len("/nav/") :].split("/")
            sid = parts[0]
            action = parts[1] if len(parts) > 1 else ""
            if action == "":
                return "200 OK", self._render_view(self.runtime.view(sid))
            if action == "expand":
                node = self._node_param(params)
                return "200 OK", self._render_view(self.runtime.expand(sid, node))
            if action == "results":
                node = self._node_param(params)
                return "200 OK", self._render_results(
                    self.runtime.results(sid, node)
                )
            if action == "backtrack":
                return "200 OK", self._render_view(self.runtime.backtrack(sid))
            raise KeyError("action %s" % action)
        raise KeyError(path)

    # ------------------------------------------------------------------
    # HTML rendering (pure functions of runtime view objects)
    # ------------------------------------------------------------------
    def _render_home(self) -> str:
        body = (
            '<form action="/search" method="get">'
            '<input name="q" size="40" placeholder="e.g. prothymosin">'
            '<button type="submit">Search</button></form>'
        )
        return self._page("Search", body)

    def _render_search(self, query: str) -> str:
        result = self.runtime.search(query)
        if result.count == 0:
            return self._page(
                "No results", "<p>No citations match %s.</p>" % html.escape(repr(query))
            )
        return self._render_view(self.runtime.view(result.session))

    def _render_results(self, view: ResultsView) -> str:
        page_size = self.runtime.results_page_size
        summaries = self.runtime.bionav.summaries(list(view.pmids[:page_size]))
        rows = "".join(
            "<li>[%d] %s <em>(%s, %d)</em></li>"
            % (
                s.pmid,
                html.escape(s.title),
                html.escape("; ".join(s.authors[:3])),
                s.year,
            )
            for s in summaries
        )
        more = (
            "<p>(showing first %d of %d)</p>" % (page_size, len(view.pmids))
            if len(view.pmids) > page_size
            else ""
        )
        body = (
            '<p><a href="/nav/%s">&larr; back to the navigation</a></p>'
            "<h2>%s — %d citations under %s</h2><ul>%s</ul>%s"
            % (
                view.session,
                html.escape(view.query),
                len(view.pmids),
                html.escape(view.label),
                rows,
                more,
            )
        )
        return self._page("Results", body + self._cost_footer(view))

    def _render_view(self, view: SessionView) -> str:
        sid = view.session
        parts: List[str] = []
        depth = -1
        for row in view.rows:
            while depth >= row.depth:
                parts.append("</ul>")
                depth -= 1
            parts.append('<ul class="bionav">')
            depth = row.depth
            expand = (
                ' <a class="expand" href="/nav/%s/expand?node=%d">&gt;&gt;&gt;</a>'
                % (sid, row.node)
                if row.expandable
                else ""
            )
            parts.append(
                '<li><a href="/nav/%s/results?node=%d">%s</a> '
                '<span class="count">(%d)</span>%s</li>'
                % (sid, row.node, html.escape(row.label), row.count, expand)
            )
        while depth >= 0:
            parts.append("</ul>")
            depth -= 1
        body = (
            "<h2>%s</h2>%s"
            '<p><a href="/nav/%s/backtrack">Backtrack</a></p>'
            % (html.escape(view.query), "\n".join(parts), sid)
        )
        return self._page(view.query, body + self._cost_footer(view))

    # ------------------------------------------------------------------
    # JSON API
    # ------------------------------------------------------------------
    def _route_api(self, path: str, params: Dict[str, List[str]]) -> Tuple[str, str]:
        if path == "/stats":
            return "200 OK", json.dumps(self.runtime.stats())
        if path == "/health":
            return "200 OK", json.dumps(self.runtime.health())
        if path == "/search":
            query = params.get("q", [""])[0].strip()
            if not query:
                raise ValueError("missing query parameter q")
            result = self.runtime.search(query)
            return "200 OK", json.dumps(
                {
                    "session": result.session,
                    "query": result.query,
                    "count": result.count,
                }
            )
        if path.startswith("/nav/"):
            parts = path[len("/nav/") :].split("/")
            sid = parts[0]
            action = parts[1] if len(parts) > 1 else ""
            if action == "":
                return "200 OK", self._json_view(self.runtime.view(sid))
            if action == "expand":
                node = self._node_param(params)
                return "200 OK", self._json_view(self.runtime.expand(sid, node))
            if action == "results":
                node = self._node_param(params)
                view = self.runtime.results(sid, node)
                return "200 OK", json.dumps(
                    {
                        "session": view.session,
                        "node": view.node,
                        "label": view.label,
                        "pmids": list(view.pmids),
                    }
                )
            if action == "backtrack":
                return "200 OK", self._json_view(self.runtime.backtrack(sid))
            raise KeyError("action %s" % action)
        raise KeyError(path)

    @staticmethod
    def _json_view(view: SessionView) -> str:
        return json.dumps(
            {
                "session": view.session,
                "query": view.query,
                "rows": [
                    {
                        "node": row.node,
                        "label": row.label,
                        "count": row.count,
                        "depth": row.depth,
                        "parent": row.parent,
                        "expandable": row.expandable,
                    }
                    for row in view.rows
                ],
                "cost": {
                    "total": view.cost.total,
                    "navigation": view.cost.navigation,
                    "expands": view.cost.expands,
                    "revealed": view.cost.revealed,
                    "citations": view.cost.citations,
                },
            }
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _cost_footer(view: "SessionView | ResultsView") -> str:
        return (
            '<p class="cost">Session effort: %.0f '
            "(%d concepts examined + %d EXPANDs + %d citations listed)</p>"
            % (
                view.cost.total,
                view.cost.revealed,
                view.cost.expands,
                view.cost.citations,
            )
        )

    def _page(self, title: str, body: str) -> str:
        return _PAGE % {"title": html.escape(title), "body": body}

    @staticmethod
    def _node_param(params: Dict[str, List[str]]) -> int:
        values = params.get("node")
        if not values or not values[0].lstrip("-").isdigit():
            raise ValueError("missing or non-integer node parameter")
        return int(values[0])
