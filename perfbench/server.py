"""The benchmark's server process: BioNav behind loopback HTTP/1.1.

Usage (started by ``run.py``, with ``PYTHONPATH=src``)::

    python perfbench/server.py --store DIR [--fleet --cache-dir DIR]
        [--tree-cache N] [--trace]

Opens the substrate at ``--store``, stands up ``BioNav.from_store`` and
the serving stack (one :class:`ServingRuntime` with one worker thread,
or with ``--fleet`` a :class:`BioNavCluster` of one worker process and a
file-backed L2 at ``--cache-dir``) under :class:`BioNavWebApp`, and
serves it on an ephemeral loopback port, one keep-alive connection at a
time. It prints ``PORT <n>`` once listening.

``GET /__bench/clear`` drops every pipeline stage-cache entry (not the
sessions), so the next plays of a query run cold again; the fleet
answers 404 to it. ``GET /__bench/finish`` ends the process. Once the serving stack is
closed (the fleet's worker joined), it prints one JSON line: the peak RSS
of this process and of its largest child (the fleet's worker), and with
``--trace`` the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, List, Tuple
from urllib.parse import urlsplit

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder  # noqa: E402  (the benchmark's own module)

FINISH = "/__bench/finish"
CLEAR = "/__bench/clear"


class _Gateway(BaseHTTPRequestHandler):
    """Minimal HTTP/1.1 keep-alive gateway onto a WSGI callable."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        server: "_Server" = self.server  # type: ignore[assignment]
        parts = urlsplit(self.path)
        if parts.path == FINISH:
            status, headers, body = "200 OK", [], b"{}"
            self.close_connection = True
            server.done = True
        elif parts.path == CLEAR:
            pipeline = getattr(server.app.runtime, "pipeline", None)
            if pipeline is None:
                status, headers, body = "404 Not Found", [], b"{}"
            else:
                pipeline.cache.clear()
                status, headers, body = "200 OK", [], b"{}"
        else:
            environ: Dict[str, Any] = {
                "REQUEST_METHOD": "GET",
                "PATH_INFO": parts.path,
                "QUERY_STRING": parts.query,
                "SERVER_PROTOCOL": self.request_version,
                "wsgi.url_scheme": "http",
            }
            for key, value in self.headers.items():
                environ["HTTP_" + key.upper().replace("-", "_")] = value
            captured: List[Any] = []

            def start_response(status: str, headers: List[Tuple[str, str]]) -> None:
                captured[:] = [status, headers]

            body = b"".join(server.app(environ, start_response))
            status, headers = captured
        head = ["HTTP/1.1 %s" % status]
        head.extend("%s: %s" % pair for pair in headers if pair[0] != "Content-Length")
        head.append("Content-Length: %d" % len(body))
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the per-request access log."""


class _Server(HTTPServer):
    def __init__(self, app: Any):
        super().__init__(("127.0.0.1", 0), _Gateway)
        self.app = app
        self.done = False


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/server.py")
    parser.add_argument("--store", required=True)
    parser.add_argument("--fleet", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--tree-cache", type=int, default=32)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.bionav import BioNav
    from repro.substrate.store import MmapStore
    from repro.web.app import BioNavWebApp

    bionav = BioNav.from_store(MmapStore.open(args.store))
    if args.fleet:
        from repro.cluster import BioNavCluster, ClusterConfig

        cluster = BioNavCluster(
            bionav,
            ClusterConfig(
                workers=1,
                cache_dir=args.cache_dir,
                runtime={"workers": 1, "tree_cache_size": args.tree_cache},
            ),
        )
        app = BioNavWebApp(bionav, runtime=cluster)
    else:
        app = BioNavWebApp(bionav, workers=1, tree_cache_size=args.tree_cache)
    recorder = None
    if args.trace:
        # Installed after the fleet forked: workers run unwrapped code.
        recorder = Recorder()
        recorder.install()
    server = _Server(app)
    try:
        print("PORT %d" % server.server_address[1], flush=True)
        while not server.done:
            server.handle_request()
    finally:
        server.server_close()
        app.close()
    # Linux reports ru_maxrss in kB; joined children count once closed.
    rss_kb = [
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    report = {"rss_kb": rss_kb, "spans": recorder.spans if recorder else []}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
