"""Serve the BioNav web interface locally.

Run with::

    python -m repro.web [--port 8080] [--hierarchy-size 2000] [--workers 4]
    python -m repro.web --cluster 4 [--cache-dir DIR]

Builds the Table I workload and serves the interface with the standard
library's ``wsgiref`` server, upgraded to a threading server: each HTTP
connection gets its own thread, and the app's
:class:`~repro.serving.runtime.ServingRuntime` caps actual request
concurrency at ``--workers``, sheds overload past ``--queue`` with
``503 + Retry-After``, and drops requests still queued after
``--deadline`` seconds.

With ``--cluster N`` the single runtime is replaced by a
:class:`~repro.cluster.router.BioNavCluster` of N forked worker
processes sharing a content-addressed stage cache (``--cache-dir``,
default a fresh temporary directory), behind the same WSGI interface;
each worker runs one request at a time, and ``--queue`` and
``--deadline`` bound the requests waiting for it at the router.
Development use only, as with the paper's original deployment notes.
"""

from __future__ import annotations

import argparse
import tempfile
from socketserver import ThreadingMixIn
from wsgiref.simple_server import WSGIServer, make_server

from repro.bionav import BioNav
from repro.web.app import BioNavWebApp
from repro.workload.builder import build_workload


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """wsgiref's server with one thread per connection."""

    daemon_threads = True


def main() -> None:
    """Build the workload and serve the interface."""
    parser = argparse.ArgumentParser(prog="python -m repro.web")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--hierarchy-size", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="requests run at once (not used with --cluster)",
    )
    parser.add_argument("--queue", type=int, default=64)
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request queueing budget in seconds (default: none)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="serve through a cluster of N worker processes instead of "
        "one in-process runtime (default: 0 = single process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cluster L2 stage-cache directory (default: a fresh "
        "temporary directory; cluster mode only)",
    )
    args = parser.parse_args()

    print("Building the workload (hierarchy size %d)..." % args.hierarchy_size)
    workload = build_workload(hierarchy_size=args.hierarchy_size, seed=args.seed)
    bionav = BioNav(workload.database, workload.entrez)
    if args.cluster > 0:
        # Imported lazily: single-process serving never forks workers.
        from repro.cluster import BioNavCluster, ClusterConfig

        cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="bionav-l2-")
        cluster = BioNavCluster(
            bionav,
            ClusterConfig(
                workers=args.cluster,
                cache_dir=cache_dir,
                runtime={"max_queue": args.queue, "deadline": args.deadline},
            ),
        )
        app = BioNavWebApp(bionav, runtime=cluster)
        banner = "%d worker processes, L2 at %s" % (args.cluster, cache_dir)
    else:
        app = BioNavWebApp(
            bionav,
            workers=args.workers,
            max_queue=args.queue,
            deadline=args.deadline,
        )
        banner = "%d workers" % args.workers
    print(
        "Serving BioNav on http://127.0.0.1:%d/ (%s) — try a "
        "Table I keyword." % (args.port, banner)
    )
    with make_server(
        "127.0.0.1", args.port, app, server_class=_ThreadingWSGIServer
    ) as server:
        try:
            server.serve_forever()
        finally:
            app.close()


if __name__ == "__main__":
    main()
