"""SHOWRESULTS builds ESummary records only where a page renders them.

A JSON SHOWRESULTS, in process or through a fleet worker, answers the
component's PMIDs and builds no display records, so it never calls
``BioNav.summaries``.  The HTML results page fetches its own page: one
call of at most ``results_page_size`` PMIDs, rendered into a body that
is pinned byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

import pytest

from repro.bionav import BioNav
from repro.cluster import BioNavCluster, ClusterConfig
from repro.serving.runtime import ResultsView
from repro.web.app import BioNavWebApp

#: sha-256 of the HTML results page of ``varenicline``'s root after one
#: EXPAND and one JSON SHOWRESULTS, first session of a fresh app, 5
#: citations per page; recorded from the renderer that read the records
#: off the runtime's answer, so the page's bytes are unchanged.
PINNED_PAGE_SHA256 = "fc0f34efb2d5ea4153805348633813f6a5d21615cba34668db8c413a238072cb"


def get(app: BioNavWebApp, path: str, query: Optional[Dict[str, object]] = None) -> Tuple[str, str]:
    environ = {"REQUEST_METHOD": "GET", "PATH_INFO": path, "QUERY_STRING": urlencode(query or {})}
    statuses: List[str] = []
    body = b"".join(app(environ, lambda status, headers: statuses.append(status)))
    return statuses[0], body.decode("utf-8")


def count_summaries(bionav: BioNav, counter, sizes: List[int]) -> None:
    """Wrap ``bionav.summaries``: every call bumps ``counter`` (a fork-shared
    value, so a worker's calls count too) and logs its size here."""
    original = bionav.summaries

    def summaries(pmids):
        with counter.get_lock():
            counter.value += 1
        sizes.append(len(pmids))
        return original(pmids)

    bionav.summaries = summaries


def open_root_after_expand(app: BioNavWebApp, query: str) -> Tuple[str, int]:
    status, body = get(app, "/api/search", {"q": query})
    assert status == "200 OK"
    sid = json.loads(body)["session"]
    root = json.loads(get(app, "/api/nav/%s" % sid)[1])["rows"][0]["node"]
    assert get(app, "/api/nav/%s/expand" % sid, {"node": root})[0] == "200 OK"
    return sid, root


@pytest.fixture()
def counted(small_workload):
    counter = multiprocessing.get_context("fork").Value("i", 0)
    sizes: List[int] = []
    bionav = BioNav(small_workload.database, small_workload.entrez)
    count_summaries(bionav, counter, sizes)
    return bionav, counter, sizes


def test_results_view_carries_no_summaries():
    assert "summaries" not in ResultsView.__dataclass_fields__


def test_in_process_json_makes_no_call_and_html_one_page(counted):
    bionav, counter, sizes = counted
    app = BioNavWebApp(bionav, results_page_size=5)
    sid, root = open_root_after_expand(app, "varenicline")
    status, body = get(app, "/api/nav/%s/results" % sid, {"node": root})
    assert status == "200 OK" and len(json.loads(body)["pmids"]) > 5
    assert counter.value == 0
    status, page = get(app, "/nav/%s/results" % sid, {"node": root})
    assert status == "200 OK"
    assert (counter.value, sizes) == (1, [5])
    assert hashlib.sha256(page.encode("utf-8")).hexdigest() == PINNED_PAGE_SHA256
    assert page.count("<li>[") == 5


def test_fleet_worker_answer_makes_no_call(counted, tmp_path):
    bionav, counter, sizes = counted
    config = ClusterConfig(
        workers=1,
        cache_dir=str(tmp_path / "l2"),
        heartbeat_interval=0.05,
        poll_interval=0.02,
        request_timeout=30.0,
        runtime={"results_page_size": 5},
    )
    with BioNavCluster(bionav, config) as fleet:
        app = BioNavWebApp(runtime=fleet)
        sid, root = open_root_after_expand(app, "varenicline")
        status, body = get(app, "/api/nav/%s/results" % sid, {"node": root})
        assert status == "200 OK" and json.loads(body)["pmids"]
        assert counter.value == 0
        status, page = get(app, "/nav/%s/results" % sid, {"node": root})
        assert status == "200 OK" and page.count("<li>[") == 5
        assert (counter.value, sizes) == (1, [5])
