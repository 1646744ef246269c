"""Tests for the BioNav WSGI web application."""

from __future__ import annotations

import re
from typing import Dict, List, Tuple
from urllib.parse import urlencode

import pytest

from repro.bionav import BioNav
from repro.web.app import BioNavWebApp


@pytest.fixture(scope="module")
def app(request) -> BioNavWebApp:
    workload = request.getfixturevalue("small_workload")
    return BioNavWebApp(BioNav(workload.database, workload.entrez))


def request_page(app, path: str, query: Dict[str, str] = None) -> Tuple[str, str]:
    """Drive the WSGI callable directly; returns (status, body)."""
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path,
        "QUERY_STRING": urlencode(query or {}),
        "SERVER_NAME": "test",
        "SERVER_PORT": "80",
        "wsgi.url_scheme": "http",
    }
    captured: List = []

    def start_response(status, headers):
        captured.append((status, headers))

    chunks = app(environ, start_response)
    body = b"".join(chunks).decode("utf-8")
    status, headers = captured[0]
    header_map = dict(headers)
    assert header_map["Content-Length"] == str(len(body.encode("utf-8")))
    return status, body


def session_id_of(body: str) -> str:
    match = re.search(r"/nav/(s\d+)", body)
    assert match, "no session link in page"
    return match.group(1)


class TestBasicPages:
    def test_home_page(self, app):
        status, body = request_page(app, "/")
        assert status == "200 OK"
        assert "<form" in body

    def test_unknown_path_404(self, app):
        status, _ = request_page(app, "/nope")
        assert status == "404 Not Found"

    def test_search_without_query_400(self, app):
        status, _ = request_page(app, "/search")
        assert status == "400 Bad Request"

    def test_search_no_results(self, app):
        status, body = request_page(app, "/search", {"q": "zzzunmatched"})
        assert status == "200 OK"
        assert "No citations match" in body


class TestNavigationFlow:
    def test_search_creates_session_with_root(self, app):
        status, body = request_page(app, "/search", {"q": "prothymosin"})
        assert status == "200 OK"
        assert "prothymosin" in body
        assert "&gt;&gt;&gt;" in body  # the root expand hyperlink
        assert "Session effort" in body

    def test_expand_reveals_concepts(self, app):
        _, body = request_page(app, "/search", {"q": "prothymosin"})
        sid = session_id_of(body)
        # The root's expand link carries its node id.
        match = re.search(r"/nav/%s/expand\?node=(\d+)" % sid, body)
        assert match
        node = match.group(1)
        status, expanded = request_page(
            app, "/nav/%s/expand" % sid, {"node": node}
        )
        assert status == "200 OK"
        assert expanded.count("<li>") > body.count("<li>")

    def test_results_page_lists_citations(self, app):
        _, body = request_page(app, "/search", {"q": "varenicline"})
        sid = session_id_of(body)
        match = re.search(r"/nav/%s/results\?node=(\d+)" % sid, body)
        node = match.group(1)
        status, results = request_page(
            app, "/nav/%s/results" % sid, {"node": node}
        )
        assert status == "200 OK"
        assert "citations under" in results
        assert "varenicline" in results

    def test_backtrack_restores_previous_view(self, app):
        _, body = request_page(app, "/search", {"q": "follistatin"})
        sid = session_id_of(body)
        node = re.search(r"/nav/%s/expand\?node=(\d+)" % sid, body).group(1)
        _, expanded = request_page(app, "/nav/%s/expand" % sid, {"node": node})
        _, restored = request_page(app, "/nav/%s/backtrack" % sid)
        assert restored.count("<li>") == body.count("<li>")

    def test_unknown_session_404(self, app):
        status, _ = request_page(app, "/nav/s999999")
        assert status == "404 Not Found"

    def test_expand_with_bad_node_400(self, app):
        _, body = request_page(app, "/search", {"q": "prothymosin"})
        sid = session_id_of(body)
        status, _ = request_page(app, "/nav/%s/expand" % sid, {"node": "abc"})
        assert status == "400 Bad Request"

    def test_expand_singleton_400(self, app):
        _, body = request_page(app, "/search", {"q": "prothymosin"})
        sid = session_id_of(body)
        status, _ = request_page(app, "/nav/%s/expand" % sid, {"node": "999999"})
        assert status == "400 Bad Request"


class TestJsonApi:
    def test_api_search_returns_session(self, app):
        import json

        status, body = request_page(app, "/api/search", {"q": "prothymosin"})
        assert status == "200 OK"
        data = json.loads(body)
        assert data["count"] == 313
        assert data["session"].startswith("s")

    def test_api_state_rows_and_cost(self, app):
        import json

        _, body = request_page(app, "/api/search", {"q": "prothymosin"})
        sid = json.loads(body)["session"]
        status, state = request_page(app, "/api/nav/%s" % sid)
        assert status == "200 OK"
        data = json.loads(state)
        assert data["rows"][0]["label"] == "MeSH"
        assert data["rows"][0]["expandable"]
        assert data["cost"]["expands"] == 0

    def test_api_expand_and_results(self, app):
        import json

        _, body = request_page(app, "/api/search", {"q": "varenicline"})
        sid = json.loads(body)["session"]
        _, state = request_page(app, "/api/nav/%s" % sid)
        root = json.loads(state)["rows"][0]["node"]
        status, expanded = request_page(
            app, "/api/nav/%s/expand" % sid, {"node": str(root)}
        )
        assert status == "200 OK"
        data = json.loads(expanded)
        assert data["cost"]["expands"] == 1
        assert len(data["rows"]) > 1
        leaf = data["rows"][-1]["node"]
        status, results = request_page(
            app, "/api/nav/%s/results" % sid, {"node": str(leaf)}
        )
        assert status == "200 OK"
        assert json.loads(results)["pmids"]

    def test_api_errors_are_json(self, app):
        import json

        status, body = request_page(app, "/api/nav/s999999")
        assert status == "404 Not Found"
        assert "error" in json.loads(body)
        status, body = request_page(app, "/api/search")
        assert status == "400 Bad Request"
        assert "error" in json.loads(body)

    def test_api_backtrack(self, app):
        import json

        _, body = request_page(app, "/api/search", {"q": "LbetaT2"})
        sid = json.loads(body)["session"]
        _, state = request_page(app, "/api/nav/%s" % sid)
        root = json.loads(state)["rows"][0]["node"]
        request_page(app, "/api/nav/%s/expand" % sid, {"node": str(root)})
        _, after = request_page(app, "/api/nav/%s/backtrack" % sid)
        assert len(json.loads(after)["rows"]) == 1


class TestSessionBounds:
    def test_session_store_is_bounded(self, small_workload):
        from repro.bionav import BioNav

        bounded = BioNavWebApp(
            BioNav(small_workload.database, small_workload.entrez), max_sessions=2
        )
        import json

        sids = []
        for _ in range(3):
            _, body = request_page(bounded, "/api/search", {"q": "prothymosin"})
            sids.append(json.loads(body)["session"])
        # The oldest session was evicted: the API answers 410 with a
        # machine-readable code, distinct from an unknown id's 404.
        status, body = request_page(bounded, "/api/nav/%s" % sids[0])
        assert status == "410 Gone"
        error = json.loads(body)
        assert error["error_code"] == "session_expired"
        assert "re-run" in error["error"]
        status, _ = request_page(bounded, "/api/nav/%s" % sids[-1])
        assert status == "200 OK"
        # An id the registry never issued is still a plain 404.
        status, _ = request_page(bounded, "/api/nav/s999999")
        assert status == "404 Not Found"

    def test_expired_session_html_page_links_home(self, small_workload):
        from repro.bionav import BioNav

        bounded = BioNavWebApp(
            BioNav(small_workload.database, small_workload.entrez), max_sessions=1
        )
        _, body = request_page(bounded, "/search", {"q": "prothymosin"})
        sid = session_id_of(body)
        request_page(bounded, "/search", {"q": "varenicline"})  # evicts sid
        status, page = request_page(bounded, "/nav/%s" % sid)
        assert status == "410 Gone"
        assert "expired" in page
        assert 'href="/"' in page


class TestRouterFuzz:
    def test_arbitrary_paths_never_crash(self, app):
        """The router answers any path with a well-formed HTTP response."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.text(
                alphabet="abcdefgs0123456789/?=&%._-",
                max_size=40,
            ),
            st.dictionaries(
                st.sampled_from(["q", "node", "other"]),
                st.text(alphabet="abc123 -", max_size=8),
                max_size=2,
            ),
        )
        @settings(max_examples=120, deadline=None)
        def fuzz(path, params):
            status, body = request_page(app, "/" + path.lstrip("/"), params)
            assert status.split(" ", 1)[0] in ("200", "400", "404")
            assert body

        fuzz()


class TestCaching:
    def test_tree_shared_across_sessions(self, app):
        before = app.runtime.stats()["pipeline"]["nav_tree"]["hits"]
        request_page(app, "/search", {"q": "dyslexia genetics"})
        request_page(app, "/search", {"q": "dyslexia genetics"})
        assert app.runtime.stats()["pipeline"]["nav_tree"]["hits"] > before

    def test_sessions_are_independent(self, app):
        _, body_a = request_page(app, "/search", {"q": "LbetaT2"})
        _, body_b = request_page(app, "/search", {"q": "LbetaT2"})
        sid_a = session_id_of(body_a)
        sid_b = session_id_of(body_b)
        assert sid_a != sid_b
        node = re.search(r"/nav/%s/expand\?node=(\d+)" % sid_a, body_a).group(1)
        _, expanded_a = request_page(app, "/nav/%s/expand" % sid_a, {"node": node})
        _, still_b = request_page(app, "/nav/%s" % sid_b)
        assert expanded_a.count("<li>") > still_b.count("<li>")


class TestStatsEndpoint:
    def test_api_stats_reports_caches_and_solver(self, request):
        import json

        workload = request.getfixturevalue("small_workload")
        app = BioNavWebApp(BioNav(workload.database, workload.entrez))
        _, body = request_page(app, "/api/search", {"q": "prothymosin"})
        sid = json.loads(body)["session"]
        _, state = request_page(app, "/api/nav/%s" % sid)
        root = json.loads(state)["rows"][0]["node"]
        request_page(app, "/api/nav/%s/expand" % sid, {"node": str(root)})

        status, body = request_page(app, "/api/stats")
        assert status == "200 OK"
        stats = json.loads(body)
        nav_tree = stats["pipeline"]["nav_tree"]
        assert nav_tree["size"] == 1
        assert 0.0 <= nav_tree["hit_ratio"] <= 1.0
        assert nav_tree["coalesced"] == 0
        assert stats["sessions"]["active"] == 1
        assert stats["sessions"]["created"] == 1
        assert stats["sessions"]["evicted"] == 0
        serving = stats["serving"]
        assert serving["workers"] >= 1
        assert serving["queue_depth"] == 0
        assert serving["in_flight"] == 0
        assert serving["completed"] == serving["admitted"]
        assert serving["shed"] == {"overload": 0, "deadline": 0, "total": 0}
        (entry,) = stats["queries"]
        assert entry["query"] == "prothymosin"
        assert entry["tree_size"] > 1
        solver = stats["solver"]
        assert solver["expands"] == 1
        assert solver["mean_ms"] >= 0.0
        assert solver["p50_ms"] >= 0.0
        assert solver["p95_ms"] >= solver["p50_ms"]
        assert solver["mean_reduced_size"] > 0

    def test_api_health_reports_saturation(self, app):
        import json

        status, body = request_page(app, "/api/health")
        assert status == "200 OK"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] >= 1
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["queue_capacity"] > 0
        assert health["uptime_seconds"] >= 0.0

    def test_sessions_of_same_query_share_decisions(self, request):
        import json

        workload = request.getfixturevalue("small_workload")
        app = BioNavWebApp(BioNav(workload.database, workload.entrez))
        _, body = request_page(app, "/api/search", {"q": "prothymosin"})
        first = json.loads(body)["session"]
        _, state = request_page(app, "/api/nav/%s" % first)
        root = json.loads(state)["rows"][0]["node"]
        request_page(app, "/api/nav/%s/expand" % first, {"node": str(root)})
        _, body = request_page(app, "/api/stats")
        before = json.loads(body)["pipeline"]["cut"]

        # A second session of the same query answers its root EXPAND from
        # the cut stage: one more hit, no new miss.
        _, body = request_page(app, "/api/search", {"q": "prothymosin"})
        second = json.loads(body)["session"]
        _, after = request_page(
            app, "/api/nav/%s/expand" % second, {"node": str(root)}
        )
        assert json.loads(after)["rows"]
        _, body = request_page(app, "/api/stats")
        stats = json.loads(body)
        assert stats["pipeline"]["cut"]["hits"] == before["hits"] + 1
        assert stats["pipeline"]["cut"]["misses"] == before["misses"]
        assert stats["sessions"]["created"] == 2


class TestResultsPagination:
    """The SHOWRESULTS page size is configuration, not a magic literal."""

    def test_health_reports_default_page_size(self, app):
        import json

        from repro.serving.runtime import DEFAULT_RESULTS_PAGE_SIZE

        _, body = request_page(app, "/api/health")
        health = json.loads(body)
        assert health["results_page_size"] == DEFAULT_RESULTS_PAGE_SIZE
        assert health["results_page_size"] == 50
        assert health["solver"] == "heuristic"

    def test_custom_page_size_changes_rendering(self, request):
        workload = request.getfixturevalue("small_workload")
        app = BioNavWebApp(
            BioNav(workload.database, workload.entrez), results_page_size=5
        )
        _, body = request_page(app, "/search", {"q": "prothymosin"})
        sid = session_id_of(body)
        node = re.search(r"/nav/%s/results\?node=(\d+)" % sid, body).group(1)
        _, results = request_page(
            app, "/nav/%s/results" % sid, {"node": node}
        )
        assert results.count("<li>[") == 5
        assert re.search(r"\(showing first 5 of \d+\)", results)

    def test_default_page_is_unannotated_when_results_fit(self, request):
        workload = request.getfixturevalue("small_workload")
        app = BioNavWebApp(
            BioNav(workload.database, workload.entrez), results_page_size=400
        )
        _, body = request_page(app, "/search", {"q": "prothymosin"})
        sid = session_id_of(body)
        node = re.search(r"/nav/%s/results\?node=(\d+)" % sid, body).group(1)
        _, results = request_page(app, "/nav/%s/results" % sid, {"node": node})
        assert "showing first" not in results

    def test_nonpositive_page_size_rejected(self, request):
        workload = request.getfixturevalue("small_workload")
        with pytest.raises(ValueError):
            BioNavWebApp(
                BioNav(workload.database, workload.entrez), results_page_size=0
            )
