"""Asyncio front end: protocol parity, keep-alive, fast lane, taxonomy.

The asyncio transport must be *indistinguishable* at the protocol level
from :func:`~repro.serve.frontend.handle_request` served in-process --
misses funnel through it -- while serving cache hits inline on the
event loop.  These tests drive the front end over real sockets and
compare its answers with the protocol function's on a twin server.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import METRICS_SCHEMA, AioFrontend, PlanServer
from repro.serve.aio import try_fast_plan
from repro.serve.frontend import handle_request

from tests.test_serve_overload import gated_partitioner  # noqa: F401
from tests.test_serve_server import make_models, scratch_partitioner  # noqa: F401

pytestmark = pytest.mark.serve


def post_json(url: str, payload, timeout: float = 10.0):
    """One-shot POST; returns (status, decoded body, headers)."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read()), dict(reply.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def get_json(url: str, timeout: float = 10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def aio_server():
    """A plan server behind the asyncio front end, on an ephemeral port."""
    with PlanServer(make_models()) as server:
        frontend = AioFrontend(server, port=0)
        frontend.start()
        try:
            yield server, frontend
        finally:
            frontend.stop()


@pytest.fixture
def reference_server():
    """A twin plan server, answered through the protocol function."""
    with PlanServer(make_models()) as server:
        yield server


def reference(server, payload):
    """The ``(status, body)`` the HTTP front end must answer ``payload`` with."""
    response = json.loads(json.dumps(handle_request(server, dict(payload))))
    if "error" in response:
        return response.pop("code", 400), response
    return 200, response


def scrub_timing(body):
    """Drop the one legitimately nondeterministic field (wall-clock)."""
    out = dict(body)
    out.pop("compute_seconds", None)
    return out


class TestProtocolParity:
    """Same requests, same responses, over HTTP or in-process."""

    def test_plan_responses_match(self, aio_server, reference_server):
        _, frontend = aio_server
        for payload in (
            {"total": 1200, "id": "a"},
            {"total": 1200, "id": "b"},          # cached on each side now
            {"total": 900, "partitioner": "geometric"},
            {"total": 0},
        ):
            a_status, a_body, _ = post_json(f"{frontend.url}/plan", payload)
            r_status, r_body = reference(reference_server, payload)
            assert a_status == r_status
            assert scrub_timing(a_body) == scrub_timing(r_body)
        # The second identical request was a hit on both sides.
        assert post_json(f"{frontend.url}/plan", {"total": 1200})[1]["cached"]

    def test_error_responses_match(self, aio_server, reference_server):
        _, frontend = aio_server
        for payload in (
            {"total": "many"},
            {"partitioner": "geometric"},        # no total
            {"cmd": "unknown-verb"},
            {"total": 500, "partitioner": "no-such-algorithm"},
        ):
            a_status, a_body, _ = post_json(f"{frontend.url}/plan", payload)
            r_status, r_body = reference(reference_server, payload)
            assert (a_status, a_body) == (r_status, r_body)
            assert a_status == 400 and "error" in a_body

    def test_metrics_on_both_frontends(self, aio_server, reference_server):
        _, frontend = aio_server
        post_json(f"{frontend.url}/plan", {"total": 640})
        reference(reference_server, {"total": 640})
        for status, body in (
            get_json(f"{frontend.url}/metrics"),
            reference(reference_server, {"cmd": "metrics"}),
        ):
            assert status == 200
            metrics = body["metrics"]
            assert metrics["schema"] == METRICS_SCHEMA
            assert metrics["uptime_s"] >= 0.0
            assert metrics["serve"]["computations"] == 1
            assert "cache" in metrics

    def test_stats_and_health(self, aio_server):
        _, frontend = aio_server
        status, body = get_json(f"{frontend.url}/stats")
        assert status == 200 and "serve" in body["stats"]
        status, body = get_json(f"{frontend.url}/health")
        assert status == 200 and body["ok"] is True


class TestErrorTaxonomy:
    """The HTTP status codes the asyncio front end must speak."""

    def test_bad_json_is_400(self, aio_server):
        _, frontend = aio_server
        request = urllib.request.Request(
            f"{frontend.url}/plan", data=b"{broken", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10.0)
        assert exc_info.value.code == 400

    def test_unknown_endpoint_is_404(self, aio_server):
        _, frontend = aio_server
        assert get_json(f"{frontend.url}/nope")[0] == 404
        assert post_json(f"{frontend.url}/nope", {})[0] == 404

    def test_oversized_body_is_413(self):
        with PlanServer(make_models()) as server:
            with AioFrontend(server, port=0, max_body_bytes=256) as frontend:
                request = urllib.request.Request(
                    f"{frontend.url}/plan", data=b"x" * 512, method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(request, timeout=10.0)
                assert exc_info.value.code == 413

    def test_shed_is_503_with_retry_after(self, gated_partitioner):  # noqa: F811
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_pending=1,
                        shed_retry_after=2.0) as server:
            with AioFrontend(server, port=0) as frontend:
                results = {}

                def blocked() -> None:
                    results["first"] = post_json(
                        f"{frontend.url}/plan",
                        {"total": 1000, "partitioner": "gated"},
                        timeout=30.0,
                    )

                runner = threading.Thread(target=blocked, daemon=True)
                runner.start()
                started.wait(timeout=10.0)
                status, body, headers = post_json(
                    f"{frontend.url}/plan",
                    {"total": 2000, "partitioner": "gated"},
                )
                assert status == 503 and body["shed"] is True
                assert headers["Retry-After"] == "2"
                gate.set()
                runner.join(timeout=30.0)
                assert results["first"][0] == 200


class TestKeepAlive:
    """One connection, many requests."""

    def test_connection_reuse(self, aio_server):
        server, frontend = aio_server
        conn = http.client.HTTPConnection(frontend.host, frontend.port,
                                          timeout=10.0)
        try:
            for i in range(5):
                conn.request(
                    "POST", "/plan",
                    body=json.dumps({"total": 800, "id": i}),
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                body = json.loads(reply.read())
                assert reply.status == 200 and body["id"] == i
        finally:
            conn.close()
        assert frontend.requests_served == 5
        # One solve, four inline fast-lane hits.
        assert server.engine.counters.computations == 1
        assert server.engine.cache.stats().hits == 4

    def test_connection_close_honoured(self, aio_server):
        _, frontend = aio_server
        conn = http.client.HTTPConnection(frontend.host, frontend.port,
                                          timeout=10.0)
        try:
            conn.request("GET", "/health", headers={"Connection": "close"})
            reply = conn.getresponse()
            assert reply.status == 200
            assert reply.headers["Connection"] == "close"
        finally:
            conn.close()


class TestFastLane:
    """`try_fast_plan`: hits inline, everything surprising falls through."""

    def test_miss_then_hit(self):
        with PlanServer(make_models()) as server:
            assert try_fast_plan(server, {"total": 700}) is None  # cold
            server.request(700)
            hit = try_fast_plan(server, {"total": 700, "id": "x"})
            assert hit is not None
            assert hit["cached"] is True and hit["id"] == "x"
            assert sum(hit["sizes"]) == 700

    def test_malformed_payloads_fall_through(self):
        with PlanServer(make_models()) as server:
            server.request(700)
            for payload in (
                {"total": "700"},
                {"total": True},
                {"total": -1},
                {"total": 700, "partitioner": 42},
                {"total": 700, "options": "fast"},
                {"total": 700, "cmd": "stats"},
            ):
                assert try_fast_plan(server, payload) is None


class TestExtraRoutes:
    """The fleet worker's inline route extension point."""

    def test_longest_prefix_dispatch(self):
        seen = []

        def peek(path, payload):
            seen.append((path, payload))
            return 200, {"route": "peek", "path": path}

        def wide(path, _payload):
            return 200, {"route": "wide"}

        with PlanServer(make_models()) as server:
            frontend = AioFrontend(server, port=0, extra_routes={
                "GET /cache/": peek,
                "GET /ca": wide,
                "POST /peers": peek,
            })
            with frontend:
                status, body = get_json(f"{frontend.url}/cache/abc123")
                assert status == 200 and body["route"] == "peek"
                assert body["path"] == "/cache/abc123"
                status, body = get_json(f"{frontend.url}/caches")
                assert status == 200 and body["route"] == "wide"
                status, body, _ = post_json(
                    f"{frontend.url}/peers", {"peers": []}
                )
                assert status == 200
                assert seen[-1] == ("/peers", {"peers": []})
