"""Client connection reuse: one TCP connect per thread, ever.

The pre-fleet HTTP transport paid a TCP handshake per request; the
keep-alive transport must not.  ``connections_opened`` is the witness:
it counts real connects, so N requests from one thread leave it at 1,
and a server restart costs exactly one reconnect.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import (
    METRICS_SCHEMA,
    AioFrontend,
    KeepAliveTransport,
    PlanClient,
    PlanServer,
)
from repro.serve.client import http_transport
from repro.serve.shard import ShardClient

from tests.test_serve_server import make_models

pytestmark = pytest.mark.serve


@pytest.fixture
def aio_url():
    with PlanServer(make_models()) as server:
        with AioFrontend(server, port=0) as frontend:
            yield frontend.url


class TestKeepAliveTransport:
    def test_one_connection_many_requests(self, aio_url):
        transport = KeepAliveTransport(aio_url)
        client = PlanClient(transport)
        try:
            for _ in range(20):
                result = client.plan(1000)
                assert sum(result.sizes) == 1000
            assert transport.connections_opened == 1
        finally:
            transport.close()

    def test_one_connection_per_thread(self, aio_url):
        transport = KeepAliveTransport(aio_url)
        client = PlanClient(transport)
        errors = []

        def worker() -> None:
            try:
                for _ in range(5):
                    client.plan(1000)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                transport.close()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert transport.connections_opened == 4

    def test_reconnects_once_after_server_restart(self):
        server = PlanServer(make_models())
        frontend = AioFrontend(server, port=0)
        frontend.start()
        port = frontend.port
        transport = KeepAliveTransport(frontend.url)
        client = PlanClient(transport)
        try:
            client.plan(1000)
            assert transport.connections_opened == 1
            frontend.stop()
            server.close()
            # Same port, fresh process-equivalent: the kept-alive
            # connection is dead and must be replaced transparently.
            server = PlanServer(make_models())
            frontend = AioFrontend(server, port=port)
            frontend.start()
            result = client.plan(1000)
            assert sum(result.sizes) == 1000
            assert transport.connections_opened == 2
        finally:
            transport.close()
            frontend.stop()
            server.close()

    def test_http_transport_factory_returns_keepalive(self, aio_url):
        transport = http_transport(aio_url)
        assert isinstance(transport, KeepAliveTransport)
        transport.close()

    def test_error_responses_decode_to_protocol_errors(self, aio_url):
        transport = KeepAliveTransport(aio_url)
        try:
            response = transport({"total": "many"})
            assert response["code"] == 400 and "error" in response
            # The connection survives a 4xx: still just one connect.
            assert transport({"cmd": "stats"})["stats"]
            assert transport.connections_opened == 1
        finally:
            transport.close()


class TestShardClientReuse:
    """The fleet-internal client shares the same keep-alive discipline."""

    def test_plan_and_metrics_reuse(self, aio_url):
        client = ShardClient(aio_url)
        try:
            for _ in range(10):
                assert "sizes" in client.plan({"cmd": "plan", "total": 640})
            assert client.metrics()["schema"] == METRICS_SCHEMA
            assert client.health() is True
            assert client.connections_opened == 1
        finally:
            client.close()
