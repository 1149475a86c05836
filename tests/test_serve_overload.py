"""Overload protection: admission control, deadlines, error taxonomy, client.

The contracts:

* a full admission queue sheds immediately with
  :class:`ServiceOverloadError` (counted) -- it never queues unboundedly;
* coalesced joins of an in-flight computation are admitted regardless --
  they add no work;
* deadline expiry raises at the wait site only: the computation finishes
  and populates the cache for the retry;
* the front end maps the failure taxonomy onto protocol codes
  (400/413/500/503/504) and HTTP surfaces ``Retry-After``;
* the client retries 503/504 with capped, jittered backoff and raises
  typed errors -- and never retries a 400.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.registry import partitioner
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    FuPerModError,
    ServiceOverloadError,
)
from repro.serve import AioFrontend, PlanClient, PlanServer
from repro.serve.client import http_transport
from repro.serve.frontend import handle_request
from repro.serve.shard import parse_base_url

from tests.test_serve_server import make_models, scratch_partitioner  # noqa: F401

pytestmark = pytest.mark.serve


@pytest.fixture
def gated_partitioner(scratch_partitioner):  # noqa: F811
    """A partitioner that blocks until the test opens its gate."""
    gate = threading.Event()
    started = threading.Event()
    geometric = partitioner("geometric")

    def gated(total, models, **kwargs):
        started.set()
        assert gate.wait(timeout=30.0), "test forgot to open the gate"
        return geometric(total, models)

    scratch_partitioner("gated", gated)
    try:
        yield gate, started
    finally:
        gate.set()  # never leave workers stuck


class TestAdmissionControl:
    """Bounded in-flight computations; shed, don't queue."""

    def test_full_queue_sheds_with_typed_error(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_pending=1,
                        shed_retry_after=2.5) as server:
            blocked = server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            with pytest.raises(ServiceOverloadError) as exc_info:
                server.submit(2000, partitioner="gated")
            assert exc_info.value.retry_after == 2.5
            assert exc_info.value.pending == 1
            assert server.engine.counters.shed == 1
            gate.set()
            assert blocked.result(timeout=10.0).total == 1000

    def test_coalesced_joins_are_never_shed(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_pending=1) as server:
            first = server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            # Identical request: joins the in-flight future, no shed.
            joined = server.submit(1000, partitioner="gated")
            assert joined is first
            assert server.engine.counters.coalesced == 1
            assert server.engine.counters.shed == 0
            gate.set()
            first.result(timeout=10.0)

    def test_capacity_frees_as_computations_finish(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_pending=1) as server:
            blocked = server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            gate.set()
            blocked.result(timeout=10.0)
            # The slot is free again: this must be admitted.
            assert server.request(2000, partitioner="gated").total == 2000

    def test_unbounded_by_default(self, gated_partitioner):
        gate, _ = gated_partitioner
        with PlanServer(make_models(), max_workers=2) as server:
            futures = [
                server.submit(1000 + i, partitioner="gated") for i in range(8)
            ]
            gate.set()
            for future in futures:
                future.result(timeout=10.0)
            assert server.engine.counters.shed == 0

    def test_cached_plans_are_never_shed(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_pending=1) as server:
            first = server.request(500)
            blocked = server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            # The queue is full, but a hit starts no computation.
            reply = handle_request(server, {"total": 500})
            assert "error" not in reply, reply
            assert reply["cached"] is True
            assert reply["sizes"] == list(first.sizes)
            assert server.engine.counters.shed == 0
            gate.set()
            blocked.result(timeout=10.0)

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError):
            PlanServer(make_models(), max_pending=0)
        with pytest.raises(ValueError):
            PlanServer(make_models(), default_deadline=-1.0)


class TestDeadlines:
    """Expiry at the wait site; the computation still lands in the cache."""

    def test_deadline_expiry_raises_typed(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models()) as server:
            with pytest.raises(DeadlineExceeded) as exc_info:
                server.request(1000, partitioner="gated", deadline=0.05)
            assert exc_info.value.budget == pytest.approx(0.05)
            assert server.engine.counters.deadline_expired == 1
            gate.set()

    def test_timed_out_solve_still_populates_cache(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models()) as server:
            with pytest.raises(DeadlineExceeded):
                server.request(1000, partitioner="gated", deadline=0.05)
            gate.set()
            # Let the abandoned computation finish, then retry: cache hit.
            while server.inflight():
                pass
            retry = server.request(1000, partitioner="gated", deadline=5.0)
            assert retry.cached
            assert server.engine.counters.computations == 1

    def test_expiry_reports_wall_time_elapsed(self, gated_partitioner):
        gate, _ = gated_partitioner
        with PlanServer(make_models()) as server:
            with pytest.raises(DeadlineExceeded) as exc_info:
                server.request(1000, partitioner="gated", deadline=0.05)
            assert exc_info.value.elapsed >= 0.05
            gate.set()

    def test_default_deadline_applies(self, gated_partitioner):
        gate, _ = gated_partitioner
        with PlanServer(make_models(), default_deadline=0.05) as server:
            with pytest.raises(DeadlineExceeded):
                server.request(1000, partitioner="gated")
            gate.set()

    def test_cached_plans_never_wait_for_busy_workers(
        self, gated_partitioner
    ):
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_workers=1) as server:
            first = server.request(500)
            blocked = server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            # The only worker is busy; the hit is served on this thread.
            hit = server.request(500, deadline=0.2)
            assert hit.cached and hit.sizes == first.sizes
            assert server.engine.counters.deadline_expired == 0
            gate.set()
            blocked.result(timeout=10.0)

    def test_fast_requests_unaffected_by_deadline(self):
        with PlanServer(make_models(), default_deadline=30.0) as server:
            result = server.request(1000)
            assert result.total == 1000
            assert server.engine.counters.deadline_expired == 0


class TestDrain:
    """Graceful shutdown finishes in-flight work, then refuses new work."""

    def test_drain_waits_for_inflight(self, gated_partitioner):
        gate, started = gated_partitioner
        server = PlanServer(make_models())
        try:
            future = server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            gate.set()
            assert server.drain(timeout=10.0)
            assert future.done()
            with pytest.raises(RuntimeError):
                server.submit(2000)
        finally:
            server.close()

    def test_drain_times_out_honestly(self, gated_partitioner):
        gate, started = gated_partitioner
        server = PlanServer(make_models())
        try:
            server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            assert not server.drain(timeout=0.05)
        finally:
            gate.set()
            server.close()

    def test_zero_timeout_does_not_wait(self, gated_partitioner):
        gate, started = gated_partitioner
        server = PlanServer(make_models())
        try:
            server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            began = time.monotonic()
            assert not server.drain(timeout=0)
            assert time.monotonic() - began < 0.1
        finally:
            gate.set()
            server.close()

    def test_timeout_bounds_the_whole_drain(self, scratch_partitioner):  # noqa: F811
        # Two solves in flight: one finishes at 0.2 s, one never does.
        # The 0.3 s budget covers both waits, not 0.3 s per future.
        gates = {1000: threading.Event(), 2000: threading.Event()}
        started = {total: threading.Event() for total in gates}
        geometric = partitioner("geometric")

        def gated(total, models, **kwargs):
            started[total].set()
            assert gates[total].wait(timeout=30.0), "test forgot a gate"
            return geometric(total, models)

        scratch_partitioner("gated-each", gated)
        server = PlanServer(make_models(), max_workers=2)
        release = threading.Timer(0.2, gates[1000].set)
        try:
            server.submit(1000, partitioner="gated-each")
            server.submit(2000, partitioner="gated-each")
            for event in started.values():
                assert event.wait(timeout=10.0)
            release.start()
            began = time.monotonic()
            assert not server.drain(timeout=0.3)
            assert time.monotonic() - began < 0.45
        finally:
            release.cancel()
            for gate in gates.values():
                gate.set()
            server.close()


class TestErrorTaxonomy:
    """handle_request maps failures onto protocol codes."""

    def test_validation_errors_are_400(self):
        with PlanServer(make_models()) as server:
            for payload in (
                {},  # no total
                {"total": "many"},
                {"total": -5},
                {"total": 100, "options": "fast"},
                {"total": 100, "deadline": -1},
                {"cmd": "explode"},
                {"total": 100, "partitioner": "no-such-algorithm"},
            ):
                response = handle_request(server, payload)
                assert response["code"] == 400, payload

    def test_shed_is_503_with_retry_after(self, gated_partitioner):
        gate, started = gated_partitioner
        with PlanServer(make_models(), max_pending=1,
                        shed_retry_after=1.5) as server:
            server.submit(1000, partitioner="gated")
            started.wait(timeout=10.0)
            response = handle_request(
                server, {"total": 2000, "partitioner": "gated"}
            )
            assert response["code"] == 503
            assert response["shed"] is True
            assert response["retry_after"] == 1.5
            gate.set()

    def test_deadline_is_504(self, gated_partitioner):
        gate, _ = gated_partitioner
        with PlanServer(make_models()) as server:
            response = handle_request(
                server,
                {"total": 1000, "partitioner": "gated", "deadline": 0.05},
            )
            assert response["code"] == 504
            gate.set()

    def test_solve_fault_is_500(self, scratch_partitioner):  # noqa: F811
        from repro.errors import SolverError

        def exploding(total, models, **kwargs):
            raise SolverError("numerical blow-up")

        scratch_partitioner("exploding", exploding)
        with PlanServer(make_models()) as server:  # no policy: fault escapes
            response = handle_request(
                server, {"total": 1000, "partitioner": "exploding"}
            )
            assert response["code"] == 500
            assert "blow-up" in response["error"]

    def test_id_echoed_on_errors(self):
        with PlanServer(make_models()) as server:
            response = handle_request(server, {"id": 7})
            assert response["id"] == 7 and response["code"] == 400


@pytest.fixture
def http_server():
    """A live HTTP front end bound to an ephemeral port."""
    server = PlanServer(make_models(), max_pending=1, shed_retry_after=2.0)
    frontend = AioFrontend(server, port=0, max_body_bytes=512)
    frontend.start()
    try:
        yield server, frontend.url
    finally:
        frontend.stop()
        server.close()


def http_post(url, body: bytes):
    request = urllib.request.Request(
        url + "/plan", data=body, headers={"Content-Type": "application/json"}
    )
    return urllib.request.urlopen(request, timeout=10.0)


class TestHTTPStatuses:
    """The HTTP transport promotes protocol codes to response statuses."""

    def test_oversized_body_is_413(self, http_server):
        _, url = http_server
        big = json.dumps({"total": 100, "options": {"pad": "x" * 4096}})
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            http_post(url, big.encode())
        assert exc_info.value.code == 413

    def test_shed_is_503_with_retry_after_header(self, http_server,
                                                 gated_partitioner):
        server, url = http_server
        gate, started = gated_partitioner
        server.submit(1000, partitioner="gated")
        started.wait(timeout=10.0)
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            http_post(url, json.dumps(
                {"total": 2000, "partitioner": "gated"}
            ).encode())
        assert exc_info.value.code == 503
        assert exc_info.value.headers["Retry-After"] == "2"
        gate.set()

    def test_deadline_is_504(self, http_server, gated_partitioner):
        _, url = http_server
        gate, _ = gated_partitioner
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            http_post(url, json.dumps(
                {"total": 1000, "partitioner": "gated", "deadline": 0.05}
            ).encode())
        assert exc_info.value.code == 504
        gate.set()

    def test_success_and_stats_still_work(self, http_server):
        _, url = http_server
        with http_post(url, json.dumps({"total": 1500}).encode()) as reply:
            plan = json.loads(reply.read())
        assert sum(plan["sizes"]) == 1500
        with urllib.request.urlopen(url + "/stats", timeout=10.0) as reply:
            stats = json.loads(reply.read())["stats"]
        assert stats["serve"]["computations"] == 1


class TestParseBaseUrl:
    """The one base-URL parser of every HTTP client."""

    def test_host_port_and_prefix(self):
        assert parse_base_url("http://127.0.0.1:8755") == ("127.0.0.1", 8755, "")
        assert parse_base_url("http://svc/api/") == ("svc", 80, "/api")

    @pytest.mark.parametrize(
        "url", ["https://h:1", "ftp://h", "http://:1", "http://h:port"]
    )
    def test_malformed_urls_refused(self, url):
        with pytest.raises(FuPerModError):
            parse_base_url(url)


class RecordingSleep:
    def __init__(self):
        self.slept = []

    def __call__(self, seconds):
        self.slept.append(seconds)


class TestPlanClient:
    """Backoff, jitter, Retry-After, typed raising."""

    def scripted(self, *responses):
        """A transport that replays canned responses, then repeats the last."""
        remaining = list(responses)

        def transport(payload):
            return remaining.pop(0) if len(remaining) > 1 else remaining[0]

        return transport

    def test_retries_503_then_succeeds(self):
        ok = {"key": "k", "total": 10, "sizes": [5, 5],
              "times": ["0.1", "0.1"], "algorithm": "geometric"}
        sleep = RecordingSleep()
        client = PlanClient(
            self.scripted({"error": "full", "code": 503}, ok),
            rng=np.random.default_rng(0), sleep=sleep,
        )
        result = client.plan(10)
        assert result.sizes == (5, 5)
        assert client.retries == 1
        assert len(sleep.slept) == 1

    def test_no_retry_on_400(self):
        sleep = RecordingSleep()
        client = PlanClient(
            self.scripted({"error": "bad request", "code": 400}),
            rng=np.random.default_rng(0), sleep=sleep,
        )
        with pytest.raises(FuPerModError):
            client.plan(10)
        assert sleep.slept == []
        assert client.retries == 0

    def test_exhaustion_raises_typed_overload(self):
        client = PlanClient(
            self.scripted({"error": "full", "code": 503, "retry_after": 0.5}),
            max_attempts=3, rng=np.random.default_rng(0),
            sleep=RecordingSleep(),
        )
        with pytest.raises(ServiceOverloadError) as exc_info:
            client.plan(10)
        assert exc_info.value.retry_after == 0.5
        assert client.retries == 2  # 3 attempts -> 2 backoffs

    def test_circuit_open_raises_its_own_type(self):
        client = PlanClient(
            self.scripted({"error": "open", "code": 503,
                           "circuit_open": True}),
            max_attempts=2, rng=np.random.default_rng(0),
            sleep=RecordingSleep(),
        )
        with pytest.raises(CircuitOpenError):
            client.plan(10)

    def test_deadline_raises_its_own_type(self):
        client = PlanClient(
            self.scripted({"error": "too slow", "code": 504}),
            max_attempts=2, rng=np.random.default_rng(0),
            sleep=RecordingSleep(),
        )
        with pytest.raises(DeadlineExceeded):
            client.plan(10)

    def test_backoff_is_capped_jittered_and_monotone_in_expectation(self):
        sleep = RecordingSleep()
        client = PlanClient(
            self.scripted({"error": "full", "code": 503}),
            max_attempts=6, base_delay=0.1, max_delay=0.4,
            rng=np.random.default_rng(7), sleep=sleep,
        )
        with pytest.raises(ServiceOverloadError):
            client.plan(10)
        assert len(sleep.slept) == 5
        ceilings = [0.1, 0.2, 0.4, 0.4, 0.4]
        for slept, ceiling in zip(sleep.slept, ceilings):
            assert 0.0 <= slept <= ceiling

    def test_jitter_spreads_the_fleet(self):
        """Two clients with different seeds must not retry in lockstep."""
        def delays(seed):
            sleep = RecordingSleep()
            client = PlanClient(
                self.scripted({"error": "full", "code": 503}),
                max_attempts=4, rng=np.random.default_rng(seed), sleep=sleep,
            )
            with pytest.raises(ServiceOverloadError):
                client.plan(10)
            return sleep.slept

        assert delays(1) != delays(2)

    def test_retry_after_is_a_floor(self):
        sleep = RecordingSleep()
        client = PlanClient(
            self.scripted({"error": "full", "code": 503, "retry_after": 1.5}),
            max_attempts=2, base_delay=0.01, rng=np.random.default_rng(0),
            sleep=sleep,
        )
        with pytest.raises(ServiceOverloadError):
            client.plan(10)
        assert sleep.slept[0] >= 1.5

    def test_in_process_transport_end_to_end(self):
        with PlanServer(make_models()) as server:
            client = PlanClient(
                lambda payload: handle_request(server, payload),
                rng=np.random.default_rng(0), sleep=RecordingSleep(),
            )
            result = client.plan(1200)
            assert sum(result.sizes) == 1200
            assert client.stats()["serve"]["computations"] == 1

    def test_http_transport_end_to_end(self, http_server):
        _, url = http_server
        client = PlanClient(
            http_transport(url), rng=np.random.default_rng(0),
            sleep=RecordingSleep(),
        )
        result = client.plan(900)
        assert sum(result.sizes) == 900
        assert client.stats()["ranks"] == 3

    def test_http_transport_recovers_retry_after_header(self, http_server,
                                                        gated_partitioner):
        server, url = http_server
        gate, started = gated_partitioner
        server.submit(1000, partitioner="gated")
        started.wait(timeout=10.0)
        transport = http_transport(url)
        response = transport({"total": 2000, "partitioner": "gated"})
        assert response["code"] == 503
        assert response["retry_after"] == 2.0
        gate.set()
