"""Fleet end-to-end: real worker processes behind the routing front end.

Everything here spawns actual ``repro.serve.worker`` subprocesses via
:class:`~repro.serve.fleet.PlanFleet` and talks to them through the
router socket -- the same path ``fupermod serve --workers N`` wires up.
The invariants:

* affinity requests keep landing on one home shard, so repeats hit its
  cache (the fleet cache is a union, not N copies);
* a plan served through the router is **byte-identical** to the same
  plan served by the owning worker directly (raw relay);
* a local miss is filled from a sibling's cache bit-identically instead
  of re-solving;
* ``/metrics`` aggregates every shard under the fleet schema, and its
  summed sections are pinned on synthetic per-shard input;
* one probe round asks every shard ``GET /health``: live ones for their
  durability, dead ones whether they answer again;
* the FPM balancer runs on models fitted to measured worker service
  rates -- the repo's own methodology routing its own traffic.
"""

from __future__ import annotations

import http.server
import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.serve import (
    FLEET_METRICS_SCHEMA,
    METRICS_SCHEMA,
    PlanFleet,
    ShardClient,
    affinity_key,
)
from repro.serve.router import FpmBalancer, PlanRouter, RoundRobinBalancer

pytestmark = [pytest.mark.serve, pytest.mark.fleet]


@pytest.fixture(scope="module")
def points_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet-points")
    assert cli_main([
        "build", "--platform", "fig4", "--sizes", "32,128,512",
        "--out", str(out),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def fleet(points_dir):
    """One 2-worker fleet shared by the read-mostly tests.

    Runs with ``replicas=1`` (no replication) because these tests assert
    single-copy placement semantics -- a plan living exactly on its home
    shard, sibling fill firing on the non-home shard.  The replicated
    fleet is covered by ``test_fleet_netsplit.py``.
    """
    with PlanFleet(points_dir, workers=2, probe=True, replicas=1) as running:
        yield running


def home_shard(fleet_, total, partitioner="geometric", options=None):
    key = affinity_key(total, partitioner, options or {})
    return fleet_.router.ring.lookup(key)


class TestAffinityServing:
    def test_repeat_requests_hit_the_home_cache(self, fleet):
        client = ShardClient(fleet.url)
        try:
            first = client.plan({"cmd": "plan", "total": 4321})
            second = client.plan({"cmd": "plan", "total": 4321})
        finally:
            client.close()
        assert not first["cached"] and second["cached"]
        assert first["sizes"] == second["sizes"]
        assert sum(first["sizes"]) == 4321
        # The plan lives exactly on its home shard.
        home = home_shard(fleet, 4321)
        for sid in fleet.shards:
            cached = fleet.shard_client(sid).get_cached(first["key"])
            assert (cached is not None) == (sid == home)

    def test_router_relay_is_bit_identical(self, fleet):
        payload = json.dumps({"cmd": "plan", "total": 5150}).encode("utf-8")
        client = ShardClient(fleet.url)
        try:
            client.plan({"cmd": "plan", "total": 5150})  # warm the home
            status, via_router = client.plan_raw(
                {"cmd": "plan", "total": 5150}
            )
        finally:
            client.close()
        assert status == 200
        home = fleet.shard_client(home_shard(fleet, 5150))
        direct_status, direct = home._roundtrip("POST", "/plan", payload)
        assert direct_status == 200
        assert via_router == direct  # the exact bytes, not just the JSON

    def test_sibling_fill_is_bit_identical(self, fleet):
        client = ShardClient(fleet.url)
        try:
            origin = client.plan({"cmd": "plan", "total": 6170})
        finally:
            client.close()
        home = home_shard(fleet, 6170)
        other = next(s for s in fleet.shards if s != home)
        before = fleet.shard_client(other).stats()["serve"]
        # Ask the non-home shard directly: local miss, sibling fill.
        filled = fleet.shard_client(other).plan({"cmd": "plan", "total": 6170})
        assert filled["sizes"] == origin["sizes"]
        assert filled["times"] == origin["times"]
        assert filled["key"] == origin["key"]
        after = fleet.shard_client(other).stats()["serve"]
        assert after["sibling_fills"] == before["sibling_fills"] + 1
        assert after["computations"] == before["computations"]  # no re-solve

    def test_malformed_requests_get_the_workers_400(self, fleet):
        client = ShardClient(fleet.url)
        try:
            reply = client.plan({"cmd": "plan", "total": "many"})
            assert reply["code"] == 400 and "error" in reply
        finally:
            client.close()


class TestFleetObservability:
    def test_metrics_aggregate_every_shard(self, fleet):
        client = ShardClient(fleet.url)
        try:
            client.plan({"cmd": "plan", "total": 7300})
            metrics = client.metrics()
        finally:
            client.close()
        assert metrics["schema"] == FLEET_METRICS_SCHEMA
        assert metrics["uptime_s"] >= 0.0
        summary = metrics["fleet"]
        assert summary["routing"] == "fpm"
        assert summary["counters"]["requests"] >= 1
        assert summary["counters"]["affinity_routed"] >= 1
        assert sorted(metrics["shards"]) == sorted(fleet.shards)
        for sid, shard_metrics in metrics["shards"].items():
            assert shard_metrics["schema"] == METRICS_SCHEMA, sid

    def test_stats_and_health(self, fleet):
        client = ShardClient(fleet.url)
        try:
            stats = client.stats()
            assert sorted(stats["fleet"]["shards"]) == sorted(fleet.shards)
            assert client.health() is True
        finally:
            client.close()

    def test_probe_seeded_fpm_models(self, fleet):
        balancer = fleet.router.balancer
        summary = balancer.to_dict()
        assert summary["policy"] == "fpm"
        weights = balancer.weights()
        assert sorted(weights) == sorted(fleet.shards)
        assert all(w >= 1 for w in weights.values())


class TestBalancedRouting:
    def test_affinity_false_uses_the_balancer(self, points_dir):
        with PlanFleet(points_dir, workers=2, probe=False) as running:
            client = ShardClient(running.url)
            try:
                # Pre-warm on every shard so any worker can serve it.
                for sid in running.shards:
                    running.shard_client(sid).plan(
                        {"cmd": "plan", "total": 8080}
                    )
                for _ in range(6):
                    reply = client.plan(
                        {"cmd": "plan", "total": 8080, "affinity": False}
                    )
                    assert reply["cached"]
            finally:
                client.close()
            counters = running.router.counters
            assert counters["balanced_routed"] == 6
            assert counters["affinity_routed"] == 0


class TestBalancers:
    """The balancer units, without processes."""

    def test_round_robin_rotates_the_living(self):
        balancer = RoundRobinBalancer(["a", "b", "c"])
        assert [balancer.next() for _ in range(6)] == list("abcabc")
        balancer.set_alive("b", False)
        assert set(balancer.next() for _ in range(4)) == {"a", "c"}
        balancer.set_alive("b", True)
        assert "b" in [balancer.next() for _ in range(3)]

    def test_fpm_weights_follow_measured_speed(self):
        balancer = FpmBalancer(["fast", "slow"])
        # fast serves a batch of d requests in d*10ms, slow in d*40ms.
        balancer.seed("fast", [(d, d * 0.010) for d in (1, 2, 4, 8)])
        balancer.seed("slow", [(d, d * 0.040) for d in (1, 2, 4, 8)])
        weights = balancer.weights()
        assert weights["fast"] > weights["slow"]
        ratio = weights["fast"] / weights["slow"]
        assert 2.5 < ratio < 6.0  # ~4x speed difference
        picks = [balancer.next() for _ in range(100)]
        assert picks.count("fast") > picks.count("slow") * 2

    def test_fpm_equal_shares_without_models(self):
        balancer = FpmBalancer(["a", "b"])
        picks = [balancer.next() for _ in range(10)]
        assert abs(picks.count("a") - picks.count("b")) <= 1

    def test_fpm_skips_dead_shards(self):
        balancer = FpmBalancer(["a", "b"])
        balancer.set_alive("a", False)
        assert all(balancer.next() == "b" for _ in range(5))


class TestFleetSectionsFold:
    """The router's summed ``/metrics`` sections, without processes.

    The literals were computed by the implementation that summed each
    section with its own loop.
    """

    PER_SHARD = {
        "s0": {
            "replication": {"replicas_written": 3, "hints_queued": 1,
                            "replicas": 2, "durable_hints": True,
                            "lag_s": 0.25},
            "durability": {"mode": "durable", "append_errors": 0, "trips": 0,
                           "degraded": False, "last_disk_error": None,
                           "fill": 0.5},
            "plans_by_kind": {"time": 3, "pareto": 1},
        },
        "s1": {
            "replication": {"replicas_written": 2, "hints_queued": 0,
                            "replicas": 2, "durable_hints": False,
                            "lag_s": 1.5},
            "durability": {"mode": "memory-only", "append_errors": 4,
                           "trips": 1, "degraded": True,
                           "last_disk_error": "ENOSPC", "fill": 0.25},
            "plans_by_kind": {"time": 2, "share": 0.5, "flag": True},
        },
        "s2": {"error": "unreachable: HTTP 503"},
        "s3": {"replication": "n/a", "durability": None},
    }

    def test_sections_match_pinned_literals(self):
        router = PlanRouter(
            {sid: "http://127.0.0.1:1" for sid in ("s0", "s1", "s2", "s3")}
        )
        router.note_durability("s1", False)
        sections = router._fleet_sections(self.PER_SHARD)
        assert sections == {
            "replication": {
                "replica_set": 2,
                "shards_reporting": 2,
                "workers": {"replicas_written": 5, "hints_queued": 1,
                            "replicas": 4, "lag_s": 1.75},
                "router": {"retry_budget_exhausted": 0,
                           "retry_budget_available": 20.0,
                           "deadline_rejected": 0, "health_probes": 0,
                           "probe_revivals": 0},
            },
            "plans_by_kind": {"time": 5, "pareto": 1},
            "durability": {
                "shards_reporting": 2,
                "modes": {"durable": 1, "memory-only": 1},
                "memory_only": ["s1"],
                "workers": {"append_errors": 4, "trips": 1, "fill": 0.75},
                "router": {"durability_probes": 0},
            },
        }
        assert list(sections) == ["replication", "plans_by_kind", "durability"]


class _HealthStub(http.server.BaseHTTPRequestHandler):
    """A shard that only answers ``GET /health``, memory-only, and logs paths."""

    protocol_version = "HTTP/1.1"
    paths: list = []

    def do_GET(self):
        type(self).paths.append(self.path)
        status, body = (
            (200, {"ok": True, "durable": False}) if self.path == "/health"
            else (404, {"error": "no such endpoint"})
        )
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *_args):
        pass


class TestProbeRound:
    """The router's one probe coroutine, against in-process stub shards."""

    def test_live_and_dead_shards_get_health_probes(self):
        _HealthStub.paths = []
        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _HealthStub)
        threading.Thread(target=stub.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{stub.server_address[1]}"
        router = PlanRouter({"s0": url, "s1": url})
        try:
            router.mark_dead("s1")
            router.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                "s1" not in router.alive() or "s0" not in router.memory_only()
            ):
                time.sleep(0.05)
            assert router.alive() == ["s0", "s1"]  # the dead shard revived
            assert "s0" in router.memory_only()  # the live one's durability
            counters = router.counters
            assert counters["durability_probes"] >= 1
            assert counters["health_probes"] >= 1
            assert counters["probe_revivals"] == 1
            assert _HealthStub.paths and set(_HealthStub.paths) == {"/health"}
        finally:
            router.stop()
            stub.shutdown()
            stub.server_close()
