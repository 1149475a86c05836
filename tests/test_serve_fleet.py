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
* ``/metrics`` aggregates every shard under the fleet schema;
* the FPM balancer runs on models fitted to measured worker service
  rates -- the repo's own methodology routing its own traffic.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.serve import (
    FLEET_METRICS_SCHEMA,
    METRICS_SCHEMA,
    PlanFleet,
    ShardClient,
    affinity_key,
)
from repro.serve.router import FpmBalancer, RoundRobinBalancer

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
