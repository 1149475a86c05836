"""Disk chaos: kill a shard's storage mid-flood, degrade, heal, recover.

The durability ladder driven end to end with real worker processes and
a seeded :class:`~repro.faults.disk.DiskFaultPlan` spliced under one
shard's journals (the ``--disk-fault-plan`` seam):

* **disk death mid-flood**: shard0's WAL device dies under a mixed
  flood -- every request still succeeds (zero storage-caused errors),
  the wounded shard's acks flip ``durable: false``, its ``/stats`` and
  ``/health`` tell the truth, and the fleet ``/metrics`` aggregate
  reports it memory-only under the ``fupermod-fleet-metrics/4`` schema
  once the router's durability poll notices;
* **heal then SIGKILL**: the device heals on schedule, the background
  probe re-syncs the journal (plans accepted while degraded included),
  and a SIGKILL immediately after recovers every acked plan from disk,
  served identically.
"""

from __future__ import annotations

import time

import pytest

from repro.cli import main as cli_main
from repro.faults import DiskFaultPlan, DiskFaults
from repro.faults.serve import flood_totals
from repro.serve import (
    FLEET_METRICS_SCHEMA,
    PlanFleet,
    ShardClient,
    affinity_key,
)

pytestmark = [pytest.mark.chaos, pytest.mark.fleet, pytest.mark.disk]


@pytest.fixture(scope="module")
def points_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("disk-chaos-points")
    assert cli_main([
        "build", "--platform", "fig4", "--sizes", "32,128,512",
        "--out", str(out),
    ]) == 0
    return out


def save_fault_plan(tmp_path, **fault_fields):
    """A saved plan killing shard0's WAL device (probe file included)."""
    plan = DiskFaultPlan({
        "shard0.plans.wal*": DiskFaults(error="ENOSPC", **fault_fields),
    })
    path = tmp_path / "disk-faults.json"
    plan.save(path)
    return path


def crash(fleet, shard_id):
    """SIGKILL without supervisor bookkeeping (how real crashes land)."""
    proc = fleet.shards[shard_id].proc
    proc.kill()
    proc.wait()


def wait_for(predicate, timeout=10.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDiskDeathMidFlood:
    def test_dead_disk_never_surfaces_as_a_request_error(
        self, points_dir, tmp_path
    ):
        faults = save_fault_plan(tmp_path, fail_after=0)
        stream = flood_totals(36, pool=12, miss_rate=0.3, seed=21)
        with PlanFleet(
            points_dir, workers=2, probe=False,
            cache_dir=tmp_path / "caches", disk_fault_plan=faults,
        ) as fleet:
            placed = {
                t: fleet.router.ring.lookup(affinity_key(t, "geometric", {}))
                for t in set(stream)
            }
            # Replication pushes every plan to both shards anyway, but
            # the flood must also home real traffic on the victim.
            assert sum(1 for s in placed.values() if s == "shard0") >= 4

            client = ShardClient(fleet.url)
            try:
                for index, total in enumerate(stream):
                    reply = client.plan({"cmd": "plan", "total": total})
                    assert "error" not in reply, (
                        f"request {index} (total={total}) died with the "
                        f"disk: {reply}"
                    )
                    assert sum(reply["sizes"]) == total

                # The wounded shard, asked directly, is honest about it.
                direct = fleet.shard_client("shard0")
                stats = direct.stats()
                durability = stats["durability"]
                assert durability["mode"] == "memory-only"
                assert durability["trips"] == 1
                assert durability["append_errors"] >= 3
                assert "ENOSPC" in durability["last_disk_error"]
                status, health = direct._json("GET", "/health")
                assert status == 200 and health["durable"] is False

                # A fresh solve on the dead-disk shard acks loudly.
                degraded = direct.plan({"cmd": "plan", "total": 777_001})
                assert "error" not in degraded
                assert degraded.get("durable") is False

                # The healthy shard's acks stay layout-clean.
                healthy = fleet.shard_client("shard1")
                clean = healthy.plan({"cmd": "plan", "total": 777_002})
                assert "error" not in clean
                assert "durable" not in clean

                # The router's durability poll notices and the fleet
                # metrics aggregate reports it under the /4 schema.
                assert wait_for(
                    lambda: fleet.router.memory_only() == ["shard0"]
                ), "the router never noticed the memory-only shard"
                metrics = client.metrics()
                assert metrics["schema"] == FLEET_METRICS_SCHEMA
                summary = metrics["fleet"]["durability"]
                assert summary["memory_only"] == ["shard0"]
                assert summary["modes"]["memory-only"] == 1
                assert summary["modes"]["durable"] == 1
                assert summary["workers"]["trips"] >= 1
                assert summary["router"]["durability_probes"] >= 1
                assert metrics["fleet"]["memory_only"] == ["shard0"]
            finally:
                client.close()


class TestHealThenSigkill:
    def test_heal_resyncs_and_a_sigkill_recovers_every_ack(
        self, points_dir, tmp_path
    ):
        # Device ops: one clean put (2), then budget=3 failed appends
        # trip the guard at op 5.  Each degraded-mode probe burns one op
        # until the window closes at 16, so the 0.1 s probe loop heals
        # within a couple of seconds.
        faults = save_fault_plan(tmp_path, fail_after=2, heal_after=16)
        with PlanFleet(
            points_dir, workers=2, probe=False,
            cache_dir=tmp_path / "caches", disk_fault_plan=faults,
            worker_args=["--probe-interval", "0.1"],
        ) as fleet:
            victim = "shard0"
            pool = [
                t for t in flood_totals(64, pool=32, miss_rate=0.0, seed=3)
                if fleet.router.ring.lookup(
                    affinity_key(t, "geometric", {})) == victim
            ]
            assert len(pool) >= 6, "enlarge the pool: too few victim totals"

            client = ShardClient(fleet.url)
            direct = fleet.shard_client(victim)
            try:
                served = {}
                for total in pool[:5]:
                    reply = client.plan({"cmd": "plan", "total": total})
                    assert "error" not in reply
                    served[total] = (reply["sizes"], reply["times"])
                assert direct.stats()["durability"]["trips"] == 1

                # The background probe must heal the shard on its own.
                assert wait_for(
                    lambda: direct.stats()["durability"]["mode"] == "durable"
                ), "the worker's probe loop never healed the disk"
                assert direct.stats()["durability"]["heals"] == 1

                # Once the router's poll sees the heal, the home shard
                # is preferred again and post-heal traffic journals
                # normally on it.
                assert wait_for(
                    lambda: fleet.router.memory_only() == []
                ), "the router never noticed the heal"
                post_heal = pool[5]
                reply = client.plan({"cmd": "plan", "total": post_heal})
                assert "error" not in reply
                served[post_heal] = (reply["sizes"], reply["times"])

                # SIGKILL right after the heal: the re-synced journal
                # must hold every ack, including the degraded-mode ones.
                crash(fleet, victim)
                fleet.router.mark_dead(victim)
                ready = fleet.restart_shard(victim)
                assert ready["recovered"] >= len(served), (
                    "plans accepted while degraded were lost on restart"
                )
                assert ready["durability"] == "durable"

                fresh = fleet.shard_client(victim)
                for total, (sizes, times) in served.items():
                    again = fresh.plan({"cmd": "plan", "total": total})
                    assert "error" not in again
                    assert again["cached"] is True, (
                        f"total={total} re-solved instead of recovered"
                    )
                    assert again["sizes"] == sizes
                    assert again["times"] == times
            finally:
                client.close()
