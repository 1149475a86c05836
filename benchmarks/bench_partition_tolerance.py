"""Partition-tolerance bench: the price and payoff of plan replication.

Two questions from the replication layer (the partition-tolerant fleet),
each answered against real worker processes:

* **replication_tax** -- what does ``replicas=2`` cost the steady-state
  hit path?  The answer should be nothing measurable: replication fires
  only on *cold commits* and runs on a background thread, so a warm
  affinity stream through the router pays zero replication work per
  request.  Two identical 2-worker fleets (``replicas=1`` vs
  ``replicas=2``) serve the same seeded warm pool; ``overhead_frac`` is
  gated at 5% by :data:`harness.GATES`.
* **failover** -- what does replication buy?  A 3-worker ``replicas=2``
  fleet serves a pool of plans, replication quiesces, and one shard is
  SIGKILLed.  Every previously acked plan must still be served -- as a
  **cache hit** (a replica copy, not a re-solve) with the same shares.
  ``lost_acked`` is gated at zero and ``post_kill_hit_rate`` at 1.0.

Writes ``BENCH_partition_tolerance.json`` at the repo root.  Run
directly::

    PYTHONPATH=src python benchmarks/bench_partition_tolerance.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_partition_tolerance.py -m bench_smoke
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

import pytest

from repro.serve import PlanFleet, ShardClient

from bench_fleet_scaling import build_points, drive, percentile
from harness import fmt, print_table

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_partition_tolerance.json"
)

#: Warm totals for the tax measurement (cached before the timed region).
WARM_POOL = tuple(200_000 + 1_000 * i for i in range(8))

#: Distinct totals acked before the kill in the failover section.
FAILOVER_POOL = tuple(300_000 + 7_000 * i for i in range(10))


def quiesce_replication(fleet: PlanFleet, timeout: float = 20.0) -> bool:
    """Wait until every running shard's push queue is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        gauges = [
            fleet.shard_client(sid).metrics()["replication"]
            for sid, shard in fleet.shards.items() if shard.running
        ]
        if all(g["pending_pushes"] == 0 for g in gauges):
            return True
        time.sleep(0.05)
    return False


def bench_replication_tax(
    points: Path, duration: float = 2.5, threads: int = 12
) -> Dict[str, object]:
    """Warm-pool hit throughput: single-copy fleet vs replicated fleet.

    The pool is pre-solved (and, on the replicated fleet, fully pushed)
    before the timed region, so both sides serve pure affinity cache
    hits -- the measured difference is exactly what the replication
    hooks cost the request path.
    """
    payloads = [{"cmd": "plan", "total": t} for t in WARM_POOL]

    def hit_stream(idx: int) -> Sequence[Dict]:
        offset = idx % len(payloads)
        return payloads[offset:] + payloads[:offset]

    out: Dict[str, object] = {"duration_s": duration}
    for replicas, label in ((1, "replicas_1"), (2, "replicas_2")):
        with PlanFleet(points, workers=2, probe=False,
                       replicas=replicas) as fleet:
            warm = ShardClient(fleet.url, timeout=30.0)
            for payload in payloads:
                warm.plan(payload)
            warm.close()
            if replicas > 1:
                assert quiesce_replication(fleet), (
                    "replication never quiesced before the timed region"
                )
            rps, lats = drive(fleet.url, hit_stream, duration, threads)
            out[label] = {
                "hits_per_s": rps,
                "requests": len(lats),
                "p50_s": percentile(lats, 0.50),
                "p99_s": percentile(lats, 0.99),
            }
    single = out["replicas_1"]["hits_per_s"]
    replicated = out["replicas_2"]["hits_per_s"]
    out["overhead_frac"] = (
        single / replicated - 1.0 if replicated > 0 else float("inf")
    )
    return out


def bench_failover(points: Path) -> Dict[str, object]:
    """Acked-plan survival across a SIGKILL on a replicated fleet."""
    with PlanFleet(points, workers=3, probe=False, replicas=2) as fleet:
        client = ShardClient(fleet.url, timeout=30.0)
        try:
            acked = {}
            for total in FAILOVER_POOL:
                reply = client.plan({"cmd": "plan", "total": total})
                assert sum(reply["sizes"]) == total
                acked[total] = reply["sizes"]
            assert quiesce_replication(fleet), "replication never quiesced"
            # Each commit pushes to exactly one peer (replicas=2), so the
            # fleet-wide received count reaching the acked count means
            # every replica copy has been applied, not just sent.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                received = sum(
                    fleet.shard_client(sid).metrics()["replication"][
                        "replicas_received"]
                    for sid in fleet.shards
                )
                if received >= len(acked):
                    break
                time.sleep(0.05)

            victim = "shard1"
            fleet.kill_shard(victim)
            hits = lost = 0
            for total, sizes in acked.items():
                reply = client.plan({"cmd": "plan", "total": total})
                if "error" in reply or reply["sizes"] != sizes:
                    lost += 1
                elif reply.get("cached"):
                    hits += 1
            return {
                "plans": len(acked),
                "victim": victim,
                "post_kill_hit_rate": hits / len(acked),
                "lost_acked": lost,
            }
        finally:
            client.close()


def run_bench(
    duration: float = 2.5, threads: int = 12, write: bool = True
) -> Dict:
    """Run both sections; optionally write the repo-root baseline file."""
    with tempfile.TemporaryDirectory() as scratch:
        points = build_points(Path(scratch) / "points")
        results: Dict[str, object] = {
            "replication_tax": bench_replication_tax(
                points, duration=duration, threads=threads
            ),
            "failover": bench_failover(points),
        }
    if write:
        RESULT_PATH.write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    tax = results["replication_tax"]
    print_table(
        "replication tax on the warm hit path (2 workers)",
        ["fleet", "hits/s", "p50 ms", "p99 ms"],
        [
            [label, fmt(tax[label]["hits_per_s"], 0),
             fmt(1000 * tax[label]["p50_s"], 2),
             fmt(1000 * tax[label]["p99_s"], 2)]
            for label in ("replicas_1", "replicas_2")
        ],
    )
    print(f"  replication overhead = {100 * tax['overhead_frac']:+.1f}%")
    failover = results["failover"]
    print_table(
        "acked-plan survival across a SIGKILL (3 workers, replicas=2)",
        ["plans acked", "victim", "replica hit rate", "lost"],
        [[
            failover["plans"], failover["victim"],
            fmt(failover["post_kill_hit_rate"], 3),
            failover["lost_acked"],
        ]],
    )


@pytest.mark.bench_smoke
@pytest.mark.netsplit
def test_bench_smoke(capsys):
    """Reduced sweep: replication must stay off the hit path.

    The overhead ceiling is looser than the committed baseline's
    (:data:`harness.GATES`) because the reduced duration leaves more
    room for scheduler noise on a loaded CI host; the durability claims
    (nothing lost, served as replica hits) are exact at any duration.
    """
    results = run_bench(duration=1.0, threads=8, write=False)
    with capsys.disabled():
        report(results)
    from harness import check_gates

    failures = check_gates(results, RESULT_PATH.name,
                           {"replication_tax.overhead_frac": 0.5})
    assert not failures, "partition-tolerance gates: " + "; ".join(failures)


if __name__ == "__main__":
    results = run_bench()
    report(results)
    print(f"\nresults written to {RESULT_PATH}")
