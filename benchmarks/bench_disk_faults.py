"""Disk-fault bench: what the durability guard costs, and what it buys.

The degradation ladder (the ``DurabilityGuard`` inside
:class:`~repro.serve.wal.DurablePlanCache`) must be free where it
matters and honest where it fires:

* **disk_guard_tax** (gated <= 5% by :data:`harness.GATES`) -- the
  guarded cache vs. the fail-fast cache on the cache-hit path, at
  ``p`` in {4, 64}.  Hits mutate nothing, so the guard's price is one
  attribute check on the ack path; anything above noise means the
  ladder leaked into steady-state serving.
* **degraded_throughput** (zero-error gate) -- puts against a dead
  disk (a seeded :class:`~repro.faults.disk.DiskFaultPlan` failing
  every WAL op).  Every mutation must be absorbed, never raised, and
  memory-only puts should run at in-memory speed -- the ladder's
  payoff: a dead disk costs durability, not availability.
* **heal_recovery** (zero-loss gate) -- plans accepted while degraded
  must all reach the disk after the heal re-sync and survive a
  simulated SIGKILL (a fresh cache recovering from the same files).

Writes ``BENCH_disk_faults.json`` at the repo root.  Run directly::

    PYTHONPATH=src python benchmarks/bench_disk_faults.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_disk_faults.py -m bench_smoke
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

import pytest

from repro.faults import DiskFaultPlan, DiskFaults, faulty_open
from repro.serve import DurablePlanCache, PlanEngine, PlanResult

from bench_plan_cache import SOLVE_OPTIONS, TOTAL, build_models
from harness import fmt, paired_overhead, print_table

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_disk_faults.json"
)

RANKS = (4, 64)


def _dead_disk_cache(scratch: Path, budget: int = 2, **kwargs):
    """A guarded durable cache whose WAL device never writes a byte."""
    plan = DiskFaultPlan({
        "plans.wal*": DiskFaults(fail_after=0, error="ENOSPC"),
    })
    return DurablePlanCache(
        scratch / "plans", durability_budget=budget,
        probe_interval=kwargs.pop("probe_interval", 3600.0),
        opener=faulty_open(plan), **kwargs,
    )


def bench_guard_tax(
    ranks: Sequence[int] = RANKS, reps: int = 50
) -> Dict[str, Dict]:
    """Cache-hit latency: guarded durable cache vs. fail-fast durable cache.

    Identical engines over identically-primed caches; the only delta is
    ``durability_budget=3`` arming the degradation ladder, timed by
    :func:`harness.paired_overhead`.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        models = build_models(p)
        with tempfile.TemporaryDirectory() as scratch:
            plain = PlanEngine(
                cache=DurablePlanCache(Path(scratch) / "plain.json",
                                       capacity=16),
                warm=False,
            )
            guarded = PlanEngine(
                cache=DurablePlanCache(Path(scratch) / "guarded.json",
                                       capacity=16, durability_budget=3,
                                       probe_interval=3600.0),
                warm=False,
            )

            def plain_hit():
                return plain.plan(models, TOTAL, options=SOLVE_OPTIONS)

            def guarded_hit():
                return guarded.plan(models, TOTAL, options=SOLVE_OPTIONS)

            assert not plain_hit().cached and plain_hit().cached
            assert not guarded_hit().cached and guarded_hit().cached
            plain_s, guarded_s, overhead = paired_overhead(
                plain_hit, guarded_hit, reps
            )
            plain.cache.close()
            guarded.cache.close()
        out[str(p)] = {
            "plain_hit_s": plain_s,
            "guarded_hit_s": guarded_s,
            "overhead_frac": overhead,
            "hits_per_s": 1.0 / guarded_s,
        }
    return out


def _bench_result(i: int) -> PlanResult:
    return PlanResult(
        key=f"bench-{i}", total=1000 + i, sizes=(600 + i, 400),
        times=(0.6, 0.4), algorithm="geometric",
    )


def bench_degraded_throughput(inserts: int = 256) -> Dict[str, object]:
    """Put throughput on a dead disk: absorbed, memory-speed, zero errors.

    The first ``budget`` puts each pay one doomed journal attempt; after
    the trip the ladder stops touching the device entirely, so the
    steady-state memory-only put should price like a plain dict insert.
    """
    with tempfile.TemporaryDirectory() as scratch:
        cache = _dead_disk_cache(Path(scratch), capacity=inserts + 1)
        errors = 0
        t0 = time.perf_counter()
        for i in range(inserts):
            try:
                cache.put(f"k{i}", _bench_result(i), "bench-models")
            except Exception:
                errors += 1
        elapsed = time.perf_counter() - t0
        stats = cache.durability_stats()
        accepted = len(cache)
        cache.close()
    return {
        "inserts": inserts,
        "errors": errors,
        "accepted": accepted,
        "puts_per_s": inserts / elapsed if elapsed > 0 else float("inf"),
        "mode_after": stats["mode"],
        "trips": stats["trips"],
    }


def bench_heal_recovery(inserts: int = 64) -> Dict[str, object]:
    """Degraded-mode plans must survive the heal re-sync and a SIGKILL."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch_path = Path(scratch)
        # Dies on the third device op, heals once the probe loop has
        # burned through the window; probe_now() is driven by hand.
        plan = DiskFaultPlan({
            "plans.wal*": DiskFaults(fail_after=2, heal_after=16,
                                     error="EIO"),
        })
        cache = DurablePlanCache(
            scratch_path / "plans", durability_budget=2,
            probe_interval=3600.0, opener=faulty_open(plan),
            capacity=inserts + 1,
        )
        for i in range(inserts):
            cache.put(f"k{i}", _bench_result(i), "bench-models")
        assert cache.durability_mode == "memory-only"
        t0 = time.perf_counter()
        probes = 0
        while not cache.probe_now():
            probes += 1
            assert probes < 64, "the fault window never healed"
        heal_s = time.perf_counter() - t0
        accepted = set(cache._entries)
        cache.close()
        # SIGKILL simulation: a pristine cache over the same files.
        fresh = DurablePlanCache(scratch_path / "plans",
                                 capacity=inserts + 1)
        fresh.recover()
        recovered = set(fresh._entries)
        fresh.close()
    return {
        "accepted_while_degraded": len(accepted),
        "recovered_after_heal": len(recovered & accepted),
        "lost": len(accepted - recovered),
        "probes_to_heal": probes + 1,
        "heal_resync_s": heal_s,
    }


def run_bench(ranks: Sequence[int] = RANKS, reps: int = 50,
              write: bool = True) -> Dict:
    """Run every section; optionally write the repo-root baseline file."""
    results = {
        "total_units": TOTAL,
        "disk_guard_tax": bench_guard_tax(ranks=ranks, reps=reps),
        "degraded_throughput": bench_degraded_throughput(),
        "heal_recovery": bench_heal_recovery(),
    }
    if write:
        RESULT_PATH.write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    print_table(
        "durability-guard tax on the cache-hit path",
        ["p", "fail-fast s", "guarded s", "overhead", "hits/s"],
        [
            [p, fmt(row["plain_hit_s"], 6), fmt(row["guarded_hit_s"], 6),
             fmt(100.0 * row["overhead_frac"], 2) + "%",
             fmt(row["hits_per_s"], 0)]
            for p, row in results["disk_guard_tax"].items()
        ],
    )
    degraded = results["degraded_throughput"]
    print_table(
        "puts against a dead disk (ENOSPC on every WAL op)",
        ["inserts", "errors", "accepted", "puts/s", "mode", "trips"],
        [[
            degraded["inserts"], degraded["errors"], degraded["accepted"],
            fmt(degraded["puts_per_s"], 0), degraded["mode_after"],
            degraded["trips"],
        ]],
    )
    heal = results["heal_recovery"]
    print_table(
        "heal re-sync + SIGKILL recovery of degraded-mode plans",
        ["accepted", "recovered", "lost", "probes", "re-sync s"],
        [[
            heal["accepted_while_degraded"], heal["recovered_after_heal"],
            heal["lost"], heal["probes_to_heal"],
            fmt(heal["heal_resync_s"], 4),
        ]],
    )


@pytest.mark.bench_smoke
@pytest.mark.disk
def test_bench_smoke(capsys):
    """Reduced sweep: the guard must stay under the 5% hit-path ceiling."""
    results = run_bench(ranks=(4,), reps=30, write=False)
    with capsys.disabled():
        report(results)
    from harness import check_gates

    failures = check_gates(results, RESULT_PATH.name)
    assert not failures, "disk-fault gates: " + "; ".join(failures)


if __name__ == "__main__":
    results = run_bench()
    report(results)
    print(f"\nresults written to {RESULT_PATH}")
