"""Serving-hardening bench: what the WAL and breakers cost at steady state.

The hardening layer (PR 5) must be effectively free on the path that
dominates a steady-state server -- the cache hit.  By construction the
hit path touches neither the journal (hits mutate nothing) nor the
breaker (hits never reach the solve path), so the measured overhead is
the honest price of carrying :class:`~repro.serve.wal.DurablePlanCache`
and a wired :class:`~repro.serve.breaker.BreakerBoard` through the
engine: method-resolution, the extra branch, nothing else.

* **Hit-path overhead** -- serving a repeated identical request through a
  hardened engine (durable cache + breaker board) vs. the plain engine,
  at ``p`` in {4, 16, 64}.  ``overhead_frac`` is gated at <= 5% by
  ``harness.py --check-regression`` (:data:`harness.GATES`).
* **Durable insert cost** (informational) -- a journaled, fsynced ``put``
  vs. a plain in-memory ``put``.  This is the price of the durability
  guarantee itself, paid only on cache *misses*; it is recorded so the
  trade is visible, not gated.

Writes ``BENCH_serve_resilience.json`` at the repo root.  Run directly::

    PYTHONPATH=src python benchmarks/bench_serve_resilience.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_resilience.py -m bench_smoke
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

import pytest

from repro.serve import BreakerBoard, DurablePlanCache, PlanCache, PlanEngine

from bench_plan_cache import SOLVE_OPTIONS, TOTAL, build_models
from harness import fmt, paired_overhead, print_table

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_serve_resilience.json"
)

RANKS = (4, 16, 64)


def bench_hit_overhead(
    ranks: Sequence[int] = RANKS, reps: int = 50
) -> Dict[str, Dict]:
    """Cache-hit latency: hardened engine vs. plain engine.

    Identical request streams against identically-primed caches; the only
    difference is the durable cache subclass and the breaker board being
    wired in.  Both sides pay the model fingerprint, the lock and the LRU
    lookup -- the delta is the hardening tax, gated at <= 5%, timed by
    :func:`harness.paired_overhead`.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        models = build_models(p)
        with tempfile.TemporaryDirectory() as scratch:
            plain = PlanEngine(cache=PlanCache(capacity=16), warm=False)
            hardened = PlanEngine(
                cache=DurablePlanCache(
                    Path(scratch) / "plans.json", capacity=16
                ),
                breakers=BreakerBoard(),
                warm=False,
            )

            def plain_hit():
                return plain.plan(models, TOTAL, options=SOLVE_OPTIONS)

            def hardened_hit():
                return hardened.plan(models, TOTAL, options=SOLVE_OPTIONS)

            assert not plain_hit().cached and plain_hit().cached
            assert not hardened_hit().cached and hardened_hit().cached
            plain_s, hardened_s, overhead = paired_overhead(
                plain_hit, hardened_hit, reps
            )
            assert plain.counters.computations == 1
            assert hardened.counters.computations == 1
            hardened.cache.wal.close()
        out[str(p)] = {
            "plain_hit_s": plain_s,
            "hardened_hit_s": hardened_s,
            "overhead_frac": overhead,
            "hits_per_s": 1.0 / hardened_s,
        }
    return out


def bench_durable_put(
    ranks: Sequence[int] = (4,), inserts: int = 64
) -> Dict[str, Dict]:
    """The price of a durable insert (journaled + fsynced) vs. in-memory.

    Informational: this cost is paid once per cache *miss* and buys the
    crash-recovery guarantee.  ``fsync=False`` is included to show how
    much of it is the disk barrier rather than the journalling itself.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        models = build_models(p)
        seed_engine = PlanEngine(cache=PlanCache(capacity=inserts + 1),
                                 warm=False)
        result = seed_engine.plan(models, TOTAL, options=SOLVE_OPTIONS)

        def time_puts(cache) -> float:
            t0 = time.perf_counter()
            for i in range(inserts):
                cache.put(f"bench-key-{i}", result, "bench-models")
            return (time.perf_counter() - t0) / inserts

        plain_s = time_puts(PlanCache(capacity=inserts + 1))
        with tempfile.TemporaryDirectory() as scratch:
            durable = DurablePlanCache(
                Path(scratch) / "a.json", capacity=inserts + 1,
                compact_every=10 * inserts,
            )
            durable_s = time_puts(durable)
            durable.wal.close()
            nosync = DurablePlanCache(
                Path(scratch) / "b.json", capacity=inserts + 1,
                compact_every=10 * inserts, fsync=False,
            )
            nosync_s = time_puts(nosync)
            nosync.wal.close()
        out[str(p)] = {
            "plain_put_s": plain_s,
            "durable_put_s": durable_s,
            "durable_nosync_put_s": nosync_s,
        }
    return out


def run_bench(ranks: Sequence[int] = RANKS, write: bool = True) -> Dict:
    """Run every section; optionally write the repo-root baseline file."""
    results = {
        "total_units": TOTAL,
        "serve_resilience": bench_hit_overhead(ranks=ranks),
        "durable_put": bench_durable_put(),
    }
    if write:
        RESULT_PATH.write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    print_table(
        "hardened vs plain cache-hit latency (WAL + breakers wired)",
        ["p", "plain s", "hardened s", "overhead", "hits/s"],
        [
            [p, fmt(row["plain_hit_s"], 6), fmt(row["hardened_hit_s"], 6),
             fmt(100.0 * row["overhead_frac"], 2) + "%",
             fmt(row["hits_per_s"], 0)]
            for p, row in results["serve_resilience"].items()
        ],
    )
    print_table(
        "durable insert cost (per put, paid on misses only)",
        ["p", "plain s", "journaled+fsync s", "journaled s"],
        [
            [p, fmt(row["plain_put_s"], 6), fmt(row["durable_put_s"], 6),
             fmt(row["durable_nosync_put_s"], 6)]
            for p, row in results["durable_put"].items()
        ],
    )


@pytest.mark.bench_smoke
def test_bench_smoke(capsys):
    """Reduced sweep: hardening must stay under the 5% hit-path ceiling."""
    results = run_bench(ranks=(4, 64), write=False)
    with capsys.disabled():
        report(results)
    from harness import check_gates

    failures = check_gates(results, RESULT_PATH.name)
    assert not failures, "hardening overhead: " + "; ".join(failures)
    for p, row in results["durable_put"].items():
        assert row["durable_put_s"] > 0.0, f"degenerate timing at p={p}"


if __name__ == "__main__":
    report(run_bench())
    print(f"\nresults written to {RESULT_PATH}")
