"""Plan-cache serving bench: cache-hit latency vs. cold solves, warm iters.

Measures the serving layer added by :mod:`repro.serve`:

* **Cache-hit latency** -- wall time of serving a repeated identical
  request through :class:`~repro.serve.engine.PlanEngine` (fingerprint +
  LRU lookup, no partitioner run) vs. the cold path (fingerprint + full
  geometric solve), at ``p`` in {4, 16, 64}.  The hit path must be at
  least 10x faster than the cold solve -- that is the whole argument for
  fronting repartitioning loops with the cache, and
  ``harness.py --check-regression`` gates it.
* **Warm-start savings** -- bisection iterations of a cold solve vs. a
  solve warm-started from the nearest cached plan at a nearby total.
  Warm results are bit-identical to cold by construction (see
  ``tests/test_serve_warm_parity.py``); this section records how many
  iterations the narrowed bracket actually saves.

Writes ``BENCH_plan_cache.json`` at the repo root; gate with
``python benchmarks/harness.py --check-regression``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_plan_cache.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_plan_cache.py -m bench_smoke
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.core.models import PiecewiseModel
from repro.core.models.base import PerformanceModel
from repro.core.point import MeasurementPoint
from repro.serve import PlanCache, PlanEngine

from harness import best_time, fmt, print_table, rank_time_fn

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_plan_cache.json"

TOTAL = 1_000_000
RANKS = (4, 16, 64)

#: Options pinning the geometric solver to its cheapest configuration, so
#: the cold baseline is the *hardest* one for the cache to beat.
SOLVE_OPTIONS = {"probes": 1}


def build_models(p: int, n_points: int = 24) -> List[PerformanceModel]:
    """One fitted piecewise model per rank, sizes spanning the range."""
    sizes = np.geomspace(100, TOTAL, n_points)
    models: List[PerformanceModel] = []
    for rank in range(p):
        fn = rank_time_fn(rank)
        m = PiecewiseModel()
        m.update_many(
            [MeasurementPoint(d=int(d), t=max(fn(int(d)), 1e-9)) for d in sizes]
        )
        m.is_ready  # resolve the lazy fit outside the timed region
        models.append(m)
    return models


def bench_cache_hit(
    ranks: Sequence[int] = RANKS, reps: int = 5
) -> Dict[str, Dict]:
    """Serving latency of the cache-hit path vs. the cold solve path.

    Both paths pay the model fingerprint (the engine recomputes it on
    every request, because dynamic loops refit models between calls); the
    cold path additionally runs the partitioner.  The hit path clearing
    that solve is the cache's raison d'etre, so ``hit_speedup`` is gated
    at >= 10x by :data:`harness.GATES`.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        models = build_models(p)
        engine = PlanEngine(cache=PlanCache(capacity=16), warm=False)

        def cold():
            engine.cache.clear()
            return engine.plan(models, TOTAL, options=SOLVE_OPTIONS)

        def hit():
            return engine.plan(models, TOTAL, options=SOLVE_OPTIONS)

        cold()  # warm the interpreter paths
        cold_s = best_time(cold, reps)
        primed = hit()
        assert primed.cached, "hit bench must be served from the cache"
        hit_s = best_time(hit, reps)
        assert hit().sizes == primed.sizes
        assert engine.counters.computations == reps + 1, (
            "the hit path ran the partitioner"
        )
        out[str(p)] = {
            "cold_s": cold_s,
            "hit_s": hit_s,
            "hit_speedup": cold_s / hit_s,
            "hits_per_s": 1.0 / hit_s,
        }
    return out


def bench_warm_start(
    ranks: Sequence[int] = RANKS, shift_frac: float = 0.1
) -> Dict[str, Dict]:
    """Bisection iterations saved by warm-starting from a nearby plan."""
    out: Dict[str, Dict] = {}
    near_total = int(TOTAL * (1.0 - shift_frac))
    for p in ranks:
        models = build_models(p)
        cold_engine = PlanEngine(cache=PlanCache(capacity=4), warm=False)
        cold = cold_engine.plan(models, TOTAL, options=SOLVE_OPTIONS)
        warm_engine = PlanEngine(cache=PlanCache(capacity=4), warm=True)
        warm_engine.plan(models, near_total, options=SOLVE_OPTIONS)
        warm = warm_engine.plan(models, TOTAL, options=SOLVE_OPTIONS)
        assert warm.warm, "expected a warm-started solve"
        assert warm.sizes == cold.sizes, "warm start changed the answer"
        cold_iters = cold.cert.iterations
        warm_iters = warm.cert.iterations
        out[str(p)] = {
            "cold_iters": cold_iters,
            "warm_iters": warm_iters,
            "iters_saved_frac": 1.0 - warm_iters / cold_iters,
        }
    return out


def run_bench(ranks: Sequence[int] = RANKS, write: bool = True) -> Dict:
    """Run every section; optionally write the repo-root baseline file."""
    results = {
        "total_units": TOTAL,
        "plan_cache": bench_cache_hit(ranks=ranks),
        "warm_start": bench_warm_start(ranks=ranks),
    }
    if write:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    print_table(
        "plan-cache serving latency (piecewise FPMs)",
        ["p", "cold s", "hit s", "speedup", "hits/s"],
        [
            [p, fmt(row["cold_s"]), fmt(row["hit_s"], 6),
             fmt(row["hit_speedup"], 1) + "x", fmt(row["hits_per_s"], 0)]
            for p, row in results["plan_cache"].items()
        ],
    )
    print_table(
        "warm-start iteration savings (10% total shift)",
        ["p", "cold iters", "warm iters", "saved"],
        [
            [p, row["cold_iters"], row["warm_iters"],
             fmt(100.0 * row["iters_saved_frac"], 0) + "%"]
            for p, row in results["warm_start"].items()
        ],
    )


@pytest.mark.bench_smoke
def test_bench_smoke(capsys):
    """Reduced sweep: the cache-hit path must clear the 10x floor.

    Same totals and solver options as the full bench so the committed
    baseline stays comparable; only the rank sweep is reduced.
    """
    results = run_bench(ranks=(4, 64), write=False)
    with capsys.disabled():
        report(results)
    from harness import check_gates

    failures = check_gates(results, RESULT_PATH.name)
    assert not failures, "plan-cache floor: " + "; ".join(failures)
    for p, row in results["warm_start"].items():
        assert row["warm_iters"] <= row["cold_iters"], (
            f"warm start cost iterations at p={p}"
        )


if __name__ == "__main__":
    report(run_bench())
    print(f"\nresults written to {RESULT_PATH}")
