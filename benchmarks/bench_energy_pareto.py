"""Bi-objective serving bench: front-solve cost and time-path overhead.

Two claims back the bi-objective subsystem, and
``harness.py --check-regression`` gates both:

* **Front-solve cost** -- a 16-point (time, energy) Pareto sweep through
  :func:`~repro.core.partition.pareto.partition_pareto` must cost at
  most 8x one time-only :func:`partition_geometric` solve
  (``front_over_single``).  The batched interior bisection (one
  vectorized sweep across every scalarization weight, on
  piecewise-linear samplings of the blended cost functions) is what
  makes a 16-way sweep sublinear in the number of points; a naive loop
  of per-alpha solves would cost ~16x and fail the gate.
* **Zero tax on the time hit path** -- serving a cached ``"time"`` plan
  through a :class:`~repro.serve.engine.PlanEngine` must cost the same
  whether or not the objective machinery exists in the request path
  (``time_hit_overhead_frac``, measured engine-with-kind-args over
  engine-with-defaults on the same cache).  The kind-aware key
  derivation short-circuits to the legacy fingerprint for ``"time"``,
  so the overhead budget is noise (5%).

Writes ``BENCH_energy_pareto.json`` at the repo root; gate with
``python benchmarks/harness.py --check-regression``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_energy_pareto.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_energy_pareto.py -m bench_smoke
"""

from __future__ import annotations

import gc
import json
import math
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.models import PiecewiseModel
from repro.core.models.base import PerformanceModel
from repro.core.models.energy import PiecewiseEnergyModel
from repro.core.partition.geometric import partition_geometric
from repro.core.partition.pareto import partition_pareto
from repro.core.point import MeasurementPoint
from repro.platform.power import (
    ConstantPower,
    GpuPower,
    energy_points_from_power,
)
from repro.serve import PlanCache, PlanEngine

from harness import best_time, fmt, print_table, rank_time_fn

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_energy_pareto.json"

TOTAL = 1_000_000
RANKS = (4, 16)
FRONT_POINTS = 16


def build_model_pairs(
    p: int, n_points: int = 24
) -> Tuple[List[PerformanceModel], List[PerformanceModel]]:
    """Fitted (speed, energy) model pairs on a skewed CPU/GPU mix.

    Even ranks draw like CPUs (low idle, modest dynamic watts), odd
    ranks like accelerators (high draw with transfer energy), so time-
    and energy-optimal distributions genuinely conflict.
    """
    sizes = np.geomspace(100, TOTAL, n_points)
    models: List[PerformanceModel] = []
    emodels: List[PerformanceModel] = []
    for rank in range(p):
        fn = rank_time_fn(rank)
        pts = [
            MeasurementPoint(d=int(d), t=max(fn(int(d)), 1e-9)) for d in sizes
        ]
        m = PiecewiseModel()
        m.update_many(pts)
        m.is_ready  # resolve the lazy fit outside the timed region
        models.append(m)
        if rank % 2 == 0:
            profile = ConstantPower(
                idle_watts=5.0 + rank, dynamic_watts=20.0 + 3.0 * rank
            )
        else:
            profile = GpuPower(
                idle_watts=25.0, base_watts=60.0 + 5.0 * (rank % 16),
                peak_watts=250.0, ramp_units=TOTAL / 8,
                transfer_watts=12.0, bytes_per_unit=8.0,
            )
        em = PiecewiseEnergyModel()
        em.update_many(energy_points_from_power(pts, profile))
        em.is_ready
        emodels.append(em)
    return models, emodels


def bench_front_solve(
    ranks: Sequence[int] = RANKS, reps: int = 5
) -> Dict[str, Dict]:
    """Cost of a 16-point front sweep relative to one time-only solve."""
    out: Dict[str, Dict] = {}
    for p in ranks:
        models, emodels = build_model_pairs(p)

        def single():
            return partition_geometric(TOTAL, models)

        def front():
            return partition_pareto(
                TOTAL, models, emodels, npoints=FRONT_POINTS
            )

        # Warm interpreter paths and check the parity contract once.
        f = front()
        assert f.points[0].sizes == tuple(single().sizes), (
            "front time-endpoint diverged from partition_geometric"
        )
        single_s = best_time(single, reps)
        front_s = best_time(front, reps)
        out[str(p)] = {
            "single_s": single_s,
            "front_s": front_s,
            "front_points": len(f.points),
            "front_over_single": front_s / single_s,
        }
    return out


def _best_pair(
    fn_a: Callable[[], object],
    fn_b: Callable[[], object],
    reps: int,
    batch: int = 40,
) -> Tuple[float, float]:
    """Interleaved best-of timing for two paths on one clock.

    Each timed sample runs ``batch`` consecutive calls (the paths here
    are ~100 microseconds, below the stability of a single
    ``perf_counter`` window), and the two paths alternate inside one
    loop so slow clock and cache drift cannot be attributed to
    whichever path ran second.  Returns per-call seconds.
    """
    best_a = best_b = math.inf
    was_enabled = gc.isenabled()
    gc.disable()  # a collection landing in one window skews the ratio
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn_a()
            t1 = time.perf_counter()
            for _ in range(batch):
                fn_b()
            t2 = time.perf_counter()
            best_a = min(best_a, (t1 - t0) / batch)
            best_b = min(best_b, (t2 - t1) / batch)
    finally:
        if was_enabled:
            gc.enable()
    return best_a, best_b


#: Rank counts for the overhead section: larger than the front sweep's,
#: because the quantity gated is a *ratio* of two identical sub-millisecond
#: paths and only longer hit paths push scheduler noise below the gate.
OVERHEAD_RANKS = (16, 64)


def bench_time_hit_overhead(
    ranks: Sequence[int] = OVERHEAD_RANKS, reps: int = 9
) -> Dict[str, Dict]:
    """Tax of the objective machinery on the cached ``"time"`` hit path.

    Both engines serve the *same* repeated request from a primed cache;
    the second passes the kind/objective arguments explicitly (the code
    path every front end now takes).  ``"time"`` requests short-circuit
    to the legacy fingerprint, so any measurable difference is overhead
    the new plumbing leaked into the pre-existing hot path.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        models, _ = build_model_pairs(p)
        engine = PlanEngine(cache=PlanCache(capacity=16), warm=False)
        engine.plan(models, TOTAL)  # prime

        def hit_legacy():
            return engine.plan(models, TOTAL)

        def hit_kinded():
            return engine.plan(
                models, TOTAL, kind="time", objective=None,
                energy_models=None,
            )

        assert hit_legacy().cached and hit_kinded().cached
        assert hit_legacy().key == hit_kinded().key, (
            "kind-aware path changed the time-plan cache key"
        )
        legacy_s, kinded_s = _best_pair(hit_legacy, hit_kinded, reps)
        out[str(p)] = {
            "legacy_hit_s": legacy_s,
            "kinded_hit_s": kinded_s,
            "time_hit_overhead_frac": kinded_s / legacy_s - 1.0,
        }
    return out


def run_bench(ranks: Sequence[int] = RANKS, write: bool = True) -> Dict:
    """Run every section; optionally write the repo-root baseline file."""
    results = {
        "total_units": TOTAL,
        "front_points": FRONT_POINTS,
        "energy_front": bench_front_solve(ranks=ranks),
        "energy_time_path": bench_time_hit_overhead(),
    }
    if write:
        RESULT_PATH.write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    print_table(
        f"{FRONT_POINTS}-point pareto front vs one time-only solve",
        ["p", "single s", "front s", "points", "front/single"],
        [
            [p, fmt(row["single_s"]), fmt(row["front_s"]),
             row["front_points"], fmt(row["front_over_single"], 2) + "x"]
            for p, row in results["energy_front"].items()
        ],
    )
    print_table(
        "objective plumbing tax on the cached time hit path",
        ["p", "legacy hit s", "kinded hit s", "overhead"],
        [
            [p, fmt(row["legacy_hit_s"], 6), fmt(row["kinded_hit_s"], 6),
             fmt(100.0 * row["time_hit_overhead_frac"], 1) + "%"]
            for p, row in results["energy_time_path"].items()
        ],
    )


@pytest.mark.bench_smoke
def test_bench_smoke(capsys):
    """Reduced sweep: the front solve must clear the 8x ceiling.

    Same totals and front width as the full bench so the committed
    baseline stays comparable; only the rank sweep is reduced.
    """
    results = run_bench(ranks=(4,), write=False)
    with capsys.disabled():
        report(results)
    for row in results["energy_front"].values():
        assert row["front_over_single"] <= 8.0


if __name__ == "__main__":
    results = run_bench()
    report(results)
    print(f"\nwrote {RESULT_PATH}")
