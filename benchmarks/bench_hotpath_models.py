"""Hot-path throughput bench: scalar vs. batched model evaluation.

Measures the two fast paths this repo's partitioners rely on:

* **Model throughput** -- points/second of the scalar ``time`` loop vs.
  one ``time_batch`` call, for every model class;
* **Partition wall time** -- the batched multi-section
  :func:`~repro.core.partition.geometric.partition_geometric` vs. a
  scalar reference implementation of the same algorithm (bisection on the
  level with one scalar inverse bisection per model per probe -- the
  pre-vectorization seed code), at ``p`` in {4, 16, 64, 256, 1024};
* **Ladder overhead** -- the happy-path cost of routing the same
  partition through :class:`~repro.degrade.DegradationPolicy` (fallback
  bookkeeping, certificates) relative to calling the partitioner
  directly.  ``harness.py --check-regression`` gates this at < 5%.

Writes ``BENCH_hotpath_models.json`` at the repo root; compare runs with
``python benchmarks/harness.py --check-regression``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_hotpath_models.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath_models.py -m bench_smoke
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np
import pytest

from repro.core.models import (
    AkimaModel,
    ConstantModel,
    LinearModel,
    PchipModel,
    PiecewiseModel,
    SegmentedLinearModel,
)
from repro.core.models.base import PerformanceModel
from repro.core.partition.dist import Distribution, Part, round_preserving_sum
from repro.core.partition.geometric import partition_geometric
from repro.core.point import MeasurementPoint
from repro.degrade import DegradationPolicy
from repro.errors import SolverError

from harness import best_time, fmt, print_table, rank_time_fn

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath_models.json"

MODEL_CLASSES = {
    "ConstantModel": ConstantModel,
    "LinearModel": LinearModel,
    "PiecewiseModel": PiecewiseModel,
    "AkimaModel": AkimaModel,
    "PchipModel": PchipModel,
    "SegmentedLinearModel": SegmentedLinearModel,
}

TOTAL = 1_000_000
PARTITION_SIZES = (4, 16, 64, 256, 1024)


def build_models(cls, p: int, n_points: int = 24) -> List[PerformanceModel]:
    """One fitted model per rank, ``n_points`` sizes spanning the range."""
    sizes = np.geomspace(100, TOTAL, n_points)
    models: List[PerformanceModel] = []
    for rank in range(p):
        fn = rank_time_fn(rank)
        m = cls()
        m.update_many(
            [MeasurementPoint(d=int(d), t=max(fn(int(d)), 1e-9)) for d in sizes]
        )
        m.is_ready  # resolve the lazy fit outside the timed region
        models.append(m)
    return models


# -- scalar bisection, used only by the scalar reference below ------------


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find a root of ``f`` in ``[lo, hi]`` by bisection.

    ``f(lo)`` and ``f(hi)`` must have opposite signs (either may be zero, in
    which case that endpoint is returned).  The tolerance is on the bracket
    width relative to the magnitude of the bracket endpoints.
    """
    if lo > hi:
        lo, hi = hi, lo
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise SolverError(
            f"bisect_root: f({lo})={flo} and f({hi})={fhi} do not bracket a root"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def bisect_monotone_inverse(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
    expand: bool = True,
) -> float:
    """Solve ``f(x) = target`` for a non-decreasing function ``f``.

    If ``expand`` is True and the initial bracket does not contain the
    target, the upper (or lower) bound is geometrically expanded up to 64
    times before giving up.  Returns the ``x`` achieving the target within
    tolerance; if the target lies below ``f(lo)`` after expansion, ``lo`` is
    returned (the smallest admissible argument), mirroring how partitioners
    clamp allocations at zero.
    """
    if lo > hi:
        raise SolverError(f"bisect_monotone_inverse: empty bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if expand:
        attempts = 0
        span = max(hi - lo, 1.0)
        while fhi < target and attempts < 64:
            span *= 2.0
            hi = hi + span
            fhi = f(hi)
            attempts += 1
        attempts = 0
        while flo > target and lo > 0.0 and attempts < 64:
            lo = max(0.0, lo - span)
            span *= 2.0
            flo = f(lo)
            attempts += 1
    if flo >= target:
        return lo
    if fhi <= target:
        return hi
    return bisect_root(lambda x: f(x) - target, lo, hi, tol=tol, max_iter=max_iter)


def scalar_reference_partition(
    total: int,
    models: Sequence[PerformanceModel],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Distribution:
    """The pre-vectorization geometric algorithm: all-scalar bisection.

    Kept verbatim as the baseline the batched implementation is judged
    against; both must produce the same distribution.
    """

    def allocation_at(model: PerformanceModel, level: float) -> float:
        if level <= 0.0:
            return 0.0
        if model.time(total) <= level:
            return float(total)
        x = bisect_monotone_inverse(
            model.time, level, 0.0, float(total), tol=1e-9, expand=False
        )
        return min(max(x, 0.0), float(total))

    t_hi = min(model.time(total) for model in models)

    def excess(level: float) -> float:
        return sum(allocation_at(m, level) for m in models) - float(total)

    level = bisect_root(excess, 0.0, t_hi, tol=tol, max_iter=max_iter)
    shares = [allocation_at(m, level) for m in models]
    sizes = round_preserving_sum(shares, total)
    return Distribution(
        Part(d, models[i].time(d) if d > 0 else 0.0) for i, d in enumerate(sizes)
    )


def bench_model_throughput(batch_size: int = 4096, reps: int = 5) -> Dict[str, Dict]:
    """Points/second of scalar ``time`` loops vs. one ``time_batch`` call."""
    xs = np.geomspace(1, TOTAL, batch_size)
    out: Dict[str, Dict] = {}
    for name, cls in MODEL_CLASSES.items():
        model = build_models(cls, 1)[0]

        def scalar_loop():
            for x in xs:
                model.time(float(x))

        scalar_s = best_time(scalar_loop, reps)
        batch_s = best_time(lambda: model.time_batch(xs), reps)
        batch = model.time_batch(xs)
        scalar_ref = np.asarray([model.time(float(x)) for x in xs])
        np.testing.assert_allclose(batch, scalar_ref, rtol=1e-12, atol=1e-15)
        out[name] = {
            "scalar_pts_per_s": batch_size / scalar_s,
            "batch_pts_per_s": batch_size / batch_s,
            "speedup": scalar_s / batch_s,
        }
    return out


def bench_partition(
    ranks: Sequence[int] = PARTITION_SIZES, reps: int = 3
) -> Dict[str, Dict]:
    """Geometric partition wall time, batched vs. scalar reference."""
    out: Dict[str, Dict] = {}
    for p in ranks:
        models = build_models(PiecewiseModel, p)
        batched = partition_geometric(TOTAL, models)
        reference = scalar_reference_partition(TOTAL, models)
        max_drift = max(
            abs(a - b) for a, b in zip(batched.sizes, reference.sizes)
        )
        batched_s = best_time(lambda: partition_geometric(TOTAL, models), reps)
        scalar_s = best_time(
            lambda: scalar_reference_partition(TOTAL, models), reps
        )
        out[str(p)] = {
            "batched_s": batched_s,
            "scalar_s": scalar_s,
            "speedup": scalar_s / batched_s,
            "partitions_per_s": 1.0 / batched_s,
            "max_size_drift_units": float(max_drift),
        }
    return out


def bench_ladder_overhead(
    ranks: Sequence[int] = (4, 64), reps: int = 5
) -> Dict[str, Dict]:
    """Happy-path :class:`DegradationPolicy` cost vs. direct geometric.

    On healthy models the ladder never descends, so its only cost is
    bookkeeping: the strict-mode probe call, certificate recording, and
    report plumbing.  That tax must stay negligible -- the harness gate
    fails a run whose ``overhead_frac`` exceeds 5%.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        models = build_models(PiecewiseModel, p)
        policy = DegradationPolicy()
        dist = policy.partition(TOTAL, models)
        assert not policy.report.steps, (
            f"ladder bench expects a happy path, got fallbacks: "
            f"{policy.report.summary()}"
        )
        direct = partition_geometric(TOTAL, models)
        assert dist.sizes == direct.sizes
        direct_s = best_time(lambda: partition_geometric(TOTAL, models), reps)
        ladder_s = best_time(
            lambda: DegradationPolicy().partition(TOTAL, models), reps
        )
        out[str(p)] = {
            "ladder_s": ladder_s,
            "direct_s": direct_s,
            "overhead_frac": ladder_s / direct_s - 1.0,
        }
    return out


def run_bench(
    ranks: Sequence[int] = PARTITION_SIZES,
    batch_size: int = 4096,
    write: bool = True,
) -> Dict:
    results = {
        "total_units": TOTAL,
        "model_throughput": bench_model_throughput(batch_size=batch_size),
        "partition_geometric": bench_partition(ranks=ranks),
        "partition_ladder": bench_ladder_overhead(),
    }
    if write:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def report(results: Dict) -> None:
    print_table(
        "model throughput (points/s)",
        ["model", "scalar", "batch", "speedup"],
        [
            [name, fmt(row["scalar_pts_per_s"], 0), fmt(row["batch_pts_per_s"], 0),
             fmt(row["speedup"], 1) + "x"]
            for name, row in results["model_throughput"].items()
        ],
    )
    print_table(
        "geometric partition wall time (piecewise FPMs)",
        ["p", "scalar s", "batched s", "speedup", "size drift"],
        [
            [p, fmt(row["scalar_s"]), fmt(row["batched_s"]),
             fmt(row["speedup"], 1) + "x", fmt(row["max_size_drift_units"], 0)]
            for p, row in results["partition_geometric"].items()
        ],
    )
    print_table(
        "degradation-ladder overhead (happy path, piecewise FPMs)",
        ["p", "direct s", "ladder s", "overhead"],
        [
            [p, fmt(row["direct_s"]), fmt(row["ladder_s"]),
             fmt(100.0 * row["overhead_frac"], 1) + "%"]
            for p, row in results["partition_ladder"].items()
        ],
    )


@pytest.mark.bench_smoke
def test_bench_smoke(capsys):
    """Reduced sweep: batched geometric must beat the scalar seed >= 5x at p=64.

    Uses the full bench's batch size so throughput numbers are comparable
    with the committed baseline; only the rank sweep is reduced.
    """
    results = run_bench(ranks=(4, 64), write=False)
    with capsys.disabled():
        report(results)
    p64 = results["partition_geometric"]["64"]
    assert p64["speedup"] >= 5.0, f"expected >= 5x at p=64, got {p64['speedup']:.1f}x"
    # Both implementations agree on the answer (within integer rounding).
    assert p64["max_size_drift_units"] <= 2.0
    from harness import check_gates, check_regression

    # Ladder bookkeeping must stay near-free; the smoke gate is looser
    # than the harness CLI's 5% to ride out shared-CI timing noise.
    overhead = check_gates(results, RESULT_PATH.name,
                           {"partition_ladder.*.overhead_frac": 0.25})
    assert not overhead, "ladder overhead: " + "; ".join(overhead)
    if RESULT_PATH.exists():
        baseline = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        # The committed baseline may come from different hardware; gate the
        # smoke run loosely (a lost vectorization shows up as 5-50x, well
        # past 50%).  The harness CLI keeps the strict 20% for same-machine
        # before/after comparisons.
        failures = check_regression(results, baseline, threshold=0.50)
        assert not failures, "throughput regressions: " + "; ".join(failures)


if __name__ == "__main__":
    report(run_bench())
    print(f"\nresults written to {RESULT_PATH}")
