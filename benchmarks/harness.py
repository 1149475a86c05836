"""Shared helpers for the experiment benches.

Every bench reproduces one figure (or ablation) from DESIGN.md's experiment
index.  The pattern is uniform:

* a ``run_*`` function computes the experiment's data (deterministic,
  seeded);
* the ``test_*`` function times it through pytest-benchmark and prints the
  same rows/series the paper's figure shows, then asserts the qualitative
  *shape* the paper reports (who wins, what converges, what collapses).

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.

The module doubles as a CLI for throughput-regression gating::

    python benchmarks/harness.py --check-regression [CURRENT] [BASELINE]

compares two ``BENCH_hotpath_models.json``-style result files (defaults:
the repo-root file against itself is a no-op; pass a fresh run as CURRENT)
and exits 1 when any throughput metric dropped by more than 20% or when
any row of :data:`GATES` fails on the committed repo-root result files
(CURRENT stands in for ``BENCH_hotpath_models.json``).  A missing or
malformed file exits 2.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.partition.dist import Distribution
from repro.platform.cluster import Platform

#: Result-file keys treated as "higher is better" throughput metrics.
THROUGHPUT_KEYS = ("scalar_pts_per_s", "batch_pts_per_s", "partitions_per_s", "speedup")

#: File the CLI's CURRENT argument stands in for.
HOTPATH_FILE = "BENCH_hotpath_models.json"


class Gate(NamedTuple):
    """One bound on one metric of a committed bench result file.

    ``path`` is dotted; a ``*`` segment matches every key at that level
    (the per-rank rows).  ``direction`` is ``"max"`` (a ceiling) or
    ``"min"`` (a floor); a value fails only when strictly past ``bound``.
    """

    file: str
    path: str
    bound: float
    direction: str


#: Every bench gate, one row each.  The ``overhead_frac``-style rows are
#: taxes a layer adds to the cache-hit path; the rest are the claims
#: their benches exist to hold.
GATES = (
    # Degradation ladder's happy-path tax over a direct partitioner call.
    Gate(HOTPATH_FILE, "partition_ladder.*.overhead_frac", 0.05, "max"),
    # Cache hit vs cold solve.
    Gate("BENCH_plan_cache.json", "plan_cache.*.hit_speedup", 10.0, "min"),
    # WAL-backed cache + breaker board over the plain engine.
    Gate("BENCH_serve_resilience.json", "serve_resilience.*.overhead_frac",
         0.05, "max"),
    # Four workers over one; FPM routing vs round-robin on a skewed fleet.
    Gate("BENCH_fleet_scaling.json", "fleet_scaling.scale_at_4", 3.0, "min"),
    Gate("BENCH_fleet_scaling.json", "fpm_vs_rr.fpm_over_rr_throughput",
         1.0, "min"),
    Gate("BENCH_fleet_scaling.json", "fpm_vs_rr.fpm_p99_over_rr_p99",
         1.0, "max"),
    # Attached feedback controller + lineage over a plain server.
    Gate("BENCH_feedback_loop.json", "feedback_loop.*.overhead_frac",
         0.05, "max"),
    # replicas=2 over replicas=1; no acked plan lost to a SIGKILL.
    Gate("BENCH_partition_tolerance.json", "replication_tax.overhead_frac",
         0.05, "max"),
    Gate("BENCH_partition_tolerance.json", "failover.lost_acked", 0, "max"),
    Gate("BENCH_partition_tolerance.json", "failover.post_kill_hit_rate",
         1.0, "min"),
    # Durability guard's tax; a dead disk raises nothing and loses nothing.
    Gate("BENCH_disk_faults.json", "disk_guard_tax.*.overhead_frac",
         0.05, "max"),
    Gate("BENCH_disk_faults.json", "degraded_throughput.errors", 0, "max"),
    Gate("BENCH_disk_faults.json", "heal_recovery.lost", 0, "max"),
    # A 16-point Pareto sweep vs one time-only solve; objective plumbing's
    # tax on the cached time hit path.
    Gate("BENCH_energy_pareto.json", "energy_front.*.front_over_single",
         8.0, "max"),
    Gate("BENCH_energy_pareto.json",
         "energy_time_path.*.time_hit_overhead_frac", 0.05, "max"),
)


def achieved_times(
    platform: Platform,
    dist: Distribution,
    unit_flops: float,
) -> List[float]:
    """Ground-truth per-rank times of a distribution on a platform.

    Uses the devices' noise-free time at the *assigned* sizes -- what the
    application would actually experience, as opposed to what the models
    predicted.  Node contention is applied for all simultaneously active
    ranks, exactly as in a real run of the data-parallel application.
    This is the judge for every partitioning comparison.
    """
    active = [rank for rank, part in enumerate(dist.parts) if part.d > 0]
    times = []
    for rank, part in enumerate(dist.parts):
        if part.d == 0:
            times.append(0.0)
            continue
        device = platform.device(rank)
        contention = platform.group_contention(rank, active)
        times.append(device.ideal_time(unit_flops * part.d, part.d) / contention)
    return times


def achieved_makespan(
    platform: Platform, dist: Distribution, unit_flops: float
) -> float:
    """Slowest rank's ground-truth time under a distribution."""
    return max(achieved_times(platform, dist, unit_flops))


def imbalance(times: Sequence[float]) -> float:
    """Relative imbalance ``(max - min) / max`` over the active ranks."""
    active = [t for t in times if t > 0.0]
    if not active or max(active) == 0.0:
        return 0.0
    return (max(active) - min(active)) / max(active)


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print an aligned experiment table."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def fmt(x: float, digits: int = 4) -> str:
    """Format a float for experiment tables."""
    return f"{x:.{digits}f}"


def best_time(fn: Callable[[], object], reps: int) -> float:
    """Fastest of ``reps`` timed calls -- robust against one-sided OS noise."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def paired_overhead(
    base: Callable[[], object], other: Callable[[], object], rounds: int
) -> Tuple[float, float, float]:
    """Tax of ``other`` over ``base``: ``(base_s, other_s, overhead_frac)``.

    The two sides are paired round by round: each round times a batch of
    four calls of either side, alternating which side runs first, with GC
    off inside the timed region.  Clock-frequency and scheduler drift
    hit both halves of a round equally, so each round's ratio is clean.
    The ratios are geometric-meaned per base-first/other-first pair of
    rounds, so the run-second advantage cancels exactly, and
    ``overhead_frac`` is the median over pairs minus one: the median
    discards the pairs a GC pause or a context switch did land in.
    ``base_s``/``other_s`` are each side's fastest round, per call.
    """
    batch = 4
    ratios: List[float] = []
    base_s = other_s = math.inf
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        for rep in range(rounds):
            first, second = (base, other) if rep % 2 == 0 else (other, base)
            t0 = time.perf_counter()
            for _ in range(batch):
                first()
            first_s = (time.perf_counter() - t0) / batch
            t0 = time.perf_counter()
            for _ in range(batch):
                second()
            second_s = (time.perf_counter() - t0) / batch
            b_round, o_round = (
                (first_s, second_s) if rep % 2 == 0 else (second_s, first_s)
            )
            ratios.append(o_round / b_round)
            base_s = min(base_s, b_round)
            other_s = min(other_s, o_round)
    finally:
        if gc_was_enabled:
            gc.enable()
    paired = [
        (ratios[i] * ratios[i + 1]) ** 0.5
        for i in range(0, len(ratios) - 1, 2)
    ]
    return base_s, other_s, statistics.median(paired) - 1.0


def rank_time_fn(rank: int) -> Callable[[float], float]:
    """A heterogeneous, mildly non-linear time function for rank ``rank``."""
    speed = 50.0 + 17.0 * ((rank * 7919) % 97)

    def t(d: float) -> float:
        return d / speed * (1.0 + 0.15 * math.sin(1e-5 * d + rank))

    return t


def _throughput_metrics(results: Dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a results tree to ``{dotted.path: value}`` throughput rows."""
    out: Dict[str, float] = {}
    for key, value in results.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(_throughput_metrics(value, path))
        elif key in THROUGHPUT_KEYS and isinstance(value, (int, float)):
            out[path] = float(value)
    return out


def check_regression(
    current: Dict, baseline: Dict, threshold: float = 0.20
) -> List[str]:
    """Compare two bench result trees; report >threshold throughput drops.

    Only metrics present in *both* trees are compared (a renamed or new
    bench is not a regression).  Returns human-readable failure strings,
    empty when everything is within the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    cur = _throughput_metrics(current)
    base = _throughput_metrics(baseline)
    failures: List[str] = []
    for path, old in sorted(base.items()):
        new = cur.get(path)
        if new is None or old <= 0.0:
            continue
        drop = (old - new) / old
        if drop > threshold:
            failures.append(
                f"{path}: {new:.3g} vs baseline {old:.3g} (-{100 * drop:.0f}%)"
            )
    return failures


def _metric_values(tree: Any, parts: Sequence[str], prefix: str = ""):
    """Yield ``(concrete dotted path, value)`` for a ``*``-pattern path."""
    if not parts:
        yield prefix, tree
        return
    if not isinstance(tree, dict):
        return
    head, rest = parts[0], parts[1:]
    keys = sorted(tree) if head == "*" else [head] if head in tree else []
    for key in keys:
        path = f"{prefix}.{key}" if prefix else str(key)
        yield from _metric_values(tree[key], rest, path)


def check_gates(
    results: Dict, file: str, overrides: Optional[Mapping[str, float]] = None
) -> List[str]:
    """Evaluate every :data:`GATES` row on ``file`` against a result tree.

    ``overrides`` maps a row's ``path`` to a replacement bound (the
    smoke benches' looser, shorter-run bounds).  A missing section or a
    non-numeric value is not a failure -- older result files predate the
    newer benches.  Returns one failure string per offending value,
    naming the file and the concrete metric path.
    """
    overrides = overrides or {}
    failures: List[str] = []
    for gate in GATES:
        if gate.file != file:
            continue
        bound = overrides.get(gate.path, gate.bound)
        for path, value in _metric_values(results, gate.path.split(".")):
            if not isinstance(value, (int, float)):
                continue
            if gate.direction == "max" and value > bound:
                failures.append(f"{file}: {path} = {value:.4g} above the "
                                f"ceiling {bound:g}")
            elif gate.direction == "min" and value < bound:
                failures.append(f"{file}: {path} = {value:.4g} below the "
                                f"floor {bound:g}")
    return failures


def _load_results(path: Path) -> Dict:
    """Load one bench result file, raising ``SystemExit(2)`` on damage."""
    if not path.exists():
        print(f"missing results file: {path}", file=sys.stderr)
        raise SystemExit(2)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"malformed results file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(data, dict):
        print(f"malformed results file {path}: expected a JSON object, "
              f"got {type(data).__name__}", file=sys.stderr)
        raise SystemExit(2)
    return data


def _check_regression_cli(argv: Sequence[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    current_path = Path(argv[0]) if len(argv) > 0 else root / HOTPATH_FILE
    baseline_path = Path(argv[1]) if len(argv) > 1 else root / HOTPATH_FILE
    try:
        current = _load_results(current_path)
        baseline = _load_results(baseline_path)
        # The other bench files are gated whenever a committed baseline
        # is present (an absent one predates that bench).
        trees = {HOTPATH_FILE: current}
        for gate in GATES:
            path = root / gate.file
            if gate.file not in trees and path.exists():
                trees[gate.file] = _load_results(path)
    except SystemExit as exc:
        return int(exc.code or 2)
    failures = check_regression(current, baseline)
    if failures:
        print("throughput regressions (>20% below baseline):")
        for line in failures:
            print(f"  {line}")
        return 1
    gate_failures = [
        line for file, tree in trees.items()
        for line in check_gates(tree, file)
    ]
    if gate_failures:
        print("bench gates failed:")
        for line in gate_failures:
            print(f"  {line}")
        return 1
    compared = len(
        set(_throughput_metrics(current)) & set(_throughput_metrics(baseline))
    )
    print(f"no throughput regressions ({compared} metrics compared); "
          f"{len(GATES)} gates over {len(trees)} result files within limits")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--check-regression":
        raise SystemExit(_check_regression_cli(args[1:]))
    print(__doc__)
