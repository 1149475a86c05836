"""Fleet-serving bench: asyncio front end, shard scaling, FPM routing.

Three questions from the fleet layer (PR 6), each answered with a
sustained time-boxed throughput run against real server processes:

* **frontend_http** -- how many cache hits per second does the
  keep-alive asyncio front end (:class:`~repro.serve.aio.AioFrontend`)
  sustain on the single-worker hit path?  Recorded, not gated.
* **fleet_scaling** -- does a sharded fleet actually scale?  Workers get
  a uniform **simulated service time** (``--slowdown``: a blocking sleep
  in the worker's event loop, so it genuinely consumes that worker's
  serving capacity; the host has a single core, so scaling must come
  from overlapping service time across processes, exactly as it would
  across machines).  A seeded mixed hit/miss flood
  (:func:`repro.faults.serve.flood_totals`) is driven through the
  router at 1, 2 and 4 workers; ``scale_at_4`` is gated at >= 3.0x
  by :data:`harness.GATES`.
* **fpm_vs_rr** -- does dogfooding the repo's own partitioners beat
  round-robin on a *skewed* fleet?  Four workers with service times
  6/12/24/48 ms serve a non-affinitised (``"affinity": false``) warm
  stream under both routing policies.  Round-robin feeds every worker
  an equal share, so the slowest bounds the system; the FPM balancer
  apportions the stream by each worker's fitted performance model.
  Gated: FPM throughput >= round-robin's, FPM p99 <= round-robin's.

Writes ``BENCH_fleet_scaling.json`` at the repo root.  Run directly::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scaling.py -m bench_smoke
"""

from __future__ import annotations

import json
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.cli import main as cli_main
from repro.faults.serve import flood_totals
from repro.serve import AioFrontend, PlanFleet, PlanServer, ShardClient
from repro.serve.stack import fit_models, load_rank_points

from harness import fmt, print_table

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_fleet_scaling.json"
)

#: Uniform simulated per-request service time for the scaling sweep (ms).
SCALING_SLOWDOWN_MS = 20.0

#: Skewed simulated service times for the routing-policy duel (ms).
SKEWED_SLOWDOWNS_MS = (6.0, 12.0, 24.0, 48.0)

#: Warm totals driven in the routing duel (pre-solved on every shard).
DUEL_POOL = tuple(100_000 + 1_000 * i for i in range(8))


def build_points(out_dir: Path) -> Path:
    """A small ``build`` output for the workers to load models from."""
    code = cli_main([
        "build", "--platform", "fig4", "--sizes", "32,128,512",
        "--out", str(out_dir),
    ])
    assert code == 0, "build failed"
    return out_dir


def drive(
    url: str,
    payloads: Callable[[int], Sequence[Dict]],
    duration: float,
    threads: int = 16,
) -> Tuple[float, List[float]]:
    """Flood ``url`` from ``threads`` keep-alive clients for ``duration`` s.

    ``payloads(i)`` is driver *i*'s request sequence (cycled if it runs
    out).  Returns ``(throughput_rps, latencies)`` over successful
    replies; errored replies (shed load, dead fleet) are not counted.
    """
    start = threading.Barrier(threads + 1)
    latencies: List[List[float]] = [[] for _ in range(threads)]
    stop = threading.Event()

    def worker(idx: int) -> None:
        client = ShardClient(url, f"driver{idx}", timeout=30.0)
        stream = list(payloads(idx))
        start.wait()
        pos = 0
        while not stop.is_set():
            payload = stream[pos % len(stream)]
            pos += 1
            t0 = time.perf_counter()
            reply = client.plan(payload)
            if "error" not in reply:
                latencies[idx].append(time.perf_counter() - t0)
        client.close()

    drivers = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in drivers:
        thread.start()
    start.wait()
    t0 = time.perf_counter()
    time.sleep(duration)
    stop.set()
    for thread in drivers:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - t0
    flat = [lat for per_thread in latencies for lat in per_thread]
    return len(flat) / elapsed, flat


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` (nearest-rank)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
    return ordered[rank]


def bench_frontend_http(
    points: Path, duration: float = 1.5, threads: int = 8
) -> Dict[str, float]:
    """Asyncio front end throughput on the hit path, in-process.

    One PlanServer, one pre-warmed total, keep-alive drivers: every
    request is served by the event loop's inline cache-hit fast lane.
    """
    models = fit_models(load_rank_points(points))
    warm = [{"cmd": "plan", "total": 77_000}]

    def hit_stream(_idx: int) -> Sequence[Dict]:
        return warm

    out: Dict[str, float] = {}
    with PlanServer(models) as server:
        frontend = AioFrontend(server, port=0)
        frontend.start()
        try:
            ShardClient(frontend.url).plan(warm[0])  # pre-warm
            rps, _ = drive(frontend.url, hit_stream, duration, threads)
            out["aio_hits_per_s"] = rps
        finally:
            frontend.stop()
    return out


def bench_fleet_scaling(
    points: Path,
    workers: Sequence[int] = (1, 2, 4),
    duration: float = 2.5,
    threads: int = 16,
    slowdown_ms: float = SCALING_SLOWDOWN_MS,
) -> Dict[str, object]:
    """Sustained mixed hit/miss throughput through the router vs. fleet size.

    Every worker carries the same simulated service time, so ideal
    scaling is linear; the measured curve pays the router hop, the
    consistent-hash fan-out of the warm pool across shards, and the cold
    solves the miss fraction injects.  The flood is seeded: every fleet
    size serves the identical request stream.
    """
    out: Dict[str, object] = {
        "slowdown_ms": slowdown_ms,
        "simulated_service_time": True,
        "duration_s": duration,
    }
    stream = flood_totals(4096, pool=16, miss_rate=0.1, seed=42)

    def mixed_stream(idx: int) -> Sequence[Dict]:
        return [{"cmd": "plan", "total": t} for t in stream[idx::threads]]

    for count in workers:
        with PlanFleet(
            points, workers=count, slowdowns_ms=[slowdown_ms],
            probe=False,
        ) as fleet:
            # Warm the pool once so the timed region is the steady state
            # (each pool total cached on its home shard after one solve).
            warm_client = ShardClient(fleet.url, timeout=30.0)
            for total in sorted(set(stream[:64])):
                warm_client.plan({"cmd": "plan", "total": total})
            warm_client.close()
            rps, lats = drive(fleet.url, mixed_stream, duration, threads)
            out[str(count)] = {
                "hits_per_s": rps,
                "requests": len(lats),
                "p50_s": percentile(lats, 0.50),
                "p99_s": percentile(lats, 0.99),
            }
    if "1" in out and str(workers[-1]) in out:
        base = out["1"]["hits_per_s"]
        out[f"scale_at_{workers[-1]}"] = (
            out[str(workers[-1])]["hits_per_s"] / base if base > 0 else 0.0
        )
    return out


def bench_fpm_vs_rr(
    points: Path,
    duration: float = 2.5,
    threads: int = 16,
    slowdowns_ms: Sequence[float] = SKEWED_SLOWDOWNS_MS,
) -> Dict[str, object]:
    """FPM-dogfooding router vs. round-robin on a skewed four-shard fleet.

    The stream is non-affinitised (``"affinity": false``) so the balancer
    alone decides placement, and pre-warmed on *every* shard so any shard
    can serve any request from cache -- the duel measures routing policy,
    nothing else.  The FPM side seeds its per-worker performance models
    from the startup probes and keeps refitting from observed latencies.
    """
    payloads = [
        {"cmd": "plan", "total": total, "affinity": False}
        for total in DUEL_POOL
    ]

    def duel_stream(idx: int) -> Sequence[Dict]:
        return payloads[idx % len(payloads):] + payloads[:idx % len(payloads)]

    out: Dict[str, object] = {
        "slowdowns_ms": list(slowdowns_ms),
        "simulated_service_time": True,
        "duration_s": duration,
    }
    for routing, label in (("fpm", "fpm"), ("round-robin", "round_robin")):
        with PlanFleet(
            points, workers=len(slowdowns_ms), routing=routing,
            slowdowns_ms=slowdowns_ms, probe=(routing == "fpm"),
        ) as fleet:
            for sid in fleet.shards:  # pre-warm every shard directly
                shard = fleet.shard_client(sid)
                for payload in payloads:
                    shard.plan(payload)
            rps, lats = drive(fleet.url, duel_stream, duration, threads)
            section = {
                "throughput_rps": rps,
                "requests": len(lats),
                "p50_s": percentile(lats, 0.50),
                "p99_s": percentile(lats, 0.99),
                "mean_s": statistics.fmean(lats) if lats else float("nan"),
            }
            if routing == "fpm":
                section["weights"] = fleet.router.balancer.weights()
            out[label] = section
    fpm, rr = out["fpm"], out["round_robin"]
    out["fpm_over_rr_throughput"] = (
        fpm["throughput_rps"] / rr["throughput_rps"]
        if rr["throughput_rps"] > 0 else 0.0
    )
    out["fpm_p99_over_rr_p99"] = (
        fpm["p99_s"] / rr["p99_s"] if rr["p99_s"] > 0 else float("nan")
    )
    return out


def run_bench(
    workers: Sequence[int] = (1, 2, 4),
    duration: float = 2.5,
    frontend_duration: float = 1.5,
    duel: bool = True,
    write: bool = True,
) -> Dict:
    """Run every section; optionally write the repo-root baseline file."""
    with tempfile.TemporaryDirectory() as scratch:
        points = build_points(Path(scratch) / "points")
        results: Dict[str, object] = {
            "frontend_http": bench_frontend_http(
                points, duration=frontend_duration
            ),
            "fleet_scaling": bench_fleet_scaling(
                points, workers=workers, duration=duration
            ),
        }
        if duel:
            results["fpm_vs_rr"] = bench_fpm_vs_rr(points, duration=duration)
    if write:
        RESULT_PATH.write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    fh = results["frontend_http"]
    print_table(
        "single-worker front end (sustained cache hits/s)",
        ["frontend", "hits/s"],
        [["asyncio", fmt(fh["aio_hits_per_s"], 0)]],
    )
    scaling = results["fleet_scaling"]
    rows = []
    for key, row in scaling.items():
        if key.isdigit():
            rows.append([
                key, fmt(row["hits_per_s"], 1), row["requests"],
                fmt(1000 * row["p50_s"], 1), fmt(1000 * row["p99_s"], 1),
            ])
    print_table(
        f"fleet scaling, {scaling['slowdown_ms']:.0f} ms simulated "
        "service time, mixed hit/miss flood",
        ["workers", "req/s", "served", "p50 ms", "p99 ms"],
        rows,
    )
    for key, value in scaling.items():
        if key.startswith("scale_at_"):
            print(f"  {key} = {value:.2f}x")
    duel = results.get("fpm_vs_rr")
    if duel:
        print_table(
            f"routing duel, skewed shards {duel['slowdowns_ms']} ms, "
            "affinity off",
            ["policy", "req/s", "p50 ms", "p99 ms"],
            [
                [label, fmt(duel[label]["throughput_rps"], 1),
                 fmt(1000 * duel[label]["p50_s"], 1),
                 fmt(1000 * duel[label]["p99_s"], 1)]
                for label in ("fpm", "round_robin")
            ],
        )
        print(f"  fpm/rr throughput = {duel['fpm_over_rr_throughput']:.2f}x, "
              f"fpm p99 / rr p99 = {duel['fpm_p99_over_rr_p99']:.2f}")
        print(f"  fpm weights: {duel['fpm']['weights']}")


@pytest.mark.bench_smoke
@pytest.mark.fleet
def test_bench_smoke(capsys):
    """Reduced sweep: the fleet must still scale.

    The floor is looser than the committed baseline's
    (:data:`harness.GATES`) because the reduced duration leaves more
    room for scheduler noise on a loaded CI host.
    """
    results = run_bench(
        workers=(1, 4), duration=1.2, frontend_duration=0.8,
        duel=False, write=False,
    )
    with capsys.disabled():
        report(results)
    from harness import check_gates

    failures = check_gates(results, RESULT_PATH.name,
                           {"fleet_scaling.scale_at_4": 2.0})
    assert not failures, "fleet gates: " + "; ".join(failures)


if __name__ == "__main__":
    results = run_bench()
    report(results)
    print(f"\nresults written to {RESULT_PATH}")
