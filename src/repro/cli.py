"""Command-line tools, mirroring FuPerMod's ``builder`` and ``partitioner``.

* ``fupermod build`` -- benchmark a preset platform over a range of problem
  sizes and write per-process point files (the expensive, once-per-platform
  step of the static workflow);
* ``fupermod partition`` -- read point files back, construct models and run
  a partitioning algorithm for a given total problem size;
* ``fupermod demo-jacobi`` -- dynamic load balancing of the Jacobi method
  (the Fig. 4 scenario), printed as a per-iteration table;
* ``fupermod demo-matmul`` -- heterogeneous matrix multiplication under
  different partitioning strategies;
* ``fupermod demo-mesh`` -- FPM-derived weights driving the mesh (graph)
  partitioner;
* ``fupermod adaptive-build`` -- adaptive model construction to a target
  accuracy for one process of a preset platform;
* ``fupermod list`` -- available models, partitioners and platform presets.

``fupermod partition`` accepts ``--limits`` (comma-separated unit caps,
``none`` = unlimited) to respect device memory capacities.

``fupermod build`` accepts ``--faults plan.json`` (a saved
:class:`~repro.faults.FaultPlan`) to run the sweep through the resilient
benchmark -- crashed or persistently failing ranks are quarantined and the
survivors finish -- and ``--resume`` to continue an interrupted sweep from
the journal at ``<out>/sweep.journal``.

``fupermod build`` and ``fupermod partition`` both accept ``--degrade``
(walk the model/partitioner fallback ladders of
:class:`~repro.degrade.DegradationPolicy` and print what was degraded and
why) and ``--strict`` (fail fast with a typed error instead).  ``build
--deadline SECONDS`` arms a per-measurement watchdog that quarantines hung
ranks; ``partition --max-iter N`` overrides the iterative partitioners'
iteration caps.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.benchmark import PlatformBenchmark, build_full_models
from repro.core.models import PiecewiseModel
from repro.core.partition.dynamic import LoadBalancer
from repro.core.registry import (
    available_models,
    available_partitioners,
    model_factory,
    partitioner,
)
from repro.errors import FuPerModError
from repro.core.builder import build_adaptive_model
from repro.core.partition.limits import partition_with_limits
from repro.io.files import save_distribution, save_points
from repro.platform.cluster import Platform
from repro.platform.presets import fig4_trio, heterogeneous_cluster, hybrid_node
from repro.serve.stack import (
    add_stack_flags, build_stack, fit_models, load_rank_points, stack_argv,
)

_PLATFORM_PRESETS: Dict[str, Callable[[], Platform]] = {
    "heterogeneous": heterogeneous_cluster,
    "fig4": fig4_trio,
    "hybrid": lambda: Platform([hybrid_node()]),
}


def _parse_sizes(text: str) -> List[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise FuPerModError(f"bad size list {text!r}: {exc}") from exc
    if not sizes or any(d <= 0 for d in sizes):
        raise FuPerModError(f"sizes must be positive integers: {text!r}")
    return sizes


def _get_platform(name: str) -> Platform:
    try:
        return _PLATFORM_PRESETS[name]()
    except KeyError:
        raise FuPerModError(
            f"unknown platform {name!r}; available: {sorted(_PLATFORM_PRESETS)}"
        ) from None


def _cmd_build(args: argparse.Namespace) -> int:
    platform = _get_platform(args.platform)
    sizes = _parse_sizes(args.sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.degrade or args.strict:
        return _build_degraded(args, platform, sizes, out)
    resilient = args.faults is not None or args.resume
    if resilient:
        from repro.core.benchmark import ResilientPlatformBenchmark
        from repro.core.builder import build_resilient_models
        from repro.faults import FaultPlan
        from repro.io.checkpoint import SweepCheckpoint

        plan = FaultPlan.load(args.faults) if args.faults else FaultPlan()
        checkpoint = SweepCheckpoint(out / "sweep.journal")
        if not args.resume and checkpoint.exists:
            checkpoint.clear()
        elif args.resume and checkpoint.exists:
            print(f"resuming from {checkpoint.path}")
        bench_r = ResilientPlatformBenchmark(
            platform, unit_flops=args.unit_flops, seed=args.seed, plan=plan
        )
        result = build_resilient_models(
            bench_r, model_factory(args.model), sizes, checkpoint=checkpoint
        )
        models, cost = result.models, result.total_cost
    else:
        bench = PlatformBenchmark(
            platform, unit_flops=args.unit_flops, seed=args.seed
        )
        models, cost = build_full_models(bench, model_factory(args.model), sizes)
    for rank, model in enumerate(models):
        device = platform.devices[rank]
        path = out / f"rank{rank:03d}.points"
        save_points(
            path,
            list(model.points),
            metadata={"device": device.name, "model": args.model},
        )
        print(f"rank {rank} ({device.name}): {model.count} points -> {path}")
    print(f"total benchmarking cost: {cost:.3f} kernel-seconds")
    if resilient:
        print(result.report.summary())
    return 0


def _build_degraded(args: argparse.Namespace, platform: Platform,
                    sizes: List[int], out: Path) -> int:
    """The ``build --degrade``/``--strict`` path: sweep, then ladder-fit."""
    from repro.core.benchmark import ResilientPlatformBenchmark
    from repro.core.builder import build_degraded_models
    from repro.degrade import DegradationPolicy
    from repro.faults import FaultPlan
    from repro.io.checkpoint import SweepCheckpoint

    plan = FaultPlan.load(args.faults) if args.faults else FaultPlan()
    checkpoint = SweepCheckpoint(out / "sweep.journal")
    if not args.resume and checkpoint.exists:
        checkpoint.clear()
    elif args.resume and checkpoint.exists:
        print(f"resuming from {checkpoint.path}")
    bench = ResilientPlatformBenchmark(
        platform, unit_flops=args.unit_flops, seed=args.seed, plan=plan,
        deadline_budget=args.deadline,
    )
    policy = DegradationPolicy(strict=args.strict, resilience=bench.report)
    result = build_degraded_models(
        bench, sizes, policy, primary=args.model, checkpoint=checkpoint
    )
    for rank, model in enumerate(result.models):
        device = platform.devices[rank]
        if model is None:
            print(f"rank {rank} ({device.name}): no usable measurements "
                  "(quarantined), no point file written")
            continue
        path = out / f"rank{rank:03d}.points"
        family = result.families[rank]
        save_points(
            path,
            list(model.points),
            metadata={"device": device.name, "model": family},
        )
        note = "" if family == args.model else f" (degraded from {args.model})"
        print(f"rank {rank} ({device.name}): {model.count} points, "
              f"model {family}{note} -> {path}")
    print(f"total benchmarking cost: {result.total_cost:.3f} kernel-seconds")
    print("degradation: " + result.degradation.summary())
    print(result.resilience.summary())
    return 0


def _parse_limits(text: str, size: int) -> List[Optional[int]]:
    tokens = [tok.strip().lower() for tok in text.split(",")]
    if len(tokens) != size:
        raise FuPerModError(f"{len(tokens)} limits for {size} processes")
    out: List[Optional[int]] = []
    for tok in tokens:
        if tok in ("none", "inf", ""):
            out.append(None)
            continue
        try:
            out.append(int(tok))
        except ValueError as exc:
            raise FuPerModError(f"bad limit {tok!r}: {exc}") from exc
    return out


def _cmd_partition(args: argparse.Namespace) -> int:
    rank_points = load_rank_points(args.points)
    degradation = None
    if args.degrade or args.strict:
        from repro.degrade import DEFAULT_PARTITIONER_LADDER, DegradationPolicy

        ladder = [args.algorithm] + [
            n for n in DEFAULT_PARTITIONER_LADDER if n != args.algorithm
        ]
        policy = DegradationPolicy(
            partitioner_ladder=ladder, strict=args.strict,
            max_iter=args.max_iter,
        )
        models = [
            policy.fit_model(points, rank=rank, primary=args.model)
            for rank, points in enumerate(rank_points)
        ]
        algorithm = policy.partition_function()
        degradation = policy.report
    else:
        models = fit_models(rank_points, args.model)
        algorithm = partitioner(args.algorithm)
        if args.max_iter is not None:
            import functools
            import inspect

            if "max_iter" not in inspect.signature(algorithm).parameters:
                raise FuPerModError(
                    f"--max-iter is not supported by {args.algorithm!r}"
                )
            algorithm = functools.partial(algorithm, max_iter=args.max_iter)
    if args.limits:
        limits = _parse_limits(args.limits, len(models))
        dist = partition_with_limits(algorithm, args.total, models, limits)
    else:
        dist = algorithm(args.total, models)
    print(f"# {args.algorithm} partitioning of {args.total} units "
          f"over {len(models)} processes")
    for rank, part in enumerate(dist.parts):
        print(f"rank {rank}: d={part.d} predicted_t={part.t:.6f}s")
    print(f"predicted imbalance: {dist.predicted_imbalance * 100.0:.2f}%")
    cert = getattr(dist, "convergence", None)
    if cert is not None:
        print(f"convergence: {cert.summary()}")
    if degradation is not None:
        print("degradation: " + degradation.summary())
    if args.out:
        save_distribution(args.out, dist)
        print(f"written to {args.out}")
    return 0


class _GracefulShutdown(Exception):
    """Raised by the serve command's signal handlers to begin draining."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"signal {signum}")
        self.signum = signum


@contextlib.contextmanager
def _shutdown_on_signals():
    """Turn SIGTERM and SIGINT into :class:`_GracefulShutdown` inside the block.

    Signal handlers can only live in the main thread (tests drive the
    serve command from worker threads, where installation is skipped).
    """
    import signal

    previous_handlers = {}
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            raise _GracefulShutdown(signum)

        for sig in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[sig] = signal.signal(sig, _on_signal)
    try:
        yield
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)


def _fleet_from_args(args: argparse.Namespace):
    """The unstarted :class:`~repro.serve.PlanFleet` ``--workers N`` runs.

    Every stack flag reaches the workers through one loop over the flag
    table; the fleet itself passes each worker its ``--points``, its own
    ``--cache-file`` inside the ``--cache-file`` directory and
    ``--replicas``.
    """
    from repro.serve import PlanFleet

    return PlanFleet(
        args.points,
        workers=args.workers,
        routing=args.routing,
        cache_dir=args.cache_file,
        host=args.host,
        port=args.port,
        worker_args=stack_argv(
            args, skip=("--points", "--cache-file", "--replicas")
        ),
        replicas=args.replicas,
    )


def _serve_fleet(args: argparse.Namespace) -> int:
    """The ``fupermod serve --workers N`` (N >= 2) path: a sharded fleet.

    N worker processes each own an engine and a per-shard write-ahead
    journal; a router consistent-hashes requests to home shards, fills
    misses from sibling caches, and apportions non-affinitised traffic
    by functional performance models of the workers themselves
    (``--routing fpm``) or plain rotation (``--routing round-robin``).
    """
    if not args.http:
        raise FuPerModError(
            "a multi-worker fleet serves over HTTP; add --http "
            "(stdio cannot be multiplexed across worker processes)"
        )
    fleet = _fleet_from_args(args)
    try:
        with _shutdown_on_signals():
            fleet.start()
            print(f"serving plans over {fleet.url} "
                  f"({args.workers} worker shards, {args.routing} balancing); "
                  f"Ctrl-C to stop", file=sys.stderr)
            threading.Event().wait()
    except (KeyboardInterrupt, _GracefulShutdown):
        print("shutdown requested; stopping fleet", file=sys.stderr)
    finally:
        # Each worker drains for up to --drain-timeout before compacting.
        fleet.stop(timeout=args.drain_timeout + 5.0)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``fupermod serve`` command: a partition-plan service.

    Models come from a ``build`` output directory; plans are served over
    JSON-lines stdio (default) or the asyncio HTTP front end (``--http``).
    ``--workers N`` with N >= 2 scales out to a sharded fleet of worker
    processes behind a consistent-hashing router (HTTP only).  Status
    and statistics go to stderr so stdout stays a clean protocol stream.

    Shutdown contract: SIGTERM and SIGINT (and stdio EOF / the
    ``shutdown`` command) drain in-flight computations, flush the plan
    cache to ``--cache-file`` (compacting its write-ahead journal) and
    exit 0.  A SIGKILLed server recovers its cache on the next start
    from ``snapshot + WAL replay`` -- at most the one plan whose journal
    append was interrupted is lost.
    """
    from repro.serve.aio import AioFrontend
    from repro.serve.frontend import serve_stdio

    if args.workers > 1:
        return _serve_fleet(args)

    stack = build_stack(args)
    try:
        with _shutdown_on_signals():
            if args.http:
                frontend = AioFrontend(stack.server, args.host, args.port)
                frontend.start()
                try:
                    print(f"serving plans over {frontend.url} "
                          f"(asyncio; POST /plan, GET /stats, GET /metrics); "
                          f"Ctrl-C to stop", file=sys.stderr)
                    threading.Event().wait()
                finally:
                    frontend.stop()
            else:
                print(f"serving plans for {len(stack.server.models)} "
                      "rank(s) over stdio; one JSON request per line",
                      file=sys.stderr)
                served = serve_stdio(stack.server, sys.stdin, sys.stdout)
                print(f"served {served} request(s)", file=sys.stderr)
    except (KeyboardInterrupt, _GracefulShutdown):
        print("shutdown requested; draining", file=sys.stderr)
    finally:
        stack.close()
    return 0


def _cmd_demo_jacobi(args: argparse.Namespace) -> int:
    from repro.apps.jacobi.distributed import run_balanced_jacobi

    platform = _get_platform(args.platform)
    models = [PiecewiseModel() for _ in range(platform.size)]
    balancer = LoadBalancer(
        partitioner("geometric"), models, total=args.rows, threshold=0.05
    )
    result = run_balanced_jacobi(
        platform, balancer, max_iterations=args.iterations, eps=args.eps
    )
    print(f"# dynamic load balancing of Jacobi, {args.rows} rows on "
          f"{platform.size} processes ({args.platform})")
    print(f"{'iter':>4} {'makespan(s)':>12} {'imbalance':>10} {'sizes':>24}")
    for rec in result.records:
        active = [t for t, d in zip(rec.compute_times, rec.sizes) if d > 0]
        imb = (max(active) - min(active)) / max(active) if active and max(active) > 0 else 0.0
        print(f"{rec.iteration:>4} {rec.makespan:>12.4f} {imb * 100.0:>9.1f}% "
              f"{str(rec.sizes):>24}")
    print(f"final distribution: {result.final_sizes}")
    print(f"solution error vs exact: {result.solution_error:.2e}")
    return 0


def _cmd_demo_matmul(args: argparse.Namespace) -> int:
    from repro.apps.matmul.kernel import gemm_unit_flops
    from repro.apps.matmul.partition2d import partition_columns, sum_half_perimeters
    from repro.apps.matmul.simulation import simulate_matmul

    platform = _get_platform(args.platform)
    unit_flops = gemm_unit_flops(args.block)
    bench = PlatformBenchmark(platform, unit_flops=unit_flops, seed=args.seed)
    sizes = [64, 256, 1024, 4096, 16384]
    models, _cost = build_full_models(bench, model_factory(args.model), sizes)
    total_units = args.nb * args.nb
    dist = partitioner(args.algorithm)(total_units, models)

    fpm_part = partition_columns([float(d) for d in dist.sizes], args.nb)
    even_part = partition_columns([1.0] * platform.size, args.nb)
    fpm = simulate_matmul(platform, fpm_part, b=args.block, seed=args.seed)
    even = simulate_matmul(platform, even_part, b=args.block, seed=args.seed)

    print(f"# {args.nb}x{args.nb} blocks (b={args.block}) on {args.platform}")
    print(f"even partitioning : {even.total_time:>10.3f}s  "
          f"imbalance {even.compute_imbalance * 100.0:5.1f}%  "
          f"half-perimeter {sum_half_perimeters(even_part)}")
    print(f"{args.model}+{args.algorithm:<10}: {fpm.total_time:>10.3f}s  "
          f"imbalance {fpm.compute_imbalance * 100.0:5.1f}%  "
          f"half-perimeter {sum_half_perimeters(fpm_part)}")
    print(f"speedup: {even.total_time / fpm.total_time:.2f}x")
    return 0


def _cmd_demo_stencil(args: argparse.Namespace) -> int:
    from repro.apps.stencil.distributed import run_balanced_stencil

    platform = _get_platform(args.platform)
    models = [PiecewiseModel() for _ in range(platform.size)]
    balancer = LoadBalancer(
        partitioner("geometric"), models, total=args.rows, threshold=0.05
    )
    result = run_balanced_stencil(
        platform, balancer, nx=args.width, eps=args.eps,
        max_iterations=args.iterations,
    )
    print(f"# heat stencil, {args.rows}x{args.width} grid on "
          f"{platform.size} processes ({args.platform})")
    print(f"{'iter':>4} {'makespan(s)':>12} {'change':>10} {'rows':>24}")
    shown = result.records[:8] + result.records[-2:] \
        if len(result.records) > 10 else result.records
    for rec in shown:
        print(f"{rec.iteration:>4} {rec.makespan:>12.6f} {rec.change:>10.4f} "
              f"{str(rec.sizes):>24}")
    print(f"iterations: {len(result.records)}, final rows: {result.final_sizes}")
    return 0


def _cmd_demo_mesh(args: argparse.Namespace) -> int:
    from repro.core.benchmark import build_full_models
    from repro.graphs import (
        edge_cut,
        grid_graph,
        partition_graph_weighted,
        partition_weights,
        weight_balance,
    )

    platform = _get_platform(args.platform)
    mesh = grid_graph(args.width, args.height)
    n = mesh.number_of_nodes()
    bench = PlatformBenchmark(platform, unit_flops=args.unit_flops, seed=args.seed)
    models, _ = build_full_models(
        bench, model_factory("piecewise"), [64, 256, 1024, 4096]
    )
    weights = partition_weights(n, models)
    assignment = partition_graph_weighted(mesh, weights)
    counts = [0] * platform.size
    for part in assignment.values():
        counts[part] += 1
    print(f"# {args.width}x{args.height} mesh on {args.platform} "
          f"({platform.size} processes)")
    print("weights : " + ", ".join(f"{w:.3f}" for w in weights))
    print(f"vertices: {counts}")
    print(f"edge cut: {edge_cut(mesh, assignment)}")
    print(f"weight deviation: {weight_balance(assignment, weights) * 100:.1f}%")
    return 0


def _cmd_adaptive_build(args: argparse.Namespace) -> int:
    platform = _get_platform(args.platform)
    if not 0 <= args.rank < platform.size:
        raise FuPerModError(
            f"rank {args.rank} out of range 0..{platform.size - 1}"
        )
    try:
        lo_text, hi_text = args.range.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise FuPerModError(f"bad --range {args.range!r} (want LO:HI): {exc}") from exc
    bench = PlatformBenchmark(platform, unit_flops=args.unit_flops, seed=args.seed)
    result = build_adaptive_model(
        lambda d: bench.measure(args.rank, d),
        model_factory(args.model),
        (lo, hi),
        accuracy=args.accuracy,
        max_points=args.max_points,
    )
    device = platform.devices[args.rank]
    print(f"rank {args.rank} ({device.name}): {result.points_used} points, "
          f"cost {result.total_cost:.3f} kernel-s, "
          f"max observed error {result.max_observed_error * 100:.1f}%, "
          f"converged={result.converged}")
    if args.out:
        save_points(
            args.out,
            list(result.model.points),
            metadata={"device": device.name, "model": args.model,
                      "builder": "adaptive"},
        )
        print(f"written to {args.out}")
    return 0


def _cmd_select_model(args: argparse.Namespace) -> int:
    from repro.core.selection import select_model
    from repro.io.files import load_points

    points, meta = load_points(args.points)
    result = select_model(points)
    device = meta.get("device", "?")
    print(f"# model selection for {args.points} (device {device}, "
          f"{len(points)} points, leave-one-out)")
    for name in sorted(result.errors, key=lambda n: result.errors[n]):
        err = result.errors[name]
        shown = f"{err * 100:.2f}%" if err != float("inf") else "failed"
        marker = "  <-- best" if name == result.best else ""
        print(f"  {name:<10} {shown:>10}{marker}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.benchmark import Benchmark
    from repro.io.profiles import save_profile
    from repro.platform.calibration import (
        fit_cache_profile,
        fit_gpu_profile,
        speed_samples_from_points,
    )

    platform = _get_platform(args.platform)
    if not 0 <= args.rank < platform.size:
        raise FuPerModError(f"rank {args.rank} out of range 0..{platform.size - 1}")
    try:
        lo_text, hi_text = args.range.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise FuPerModError(f"bad --range {args.range!r} (want LO:HI): {exc}") from exc
    bench = PlatformBenchmark(platform, unit_flops=args.unit_flops, seed=args.seed)
    kernel = bench.kernel(args.rank)
    runner = Benchmark(kernel, bench.precision)
    points = [runner.run(int(d)) for d in np.geomspace(lo, hi, args.points)]
    samples = speed_samples_from_points(points, kernel.complexity)
    if args.family == "cache":
        fit = fit_cache_profile(samples)
    elif args.family == "gpu":
        fit = fit_gpu_profile(samples)
    else:
        raise FuPerModError(f"unknown profile family {args.family!r}")
    device = platform.devices[args.rank]
    print(f"rank {args.rank} ({device.name}): fitted {args.family} profile, "
          f"RMS rel. error {fit.residual * 100:.1f}%")
    if args.out:
        save_profile(args.out, fit.profile)
        print(f"written to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import distribution_report, models_report, platform_report

    platform = _get_platform(args.platform)
    print(platform_report(platform))
    bench = PlatformBenchmark(platform, unit_flops=args.unit_flops, seed=args.seed)
    sizes = _parse_sizes(args.sizes)
    models, cost = build_full_models(bench, model_factory(args.model), sizes)
    print()
    print(models_report(platform, models, sizes,
                        complexity=lambda x: args.unit_flops * x))
    if args.total:
        dist = partitioner(args.algorithm)(args.total, models)
        print()
        print(distribution_report(
            platform, dist, title=f"{args.algorithm} partitioning of {args.total} units"
        ))
    print(f"\n(model construction cost: {cost:.2f} kernel-seconds)")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("models:       " + ", ".join(available_models()))
    print("partitioners: " + ", ".join(available_partitioners()))
    print("platforms:    " + ", ".join(sorted(_PLATFORM_PRESETS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="fupermod",
        description="Model-based data partitioning for heterogeneous platforms "
        "(FuPerMod reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="benchmark a platform, write point files")
    p_build.add_argument("--platform", default="heterogeneous")
    p_build.add_argument("--sizes", default="64,256,1024,4096,16384")
    p_build.add_argument("--model", default="piecewise")
    p_build.add_argument("--unit-flops", type=float, default=2.0 * 32**3,
                         dest="unit_flops")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--faults", default=None, metavar="PLAN_JSON",
                         help="fault plan; sweep runs through the resilient "
                              "benchmark (quarantine instead of crash)")
    p_build.add_argument("--resume", action="store_true",
                         help="resume an interrupted sweep from "
                              "<out>/sweep.journal")
    p_build.add_argument("--degrade", action="store_true",
                         help="fit through the fallback ladder: the preferred "
                              "model first, simpler models when it cannot fit")
    p_build.add_argument("--strict", action="store_true",
                         help="fail fast with a typed error instead of "
                              "degrading")
    p_build.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-measurement watchdog budget; a hung rank "
                              "is quarantined (reason 'hang')")
    p_build.set_defaults(func=_cmd_build)

    p_part = sub.add_parser("partition", help="partition from saved point files")
    p_part.add_argument("--points", required=True)
    p_part.add_argument("--total", type=int, required=True)
    p_part.add_argument("--model", default="piecewise")
    p_part.add_argument("--algorithm", default="geometric")
    p_part.add_argument("--limits", default=None,
                        help="comma-separated per-process unit caps; 'none' = unlimited")
    p_part.add_argument("--out", default=None)
    p_part.add_argument("--degrade", action="store_true",
                        help="walk the model and partitioner fallback ladders "
                             "instead of failing; always yields a full "
                             "partition and prints the degradation report")
    p_part.add_argument("--strict", action="store_true",
                        help="fail fast with a typed error (ConvergenceError, "
                             "ModelError, ...) instead of degrading")
    p_part.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                        help="iteration cap override for iterative "
                             "partitioners")
    p_part.set_defaults(func=_cmd_partition)

    p_srv = sub.add_parser(
        "serve",
        help="serve partition plans from saved point files (stdio or HTTP)",
    )
    add_stack_flags(p_srv)
    p_srv.add_argument("--workers", type=int, default=1,
                       help="worker processes (shards); 1 serves in-process, "
                            ">= 2 runs a sharded fleet behind a "
                            "consistent-hashing router (requires --http)")
    p_srv.add_argument("--routing", choices=["fpm", "round-robin"],
                       default="fpm",
                       help="fleet balancing for non-affinitised requests: "
                            "'fpm' partitions the stream over functional "
                            "performance models of the workers; "
                            "'round-robin' rotates")
    p_srv.add_argument("--http", action="store_true",
                       help="serve over HTTP (asyncio front end with an "
                            "inline cache-hit fast lane) instead of "
                            "JSON-lines stdio")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8755)
    p_srv.set_defaults(func=_cmd_serve)

    p_jac = sub.add_parser("demo-jacobi", help="dynamic load balancing demo (Fig. 4)")
    p_jac.add_argument("--platform", default="fig4")
    p_jac.add_argument("--rows", type=int, default=512)
    p_jac.add_argument("--iterations", type=int, default=12)
    p_jac.add_argument("--eps", type=float, default=0.0)
    p_jac.set_defaults(func=_cmd_demo_jacobi)

    p_mm = sub.add_parser("demo-matmul", help="heterogeneous matmul demo")
    p_mm.add_argument("--platform", default="heterogeneous")
    p_mm.add_argument("--nb", type=int, default=64)
    p_mm.add_argument("--block", type=int, default=32)
    p_mm.add_argument("--model", default="piecewise")
    p_mm.add_argument("--algorithm", default="geometric")
    p_mm.add_argument("--seed", type=int, default=0)
    p_mm.set_defaults(func=_cmd_demo_matmul)

    p_st = sub.add_parser("demo-stencil", help="heat stencil under dynamic balancing")
    p_st.add_argument("--platform", default="fig4")
    p_st.add_argument("--rows", type=int, default=240)
    p_st.add_argument("--width", type=int, default=64)
    p_st.add_argument("--iterations", type=int, default=60)
    p_st.add_argument("--eps", type=float, default=1e-3)
    p_st.set_defaults(func=_cmd_demo_stencil)

    p_mesh = sub.add_parser("demo-mesh", help="FPM weights driving a mesh partitioner")
    p_mesh.add_argument("--platform", default="heterogeneous")
    p_mesh.add_argument("--width", type=int, default=64)
    p_mesh.add_argument("--height", type=int, default=64)
    p_mesh.add_argument("--unit-flops", type=float, default=4.0e6, dest="unit_flops")
    p_mesh.add_argument("--seed", type=int, default=0)
    p_mesh.set_defaults(func=_cmd_demo_mesh)

    p_ad = sub.add_parser("adaptive-build",
                          help="adaptive model construction to a target accuracy")
    p_ad.add_argument("--platform", default="heterogeneous")
    p_ad.add_argument("--rank", type=int, default=0)
    p_ad.add_argument("--range", default="64:65536")
    p_ad.add_argument("--model", default="akima")
    p_ad.add_argument("--accuracy", type=float, default=0.03)
    p_ad.add_argument("--max-points", type=int, default=24, dest="max_points")
    p_ad.add_argument("--unit-flops", type=float, default=2.0 * 32**3,
                      dest="unit_flops")
    p_ad.add_argument("--seed", type=int, default=0)
    p_ad.add_argument("--out", default=None)
    p_ad.set_defaults(func=_cmd_adaptive_build)

    p_sel = sub.add_parser("select-model",
                           help="pick the best model family for a points file")
    p_sel.add_argument("--points", required=True,
                       help="a rank*.points file written by 'build'")
    p_sel.set_defaults(func=_cmd_select_model)

    p_cal = sub.add_parser("calibrate",
                           help="fit a digital-twin profile from measurements")
    p_cal.add_argument("--platform", default="heterogeneous")
    p_cal.add_argument("--rank", type=int, default=0)
    p_cal.add_argument("--family", choices=["cache", "gpu"], default="cache")
    p_cal.add_argument("--range", default="32:65536")
    p_cal.add_argument("--points", type=int, default=16)
    p_cal.add_argument("--unit-flops", type=float, default=2.0 * 32**3,
                       dest="unit_flops")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--out", default=None)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rep = sub.add_parser("report", help="markdown report of a platform and its models")
    p_rep.add_argument("--platform", default="heterogeneous")
    p_rep.add_argument("--model", default="piecewise")
    p_rep.add_argument("--algorithm", default="geometric")
    p_rep.add_argument("--sizes", default="64,256,1024,4096,16384")
    p_rep.add_argument("--total", type=int, default=None)
    p_rep.add_argument("--unit-flops", type=float, default=2.0 * 32**3,
                       dest="unit_flops")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.set_defaults(func=_cmd_report)

    p_list = sub.add_parser("list", help="list models/partitioners/platforms")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FuPerModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
