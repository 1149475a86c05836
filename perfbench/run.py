"""The plan-path benchmark: one workload per run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload hot-hits --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded on alternate rounds and prints the per-layer
metrics instead, writing the spans to ``.perfbench/spans/``.  Journals
live in a fresh directory under ``.perfbench/tmp/`` that is removed when
the run ends.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the request counts per kind, the host calibration figure and the
self-test outcome.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("hot-hits", "cold-solves", "refit-churn")


def _reference_chunk() -> int:
    """A fixed pure-Python loop: the host calibration unit."""
    acc = 0
    table = {}
    for i in range(20000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return acc


def calibrate(chunks: int = 25) -> float:
    """Median milliseconds per reference chunk."""
    samples = []
    for _ in range(chunks):
        start = time.perf_counter()
        _reference_chunk()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def pin_to_one_cpu() -> str:
    """Keep this process, and every thread it starts later, on one CPU.

    One request is in flight at a time, so the stack never has work for
    two cores.  On a virtual machine a thread hand-off between two vCPUs
    (the front end's executor hop, the plan server's worker pool) waits
    for the other vCPU to wake: on the 2-vCPU host measured, an executor
    hop took 0.28 ms median and 9.9 ms at the 99th percentile across two
    vCPUs, against 0.14 ms and 0.27 ms on one.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"
    return f"pinned to CPU {allowed[-1]} of {allowed}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pinned = pin_to_one_cpu()  # before numpy starts any thread
    sys.path.insert(0, str(SRC))
    import report
    import spans
    import workloads

    import_s = time.perf_counter() - _STARTED
    before = calibrate()
    tracer = spans.Tracer() if args.trace else None
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, tmp)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    after = calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for kind in ("time", "pareto", "feedback"):
        sent = [s for s in run.log if s.kind == kind]
        bad = sum(1 for s in sent if s.failed)
        attempted += len(sent)
        failed += bad
        print(f"requests {kind}: {len(sent)} attempted, {bad} failed")
    for line in report.latency_lines(run):
        print(line)
    print(f"calibration: reference loop {before:.3f} ms/chunk before, "
          f"{after:.3f} ms/chunk after; {pinned}")
    print(f"epochs committed: {run.epochs}; slowed ranks: {run.slowed}")
    caught = run.self_test_cases - len(run.self_test_missed)
    print(f"self-test: {caught} of {run.self_test_cases} broken plans caught"
          + (f"; missed {run.self_test_missed}" if run.self_test_missed else ""))
    for problem in run.verifier.problems[:10]:
        print(f"check failed: {problem}")
    if run.verifier.unbalanced:
        print(f"balance certificate failed on {len(run.verifier.unbalanced)} "
              f"plan(s), counted as failed; first: {run.verifier.unbalanced[0]}")
    for transition in run.transitions:
        print(f"durability transition: {transition}")
    correct = not run.verifier.problems and not run.self_test_missed

    if tracer is not None:
        metrics, breakdown = report.per_layer(run, tracer.spans)
        layer_sum, traced_p50 = (metrics["trace.layer_sum_ms"][0],
                                 metrics["trace.latency_p50_ms"][0])
        print("mean self time per traced time plan: " + ", ".join(
            f"{layer} {us:.1f} us" for layer, us in breakdown.items())
            + f"; median sum of the named layers {layer_sum:.3f} ms against a "
            f"median latency of {traced_p50:.3f} ms "
            f"({100.0 * (layer_sum / traced_p50 - 1.0):+.1f}%)")
        tracer.dump(str(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        metrics = report.end_to_end(run, import_s, peak_rss_mb)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
