"""Closed-loop refinement bench: what the lineage costs where it matters.

The feedback loop (PR 7) refines served models, but the request hot
path must not pay for it.  By construction the lineage check on a plan
request is a single reference read -- ``server.models`` is swapped
atomically at epoch commits, never locked or versioned per request --
so the measured overhead is the honest price of carrying an attached
:class:`~repro.serve.feedback.FeedbackController` (and its lineage)
through :meth:`~repro.serve.server.PlanServer.request`: an attribute
branch, nothing else.

* **Hit-path overhead** -- serving a repeated identical request through a
  server with the closed loop attached vs. a plain server, at ``p`` in
  {4, 16, 64}.  ``overhead_frac`` is gated at <= 5% by
  ``harness.py --check-regression`` (:data:`harness.GATES`).
* **Trust-boundary throughput** (informational) -- honest and
  adversarial reports scored per second through
  :meth:`~repro.serve.feedback.FeedbackController.handle`: the cost of
  admitting feedback, paid off the plan path.
* **Refit cost** (informational) -- one gated refit end to end
  (clone-and-extend, regression gate, commit, cache reconcile), the
  price of an epoch.

Writes ``BENCH_feedback_loop.json`` at the repo root.  Run directly::

    PYTHONPATH=src python benchmarks/bench_feedback_loop.py

or as an opt-in smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_feedback_loop.py -m bench_smoke
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Sequence

import pytest

from repro.errors import FeedbackRejected
from repro.serve import (
    FeedbackController,
    FeedbackQuarantine,
    ModelLineage,
    PlanServer,
)

from bench_plan_cache import SOLVE_OPTIONS, TOTAL, build_models
from harness import fmt, paired_overhead, print_table

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_feedback_loop.json"
)

RANKS = (4, 16, 64)


def _loop_server(models, max_strikes: int = 3) -> PlanServer:
    server = PlanServer(models, max_workers=2)
    lineage = ModelLineage(server.models)
    server.attach_feedback(FeedbackController(
        server, lineage,
        quarantine=FeedbackQuarantine(max_strikes=max_strikes),
        refit_every=1_000_000,  # never refit inside the timed region
    ))
    return server


def _honest_payload(server: PlanServer, source: str = "bench") -> Dict:
    plan = server.request(TOTAL, options=SOLVE_OPTIONS)
    return {
        "source": source,
        "total": TOTAL,
        "sizes": list(plan.sizes),
        "times": [float(t) for t in plan.times],
    }


def bench_hit_overhead(
    ranks: Sequence[int] = RANKS, reps: int = 50
) -> Dict[str, Dict]:
    """Cache-hit latency: closed-loop server vs. plain server.

    Identical request streams against identically-primed caches; the
    only difference is the attached controller and lineage, timed by
    :func:`harness.paired_overhead`.
    """
    out: Dict[str, Dict] = {}
    for p in ranks:
        plain = PlanServer(build_models(p), max_workers=2)
        looped = _loop_server(build_models(p))

        def plain_hit():
            return plain.request(TOTAL, options=SOLVE_OPTIONS)

        def looped_hit():
            return looped.request(TOTAL, options=SOLVE_OPTIONS)

        assert not plain_hit().cached and plain_hit().cached
        assert not looped_hit().cached and looped_hit().cached
        plain_s, looped_s, overhead = paired_overhead(
            plain_hit, looped_hit, reps
        )
        plain.close()
        looped.close()
        out[str(p)] = {
            "plain_hit_s": plain_s,
            "looped_hit_s": looped_s,
            "overhead_frac": overhead,
            "hits_per_s": 1.0 / looped_s,
        }
    return out


def bench_admit_throughput(p: int = 16, reports: int = 200) -> Dict[str, Dict]:
    """Reports scored per second: honest accepts vs. adversarial rejects.

    Informational -- this cost rides the feedback path, never the plan
    path.  The adversarial case is the cheaper one to matter: a flood of
    lies must burn as little server time as possible.
    """
    out: Dict[str, Dict] = {}
    # A bottomless strike budget: the timed flood must keep exercising
    # the scoring path, not fall into the (cheaper) standing-quarantine
    # rejection after three strikes.
    server = _loop_server(build_models(p), max_strikes=10 * reports)
    honest = _honest_payload(server)
    lie = dict(honest, times=[t * 1e3 for t in honest["times"]])
    t0 = time.perf_counter()
    for _ in range(reports):
        server.feedback.handle(honest)
    honest_s = (time.perf_counter() - t0) / reports
    t0 = time.perf_counter()
    rejected = 0
    for _ in range(reports):
        try:
            server.feedback.handle(lie)
        except FeedbackRejected:
            rejected += 1
    lie_s = (time.perf_counter() - t0) / reports
    server.close()
    assert rejected > 0
    out[str(p)] = {
        "honest_admits_per_s": 1.0 / honest_s,
        "adversarial_rejects_per_s": 1.0 / lie_s,
    }
    return out


def bench_refit_cost(p: int = 16, reports: int = 16) -> Dict[str, Dict]:
    """One epoch end to end: propose, gate, commit, reconcile the cache.

    Informational -- paid every ``refit_every`` accepted reports, off
    the request path.
    """
    out: Dict[str, Dict] = {}
    server = PlanServer(build_models(p), max_workers=2)
    lineage = ModelLineage(server.models)
    controller = FeedbackController(
        server, lineage, quarantine=FeedbackQuarantine(),
        refit_every=reports,
    )
    server.attach_feedback(controller)
    honest = _honest_payload(server)  # also primes one cache entry
    t0 = time.perf_counter()
    for i in range(reports):
        server.feedback.handle(dict(honest, source=f"bench{i}"))
    elapsed = time.perf_counter() - t0
    assert lineage.epoch == 1, "the last report must have committed an epoch"
    server.close()
    out[str(p)] = {
        "epoch_commit_s": elapsed,
        "invalidated_plans": controller.counters.invalidated_plans,
        "resolved_plans": controller.counters.resolved_plans,
    }
    return out


def run_bench(ranks: Sequence[int] = RANKS, write: bool = True) -> Dict:
    """Run every section; optionally write the repo-root baseline file."""
    results = {
        "total_units": TOTAL,
        "feedback_loop": bench_hit_overhead(ranks=ranks),
        "feedback_admit": bench_admit_throughput(),
        "feedback_refit": bench_refit_cost(),
    }
    if write:
        RESULT_PATH.write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    return results


def report(results: Dict) -> None:
    """Print the bench tables for a results tree."""
    print_table(
        "closed-loop vs plain cache-hit latency (controller + lineage wired)",
        ["p", "plain s", "looped s", "overhead", "hits/s"],
        [
            [p, fmt(row["plain_hit_s"], 6), fmt(row["looped_hit_s"], 6),
             fmt(100.0 * row["overhead_frac"], 2) + "%",
             fmt(row["hits_per_s"], 0)]
            for p, row in results["feedback_loop"].items()
        ],
    )
    print_table(
        "trust-boundary throughput (reports scored per second)",
        ["p", "honest/s", "adversarial/s"],
        [
            [p, fmt(row["honest_admits_per_s"], 0),
             fmt(row["adversarial_rejects_per_s"], 0)]
            for p, row in results["feedback_admit"].items()
        ],
    )
    print_table(
        "epoch cost (refit + gate + commit + cache reconcile)",
        ["p", "commit s", "invalidated", "re-solved"],
        [
            [p, fmt(row["epoch_commit_s"], 4),
             str(row["invalidated_plans"]), str(row["resolved_plans"])]
            for p, row in results["feedback_refit"].items()
        ],
    )


@pytest.mark.bench_smoke
def test_bench_smoke(capsys):
    """Reduced sweep: the loop must stay under the 5% hit-path ceiling."""
    results = run_bench(ranks=(4, 64), write=False)
    with capsys.disabled():
        report(results)
    from harness import check_gates

    failures = check_gates(results, RESULT_PATH.name)
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    results = run_bench()
    report(results)
    print(f"\nwrote {RESULT_PATH}")
