"""The balanced row applications (Jacobi and the heat stencil) as one runtime.

Both applications run their balancing loop through one shared runtime.
These tests hold the invariants every run must keep over the combinations
of options that the per-application suites test one at a time, and check
that a run hands the caller's balancer its own partition function back.
"""

from __future__ import annotations

import itertools

import pytest

from repro.apps.jacobi.distributed import run_balanced_jacobi
from repro.apps.stencil.distributed import run_balanced_stencil
from repro.core.models import PiecewiseModel
from repro.core.partition.dynamic import LoadBalancer
from repro.core.partition.geometric import partition_geometric
from repro.degrade import DegradationPolicy
from repro.errors import PartitionError
from repro.faults.plan import FaultPlan, RankFaults
from repro.platform.perturbation import PerturbationSchedule, SpeedStep
from repro.platform.presets import heterogeneous_cluster
from repro.platform.trace import EventKind, TraceRecorder

APPS = ("jacobi", "stencil")
ROWS = {"jacobi": 240, "stencil": 120}
ITERATIONS = {"jacobi": 12, "stencil": 40}
CRASH_AT = {1: 2}


def _run(app, platform, balancer, max_iterations=None, **kwargs):
    cap = max_iterations or ITERATIONS[app]
    if app == "jacobi":
        return run_balanced_jacobi(platform, balancer, max_iterations=cap, **kwargs)
    return run_balanced_stencil(
        platform, balancer, nx=32, max_iterations=cap, **kwargs
    )


def _balancer(platform, total, partition=partition_geometric):
    models = [PiecewiseModel() for _ in range(platform.size)]
    return LoadBalancer(partition, models, total=total)


def _failing(total, models):
    raise PartitionError("this partitioner always fails")


def _fault_plan():
    return FaultPlan(
        {1: RankFaults(crash_at=CRASH_AT[1], drop_collective_rate=0.2),
         3: RankFaults(straggler_factor=2.5)},
        seed=9,
    )


class TestBalancerRestored:
    @pytest.mark.parametrize("app", APPS)
    def test_each_run_reports_only_its_own_fallbacks(self, app):
        platform = heterogeneous_cluster()
        balancer = _balancer(platform, ROWS[app], _failing)
        first, second = DegradationPolicy(), DegradationPolicy()
        _run(app, platform, balancer, max_iterations=4, policy=first)
        assert balancer.partition is _failing
        steps = len(first.report.steps)
        assert steps > 0
        result = _run(app, platform, balancer, max_iterations=4, policy=second)
        assert balancer.partition is _failing
        assert len(first.report.steps) == steps
        assert result.degradation is second.report
        assert second.report.degraded

    @pytest.mark.parametrize("app", APPS)
    def test_a_run_that_raises_restores_too(self, app):
        platform = heterogeneous_cluster()
        balancer = _balancer(platform, ROWS[app], _failing)
        with pytest.raises(PartitionError):
            _run(app, platform, balancer, policy=DegradationPolicy(strict=True))
        assert balancer.partition is _failing


class TestIterationsCoverTheRun:
    """Every moment of a run, crash evacuation included, is in one record."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("crashes", [{}, {1: 2, 5: 4}], ids=["plain", "crashes"])
    def test_makespans_add_up_to_the_total_time(self, app, crashes):
        platform = heterogeneous_cluster()
        plan = FaultPlan(
            {r: RankFaults(crash_at=at) for r, at in crashes.items()}, seed=9
        )
        result = _run(app, platform, _balancer(platform, ROWS[app]),
                      fault_plan=plan)
        assert len(result.records) > max(crashes.values(), default=0)
        assert result.failed_ranks == sorted(crashes)
        assert sum(result.iteration_makespans) == pytest.approx(
            result.total_time, rel=1e-12, abs=0.0
        )


@pytest.mark.faults
class TestOptionCombinations:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize(
        "faults,perturbed,traced,guarded",
        list(itertools.product((False, True), repeat=4)),
    )
    def test_invariants_hold(self, app, faults, perturbed, traced, guarded):
        platform = heterogeneous_cluster()
        balancer = _balancer(platform, ROWS[app])
        own = balancer.partition
        trace = TraceRecorder() if traced else None
        kwargs = {"trace": trace}
        if faults:
            kwargs["fault_plan"] = _fault_plan()
        if perturbed:
            kwargs["perturbations"] = PerturbationSchedule(
                [SpeedStep(rank=0, start_time=5e-4, factor=0.5)]
            )
        if guarded:
            kwargs["policy"] = DegradationPolicy()
        result = _run(app, platform, balancer, **kwargs)

        crashes = CRASH_AT if faults else {}
        assert len(result.records) > max(CRASH_AT.values())
        for rec in result.records:
            assert sum(rec.sizes) == balancer.total
            assert [t == 0.0 for t in rec.compute_times] == [
                d == 0 for d in rec.sizes
            ]
            assert rec.makespan >= max(rec.compute_times)
            for rank, crash_at in crashes.items():
                if rec.iteration > crash_at:
                    assert rec.sizes[rank] == 0
        reached = len(result.records)
        assert result.failed_ranks == sorted(
            r for r, crash_at in crashes.items() if reached > crash_at
        )
        if trace is not None:
            spans = sorted(
                (e.rank, e.label) for e in trace.events
                if e.kind is EventKind.COMPUTE
            )
            assert spans == sorted(
                (r, f"iter {rec.iteration}")
                for rec in result.records
                for r, d in enumerate(rec.sizes) if d > 0
            )
            markers = sorted(
                (e.rank, e.label) for e in trace.events
                if e.kind is EventKind.MARKER
            )
            assert markers == sorted(
                (r, f"rebalance {rec.iteration}")
                for rec in result.records if rec.rebalanced
                for r in range(platform.size)
            )
        assert balancer.partition is own
