"""The distributed Jacobi application with dynamic load balancing.

This mirrors the source-code listing at the end of Section 4.4 of the
paper: partial piecewise FPMs are built at runtime from the timings of real
Jacobi iterations; each iteration the load balancer invokes the geometrical
partitioning algorithm and the rows are redistributed accordingly.

The mathematics is real (numpy solves an actual diagonally dominant
system); the *timing* is virtual: each rank's compute time comes from its
simulated device at its current row count, the allgather of solution
slices and the redistribution of matrix rows are priced by the
message-passing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps._rows import RowRun
from repro.apps.jacobi.solver import generate_system, jacobi_rows, row_flops
from repro.core.partition.dynamic import LoadBalancer
from repro.degrade import DegradationPolicy, DegradationReport
from repro.errors import PartitionError
from repro.faults.plan import FaultPlan
from repro.faults.report import ResilienceReport
from repro.mpi.network import Network
from repro.platform.cluster import Platform
from repro.platform.perturbation import PerturbationSchedule
from repro.platform.trace import TraceRecorder


@dataclass(frozen=True)
class JacobiIterationRecord:
    """What happened in one application iteration.

    Attributes:
        iteration: 1-based iteration number.
        sizes: per-rank row counts used this iteration.
        compute_times: per-rank virtual compute seconds.
        makespan: slowest rank's compute + communication this iteration.
        comm_time: communication seconds (allgather + any redistribution
            that preceded the iteration).
        error: infinity-norm change of the solution this iteration.
        rebalanced: whether the balancer issued a new distribution.
    """

    iteration: int
    sizes: List[int]
    compute_times: List[float]
    makespan: float
    comm_time: float
    error: float
    rebalanced: bool


@dataclass(frozen=True)
class JacobiRunResult:
    """Outcome of a balanced distributed Jacobi run.

    Attributes:
        records: one record per iteration.
        solution: the computed solution vector.
        solution_error: infinity-norm distance to the exact solution.
        total_time: virtual makespan of the whole run.
        final_sizes: the last distribution's row counts.
        failed_ranks: ranks that crashed mid-run (empty without faults);
            the survivors completed the run with their workload.
        degradation: the fallback ladder's audit trail when the run was
            guarded by a :class:`~repro.degrade.DegradationPolicy`
            (``None`` otherwise).
    """

    records: List[JacobiIterationRecord]
    solution: np.ndarray
    solution_error: float
    total_time: float
    final_sizes: List[int]
    failed_ranks: List[int] = field(default_factory=list)
    degradation: Optional[DegradationReport] = None

    @property
    def iteration_makespans(self) -> List[float]:
        """Per-iteration makespans -- the series plotted in Fig. 4."""
        return [r.makespan for r in self.records]


def run_balanced_jacobi(
    platform: Platform,
    balancer: LoadBalancer,
    n: Optional[int] = None,
    matrix_seed: int = 0,
    eps: float = 1e-8,
    max_iterations: int = 60,
    element_bytes: int = 8,
    network: Optional[Network] = None,
    noise_seed: int = 0,
    trace: Optional[TraceRecorder] = None,
    perturbations: Optional[PerturbationSchedule] = None,
    fault_plan: Optional[FaultPlan] = None,
    report: Optional[ResilienceReport] = None,
    policy: Optional[DegradationPolicy] = None,
) -> JacobiRunResult:
    """Run the row-distributed Jacobi method under dynamic load balancing.

    Args:
        platform: simulated platform (rank ``i`` = ``platform.devices[i]``).
        balancer: a :class:`~repro.core.LoadBalancer` whose ``total`` is the
            number of matrix rows to distribute.
        n: system size; defaults to ``balancer.total`` (every row is one
            computation unit).
        matrix_seed: seed for the generated diagonally dominant system.
        eps: convergence threshold on the solution change (infinity norm).
        max_iterations: cap on Jacobi iterations.
        element_bytes: bytes per vector/matrix element.
        network: communication model (platform-aware default).
        noise_seed: seed for device timing noise.
        trace: optional :class:`~repro.platform.trace.TraceRecorder`; when
            given, per-rank compute/communication spans and rebalance
            markers are recorded for rendering.
        perturbations: optional time-varying speed episodes (external
            disturbances); the load balancer reacts to them through the
            observed iteration times, exactly as it would in production.
        fault_plan: optional :class:`~repro.faults.FaultPlan`.  A rank
            whose ``crash_at`` is ``k`` (counted in application
            iterations) dies before starting iteration ``k + 1``; the
            balancer quarantines it, its rows are redistributed to the
            survivors (evacuation is served from checkpointed data, so no
            network cost is charged to the dead rank), and the run
            completes with the survivors.  Straggler factors slow the
            affected ranks' compute, which the balancer sees and corrects.
        report: optional :class:`~repro.faults.ResilienceReport`
            collecting crash/drop events and the surviving rank set.
        policy: optional :class:`~repro.degrade.DegradationPolicy`; the
            balancer's partition function is guarded by the fallback
            ladder, so a repartitioning failure mid-run degrades (and is
            recorded in the result's ``degradation`` report) instead of
            aborting the application.  The balancer's own function is
            restored when the run ends.

    Returns:
        A :class:`JacobiRunResult`; its per-iteration makespans reproduce
        the convergence behaviour of Fig. 4.
    """
    rows_total = balancer.total
    n_sys = n if n is not None else rows_total
    run = RowRun(
        platform, balancer, unit_flops=row_flops(n_sys),
        row_bytes=(n_sys + 1) * element_bytes, noise_seed=noise_seed,
        noise_stride=104729, network=network, trace=trace,
        perturbations=perturbations, fault_plan=fault_plan, report=report,
        policy=policy,
    )
    if n_sys < rows_total:
        raise PartitionError(
            f"system size {n_sys} smaller than distributed rows {rows_total}"
        )
    a, b_vec, x_star = generate_system(n_sys, seed=matrix_seed)
    x = np.zeros(n_sys)
    comm = run.comm
    records: List[JacobiIterationRecord] = []
    error = float("inf")
    with run:
        while error > eps and run.iteration < max_iterations:
            sizes = run.evacuate()

            # --- local computation (real math, virtual time) -----------
            x_new = x.copy()
            for first, d in run.slabs():
                x_new[first: first + d] = jacobi_rows(a, b_vec, x, first, d)
            # Rows beyond rows_total (when n > rows_total) are updated by
            # the "host" rank 0 at no modelled cost -- only distributed
            # rows are load-balanced.
            if n_sys > rows_total:
                x_new[rows_total:] = jacobi_rows(
                    a, b_vec, x, rows_total, n_sys - rows_total
                )
            compute_times = run.compute()

            # --- allgather of solution slices ---------------------------
            gather_starts = [comm.time(r) for r in range(platform.size)]
            comm.allgatherv([d * element_bytes for d in sizes])
            if trace is not None:
                for r in range(platform.size):
                    trace.comm(r, gather_starts[r], comm.time(r),
                               f"allgather {run.iteration}")

            error = float(np.max(np.abs(x_new - x)))
            x = x_new

            # --- load balancing -----------------------------------------
            rebalanced, makespan = run.rebalance(compute_times)
            records.append(
                JacobiIterationRecord(
                    iteration=run.iteration,
                    sizes=list(sizes),
                    compute_times=compute_times,
                    makespan=makespan,
                    comm_time=max(makespan - max(compute_times), 0.0),
                    error=error,
                    rebalanced=rebalanced,
                )
            )

    return JacobiRunResult(
        records=records,
        solution=x,
        solution_error=float(np.max(np.abs(x - x_star))),
        total_time=comm.max_time(),
        final_sizes=list(run.sizes),
        failed_ranks=sorted(run.failed),
        degradation=run.degradation,
    )
