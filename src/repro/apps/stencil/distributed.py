"""The distributed stencil application under dynamic load balancing.

Each rank owns a contiguous slab of grid rows.  One iteration:

1. **halo exchange** -- every pair of neighbouring slabs swaps one grid
   row (bidirectional :meth:`~repro.mpi.comm.SimCommunicator.exchange`);
2. **local update** -- the 5-point stencil over the slab (real numpy,
   virtual time from the rank's simulated device);
3. **convergence test** -- allreduce of the local max-change (8 bytes);
4. **load balancing** -- the observed compute times feed the framework's
   :class:`~repro.core.LoadBalancer`; when it repartitions, the rows that
   move between slabs are priced as point-to-point transfers.

The communication pattern -- O(1)-sized neighbour halos instead of
Jacobi's O(n) allgather -- is the one CFD codes actually have, which makes
this the substrate for comparing patterns under the same balancing
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps._rows import RowRun
from repro.apps.stencil.solver import DEFAULT_ALPHA, heat_step_rows, init_grid, row_flops
from repro.core.partition.dynamic import LoadBalancer
from repro.degrade import DegradationPolicy, DegradationReport
from repro.faults.plan import FaultPlan
from repro.faults.report import ResilienceReport
from repro.mpi.network import Network
from repro.platform.cluster import Platform
from repro.platform.perturbation import PerturbationSchedule
from repro.platform.trace import TraceRecorder


@dataclass(frozen=True)
class StencilIterationRecord:
    """What happened in one stencil iteration.

    Attributes:
        iteration: 1-based iteration number.
        sizes: per-rank row counts used this iteration.
        compute_times: per-rank virtual compute seconds.
        makespan: slowest rank's compute + communication this iteration.
        change: global max-change of the field this iteration.
        rebalanced: whether the balancer issued a new distribution.
    """

    iteration: int
    sizes: List[int]
    compute_times: List[float]
    makespan: float
    change: float
    rebalanced: bool


@dataclass(frozen=True)
class StencilRunResult:
    """Outcome of a balanced distributed stencil run.

    Attributes:
        records: one record per iteration.
        grid: the final field.
        total_time: virtual makespan of the whole run.
        final_sizes: the last distribution's row counts.
        failed_ranks: ranks that crashed mid-run (empty without faults).
        degradation: the fallback ladder's audit trail when the run was
            guarded by a :class:`~repro.degrade.DegradationPolicy`
            (``None`` otherwise).
    """

    records: List[StencilIterationRecord]
    grid: np.ndarray
    total_time: float
    final_sizes: List[int]
    failed_ranks: List[int] = field(default_factory=list)
    degradation: Optional[DegradationReport] = None

    @property
    def iteration_makespans(self) -> List[float]:
        """Per-iteration makespans."""
        return [r.makespan for r in self.records]


def run_balanced_stencil(
    platform: Platform,
    balancer: LoadBalancer,
    nx: int,
    alpha: float = DEFAULT_ALPHA,
    eps: float = 1e-6,
    max_iterations: int = 200,
    element_bytes: int = 8,
    network: Optional[Network] = None,
    noise_seed: int = 0,
    trace: Optional[TraceRecorder] = None,
    perturbations: Optional[PerturbationSchedule] = None,
    fault_plan: Optional[FaultPlan] = None,
    report: Optional[ResilienceReport] = None,
    policy: Optional[DegradationPolicy] = None,
) -> StencilRunResult:
    """Run the row-slab heat stencil under dynamic load balancing.

    Args:
        platform: simulated platform (rank ``i`` = ``platform.devices[i]``).
        balancer: a :class:`~repro.core.LoadBalancer` whose ``total`` is
            the number of grid rows (``ny``).
        nx: grid width; one computation unit = one grid row of ``nx``
            cells.
        alpha: diffusion coefficient (stability requires <= 0.25).
        eps: stop when the global max-change falls below this.
        max_iterations: iteration cap.
        element_bytes: bytes per grid element.
        network: communication model (platform-aware default).
        noise_seed: device timing noise seed.
        trace: optional execution-trace recorder.
        perturbations: optional time-varying speed episodes.
        fault_plan: optional :class:`~repro.faults.FaultPlan`; ranks with
            a ``crash_at`` (counted in application iterations) die before
            starting that iteration, their slab is redistributed to the
            survivors, and the run completes with the survivors.
            Straggler factors slow the affected ranks' compute.
        report: optional :class:`~repro.faults.ResilienceReport`.
        policy: optional :class:`~repro.degrade.DegradationPolicy`
            guarding the balancer's partition function: a mid-run
            repartitioning failure degrades down the ladder (recorded in
            the result's ``degradation`` report) instead of aborting.
            The balancer's own function is restored when the run ends.

    Returns:
        A :class:`StencilRunResult`.
    """
    run = RowRun(
        platform, balancer, unit_flops=row_flops(nx),
        row_bytes=nx * element_bytes, noise_seed=noise_seed,
        noise_stride=15485863, network=network, trace=trace,
        perturbations=perturbations, fault_plan=fault_plan, report=report,
        policy=policy,
    )
    grid = init_grid(balancer.total, nx)
    comm = run.comm
    halo_bytes = nx * element_bytes
    records: List[StencilIterationRecord] = []
    change = float("inf")
    with run:
        while change > eps and run.iteration < max_iterations:
            sizes = run.evacuate()

            # --- halo exchange between neighbouring non-empty slabs ------
            active = [r for r, d in enumerate(sizes) if d > 0]
            for left, right in zip(active, active[1:]):
                start = max(comm.time(left), comm.time(right))
                comm.exchange(left, right, halo_bytes)
                if trace is not None:
                    label = f"halo {run.iteration}"
                    trace.comm(left, start, comm.time(left), label)
                    trace.comm(right, start, comm.time(right), label)

            # --- local stencil update (real math, virtual time) ----------
            new_grid = grid.copy()
            for first, d in run.slabs():
                new_grid[first: first + d] = heat_step_rows(grid, first, d, alpha)
            compute_times = run.compute()

            # --- global convergence test (allreduce of one double) -------
            change = float(np.max(np.abs(new_grid - grid)))
            comm.allreduce(element_bytes)
            grid = new_grid

            # --- load balancing ------------------------------------------
            rebalanced, makespan = run.rebalance(compute_times)
            records.append(
                StencilIterationRecord(
                    iteration=run.iteration,
                    sizes=list(sizes),
                    compute_times=compute_times,
                    makespan=makespan,
                    change=change,
                    rebalanced=rebalanced,
                )
            )

    return StencilRunResult(
        records=records,
        grid=grid,
        total_time=comm.max_time(),
        final_sizes=list(run.sizes),
        failed_ranks=sorted(run.failed),
        degradation=run.degradation,
    )
