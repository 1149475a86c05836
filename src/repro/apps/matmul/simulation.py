"""Simulation of the heterogeneous parallel matrix multiplication.

One iteration of the main loop (Fig. 1(a) of the paper): the pivot column
of A and pivot row of B are broadcast horizontally and vertically, and each
processor updates its submatrix C_i with one GEMM call.  The simulator
prices, per iteration and per rank:

* communication -- receiving ``m_i * b * b`` elements of the pivot column
  and ``b * n_i * b`` elements of the pivot row from the pivot owner
  (Hockney model over the platform-aware network); the pivot owner rotates
  over ranks, as the pivot moves across the matrix;
* computation -- ``2 m_i n_i b^3`` flops on the rank's device, i.e. the
  computation kernel at problem size ``d_i = m_i * n_i``.

Iterations are separated by a synchronisation (the broadcast of the next
pivot cannot start before it is produced), so the per-iteration time is the
maximum over ranks and the total is the sum over ``nb`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.matmul.kernel import gemm_unit_flops
from repro.apps.matmul.partition2d import ColumnPartition, partition_columns
from repro.errors import PartitionError
from repro.faults.plan import FaultPlan
from repro.faults.report import ResilienceReport
from repro.mpi.network import Network
from repro.platform.cluster import Platform
from repro.platform.trace import TraceRecorder


@dataclass(frozen=True)
class MatmulResult:
    """Outcome of a simulated matrix multiplication run.

    Attributes:
        total_time: virtual makespan in seconds.
        compute_time: per-rank total computation seconds.
        comm_time: per-rank total communication seconds.
        iteration_times: per-iteration makespans.
        areas: per-rank block areas actually assigned (``d_i``); under
            faults, the areas of the *final* (post-crash) partition.
        failed_ranks: ranks that crashed mid-run (empty without faults).
    """

    total_time: float
    compute_time: List[float]
    comm_time: List[float]
    iteration_times: List[float]
    areas: List[int]
    failed_ranks: List[int] = field(default_factory=list)

    @property
    def compute_imbalance(self) -> float:
        """Relative imbalance of total per-rank compute times."""
        active = [t for t, a in zip(self.compute_time, self.areas) if a > 0]
        if not active:
            return 0.0
        tmax = max(active)
        if tmax <= 0.0:
            return 0.0
        return (tmax - min(active)) / tmax


def simulate_matmul(
    platform: Platform,
    partition: ColumnPartition,
    b: int,
    element_bytes: int = 8,
    network: Optional[Network] = None,
    seed: int = 0,
    trace: Optional[TraceRecorder] = None,
    fault_plan: Optional[FaultPlan] = None,
    report: Optional[ResilienceReport] = None,
) -> MatmulResult:
    """Run the simulated parallel matrix multiplication.

    Args:
        platform: the simulated platform; rank ``i`` runs on
            ``platform.devices[i]``.
        partition: 2D column-based partition of the ``nb x nb`` block grid
            (one rectangle per rank).
        b: blocking factor (block side in elements).
        element_bytes: bytes per matrix element.
        network: communication model (platform-aware default).
        seed: seed for per-rank timing noise.
        trace: optional execution-trace recorder (per-iteration comm and
            compute spans; iterations are barrier-separated).
        fault_plan: optional :class:`~repro.faults.FaultPlan`.  A rank
            whose ``crash_at`` is ``k`` (counted in pivot iterations)
            dies before iteration ``k``; the block grid is re-tiled over
            the survivors in proportion to their current areas and the
            remaining iterations complete with the survivors (a real
            implementation would restore the lost submatrix from its last
            checkpoint).  Straggler factors slow the affected ranks.
        report: optional :class:`~repro.faults.ResilienceReport`.

    Returns:
        A :class:`MatmulResult` with virtual times.
    """
    if partition.size != platform.size:
        raise PartitionError(
            f"partition has {partition.size} rectangles for "
            f"{platform.size} devices"
        )
    net = network if network is not None else Network(platform=platform)
    nb = partition.nb
    unit_flops = gemm_unit_flops(b)
    rngs = [np.random.default_rng(seed + 7919 * r) for r in range(platform.size)]

    areas = partition.areas()
    active = [r for r in range(platform.size) if areas[r] > 0]
    failed: List[int] = []
    compute_time = [0.0] * platform.size
    comm_time = [0.0] * platform.size
    iteration_times: List[float] = []

    elapsed = 0.0
    for k in range(nb):
        # --- scripted crashes: re-tile the grid over the survivors -------
        if fault_plan is not None:
            crashed_now = [
                r for r in active
                if fault_plan.for_rank(r).crash_at is not None
                and k >= fault_plan.for_rank(r).crash_at
            ]
            if crashed_now:
                for r in crashed_now:
                    failed.append(r)
                    if report is not None:
                        report.quarantine(
                            r, platform.device(r).name, 0, "crash"
                        )
                weights = [
                    0.0 if r in failed else float(areas[r])
                    for r in range(platform.size)
                ]
                partition = partition_columns(weights, nb)
                areas = partition.areas()
                active = [r for r in range(platform.size) if areas[r] > 0]
                if report is not None:
                    report.record(
                        "repartition", -1, f"iteration {k}: areas {areas}"
                    )

        pivot_owner = active[k % len(active)]
        iter_makespan = 0.0
        for r in active:
            rect = partition.rectangles[r]
            # Pivot data this rank needs for its update.
            recv_bytes = (rect.height + rect.width) * b * b * element_bytes
            c = 0.0
            if r != pivot_owner:
                c = net.time(pivot_owner, r, recv_bytes)
            contention = platform.group_contention(r, active)
            t = platform.device(r).execution_time(
                unit_flops * areas[r], areas[r], rngs[r], contention_factor=contention
            )
            if fault_plan is not None:
                t *= fault_plan.for_rank(r).straggler_factor
            comm_time[r] += c
            compute_time[r] += t
            iter_makespan = max(iter_makespan, c + t)
            if trace is not None:
                if c > 0.0:
                    trace.comm(r, elapsed, elapsed + c, f"pivot {k}")
                trace.compute(r, elapsed + c, elapsed + c + t, f"update {k}")
        iteration_times.append(iter_makespan)
        elapsed += iter_makespan

    return MatmulResult(
        total_time=sum(iteration_times),
        compute_time=compute_time,
        comm_time=comm_time,
        iteration_times=iteration_times,
        areas=areas,
        failed_ranks=sorted(failed),
    )


def even_column_partition(size: int, nb: int) -> ColumnPartition:
    """The homogeneous baseline: equal-width vertical slices.

    What a homogeneity-assuming code would do; used by the ablation
    benches as the "no model" baseline.
    """
    from repro.apps.matmul.partition2d import partition_columns

    return partition_columns([1.0] * size, nb)

