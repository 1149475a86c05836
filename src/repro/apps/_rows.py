"""The balanced run shared by the row-distributed applications.

Jacobi and the heat stencil keep contiguous rank-ordered slabs of rows
and balance them with :class:`~repro.core.LoadBalancer`, the loop of the
paper's Section 4.4 listing: each iteration's timings go to the balancer,
and the rows it moves are priced on the network.  :class:`RowRun` owns
that loop's communicator, timing noise, crash evacuation, per-rank
timing and rebalancing; each application keeps its mathematics and its
collectives.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.partition.dynamic import LoadBalancer
from repro.core.partition.redistribution import apply_plan_cost, redistribution_plan
from repro.degrade import DegradationPolicy, DegradationReport
from repro.errors import PartitionError
from repro.faults.inject import FaultyCommunicator
from repro.faults.plan import FaultPlan
from repro.faults.report import ResilienceReport
from repro.mpi.comm import SimCommunicator
from repro.mpi.network import Network
from repro.platform.cluster import Platform
from repro.platform.perturbation import PerturbationSchedule
from repro.platform.trace import TraceRecorder


class RowRun:
    """One balanced run of a row-distributed application.

    Each iteration calls :meth:`evacuate`, then :meth:`compute` once every
    slab is updated, then :meth:`rebalance`, with the application's
    collectives in between.  The slab update draws no noise and reads no
    clock, so timing every slab after updating them all gives the numbers
    that interleaving the two would.

    Use it as a context manager: inside, the balancer's partition
    function is guarded by ``policy`` (when given); on exit, normal or
    not, the balancer gets its own function back.

    Args:
        platform: simulated platform (rank ``i`` = ``platform.devices[i]``).
        balancer: distributes ``balancer.total`` rows.
        unit_flops: flops of one row update.
        row_bytes: bytes one moved row costs on the network.
        noise_seed: device timing noise seed.
        noise_stride: seed distance between consecutive ranks' noise
            streams (each application keeps its own).
        network: communication model (platform-aware default).
        trace: optional recorder for compute spans and rebalance markers.
        perturbations: optional time-varying speed episodes.
        fault_plan: optional fault plan; ``crash_at`` counts application
            iterations, straggler factors slow compute, and collective
            drops go to the communicator.
        report: resilience report (created under a fault plan if omitted).
        policy: optional fallback ladder guarding mid-run repartitioning.

    Raises:
        PartitionError: when the balancer's part count is not the
            platform's rank count.
    """

    def __init__(
        self,
        platform: Platform,
        balancer: LoadBalancer,
        *,
        unit_flops: float,
        row_bytes: float,
        noise_seed: int,
        noise_stride: int,
        network: Optional[Network],
        trace: Optional[TraceRecorder],
        perturbations: Optional[PerturbationSchedule],
        fault_plan: Optional[FaultPlan],
        report: Optional[ResilienceReport],
        policy: Optional[DegradationPolicy],
    ) -> None:
        if balancer.dist.size != platform.size:
            raise PartitionError(
                f"balancer has {balancer.dist.size} parts for {platform.size} devices"
            )
        self.platform = platform
        self.balancer = balancer
        self.unit_flops = unit_flops
        self.row_bytes = row_bytes
        self.trace = trace
        self.perturbations = perturbations
        self.fault_plan = fault_plan
        self.policy = policy
        net = network if network is not None else Network(platform=platform)
        if fault_plan is not None:
            if report is None:
                report = ResilienceReport(survivors=list(range(platform.size)))
            # Crashes are scheduled here, per application iteration; the
            # communicator only injects the probabilistic collective drops.
            self.comm: SimCommunicator = FaultyCommunicator(
                platform.size, plan=fault_plan.without_crashes(), network=net,
                report=report,
            )
        else:
            self.comm = SimCommunicator(platform.size, network=net)
        self.report = report
        self.rngs = [
            np.random.default_rng(noise_seed + noise_stride * r)
            for r in range(platform.size)
        ]
        self.iteration = 0
        self.sizes: List[int] = balancer.dist.sizes
        self.failed: List[int] = []
        self._own_partition = balancer.partition
        self._start = 0.0

    def __enter__(self) -> "RowRun":
        if self.policy is not None:
            self.balancer.partition = self.policy.wrap(self._own_partition)
        return self

    def __exit__(self, *exc_info) -> None:
        self.balancer.partition = self._own_partition

    @property
    def degradation(self) -> Optional[DegradationReport]:
        """The policy's audit trail (``None`` without a policy)."""
        return self.policy.report if self.policy is not None else None

    def evacuate(self) -> List[int]:
        """Begin the next iteration and return its row counts.

        Every rank whose ``crash_at`` the run has reached dies as the
        iteration starts: the balancer quarantines it and its rows move
        to the survivors, within the iteration's time.  Evacuation is
        served from checkpointed data, so no transfer to or from a dead
        rank is charged.
        """
        self.iteration += 1
        self._start = self.comm.max_time()
        if self.fault_plan is not None:
            for r in range(self.platform.size):
                crash_at = self.fault_plan.for_rank(r).crash_at
                if (r not in self.failed and crash_at is not None
                        and self.iteration - 1 >= crash_at):
                    self.failed.append(r)
                    self.comm.mark_dead(r)
                    self.report.quarantine(r, self.platform.device(r).name, 0, "crash")
                    old_sizes = self.balancer.dist.sizes
                    new_sizes = self.balancer.quarantine(r).sizes
                    self.report.record(
                        "repartition", -1,
                        f"iter {self.iteration}: rows {old_sizes} -> {new_sizes}",
                    )
                    self._move_rows(old_sizes, new_sizes)
            self.sizes = self.balancer.dist.sizes
        return self.sizes

    def slabs(self) -> Iterator[Tuple[int, int]]:
        """``(first row, row count)`` of every rank holding rows."""
        first = 0
        for d in self.sizes:
            if d > 0:
                yield first, d
            first += d

    def compute(self) -> List[float]:
        """Charge every rank's slab update on its clock; return the times.

        A rank's time comes from its device at its row count, scaled by
        the contention of its co-located active ranks, any perturbation
        active on its clock and its straggler factor.  Ranks without rows
        take 0.
        """
        active = [r for r, d in enumerate(self.sizes) if d > 0]
        times: List[float] = []
        for r, d in enumerate(self.sizes):
            if d == 0:
                times.append(0.0)
                continue
            contention = self.platform.group_contention(r, active)
            if self.perturbations is not None:
                contention *= self.perturbations.factor(r, self.comm.time(r))
            t = self.platform.device(r).execution_time(
                self.unit_flops * d, d, self.rngs[r], contention_factor=contention
            )
            if self.fault_plan is not None:
                t *= self.fault_plan.for_rank(r).straggler_factor
            times.append(t)
            span_start = self.comm.time(r)
            self.comm.compute(r, t)
            if self.trace is not None:
                self.trace.compute(
                    r, span_start, self.comm.time(r), f"iter {self.iteration}"
                )
        return times

    def rebalance(self, compute_times: List[float]) -> Tuple[bool, float]:
        """End the iteration: feed the balancer, move rows, synchronise.

        Returns whether the balancer moved rows, and the iteration's
        makespan (from its start, evacuation included, to the closing
        barrier).
        """
        old_sizes = self.sizes
        self.sizes = self.balancer.iterate(compute_times).sizes
        rebalanced = self.sizes != old_sizes
        if rebalanced:
            if self.trace is not None:
                for r in range(self.platform.size):
                    self.trace.marker(
                        r, self.comm.time(r), f"rebalance {self.iteration}"
                    )
            self._move_rows(old_sizes, self.sizes)
        return rebalanced, self.comm.barrier() - self._start

    def _move_rows(self, old_sizes: List[int], new_sizes: List[int]) -> None:
        """Charge the row transfers between two layouts, skipping dead ranks."""
        plan = [
            t for t in redistribution_plan(old_sizes, new_sizes)
            if t.source not in self.failed and t.dest not in self.failed
        ]
        apply_plan_cost(self.comm, plan, self.row_bytes)
