"""Self-adaptive matrix multiplication.

The paper's Section 4.3 distinguishes applications that can amortise full
model construction from one-shot runs that cannot.  This module is the
one-shot path for the matrix multiplication use case: at startup, the
dynamic partitioning algorithm estimates partial FPMs with a few cheap
kernel benchmarks, the resulting shares drive the column-based 2D
arrangement, and the application runs -- no a-priori platform knowledge
required.

The returned report carries everything an operator would want to inspect:
the startup benchmarking cost, the distribution trace, and the simulated
execution compared against the homogeneous (even) layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.matmul.kernel import gemm_unit_flops
from repro.apps.matmul.partition2d import ColumnPartition, partition_columns
from repro.apps.matmul.simulation import MatmulResult, simulate_matmul
from repro.core.benchmark import PlatformBenchmark
from repro.core.models import PiecewiseModel
from repro.core.partition.dynamic import DynamicPartitioner, DynamicResult
from repro.core.partition.geometric import partition_geometric
from repro.core.precision import Precision
from repro.degrade import DegradationPolicy, DegradationReport
from repro.errors import PartitionError
from repro.platform.cluster import Platform


@dataclass(frozen=True)
class AdaptiveMatmulReport:
    """Outcome of :func:`run_adaptive_matmul`.

    Attributes:
        partitioning: trace of the startup dynamic partitioning.
        layout: the column-based 2D arrangement actually used.
        run: the simulated application execution under that layout.
        baseline_run: the same application under the even layout.
        startup_cost: kernel-seconds spent benchmarking at startup.
        degradation: the fallback ladder's audit trail when startup
            partitioning was guarded by a
            :class:`~repro.degrade.DegradationPolicy` (``None``
            otherwise).
    """

    partitioning: DynamicResult
    layout: ColumnPartition
    run: MatmulResult
    baseline_run: MatmulResult
    startup_cost: float
    degradation: Optional[DegradationReport] = None

    @property
    def speedup_over_even(self) -> float:
        """How much the adaptive layout beats the homogeneous one."""
        if self.run.total_time <= 0.0:
            return float("inf")
        return self.baseline_run.total_time / self.run.total_time


def run_adaptive_matmul(
    platform: Platform,
    nb: int,
    b: int = 32,
    eps: float = 0.03,
    precision: Optional[Precision] = None,
    seed: int = 0,
    policy: Optional[DegradationPolicy] = None,
) -> AdaptiveMatmulReport:
    """Run the self-adaptive matrix multiplication end to end.

    Args:
        platform: the simulated platform.
        nb: matrix side in b x b blocks (the grid to partition).
        b: blocking factor.
        eps: accuracy of the startup dynamic partitioning.
        precision: benchmark repetition policy for the startup phase
            (defaults to a cheap 1-3 repetition policy -- startup cost is
            the whole point of the adaptive path).
        seed: RNG seed for benchmarking and simulation noise.
        policy: optional :class:`~repro.degrade.DegradationPolicy`
            guarding the startup partitioning: if the geometric algorithm
            fails on the partial models, the ladder (numerical, basic,
            even) takes over instead of aborting the one-shot run, and
            the report's ``degradation`` field says so.

    Returns:
        An :class:`AdaptiveMatmulReport`.
    """
    if nb < 1:
        raise PartitionError(f"nb must be >= 1, got {nb}")
    unit_flops = gemm_unit_flops(b)
    startup_precision = (
        precision
        if precision is not None
        else Precision(reps_min=1, reps_max=3, relative_error=0.05)
    )
    bench = PlatformBenchmark(
        platform, unit_flops=unit_flops, precision=startup_precision, seed=seed
    )
    models = [PiecewiseModel() for _ in range(platform.size)]
    partition_fn = partition_geometric
    if policy is not None:
        partition_fn = policy.wrap(partition_fn)
    dyn = DynamicPartitioner(
        partition_fn,
        models,
        nb * nb,
        bench.measure_group,
        eps=eps,
    )
    partitioning = dyn.run()

    layout = partition_columns([float(d) for d in partitioning.final.sizes], nb)
    even_layout = partition_columns([1.0] * platform.size, nb)
    run = simulate_matmul(platform, layout, b=b, seed=seed)
    baseline = simulate_matmul(platform, even_layout, b=b, seed=seed)
    return AdaptiveMatmulReport(
        partitioning=partitioning,
        layout=layout,
        run=run,
        baseline_run=baseline,
        startup_cost=partitioning.total_cost,
        degradation=policy.report if policy is not None else None,
    )
