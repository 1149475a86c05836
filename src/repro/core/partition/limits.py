"""Memory-constrained data partitioning.

"Due to limited GPU memory, the execution time of GPU kernels can be
measured only within some range of problem sizes, unless out-of-core
implementations ... are available" (Section 4.1 of the paper).  When a
device has *no* out-of-core path, its allocation is hard-capped: the
balanced solution may want to give it more work than it can hold.

:func:`partition_with_limits` wraps any model-based partitioning algorithm
with per-process capacity caps using the classic water-filling reduction:

1. run the unconstrained algorithm;
2. clamp every over-cap allocation to its cap and freeze those processes;
3. re-run the algorithm on the remaining processes for the remaining
   units;
4. repeat until no allocation exceeds its cap (at most ``p`` rounds, since
   every round freezes at least one process).

The result is optimal for monotone time functions: a frozen process is
saturated, and the rest are balanced among themselves by the underlying
algorithm.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.core.partition.batch import ModelBank
from repro.core.partition.dist import Distribution, Part
from repro.core.partition.dynamic import PartitionFunction
from repro.errors import PartitionError


def partition_with_limits(
    algorithm: PartitionFunction,
    total: int,
    models: Sequence[PerformanceModel],
    limits: Sequence[Optional[int]],
) -> Distribution:
    """Partition ``total`` units under per-process capacity caps.

    Args:
        algorithm: any model-based partitioning algorithm
            (basic/geometric/numerical).
        total: the problem size in computation units.
        models: one performance model per process.
        limits: per-process caps in computation units; None = unlimited.
            A typical source is ``device.memory_limit_units``.

    Returns:
        A :class:`Distribution` summing to ``total`` with every part within
        its cap.

    Raises:
        PartitionError: when the caps cannot hold ``total`` units at all.
    """
    if len(limits) != len(models):
        raise PartitionError(
            f"{len(limits)} limits for {len(models)} models"
        )
    for lim in limits:
        if lim is not None and lim < 0:
            raise PartitionError(f"limits must be non-negative, got {lim}")
    capacity = sum(lim for lim in limits if lim is not None)
    unlimited = any(lim is None for lim in limits)
    if not unlimited and capacity < total:
        raise PartitionError(
            f"total capacity {capacity} cannot hold {total} units"
        )

    size = len(models)
    frozen: List[Optional[int]] = [None] * size
    remaining_total = total

    for _round in range(size + 1):
        free = [i for i in range(size) if frozen[i] is None]
        if not free:
            break
        sub = algorithm(remaining_total, [models[i] for i in free])
        shares = {i: part.d for i, part in zip(free, sub.parts)}
        overflow = [
            i for i in free
            if limits[i] is not None and shares[i] > limits[i]  # type: ignore[operator]
        ]
        if not overflow:
            for i in free:
                frozen[i] = shares[i]
            break
        for i in overflow:
            frozen[i] = int(limits[i])  # type: ignore[arg-type]
            remaining_total -= int(limits[i])  # type: ignore[arg-type]
    else:  # pragma: no cover - loop always breaks within size+1 rounds
        raise PartitionError("limit resolution did not converge")

    if any(v is None for v in frozen):
        # Every process hit its cap; distribute the leftovers (possible
        # only when an unlimited process exists, checked above).
        raise PartitionError(
            f"could not place all {total} units within the given limits"
        )
    times = ModelBank(models).times(np.asarray(frozen, dtype=float))
    parts = [
        Part(d, float(times[i]) if d > 0 else 0.0)
        for i, d in enumerate(frozen)  # type: ignore[arg-type]
    ]
    dist = Distribution(parts)
    if dist.total != total:
        raise PartitionError(
            f"internal error: constrained distribution sums to {dist.total}, "
            f"expected {total}"
        )
    return dist


def limits_from_platform(platform) -> List[Optional[int]]:
    """Per-rank capacity caps read off a simulated platform's devices."""
    out: List[Optional[int]] = []
    for device in platform.devices:
        lim = device.memory_limit_units
        out.append(int(lim) if lim is not None else None)
    return out
