"""Workload distributions -- the paper's ``fupermod_dist``.

A :class:`Distribution` assigns each process an integer number of
computation units (``Part.d``) together with the model-predicted computing
time of that workload (``Part.t``).  The application programmer distributes
the actual data according to these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.errors import PartitionError


@dataclass(frozen=True)
class Part:
    """One process's share: ``d`` computation units, predicted time ``t``."""

    d: int
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.d < 0:
            raise PartitionError(f"part size must be non-negative, got {self.d}")
        if self.t < 0.0:
            raise PartitionError(f"predicted time must be non-negative, got {self.t}")


class Distribution:
    """An integer workload distribution over ``size`` processes.

    It holds the per-process sizes and predicted times as two lists; the
    :class:`Part` objects of :attr:`parts` are built the first time they
    are read, so a partitioner that hands back lists (and a caller that
    reads only :attr:`sizes` and :attr:`times`) builds none.
    """

    def __init__(self, parts: Iterable[Part]) -> None:
        parts = list(parts)
        if not parts:
            raise PartitionError("distribution must have at least one part")
        self._parts: Optional[List[Part]] = parts
        self._sizes = [p.d for p in parts]
        self._times = [p.t for p in parts]

    @staticmethod
    def even(total: int, size: int) -> "Distribution":
        """The even distribution (initial guess of the dynamic algorithms)."""
        if size < 1:
            raise PartitionError(f"size must be >= 1, got {size}")
        if total < 0:
            raise PartitionError(f"total must be non-negative, got {total}")
        return Distribution.from_sizes(
            round_preserving_sum([total / size] * size, total)
        )

    @staticmethod
    def from_sizes(sizes: Sequence[int], times: Sequence[float] = ()) -> "Distribution":
        """Build a distribution from explicit per-process sizes."""
        if times and len(times) != len(sizes):
            raise PartitionError(
                f"{len(times)} times for {len(sizes)} sizes"
            )
        sizes = list(sizes)
        times = list(times) if times else [0.0] * len(sizes)
        if not sizes:
            raise PartitionError("distribution must have at least one part")
        if any(d < 0 for d in sizes) or any(t < 0.0 for t in times):
            for d, t in zip(sizes, times):
                Part(d, t)  # raises the offending part's error
        dist = Distribution.__new__(Distribution)
        dist._parts, dist._sizes, dist._times = None, sizes, times
        return dist

    @property
    def parts(self) -> List[Part]:
        """Per-process :class:`Part` objects in rank order (read them only)."""
        if self._parts is None:
            self._parts = [Part(d, t) for d, t in zip(self._sizes, self._times)]
        return self._parts

    @property
    def size(self) -> int:
        """Number of processes."""
        return len(self._sizes)

    @property
    def total(self) -> int:
        """Total problem size ``D`` in computation units."""
        return sum(self._sizes)

    @property
    def sizes(self) -> List[int]:
        """Per-process sizes in rank order."""
        return list(self._sizes)

    @property
    def times(self) -> List[float]:
        """Per-process predicted times in rank order."""
        return list(self._times)

    @property
    def predicted_makespan(self) -> float:
        """Largest predicted per-process time."""
        return max(self._times)

    @property
    def predicted_imbalance(self) -> float:
        """Relative imbalance ``(t_max - t_min) / t_max`` of predicted times.

        Zero for a single process or when all predicted times are zero.
        """
        tmax = max(self._times)
        tmin = min(self._times)
        if tmax <= 0.0:
            return 0.0
        return (tmax - tmin) / tmax

    def max_relative_change(self, other: "Distribution") -> float:
        """Largest per-process relative size change versus ``other``.

        Used as the convergence criterion of dynamic partitioning: the
        change of each part is normalised by the even share, so the metric
        is scale-free in ``D``.
        """
        if other.size != self.size:
            raise PartitionError(
                f"cannot compare distributions of sizes {self.size} and {other.size}"
            )
        reference = max(self.total / self.size, 1.0)
        return max(
            abs(a - b) / reference for a, b in zip(self._sizes, other._sizes)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._sizes == other._sizes

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Distribution({self.sizes}, total={self.total})"


def round_preserving_sum(xs: Sequence[float], total: int) -> List[int]:
    """Round non-negative reals to integers that sum exactly to ``total``.

    Largest-remainder method: floor everything, then hand the remaining
    units to the entries with the largest fractional parts.  Continuous
    partitioner outputs go through this before becoming distributions.
    """
    if total < 0:
        raise PartitionError(f"total must be non-negative, got {total}")
    if any(x < 0 or math.isnan(x) or math.isinf(x) for x in xs):
        raise PartitionError(f"values must be finite and non-negative: {xs}")
    floors = [int(math.floor(x)) for x in xs]
    deficit = total - sum(floors)
    if deficit < 0:
        # Over-allocation (rounding artefacts): trim from the smallest
        # fractional parts, never below zero.
        order = sorted(range(len(xs)), key=lambda i: (xs[i] - floors[i], xs[i]))
        for i in order:
            while deficit < 0 and floors[i] > 0:
                floors[i] -= 1
                deficit += 1
        if deficit < 0:
            raise PartitionError(
                f"cannot round {xs} down to total {total}"
            )
        return floors
    remainders = sorted(
        range(len(xs)), key=lambda i: (xs[i] - floors[i], xs[i]), reverse=True
    )
    for k in range(deficit):
        floors[remainders[k % len(xs)]] += 1
    return floors
