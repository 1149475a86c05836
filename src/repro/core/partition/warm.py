"""Warm starts for the iterative partitioners.

The serving layer (:mod:`repro.serve`) answers near-identical partition
requests over and over: the same fitted models, queried at a sequence of
nearby totals.  The solution of one request is an excellent *seed* for the
next -- the equal-time level ``T`` of the geometrical algorithm scales
almost proportionally with the total, and the per-process shares scale
with it.

A :class:`WarmStart` packages that seed: the source plan's total, its
equal-time level (the predicted makespan) and its integer shares.  The
iterative partitioners accept one through their ``warm_start`` parameter
and use it only to *narrow the initial search bracket* -- never to change
the stopping criterion or the rounding -- so a warm-started solve
converges to the same distribution a cold solve finds, in fewer (or at
worst equally many) iterations.  That invariant is what lets the plan
cache substitute warm results for cold ones bit-for-bit; the parity suite
(``tests/test_serve_warm_parity.py``) enforces it for every registered
partitioner and model family.

A hint that turns out to be wrong (e.g. from unrelated models) cannot
produce a wrong answer: bracket candidates are validated against the
bisection invariant before they replace the cold bracket ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import PartitionError


@dataclass(frozen=True)
class WarmStart:
    """A previously solved plan, offered as a seed for a nearby request.

    Attributes:
        total: the source plan's problem size ``D`` in computation units.
        level: the source plan's equal-time level ``T`` in seconds
            (its predicted makespan).
        sizes: the source plan's integer per-process shares.
    """

    total: int
    level: float
    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise PartitionError(
                f"warm start needs a positive source total, got {self.total}"
            )
        if not self.level > 0.0:
            raise PartitionError(
                f"warm start needs a positive level, got {self.level}"
            )
        if any(d < 0 for d in self.sizes):
            raise PartitionError(
                f"warm start sizes must be non-negative: {list(self.sizes)}"
            )

    def scaled_level(self, total: int) -> float:
        """The equal-time level hint for a problem of size ``total``.

        First-order scaling: the level grows proportionally with the
        total (exact for constant-speed models, a good bracket centre for
        any FPM shape).
        """
        return self.level * float(total) / float(self.total)


def warm_start_from(dist, total: int = 0) -> WarmStart:
    """Extract a :class:`WarmStart` from a solved distribution.

    Args:
        dist: a :class:`~repro.core.partition.dist.Distribution` with
            model-predicted part times (any partitioner output).
        total: override for the source total (defaults to ``dist.total``).

    Raises:
        PartitionError: if the distribution carries no positive predicted
            time (a warm start needs a level to scale).
    """
    src_total = total if total > 0 else dist.total
    level = max((p.t for p in dist.parts), default=0.0)
    if not level > 0.0:
        raise PartitionError(
            "cannot derive a warm start: distribution has no positive "
            "predicted time"
        )
    return WarmStart(
        total=src_total, level=level, sizes=tuple(p.d for p in dist.parts)
    )


def warm_bracket(
    warm: WarmStart,
    total: int,
    bank,
    cap: float,
    t_hi: float,
):
    """Shrink the geometric bisection's initial bracket using a warm hint.

    Probes a small batch of candidate levels around the scaled hint (one
    :meth:`~repro.core.partition.batch.ModelBank.allocations` call over
    the solve's bank) and keeps the tightest pair that preserves the
    bisection invariant ``excess(lo) < 0 <= excess(hi)``.  Candidates
    that violate it are simply discarded, so a misleading hint degrades
    to the cold bracket rather than to a wrong answer.

    Returns:
        ``(lo, hi, end_lo, end_hi)`` -- the (possibly) narrowed bracket
        and, at each of its ends, the per-model allocations and the
        stacked rows' knot intervals (``None`` at a cold end: unknown).
    """
    size = bank.size
    lo, hi = 0.0, t_hi
    end_lo, end_hi = (np.zeros(size), None), (np.full(size, cap), None)
    t_est = warm.scaled_level(total)
    if not (0.0 < t_est < t_hi):
        return lo, hi, end_lo, end_hi
    # A tight pair around the hint plus looser guards; sorted and unique.
    candidates = np.unique(np.clip(
        np.asarray([0.5 * t_est, 0.95 * t_est, 1.05 * t_est, 2.0 * t_est]),
        0.0, t_hi,
    ))
    candidates = candidates[(candidates > 0.0) & (candidates < t_hi)]
    if candidates.size == 0:
        return lo, hi, end_lo, end_hi
    allocs, knots = bank._bracketed(candidates, cap, end_lo, end_hi)
    residuals = allocs.sum(axis=0) - cap
    for j in range(candidates.size):
        level = float(candidates[j])
        if residuals[j] < 0.0 and level > lo:
            lo = level
            end_lo = (allocs[:, j], knots[:, j])
        elif residuals[j] >= 0.0 and level < hi:
            hi = level
            end_hi = (allocs[:, j], knots[:, j])
            break  # candidates are sorted; later ones are looser
    return lo, hi, end_lo, end_hi
