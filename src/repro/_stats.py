"""Small statistics helpers used by the benchmarking machinery.

FuPerMod repeats each kernel measurement until the half-width of the
Student-t confidence interval of the mean falls below a target fraction of
the mean (or a repetition/time cap is hit).  This module provides the
running-statistics accumulator and the confidence-interval computation used
by :mod:`repro.core.benchmark`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List


@dataclass
class RunningStats:
    """Accumulates samples and exposes mean/variance/confidence intervals.

    Uses Welford's online algorithm so that adding a sample is O(1) and
    numerically stable regardless of the magnitude of the samples.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    samples: List[float] = field(default_factory=list)

    def add(self, x: float) -> None:
        """Add one sample."""
        self.samples.append(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count < 1:
            return 0.0
        return self.stddev / math.sqrt(self.count)

    def confidence_halfwidth(self, confidence_level: float = 0.95) -> float:
        """Half-width of the Student-t confidence interval of the mean.

        Returns ``inf`` with fewer than two samples: the interval is not
        defined yet, which conveniently forces the benchmark loop to keep
        measuring.
        """
        if self.count < 2:
            return math.inf
        t = student_t_quantile(confidence_level, self.count - 1)
        return t * self.stderr

    def relative_error(self, confidence_level: float = 0.95) -> float:
        """Confidence half-width as a fraction of the mean.

        Returns ``inf`` when the mean is zero or too few samples exist.
        """
        if self.mean <= 0.0:
            return math.inf
        return self.confidence_halfwidth(confidence_level) / self.mean


def mad_filter(samples: List[float], threshold: float = 3.5) -> List[float]:
    """Reject outliers by robust (median/MAD) z-score.

    The modified z-score of a sample is ``0.6745 * (x - median) / MAD``;
    values beyond ``threshold`` (3.5 is the classic Iglewicz--Hoaglin
    cutoff) are dropped.  With fewer than three samples, or a zero MAD
    (identical samples), everything is kept.

    Benchmarks use this to discard the occasional timing spike (page
    fault, daemon wakeup) that would otherwise inflate the mean and the
    confidence interval.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if len(samples) < 3:
        return list(samples)
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = 0.5 * (ordered[mid - 1] + ordered[mid])
    deviations = sorted(abs(x - median) for x in samples)
    if len(deviations) % 2:
        mad = deviations[mid]
    else:
        mad = 0.5 * (deviations[mid - 1] + deviations[mid])
    if mad == 0.0:
        return list(samples)
    kept = [x for x in samples if abs(0.6745 * (x - median) / mad) <= threshold]
    return kept if kept else [median]


def student_t_quantile(confidence_level: float, dof: int) -> float:
    """Two-sided Student-t quantile for a confidence level and dof.

    For example ``student_t_quantile(0.95, 10)`` is roughly 2.228.
    """
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence_level must be in (0, 1), got {confidence_level}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    # scipy.special alone: scipy.stats would cost every process that
    # imports repro tens of megabytes for this one quantile.
    from scipy.special import stdtrit

    alpha = 1.0 - confidence_level
    return float(stdtrit(dof, 1.0 - alpha / 2.0))
