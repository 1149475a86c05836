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


#: ``scipy.special.stdtrit(dof, 0.975)`` for dof 1..128: the two-sided
#: 95 % quantiles every default :class:`~repro.core.precision.Precision`
#: asks for (``reps_max`` 25; ``thorough()`` 100), so measuring never
#: imports scipy.  ``tests/test_stats.py`` pins each entry to scipy's.
_T95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
    2.039513446396408, 2.0369333434601016, 2.0345152974493383,
    2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761,
    2.021075390306273, 2.019540970441376, 2.0180817028184443,
    2.016692199227824, 2.0153675744437636, 2.014103388880846,
    2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836,
    2.006646805061688, 2.0057459953178687, 2.0048792881880564,
    2.0040447832891455, 2.003240718847872, 2.002465459291007,
    2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741,
    1.997729654317693, 1.9971379083920038, 1.9965644189523117,
    1.996008354025296, 1.9954689314298435, 1.9949454151072374,
    1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417,
    1.9916726096446642, 1.9912543953883846, 1.9908470688116906,
    1.9904502102301285, 1.990063421254446, 1.9896863234569029,
    1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708,
    1.9872898648311692, 1.986978699506281, 1.9866745407037683,
    1.9863771544186177, 1.98608631695113, 1.9858018143458227,
    1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174,
    1.9839715185235518, 1.983731002955606, 1.9834952585628793,
    1.9832641447734565, 1.9830375264837259, 1.9828152737950475,
    1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007,
    1.9813718148763053, 1.981180359414661, 1.9809922979758567,
    1.9808075411039094, 1.9806260024590894, 1.9804475986834025,
    1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9797637625053868, 1.9795998784866382, 1.9794386850933035,
    1.9792801166048548, 1.9791241094237977, 1.9789706019906281,
    1.9788195347028539, 1.978670849837835,
)


def student_t_quantile(confidence_level: float, dof: int) -> float:
    """Two-sided Student-t quantile for a confidence level and dof.

    For example ``student_t_quantile(0.95, 10)`` is roughly 2.228.  The
    95 % level with at most 128 degrees of freedom reads a table; any
    other argument asks ``scipy.special``.
    """
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence_level must be in (0, 1), got {confidence_level}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if confidence_level == 0.95 and dof <= len(_T95):
        return _T95[dof - 1]
    # scipy.special alone: scipy.stats would cost every process that
    # imports repro tens of megabytes for this one quantile.
    from scipy.special import stdtrit

    alpha = 1.0 - confidence_level
    return float(stdtrit(dof, 1.0 - alpha / 2.0))
