"""Calibrating synthetic profiles against measured speed data.

The simulator's profiles (:mod:`repro.platform.profiles`) are parametric
families.  To simulate *your* machine rather than our presets, measure a
real kernel over a range of sizes (e.g. with
:class:`~repro.core.benchmark.Benchmark` on a
:class:`~repro.core.kernel.CallableKernel`) and fit a profile to the
points.  The fits use ``scipy.optimize.curve_fit`` with parameterisations
chosen so every iterate stays physically meaningful (positive rates,
ordered capacities).

This closes the loop between the two halves of the library: profiles
generate measurements, and measurements regenerate profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import PlatformError
from repro.platform.profiles import CacheHierarchyProfile, GpuProfile

#: A measured speed sample: (problem size in units, FLOP/s).
SpeedSample = Tuple[float, float]


@dataclass(frozen=True)
class ProfileFit:
    """Outcome of a profile calibration.

    Attributes:
        profile: the fitted profile object.
        residual: RMS relative speed error over the samples.
    """

    profile: object
    residual: float


def _check_samples(samples: Sequence[SpeedSample], minimum: int) -> "tuple[np.ndarray, np.ndarray]":
    if len(samples) < minimum:
        raise PlatformError(
            f"need at least {minimum} samples to fit, got {len(samples)}"
        )
    d = np.asarray([float(s[0]) for s in samples])
    r = np.asarray([float(s[1]) for s in samples])
    if np.any(d <= 0) or np.any(r <= 0):
        raise PlatformError("samples must have positive sizes and rates")
    return d, r


def _residual(rates: np.ndarray, predicted: np.ndarray) -> float:
    rel = (predicted - rates) / rates
    return float(np.sqrt(np.mean(rel * rel)))


def fit_gpu_profile(samples: Sequence[SpeedSample]) -> ProfileFit:
    """Fit a :class:`GpuProfile` (peak + overhead ramp) to speed samples.

    The model is ``rate(d) = peak * d / (d + ramp)``; memory-cap behaviour
    is not fitted (pass it explicitly when constructing platforms).
    """
    from scipy.optimize import curve_fit

    d, r = _check_samples(samples, minimum=3)

    def model(x, log_peak, log_ramp):
        peak = np.exp(log_peak)
        ramp = np.exp(log_ramp)
        return peak * x / (x + ramp)

    p0 = (np.log(np.max(r) * 1.2), np.log(np.median(d)))
    params, *_ = curve_fit(model, d, r, p0=p0, maxfev=20000)
    peak, ramp = float(np.exp(params[0])), float(np.exp(params[1]))
    profile = GpuProfile(peak_flops=peak, ramp_units=ramp)
    predicted = np.asarray([profile.flops_at(x) for x in d])
    return ProfileFit(profile=profile, residual=_residual(r, predicted))


def fit_cache_profile(
    samples: Sequence[SpeedSample],
    transition_width: float = 0.1,
) -> ProfileFit:
    """Fit a two-level :class:`CacheHierarchyProfile` to speed samples.

    The model has a fast level of rate ``r1`` up to capacity ``c``, and a
    paged rate ``r2`` beyond, blended logistically in log-size space.  The
    parameterisation (log rates, log capacity, log rate *drop*) keeps the
    fit inside the physically valid region: positive rates, ``r2 < r1``.
    """
    from scipy.optimize import curve_fit

    d, r = _check_samples(samples, minimum=4)

    def model(x, log_r1, log_drop, log_c):
        r1 = np.exp(log_r1)
        r2 = r1 / (1.0 + np.exp(log_drop))  # guaranteed below r1
        c = np.exp(log_c)
        z = (np.log(x) - np.log(c)) / transition_width
        w = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        return r1 * (1.0 - w) + r2 * w

    p0 = (
        np.log(np.max(r)),
        np.log(max(np.max(r) / max(np.min(r), 1e-9) - 1.0, 0.5)),
        np.log(np.median(d)),
    )
    params, *_ = curve_fit(model, d, r, p0=p0, maxfev=20000)
    r1 = float(np.exp(params[0]))
    r2 = r1 / (1.0 + float(np.exp(params[1])))
    c = float(np.exp(params[2]))
    profile = CacheHierarchyProfile(
        levels=[(c, r1)], paged_flops=r2, transition_width=transition_width
    )
    predicted = np.asarray([profile.flops_at(x) for x in d])
    return ProfileFit(profile=profile, residual=_residual(r, predicted))


def speed_samples_from_points(
    points,
    complexity,
) -> "list[SpeedSample]":
    """Convert measurement points into (size, FLOP/s) samples.

    ``complexity`` is the kernel complexity function (``d -> flops``), as
    carried by any :class:`~repro.core.kernel.ComputationKernel`.
    """
    samples = []
    for p in points:
        if p.t <= 0:
            raise PlatformError(f"point at d={p.d} has non-positive time")
        samples.append((float(p.d), complexity(p.d) / p.t))
    return samples
