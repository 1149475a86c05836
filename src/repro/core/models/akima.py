"""The Akima-spline functional performance model.

This FPM interpolates the *time* function directly with an Akima spline
(ref. [15] of the paper).  It imposes no shape restrictions on the speed
function and provides a continuous first derivative, which the numerical
partitioning algorithm needs for its Jacobian.

Construction details:

* the origin ``(0, 0)`` is always included as an anchor -- zero work takes
  zero time -- so a single measured point already yields a (linear) model;
* right of the last measured point the time function continues linearly,
  with a slope no smaller than the average time-per-unit at the boundary,
  so predictions stay increasing for sizes the partitioner may probe beyond
  the measured range.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple, Type

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.errors import ModelError
from repro.interp.akima import AkimaSpline, HermiteSpline


class HermiteModel(PerformanceModel):
    """FPM whose time function is a cubic Hermite spline through knots.

    Shared by :class:`AkimaModel` and
    :class:`~repro.core.models.pchip.PchipModel`: a family supplies its
    spline class, its fingerprint tag and the knots it fits
    (:meth:`_knots`); the fit, the right extension and every evaluation
    path live here.
    """

    min_points = 1
    #: Interpolant fitted through :meth:`_knots`.
    _spline_class: Type[HermiteSpline]
    #: Family name leading the fingerprint state and fit errors; literal,
    #: so a subclass fingerprints as its family does.
    _tag: str

    def __init__(self, include_origin: bool = True) -> None:
        super().__init__()
        self.include_origin = include_origin
        self._spline: Optional[HermiteSpline] = None
        self._x_max: float = 0.0
        self._t_max: float = 0.0
        self._right_slope: float = 0.0

    @abc.abstractmethod
    def _knots(self) -> List[Tuple[float, float]]:
        """The ``(size, time)`` pairs the spline interpolates."""

    def _rebuild(self) -> None:
        pts = self._knots()
        if len({x for x, _t in pts}) < 2:
            raise ModelError(
                f"{self._tag} needs at least two distinct sizes "
                "(including the origin anchor)"
            )
        self._spline = self._spline_class(pts, min_y=1e-15)
        self._x_max = max(x for x, _t in pts)
        self._t_max = self._spline(self._x_max)
        slope_at_end = self._spline.derivative(self._x_max)
        avg_slope = self._t_max / self._x_max if self._x_max > 0 else 0.0
        self._right_slope = max(slope_at_end, avg_slope, 1e-15)

    def fingerprint_state(self) -> tuple:
        """Fitted state is the spline knots plus the right extension slope."""
        self._require_ready()
        assert self._spline is not None
        return (
            self._tag,
            "knots",
            tuple(self._spline.xs),
            tuple(self._spline.ys),
            self._right_slope,
        )

    def time(self, x: float) -> float:
        self._require_ready()
        assert self._spline is not None
        if x < 0.0:
            raise ModelError(f"size must be non-negative, got {x}")
        if x == 0.0:
            return 0.0
        if x > self._x_max:
            return self._t_max + self._right_slope * (x - self._x_max)
        return max(self._spline(x), 1e-15)

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        assert self._spline is not None
        beyond = xs > self._x_max
        out = np.maximum(self._spline.evaluate_batch(np.where(beyond, self._x_max, xs)), 1e-15)
        out = np.where(beyond, self._t_max + self._right_slope * (xs - self._x_max), out)
        return np.where(xs == 0.0, 0.0, out)

    def time_derivative(self, x: float) -> float:
        """Derivative ``dt/dx`` -- continuous, used by the Newton solver."""
        self._require_ready()
        assert self._spline is not None
        if x < 0.0:
            raise ModelError(f"size must be non-negative, got {x}")
        if x > self._x_max:
            return self._right_slope
        return self._spline.derivative(x)


class AkimaModel(HermiteModel):
    """FPM with Akima-spline interpolation of the time function."""

    _spline_class = AkimaSpline
    _tag = "AkimaModel"

    def _knots(self) -> List[Tuple[float, float]]:
        pts = [(float(p.d), p.t) for p in self._points]
        if self.include_origin:
            pts.append((0.0, 0.0))
        return pts
