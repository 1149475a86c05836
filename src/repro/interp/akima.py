"""Akima spline interpolation, implemented from scratch.

Reference: H. Akima, *A New Method of Interpolation and Smooth Curve Fitting
Based on Local Procedures*, JACM 17(4), 1970.

The paper's Akima-spline FPM uses this interpolation for the time function
because it is C1-continuous (the numerical partitioning algorithm needs a
continuous derivative for its Jacobian) and, unlike natural cubic splines,
does not oscillate wildly around abrupt changes such as memory-hierarchy
cliffs in measured speed functions.

The construction is local: the spline slope at a knot depends only on the
four neighbouring secant slopes,

    t_i = (|m_{i+1} - m_i| m_{i-1} + |m_{i-1} - m_{i-2}| m_i)
          / (|m_{i+1} - m_i| + |m_{i-1} - m_{i-2}|)

with the average of the two central secants when the denominator vanishes,
and two quadratically extrapolated secants appended at each boundary.  Each
interval then carries a cubic Hermite polynomial whose coefficients are
precomputed once as arrays, so both scalar calls and
:meth:`~HermiteSpline.evaluate_batch` (one ``searchsorted`` + Horner over
the whole input array) read the same numbers.  That evaluator,
:class:`HermiteSpline`, is shared with the PCHIP interpolant
(:mod:`repro.interp.pchip`), which differs only in its knot slopes.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import InterpolationError
from repro.interp._points import prepare_points


def hermite_interval_coeffs(
    xs: np.ndarray, ys: np.ndarray, slopes: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per-interval cubic coefficients ``(a, b, c, d)`` for Hermite data.

    The interval-``i`` polynomial is ``a + b u + c u^2 + d u^3`` with
    ``u = x - xs[i]``.  Intervals whose width underflows when squared are
    degraded to their secant line, mirroring the scalar guard.
    """
    h = np.diff(xs)
    dy = np.diff(ys)
    s0 = slopes[:-1]
    s1 = slopes[1:]
    degenerate = h * h == 0.0
    safe_h = np.where(degenerate, 1.0, h)
    secant = np.where(h > 0.0, dy / safe_h, 0.0)
    a = ys[:-1]
    b = np.where(degenerate, secant, s0)
    c = np.where(
        degenerate, 0.0, (3.0 * dy / safe_h - 2.0 * s0 - s1) / safe_h
    )
    d = np.where(degenerate, 0.0, (s0 + s1 - 2.0 * dy / safe_h) / (safe_h * safe_h))
    return a, b, c, d


class HermiteSpline:
    """Cubic Hermite spline through a set of (x, y) points.

    Subclasses only choose the slope at every knot
    (:meth:`_compute_slopes`); the interval cubics and every evaluation
    path are shared.

    Requires at least two distinct abscissae.  Duplicate ``x`` values are
    merged by averaging; input that is already sorted and duplicate-free
    takes a fast path that skips the merge and sort.

    Evaluation outside the data range continues the boundary cubic
    polynomials (linear in practice, since the Hermite cubic is evaluated
    with the boundary slopes); results are clamped below at ``min_y`` so
    predicted times can never be non-positive.
    """

    def __init__(
        self,
        points: Iterable[Tuple[float, float]],
        min_y: float = 1e-12,
    ) -> None:
        xs, ys = prepare_points(points)
        if len(xs) < 2:
            raise InterpolationError(
                f"{type(self).__name__} requires at least 2 distinct points, "
                f"got {len(xs)}"
            )
        self._xs: List[float] = xs
        self._ys: List[float] = ys
        self._min_y = float(min_y)
        self._slopes = self._compute_slopes(self._xs, self._ys)
        self._xs_arr = np.asarray(xs, dtype=float)
        self._ys_arr = np.asarray(ys, dtype=float)
        self._ca, self._cb, self._cc, self._cd = hermite_interval_coeffs(
            self._xs_arr, self._ys_arr, np.asarray(self._slopes, dtype=float)
        )

    @staticmethod
    def _compute_slopes(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
        """The spline's slope at every knot."""
        raise NotImplementedError

    @property
    def xs(self) -> Sequence[float]:
        """The sorted, de-duplicated abscissae."""
        return tuple(self._xs)

    @property
    def ys(self) -> Sequence[float]:
        """Ordinates corresponding to :attr:`xs`."""
        return tuple(self._ys)

    def __len__(self) -> int:
        return len(self._xs)

    def _interval(self, x: float) -> int:
        xs = self._xs
        if x <= xs[0]:
            return 0
        if x >= xs[-1]:
            return len(xs) - 2
        return bisect.bisect_right(xs, x) - 1

    def _hermite_coeffs(self, i: int) -> Tuple[float, float, float, float, float]:
        """Cubic coefficients (x0, a, b, c, d) on interval i.

        The polynomial is ``a + b u + c u^2 + d u^3`` with ``u = x - x0``.
        """
        return (
            self._xs[i],
            float(self._ca[i]),
            float(self._cb[i]),
            float(self._cc[i]),
            float(self._cd[i]),
        )

    def __call__(self, x: float) -> float:
        """Evaluate the spline at ``x``."""
        i = self._interval(x)
        x0, a, b, c, d = self._hermite_coeffs(i)
        u = x - x0
        return max(a + u * (b + u * (c + u * d)), self._min_y)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the spline at an array of abscissae at once.

        Matches scalar evaluation exactly: the same interval rule and the
        same precomputed coefficients, applied with one ``searchsorted``.
        """
        xs = np.asarray(xs, dtype=float)
        n = len(self._xs)
        i = np.clip(np.searchsorted(self._xs_arr, xs, side="right") - 1, 0, n - 2)
        u = xs - self._xs_arr[i]
        y = self._ca[i] + u * (self._cb[i] + u * (self._cc[i] + u * self._cd[i]))
        return np.maximum(y, self._min_y)

    def derivative(self, x: float) -> float:
        """First derivative of the spline at ``x`` (continuous everywhere)."""
        i = self._interval(x)
        x0, _a, b, c, d = self._hermite_coeffs(i)
        u = x - x0
        return b + u * (2.0 * c + 3.0 * d * u)

    def derivative_batch(self, xs: np.ndarray) -> np.ndarray:
        """First derivative at an array of abscissae at once."""
        xs = np.asarray(xs, dtype=float)
        n = len(self._xs)
        i = np.clip(np.searchsorted(self._xs_arr, xs, side="right") - 1, 0, n - 2)
        u = xs - self._xs_arr[i]
        return self._cb[i] + u * (2.0 * self._cc[i] + 3.0 * self._cd[i] * u)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self._xs)} points, x in [{self._xs[0]}, {self._xs[-1]}])"


class AkimaSpline(HermiteSpline):
    """Akima cubic spline through a set of (x, y) points.

    With exactly two distinct abscissae the spline degenerates to the
    straight line through them (Akima's slopes reduce to the single
    secant).
    """

    @staticmethod
    def _compute_slopes(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
        """Akima slopes at every knot, with quadratic boundary extension."""
        n = len(xs)
        # Secant slopes m[0..n-2]; extend by two on each side:
        # m[-1] = 2 m[0] - m[1], m[-2] = 2 m[-1] - m[0]  (and mirrored right).
        m = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1)]
        if n == 2:
            return [m[0], m[0]]
        ext = [0.0, 0.0] + m + [0.0, 0.0]
        ext[1] = 2.0 * m[0] - m[1]
        ext[0] = 2.0 * ext[1] - m[0]
        ext[-2] = 2.0 * m[-1] - m[-2]
        ext[-1] = 2.0 * ext[-2] - m[-1]
        slopes: List[float] = []
        for i in range(n):
            # ext index of secant m_{i} is i + 2.
            m_im2 = ext[i]
            m_im1 = ext[i + 1]
            m_i = ext[i + 2]
            m_ip1 = ext[i + 3]
            w1 = abs(m_ip1 - m_i)
            w2 = abs(m_im1 - m_im2)
            if w1 + w2 == 0.0:
                slopes.append(0.5 * (m_im1 + m_i))
            else:
                slopes.append((w1 * m_im1 + w2 * m_i) / (w1 + w2))
        return slopes

    def with_point(self, x: float, y: float) -> "AkimaSpline":
        """Return a new spline with one extra point added."""
        pts = list(zip(self._xs, self._ys))
        pts.append((x, y))
        return AkimaSpline(pts, min_y=self._min_y)
