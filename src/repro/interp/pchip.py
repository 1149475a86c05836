"""PCHIP monotone cubic interpolation, implemented from scratch.

Reference: F. N. Fritsch, R. E. Carlson, *Monotone Piecewise Cubic
Interpolation*, SIAM J. Numer. Anal. 17(2), 1980.

Why a third interpolation scheme next to piecewise-linear and Akima: the
geometrical partitioning algorithm needs *strictly increasing* time
functions.  The piecewise FPM gets there by coarsening the data (losing
accuracy); the Akima FPM is accurate but can overshoot into local
non-monotonicity between knots.  PCHIP is the best of both for monotone
data: it interpolates with C1 cubics and *provably preserves the
monotonicity of the data* -- if the measured times increase with problem
size, so does the interpolant, everywhere.

Construction (Fritsch--Carlson):

* interior knot slopes are the weighted harmonic mean of the adjacent
  secants when they share a sign, and zero otherwise (a local extremum of
  the data stays an extremum of the interpolant);
* endpoint slopes use the one-sided three-point formula, clipped to keep
  the boundary interval shape-preserving.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.interp.akima import HermiteSpline


class PchipSpline(HermiteSpline):
    """Monotonicity-preserving cubic interpolant through (x, y) points.

    Construction, clamping and evaluation are those of
    :class:`~repro.interp.akima.HermiteSpline`; only the knot slopes
    (Fritsch--Carlson) are PCHIP's own.
    """

    @staticmethod
    def _compute_slopes(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
        n = len(xs)
        h = [xs[i + 1] - xs[i] for i in range(n - 1)]
        m = [(ys[i + 1] - ys[i]) / h[i] for i in range(n - 1)]
        if n == 2:
            return [m[0], m[0]]
        slopes: List[float] = [0.0] * n
        # Interior knots: Fritsch-Carlson weighted harmonic mean.
        for i in range(1, n - 1):
            if m[i - 1] * m[i] <= 0.0:
                slopes[i] = 0.0
            else:
                w1 = 2.0 * h[i] + h[i - 1]
                w2 = h[i] + 2.0 * h[i - 1]
                slopes[i] = (w1 + w2) / (w1 / m[i - 1] + w2 / m[i])
        # Endpoints: one-sided three-point formula, shape-clipped.
        slopes[0] = PchipSpline._endpoint_slope(h[0], h[1], m[0], m[1])
        slopes[-1] = PchipSpline._endpoint_slope(h[-1], h[-2], m[-1], m[-2])
        return slopes

    @staticmethod
    def _endpoint_slope(h0: float, h1: float, m0: float, m1: float) -> float:
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if d * m0 <= 0.0:
            return 0.0
        if m0 * m1 < 0.0 and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d
