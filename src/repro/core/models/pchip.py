"""The PCHIP functional performance model.

Interpolates the time function with the monotonicity-preserving cubic of
Fritsch--Carlson (see :mod:`repro.interp.pchip`).  With the origin anchored
at ``(0, 0)`` and measured times that grow with problem size -- the normal
case on real hardware -- the interpolated time function is non-decreasing
*everywhere*, so it is directly usable by the geometrical partitioning
algorithm without the accuracy loss of coarsening, and by the numerical
algorithm through its continuous derivative.

When the measured data itself is non-monotone (timing noise at nearby
sizes), the model first projects the times onto the closest non-decreasing
sequence by weighted isotonic regression (:mod:`repro.interp.isotonic`,
weights = repetition counts), so the interpolated time function is
non-decreasing regardless of the noise.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.models.akima import HermiteModel
from repro.interp.isotonic import isotonic_increasing
from repro.interp.pchip import PchipSpline


class PchipModel(HermiteModel):
    """FPM with monotone (PCHIP) interpolation of the time function."""

    _spline_class = PchipSpline
    _tag = "PchipModel"

    def _knots(self) -> List[Tuple[float, float]]:
        # Merge duplicate sizes by (rep-weighted) average, sort by size.
        by_size: dict = {}
        for p in self._points:
            t_sum, w_sum = by_size.get(float(p.d), (0.0, 0.0))
            by_size[float(p.d)] = (t_sum + p.t * p.reps, w_sum + p.reps)
        xs = sorted(by_size)
        ts = [by_size[x][0] / by_size[x][1] for x in xs]
        ws = [by_size[x][1] for x in xs]
        # Project onto a non-decreasing time sequence (noise removal).
        ts = isotonic_increasing(ts, ws)
        pts = list(zip(xs, ts))
        if self.include_origin:
            pts.append((0.0, 0.0))
            # The anchor must not exceed the first fitted time.
            pts = [(x, max(t, 0.0)) for x, t in pts]
        return pts
