"""The piecewise-linear functional performance model.

This FPM interpolates the *speed* function (units/second) piecewise-linearly
through the measured points, after :func:`~repro.interp.coarsen_to_fpm_shape`
has clipped the data to the canonical shape of Lastovetsky--Reddy (every ray
from the origin crosses the curve once).  Outside the measured range the
speed is extended as a constant (flat), which preserves the shape property:

* left of the first point: ``s(x) = s(x_min)`` -- the time function tends to
  zero at zero size, as it must;
* right of the last point: ``s(x) = s(x_max)`` -- a conservative prediction
  for sizes never benchmarked.

The derived time function ``t(x) = x / s(x)`` is then strictly increasing,
which is exactly what the geometrical partitioning algorithm requires to
converge.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.errors import ModelError
from repro.interp.coarsening import coarsen_to_fpm_shape
from repro.interp.piecewise_linear import PiecewiseLinear, upper_bound


class PiecewiseModel(PerformanceModel):
    """FPM with coarsened piecewise-linear speed interpolation."""

    min_points = 1

    def __init__(self) -> None:
        super().__init__()
        self._speed_interp: PiecewiseLinear | None = None
        self._x_min: float = 0.0
        self._x_max: float = 0.0
        self._knots: Optional[tuple] = None

    def _rebuild(self) -> None:
        speed_points: List[Tuple[float, float]] = [
            (float(p.d), p.d / p.t) for p in self._points
        ]
        coarsened = coarsen_to_fpm_shape(speed_points)
        self._speed_interp = PiecewiseLinear(coarsened, min_y=1e-12)
        self._x_min = coarsened[0][0]
        self._x_max = coarsened[-1][0]
        self._knots = None  # level_knots() cache, filled on demand

    @property
    def coarsened_speed_points(self) -> "tuple[Tuple[float, float], ...]":
        """The (size, speed) knots after coarsening (for plots like Fig. 2a)."""
        self._require_ready()
        assert self._speed_interp is not None
        return tuple(zip(self._speed_interp.xs, self._speed_interp.ys))

    def fingerprint_state(self) -> tuple:
        """Fitted state is the coarsened (size, speed) knot sequence.

        Points that coarsen to the same knots (e.g. re-measurements of an
        already-converged dynamic loop on a noise-free device) fingerprint
        identically, which is what lets the plan cache serve them.
        """
        self._require_ready()
        assert self._speed_interp is not None
        return (
            "PiecewiseModel",
            "knots",
            tuple(self._speed_interp.xs),
            tuple(self._speed_interp.ys),
        )

    def speed(self, x: float) -> float:
        self._require_ready()
        assert self._speed_interp is not None
        # Flat extension outside the measured range keeps the FPM shape.
        x_eval = min(max(x, self._x_min), self._x_max)
        return max(self._speed_interp(x_eval), 1e-12)

    def time(self, x: float) -> float:
        self._require_ready()
        if x < 0.0:
            raise ModelError(f"size must be non-negative, got {x}")
        if x == 0.0:
            return 0.0
        return x / self.speed(x)

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        assert self._speed_interp is not None
        x_eval = np.clip(xs, self._x_min, self._x_max)
        speeds = np.maximum(self._speed_interp.evaluate_batch(x_eval), 1e-12)
        return np.where(xs == 0.0, 0.0, xs / speeds)

    def level_knots(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, float, float]":
        """``(knot_xs, knot_speeds, raw_ys, x_min, x_max)`` for a :class:`LevelTable`.

        ``knot_speeds`` are the interpolated speeds clamped at ``1e-12``
        (what :meth:`speed` returns at the knots); ``raw_ys`` are the
        interpolant's own ordinates.  Cached until the next refit.
        """
        self._require_ready()
        assert self._speed_interp is not None
        if self._knots is None:
            xk = np.asarray(self._speed_interp.xs, dtype=float)
            ys = np.asarray(self._speed_interp.ys, dtype=float)
            self._knots = (xk, np.maximum(ys, 1e-12), ys, self._x_min, self._x_max)
        return self._knots

    def allocation_batch(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """Closed-form inversion: the one-row call of :class:`LevelTable`."""
        return LevelTable([self.level_knots()]).allocations(levels, cap)[0]


class LevelTable:
    """Piecewise-linear speed functions of several models, stacked.

    Row ``i`` holds model ``i``'s speed knots, padded to the widest row,
    so one numpy call evaluates or inverts every row at once, bit for bit
    as the row's own model would:

    * :meth:`times` is :meth:`PiecewiseModel.time` (and ``time_batch``);
    * :meth:`allocations` is :meth:`PiecewiseModel.allocation_batch`.

    A one-knot row is a constant speed, which is how
    :class:`~repro.core.models.constant.ConstantModel` stacks.

    The inversion is closed-form: the speed is linear on each knot
    interval, so ``t(x) = T`` solves to ``x = T (s_k - m_k x_k) /
    (1 - T m_k)`` within the interval.  The FPM shape restriction makes
    the knot times strictly increasing, so a level's interval is the
    number of knot times at or below it: 0 left of the first knot, ``n``
    right of the last.  Those two are the constant-speed extensions,
    stored as intervals of slope 0 with open bounds, where the same
    closed form gives ``x = T s / 1.0 = T s``.  Intervals are monotone
    in ``T``, so a caller that knows the intervals of two levels
    bracketing the ones it asks for (the geometrical bisection does)
    spares every row whose interval those two pin the search.
    """

    def __init__(
        self, knots: "Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, float, float]]"
    ) -> None:
        """Stack ``level_knots()`` tuples, one per row."""
        p = len(knots)
        n = np.fromiter((k[0].size for k in knots), dtype=np.intp, count=p)
        # One padding column at least, so every row has an interval slot.
        width = int(n.max()) + 1
        rows = np.repeat(np.arange(p), n)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(n) - n, n)

        def padded(field: int, fill: float) -> np.ndarray:
            out = np.full((p, width), fill)
            out[rows, cols] = np.concatenate([k[field] for k in knots])
            return out

        xk = padded(0, np.inf)
        sk = padded(1, 1.0)
        ys = padded(2, 0.0)
        # Column k of the coefficient table is interval k: the knot
        # interval from knot k - 1 to knot k inside the knots, an
        # extension at the end speed outside them.
        xl = np.concatenate([xk[:, :1], xk[:, :-1]], axis=1)
        sl = np.concatenate([sk[:, :1], sk[:, :-1]], axis=1)
        with np.errstate(invalid="ignore"):
            dx = xk - xl
            mk = (sk - sl) / dx
            bk = sl - mk * xl
            self.slopes = (ys[:, 1:] - ys[:, :-1]) / dx[:, 1:]
        self.n = n
        self.xk, self.sk, self.ys = xk, sk, ys
        self.tk = xk / sk  # padding stays +inf
        self.x_min = np.fromiter((k[3] for k in knots), dtype=float, count=p)
        self.x_max = np.fromiter((k[4] for k in knots), dtype=float, count=p)
        k = np.arange(width)
        inner = (k >= 1) & (k < n[:, None])
        ends = np.where(k == 0, sk[:, :1], sk[np.arange(p), n - 1][:, None])
        self._mk = np.where(inner, mk, 0.0)
        self._bk = np.where(inner, bk, ends)
        self._x_left = np.where(inner, xl, -np.inf)
        self._x_right = np.where(inner, xk, np.inf)
        self._base = (np.arange(p) * width)[:, None]

    def allocations(self, levels, cap: float) -> np.ndarray:
        """Every row's size at every time level, clamped to ``[0, cap]``.

        Returns a ``(rows, len(levels))`` array.
        """
        return self._bracketed(levels, cap)[0]

    def _bracketed(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`allocations` and the interval of every (row, level).

        ``lo``/``hi`` (``(rows,)`` integers, either may be ``None``) are
        intervals known to bound every level's, such as those of two
        levels bracketing all of ``levels``.  A row whose bounds are
        equal is pinned to that interval and not searched; only the rows
        left open search their knot times, and with no bounds every row
        does.  The intervals come back as a ``(rows, len(levels))`` array.
        """
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if lo is None and hi is None:
            k = upper_bound(self.tk, levels)
        else:
            lo = np.zeros_like(self.n) if lo is None else lo
            k = np.repeat(lo[:, None], levels.size, axis=1)
            open_rows = np.flatnonzero((self.n if hi is None else hi) - lo)
            if open_rows.size:
                k[open_rows] = upper_bound(self.tk[open_rows], levels)
        at = k + self._base
        x_right = self._x_right.take(at)
        denom = 1.0 - levels * self._mk.take(at)
        # t strictly increasing on the interval => denominator > 0 at the
        # root; guard float dust by falling back to the right knot.
        ok = denom > 1e-300
        x = np.where(ok, levels * self._bk.take(at) / np.where(ok, denom, 1.0), x_right)
        x = np.clip(np.clip(x, self._x_left.take(at), x_right), 0.0, float(cap))
        return x, k

    def times(self, sizes) -> np.ndarray:
        """Every row's time at its own size(s): ``sizes`` is ``(rows,)`` or ``(rows, m)``."""
        xs = np.asarray(sizes, dtype=float)
        xs2 = xs.reshape(xs.shape[0], -1)
        x_eval = np.clip(xs2, self.x_min[:, None], self.x_max[:, None])
        i = np.clip(upper_bound(self.xk, x_eval) - 1, 0,
                    np.maximum(self.n - 2, 0)[:, None])
        r = np.arange(xs2.shape[0])[:, None]
        y = self.ys[r, i] + self.slopes[r, i] * (x_eval - self.xk[r, i])
        speeds = np.where(self.n[:, None] > 1, np.maximum(y, 1e-12), self.sk[:, :1])
        return np.where(xs2 == 0.0, 0.0, xs2 / speeds).reshape(xs.shape)
