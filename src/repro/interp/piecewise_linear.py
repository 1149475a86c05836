"""Piecewise-linear interpolation of scalar functions.

This is the interpolation used by the piecewise FPM of the paper: the time
function of a device is approximated by straight segments between measured
points, with linear extrapolation beyond the last point (the paper's models
must predict times for problem sizes larger than any benchmarked size when a
partitioning algorithm probes them).

Per-segment slopes are precomputed at construction, so scalar evaluation is
a bisect plus one multiply-add, and :meth:`evaluate_batch` evaluates a whole
array of abscissae with one ``searchsorted`` -- the vectorized fast path the
partitioners run on.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import InterpolationError
from repro.interp._points import prepare_points


class PiecewiseLinear:
    """Piecewise-linear interpolant through a set of (x, y) points.

    Points are sorted by ``x`` on construction; duplicate ``x`` values are
    merged by averaging their ``y`` values (repeated benchmarks of the same
    problem size refine rather than contradict the model).  Already-sorted
    duplicate-free input skips the merge/sort pass.

    Behaviour outside the data range:

    * left of the first point: linear continuation of the first segment,
      clamped below at ``min_y`` (times must stay positive);
    * right of the last point: linear continuation of the last segment,
      clamped likewise.

    With a single point the function is constant.
    """

    def __init__(
        self,
        points: Iterable[Tuple[float, float]],
        min_y: float = 1e-12,
    ) -> None:
        xs, ys = prepare_points(points)
        if not xs:
            raise InterpolationError("PiecewiseLinear requires at least one point")
        self._xs = xs
        self._ys = ys
        self._min_y = float(min_y)
        self._xs_arr = np.asarray(xs, dtype=float)
        self._ys_arr = np.asarray(ys, dtype=float)
        if len(xs) > 1:
            self._slopes_arr = np.diff(self._ys_arr) / np.diff(self._xs_arr)
        else:
            self._slopes_arr = np.zeros(0)

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

    def __call__(self, x: float) -> float:
        """Evaluate the interpolant at ``x``."""
        if len(self._xs) == 1:
            return max(self._ys[0], self._min_y)
        i = self._interval(x)
        y = self._ys[i] + float(self._slopes_arr[i]) * (x - self._xs[i])
        return max(y, self._min_y)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the interpolant at an array of abscissae at once.

        Bit-identical to calling the interpolant point by point: interval
        lookup uses the same right-bisection rule and the same precomputed
        slopes.
        """
        xs = np.asarray(xs, dtype=float)
        n = len(self._xs)
        if n == 1:
            return np.full(xs.shape, max(self._ys[0], self._min_y))
        i = np.clip(np.searchsorted(self._xs_arr, xs, side="right") - 1, 0, n - 2)
        y = self._ys_arr[i] + self._slopes_arr[i] * (xs - self._xs_arr[i])
        return np.maximum(y, self._min_y)

    def derivative(self, x: float) -> float:
        """Slope of the active segment at ``x`` (right-continuous at knots)."""
        if len(self._xs) == 1:
            return 0.0
        return float(self._slopes_arr[self._interval(x)])

    def with_point(self, x: float, y: float) -> "PiecewiseLinear":
        """Return a new interpolant with one extra point added."""
        pts = list(zip(self._xs, self._ys))
        pts.append((x, y))
        return PiecewiseLinear(pts, min_y=self._min_y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PiecewiseLinear({len(self._xs)} points, x in [{self._xs[0]}, {self._xs[-1]}])"


def upper_bound(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(row, v, side="right")`` for every row of a table.

    ``table`` has shape ``(..., n)`` and is non-decreasing along its last
    axis (pad short rows with ``+inf``); ``values`` has shape ``(..., m)``
    and broadcasts against the leading axes.  Returns, per row and value,
    how many entries are ``<= v``, as an ``(..., m)`` integer array.

    A branch-free binary search: ``log2(n)`` gathers over the values, so
    memory stays at the size of the answer instead of the
    ``(..., m, n)`` comparison a broadcast would build.  The first probe
    decides between the leading and the trailing power-of-two window,
    so every later probe is in range.
    """
    n = table.shape[-1]
    flat = table.reshape(-1)
    # Flat index of each row's entry -1; row r's entry c is base[r] + c + 1.
    base = (np.arange(flat.size // n) * n - 1).reshape(table.shape[:-1] + (1,))
    step = 1 << (n.bit_length() - 1)
    count = np.where(flat[base + step] <= values, n - step + 1, 0)
    step >>= 1
    while step:
        cand = count + step
        count = np.where(flat[base + cand] <= values, cand, count)
        step >>= 1
    return count
