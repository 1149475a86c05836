"""The constant performance model (CPM).

Speed is assumed independent of problem size.  A single experimental point
defines the model; further points refine the constant adaptively (as in the
history-based CPM of ref. [17] of the paper) by pooling all observed work
and time: ``s = sum(d_i) / sum(t_i)``, which weights each point by the time
actually spent measuring it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.errors import ModelError


class ConstantModel(PerformanceModel):
    """CPM: ``t(x) = x / s`` with a constant speed ``s`` in units/second."""

    min_points = 1

    def __init__(self) -> None:
        super().__init__()
        self._speed: float = 0.0

    def _rebuild(self) -> None:
        total_work = sum(p.d for p in self._points)
        total_time = sum(p.t for p in self._points)
        if total_time <= 0.0:
            raise ModelError("cannot build a CPM from zero total time")
        self._speed = total_work / total_time

    @property
    def constant_speed(self) -> float:
        """The constant speed in computation units per second."""
        self._require_ready()
        return self._speed

    def time(self, x: float) -> float:
        self._require_ready()
        if x < 0.0:
            raise ModelError(f"size must be non-negative, got {x}")
        return x / self._speed

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        return xs / self._speed

    def allocation_batch(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
        tol: float = 1e-9,
    ) -> np.ndarray:
        # Closed form: t(x) = x / s  =>  x = T s, clamped to [0, cap].
        self._require_ready()
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        return np.clip(levels * self._speed, 0.0, float(cap))

    def speed(self, x: float) -> float:
        self._require_ready()
        return self._speed

    def level_knots(self) -> tuple:
        """One knot at the constant speed: a one-row piecewise ``LevelTable``."""
        self._require_ready()
        speed = np.asarray([self._speed])
        return (np.ones(1), speed, speed, 1.0, 1.0)

    def fingerprint_state(self) -> tuple:
        """Fitted state is the single pooled speed constant."""
        self._require_ready()
        return ("ConstantModel", "speed", self._speed)
