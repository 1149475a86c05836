"""Base class for computation performance models.

A model accumulates :class:`~repro.core.point.MeasurementPoint` objects (via
:meth:`update`, the paper's ``fupermod_model.update``) and approximates the
*time function* ``t(x)`` of its process (the paper's ``fupermod_model.t``).
The *speed* in computation units per second is derived as ``x / t(x)``, and
in FLOP/s as ``complexity(x) / t(x)``.

Two mechanisms keep the hot paths fast:

* **Lazy rebuilds.**  :meth:`update` and :meth:`update_many` only record
  points and mark the model dirty; the (possibly expensive) fit runs once,
  on the first evaluation after the last ingest (:meth:`time`,
  :meth:`time_batch`, :attr:`is_ready`, or any fitted property).  Bulk
  ingestion of ``n`` points therefore costs one rebuild instead of ``n``.
  A corollary: data that cannot be fitted (e.g. a non-increasing linear
  regression) raises :class:`~repro.errors.ModelError` at the first
  evaluation, not inside ``update``.
* **Batch evaluation.**  :meth:`time_batch` predicts a whole array of
  sizes in one call; subclasses override :meth:`_time_batch_impl` with
  true vectorized kernels (``searchsorted`` + Horner instead of a Python
  ``bisect`` per point).  :meth:`allocation_batch` inverts the time
  function for a batch of time levels -- the inner operation of the
  geometrical partitioning algorithm -- with a vectorized bisection that
  subclasses may replace with closed forms.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.point import MeasurementPoint
from repro.errors import ModelError


class PerformanceModel(abc.ABC):
    """Approximation of a process's execution time as a function of size."""

    def __init__(self) -> None:
        self._points: List[MeasurementPoint] = []
        self._dirty = False
        self._version = 0
        #: ``(version, digest)`` kept by
        #: :func:`repro.serve.fingerprint.fingerprint_model`.
        self._fingerprint_memo: Optional[Tuple[Any, str]] = None

    @property
    def points(self) -> Sequence[MeasurementPoint]:
        """Experimental points the model was built from, in insertion order."""
        return tuple(self._points)

    @property
    def count(self) -> int:
        """Number of experimental points."""
        return len(self._points)

    @property
    def version(self) -> Any:
        """Mutation counter, bumped by every :meth:`update`/:meth:`update_many`.

        Points -- and so the fit -- change only through those two methods,
        so while the counter holds, :meth:`fingerprint_state` does too: the
        serving layer reuses a model's fingerprint until it moves.
        """
        return self._version

    @property
    def is_ready(self) -> bool:
        """Whether the model has enough points to make predictions.

        Resolves a pending lazy rebuild, so a ``True`` answer means
        :meth:`time` will not fail for lack of a fit (it may still raise if
        the accumulated data cannot be fitted at all).
        """
        if self.count < self.min_points:
            return False
        self._ensure_built()
        return True

    #: Minimum number of points before :meth:`time` may be called.
    min_points: int = 1

    @staticmethod
    def _validate_point(point: MeasurementPoint) -> None:
        """Reject a point no fit could use, with a typed error, at ingest.

        :class:`MeasurementPoint` construction already refuses non-finite
        and negative times, but ``update``/``update_many`` accept any
        object with ``d``/``t`` attributes (the closed-loop feedback path
        and tests duck-type them), and ``point.t <= 0.0`` is *False* for
        NaN -- which would otherwise sail through and fail cryptically
        inside the lazy rebuild.  Every model family shares this gate, so
        rejection is uniform: :class:`~repro.errors.ModelError`, here,
        not an interpolator traceback later.
        """
        if not math.isfinite(point.d):
            raise ModelError(f"model points need a finite size, got {point.d}")
        if point.d <= 0:
            raise ModelError(f"model points need positive size, got {point.d}")
        if not math.isfinite(point.t):
            raise ModelError(f"model points need a finite time, got {point.t}")
        if point.t <= 0.0:
            raise ModelError(f"model points need positive time, got {point.t}")

    def update(self, point: MeasurementPoint) -> None:
        """Add an experimental point; the fit is refreshed lazily."""
        self._validate_point(point)
        self._points.append(point)
        self._dirty = True
        self._version += 1

    def update_many(self, points: Sequence[MeasurementPoint]) -> None:
        """Add several points in one go (single deferred rebuild)."""
        for point in points:
            self._validate_point(point)
        self._points.extend(points)
        self._dirty = True
        self._version += 1

    def _ensure_built(self) -> None:
        """Run the deferred :meth:`_rebuild` if new points arrived."""
        if self._dirty:
            self._rebuild()
            self._dirty = False

    @abc.abstractmethod
    def _rebuild(self) -> None:
        """Recompute the internal approximation from :attr:`points`."""

    @abc.abstractmethod
    def time(self, x: float) -> float:
        """Predicted execution time (seconds) at problem size ``x`` units."""

    def time_batch(self, sizes) -> np.ndarray:
        """Predicted times for a whole array of problem sizes at once.

        Semantically identical to ``[self.time(x) for x in sizes]`` but
        vectorized: one call amortises the fit lookup over the batch, and
        subclasses evaluate with numpy kernels.  Negative sizes raise
        :class:`~repro.errors.ModelError`, zero sizes predict ``0.0``.
        """
        self._require_ready()
        xs = np.atleast_1d(np.asarray(sizes, dtype=float))
        if xs.size and float(xs.min()) < 0.0:
            raise ModelError(f"size must be non-negative, got {float(xs.min())}")
        return self._time_batch_impl(xs)

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized prediction kernel; input is validated and 1-D.

        The fallback loops over scalar :meth:`time`; subclasses override
        with true array code.
        """
        return np.fromiter(
            (self.time(float(x)) for x in xs), dtype=float, count=xs.size
        )

    def allocation_batch(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """Sizes at which the time function reaches each of ``levels``.

        The partitioner batching contract: for every time level ``T`` in
        ``levels``, find ``x`` with ``time(x) = T``, clamped to
        ``[0, cap]`` (no process can receive more than the whole problem).
        Non-positive levels map to 0; levels at or above ``time(cap)`` map
        to ``cap``.  ``lo``/``hi`` optionally narrow the search bracket per
        level (partitioners cache the brackets across bisection steps).

        The generic implementation is a vectorized bisection driven by
        :meth:`time_batch`; subclasses with invertible forms (constant,
        linear, piecewise) override it with closed-form inversions.
        """
        self._require_ready()
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        cap = float(cap)
        out = np.zeros(levels.shape)
        if cap <= 0.0:
            return out
        t_cap = self.time(cap)
        at_cap = levels >= t_cap
        out[at_cap] = cap
        open_mask = (levels > 0.0) & ~at_cap
        if not np.any(open_mask):
            return out
        tgt = levels[open_mask]
        blo = np.zeros(tgt.shape) if lo is None else np.clip(
            np.broadcast_to(np.asarray(lo, dtype=float), levels.shape)[open_mask],
            0.0,
            cap,
        ).copy()
        bhi = np.full(tgt.shape, cap) if hi is None else np.clip(
            np.broadcast_to(np.asarray(hi, dtype=float), levels.shape)[open_mask],
            0.0,
            cap,
        ).copy()
        bad = blo > bhi
        if np.any(bad):
            blo[bad] = 0.0
            bhi[bad] = cap
        # Guard cached brackets that drifted off the root.
        t_lo = self._time_batch_impl(blo)
        t_hi = self._time_batch_impl(bhi)
        blo[t_lo > tgt] = 0.0
        bhi[t_hi < tgt] = cap
        width_tol = tol * max(1.0, cap)
        for _ in range(200):
            if float(np.max(bhi - blo)) <= width_tol:
                break
            mid = 0.5 * (blo + bhi)
            below = self._time_batch_impl(mid) < tgt
            blo = np.where(below, mid, blo)
            bhi = np.where(below, bhi, mid)
        out[open_mask] = 0.5 * (blo + bhi)
        return out

    def fingerprint_state(self) -> tuple:
        """Canonical fitted state for content fingerprinting.

        Returns a nested tuple of plain Python values (strings, ints,
        floats) that identifies the *fitted* model semantically: two
        model objects whose fitted parameters coincide must return equal
        state, regardless of object identity or insertion history.  The
        serving layer (:mod:`repro.serve.fingerprint`) hashes this state
        to key plan caches.

        Resolves the lazy fit first, so the state always reflects the
        parameters predictions would actually use.  Subclasses override
        with their fitted parameters (knots, coefficients, segments);
        this fallback identifies the model by family and raw points,
        which is stable but weaker (it distinguishes point sets that fit
        to the same curve).
        """
        self._require_ready()
        return (
            type(self).__name__,
            "points",
            tuple((p.d, p.t, p.reps, p.ci) for p in self._points),
        )

    def speed(self, x: float) -> float:
        """Predicted speed in computation units per second at size ``x``."""
        if x <= 0.0:
            # The speed at zero is defined by continuity; use a tiny size.
            x = 1e-9
        t = self.time(x)
        if t <= 0.0:
            raise ModelError(f"model predicted non-positive time {t} at size {x}")
        return x / t

    def speed_flops(self, x: float, complexity: Callable[[float], float]) -> float:
        """Predicted speed in FLOP/s, given the kernel complexity function."""
        t = self.time(x)
        if t <= 0.0:
            raise ModelError(f"model predicted non-positive time {t} at size {x}")
        return complexity(x) / t

    @property
    def benchmark_cost(self) -> float:
        """Total kernel-seconds spent obtaining this model's points."""
        return sum(p.benchmark_cost for p in self._points)

    @property
    def size_range(self) -> "tuple[float, float]":
        """Smallest and largest measured problem sizes."""
        if not self._points:
            raise ModelError("model has no points yet")
        ds = [p.d for p in self._points]
        return (min(ds), max(ds))

    def _require_ready(self) -> None:
        if not self.is_ready:
            raise ModelError(
                f"{type(self).__name__} needs at least {self.min_points} point(s), "
                f"has {self.count}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.count} points)"
