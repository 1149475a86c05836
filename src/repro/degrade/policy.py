"""The fallback ladder: degrade instead of failing, and say so.

:class:`DegradationPolicy` encodes the two degradation chains of the
graceful runtime:

* **models** -- Akima -> PCHIP -> piecewise (coarsened) -> constant.
  Each rung is strictly easier to fit than the one above it: Akima and
  PCHIP need two distinct sizes and smooth data, the piecewise FPM
  coarsens away shape violations, and the constant model fits any single
  valid point.
* **partitioners** -- geometric -> numerical -> basic.  The geometric
  bisection needs (close to) strictly increasing time functions, the
  numerical solver tolerates any smooth shape, and the basic algorithm
  is closed-form and cannot fail to converge.  If every rung fails, the
  even split is the floor: a valid full partition always comes back.

Every descent is recorded in a :class:`~repro.degrade.DegradationReport`
with its triggering error.  In ``strict`` mode no ladder is walked: the
first failure propagates as its typed error.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.degrade.report import DegradationReport
from repro.degrade.watchdog import Deadline
from repro.errors import (
    DeadlineExceeded,
    InterpolationError,
    ModelError,
    PartitionError,
    SolverError,
)

if TYPE_CHECKING:
    from repro.core.partition.cert import ConvergenceCert
    from repro.core.partition.dist import Distribution
    from repro.core.partition.dynamic import PartitionFunction
    from repro.core.point import MeasurementPoint

#: Model chain, hardest-to-fit first (see module docstring).
DEFAULT_MODEL_LADDER: Tuple[str, ...] = ("akima", "pchip", "piecewise", "constant")

#: Partitioner chain, most accurate first (see module docstring).
DEFAULT_PARTITIONER_LADDER: Tuple[str, ...] = ("geometric", "numerical", "basic")

#: Failures that trigger a descent (anything else is a bug and propagates).
_FALLBACK_TRIGGERS = (
    ModelError,
    InterpolationError,
    SolverError,
    PartitionError,  # includes ConvergenceError
    DeadlineExceeded,
)


@functools.lru_cache(maxsize=64)
def _parameter_names(fn: Callable) -> frozenset:
    """The keyword names a partitioner accepts, read once per function.

    ``inspect.signature`` costs tens of microseconds, a visible share of
    a small solve; the ladder asks on every attempt.
    """
    try:
        return frozenset(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return frozenset()


class DegradationPolicy:
    """Walks the model and partitioner ladders on failure.

    Args:
        model_ladder: model names (registry keys) to try in order.
        partitioner_ladder: partitioner names to try in order.
        strict: do not degrade -- re-raise the first typed failure.
        fit_budget: optional per-fit deadline in seconds.
        partition_budget: optional per-partitioner-attempt deadline in
            seconds.
        clock: time source for the deadlines (``time.monotonic`` by
            default; ``None`` selects virtual-time deadlines, which only
            expire when instrumented code consumes them).
        report: the :class:`~repro.degrade.DegradationReport` to append
            to (a fresh one is created when omitted).
        resilience: optional :class:`~repro.faults.ResilienceReport`;
            fallbacks and certificates are mirrored there so one report
            covers crashes, hangs and degradations alike.
        max_iter: optional iteration-cap override forwarded to
            partitioners that accept one (useful to tighten caps when a
            deadline is also in force).
        require_monotone: reject a fitted model whose time function
            *decreases* over the measured sizes (the paper's FPM shape
            restriction).  An exact interpolant (Akima) violates it on
            noisy or adversarial data; the monotone rungs (PCHIP via
            isotonic projection, coarsened piecewise, constant) cannot --
            which is precisely what makes them fallbacks.
    """

    def __init__(
        self,
        model_ladder: Sequence[str] = DEFAULT_MODEL_LADDER,
        partitioner_ladder: Sequence[str] = DEFAULT_PARTITIONER_LADDER,
        strict: bool = False,
        fit_budget: Optional[float] = None,
        partition_budget: Optional[float] = None,
        clock: Optional[Callable[[], float]] = time.monotonic,
        report: Optional[DegradationReport] = None,
        resilience=None,
        max_iter: Optional[int] = None,
        require_monotone: bool = True,
    ) -> None:
        if not model_ladder:
            raise PartitionError("model ladder must name at least one model")
        if not partitioner_ladder:
            raise PartitionError(
                "partitioner ladder must name at least one partitioner"
            )
        self.model_ladder = tuple(model_ladder)
        self.partitioner_ladder = tuple(partitioner_ladder)
        self.strict = strict
        self.fit_budget = fit_budget
        self.partition_budget = partition_budget
        self.clock = clock
        self.report = report if report is not None else DegradationReport()
        self.resilience = resilience
        self.max_iter = max_iter
        self.require_monotone = require_monotone

    # -- model ladder -----------------------------------------------------

    def _probe_fit(self, name: str, points: Sequence[MeasurementPoint],
                   rank: int):
        """Build, fit and evaluate one candidate model; raise on failure."""
        from repro.core.registry import model_factory

        deadline = (
            Deadline(self.fit_budget, stage=f"model-fit:{name}", rank=rank,
                     clock=self.clock)
            if self.fit_budget is not None else None
        )
        model = model_factory(name)()
        model.update_many(points)
        # Fits are lazy: is_ready forces the fit, and one evaluation at the
        # largest measured size proves the fitted curve is usable.
        if not model.is_ready:
            raise ModelError(
                f"model {name!r} not ready with {len(points)} point(s)"
            )
        probe = max(p.d for p in points)
        value = model.time(probe)
        if not value > 0.0:
            raise ModelError(
                f"model {name!r} predicts non-positive time {value!r} at "
                f"size {probe}"
            )
        if self.require_monotone:
            # The FPM shape restriction: execution time must not decrease
            # with problem size over the measured range.  Probe at the
            # measured sizes plus midpoints so interior wiggles of an
            # exact interpolant are caught too.
            xs = sorted({float(p.d) for p in points})
            grid: List[float] = []
            for a, b in zip(xs, xs[1:]):
                grid.extend((a, 0.5 * (a + b)))
            grid.append(xs[-1])
            times = [model.time(x) for x in grid]
            for (xa, ta), (xb, tb) in zip(zip(grid, times),
                                          zip(grid[1:], times[1:])):
                if tb < ta * (1.0 - 1e-9):
                    raise ModelError(
                        f"model {name!r} violates the FPM shape restriction: "
                        f"predicted time falls from {ta:.3g}s at size {xa:g} "
                        f"to {tb:.3g}s at size {xb:g}"
                    )
        if deadline is not None:
            deadline.check(partial=model)
        return model

    def fit_model(self, points: Sequence[MeasurementPoint], rank: int = -1,
                  primary: Optional[str] = None):
        """Fit the best model the ladder allows for one rank's points.

        Args:
            points: the rank's measured points.
            rank: for report attribution.
            primary: preferred model name; it is tried first and the
                ladder (minus duplicates) follows.

        Returns:
            A fitted, evaluable performance model.

        Raises:
            ModelError: in strict mode, the first rung's failure; in
                degrade mode, only when every rung fails (e.g. no valid
                points at all).
        """
        if not points:
            raise ModelError(
                f"no measured points for rank {rank}; nothing any model "
                "could fit"
            )
        ladder = list(self.model_ladder)
        if primary is not None:
            ladder = [primary] + [n for n in ladder if n != primary]
        last_error: Optional[Exception] = None
        for i, name in enumerate(ladder):
            try:
                model = self._probe_fit(name, points, rank)
            except _FALLBACK_TRIGGERS as exc:
                if self.strict:
                    raise
                last_error = exc
                fallback = ladder[i + 1] if i + 1 < len(ladder) else ""
                self.report.record("model-fit", rank, name, fallback, exc)
                if self.resilience is not None:
                    self.resilience.record(
                        "ModelFallback", rank,
                        f"{name} -> {fallback or '<none>'}: {exc}",
                    )
                continue
            return model
        raise ModelError(
            f"every model on the ladder {ladder} failed for rank {rank}; "
            f"last error: {last_error}"
        )

    # -- partitioner ladder ----------------------------------------------

    def _call_partitioner(self, name: str, total: int, models: Sequence,
                          certs: List[ConvergenceCert]) -> Distribution:
        """One partitioner attempt under strict convergence + deadline."""
        from repro.core.registry import partitioner

        fn = partitioner(name)
        kwargs = {}
        params = _parameter_names(fn)
        if "strict" in params:
            # Always strict internally: cap exhaustion must surface as
            # ConvergenceError so the ladder can react to it.
            kwargs["strict"] = True
        if "certs" in params:
            kwargs["certs"] = certs
        if self.max_iter is not None and "max_iter" in params:
            kwargs["max_iter"] = self.max_iter
        deadline = (
            Deadline(self.partition_budget, stage=f"partition:{name}",
                     clock=self.clock)
            if self.partition_budget is not None else None
        )
        dist = fn(total, models, **kwargs)
        if deadline is not None:
            deadline.check(partial=dist)
        return dist

    def partition(self, total: int, models: Sequence) -> Distribution:
        """Produce a valid full partition, degrading as needed.

        Walks the partitioner ladder; if every rung fails, falls to the
        even split -- so given a well-formed request (finite non-negative
        integral ``total``, at least one model) a distribution summing to
        ``total`` always comes back.  Certificates from every attempt
        land in ``report.certs``.

        Raises:
            PartitionError: on a malformed request (these are caller
                bugs, not platform conditions to degrade around), or, in
                strict mode, the first rung's typed failure.
        """
        from repro.core.partition.cert import ConvergenceCert
        from repro.core.partition.dist import Distribution
        from repro.core.partition.validate import validate_total

        total = validate_total(total)
        if not models:
            raise PartitionError(
                "cannot partition: the model list is empty; the ladder has "
                "no floor without at least one rank"
            )
        certs: List[ConvergenceCert] = []
        ladder = list(self.partitioner_ladder)
        last_error: Optional[Exception] = None
        dist: Optional[Distribution] = None
        for i, name in enumerate(ladder):
            before = len(certs)
            try:
                dist = self._call_partitioner(name, total, models, certs)
            except _FALLBACK_TRIGGERS as exc:
                if self.strict:
                    raise
                last_error = exc
                cert = getattr(exc, "cert", None)
                if cert is not None and len(certs) == before:
                    certs.append(cert)
                fallback = ladder[i + 1] if i + 1 < len(ladder) else "even"
                self.report.record("partition", -1, name, fallback, exc)
                if self.resilience is not None:
                    self.resilience.record(
                        "PartitionFallback", -1,
                        f"{name} -> {fallback}: {exc}",
                    )
                continue
            break
        for cert in certs:
            self.report.record_cert(cert)
            if self.resilience is not None and hasattr(self.resilience,
                                                       "record_cert"):
                self.resilience.record_cert(cert, context="degrade")
        if dist is None:
            # The floor: a valid, even full partition.
            dist = Distribution.even(total, len(models))
            dist.convergence = ConvergenceCert(
                "even", True, 0, 0, 0.0, 0.0,
                f"floor after ladder exhaustion; last error: {last_error}",
            )
            self.report.record_cert(dist.convergence)
        return dist

    def partition_function(self) -> PartitionFunction:
        """This policy as a ``(total, models) -> Distribution`` callable.

        Drop-in for :class:`~repro.core.partition.DynamicPartitioner`,
        :class:`~repro.core.partition.LoadBalancer` and the apps.
        """
        return lambda total, models: self.partition(total, models)

    def wrap(self, fn: PartitionFunction) -> PartitionFunction:
        """Guard an existing partition function with this ladder.

        The wrapped callable tries ``fn`` first; any typed failure is
        recorded and the policy's own ladder takes over.  In strict mode
        the failure propagates instead.
        """

        def guarded(total: int, models: Sequence) -> Distribution:
            try:
                return fn(total, models)
            except _FALLBACK_TRIGGERS as exc:
                if self.strict:
                    raise
                name = getattr(fn, "__name__", repr(fn))
                self.report.record("partition", -1, name,
                                   self.partitioner_ladder[0], exc)
                if self.resilience is not None:
                    self.resilience.record(
                        "PartitionFallback", -1,
                        f"{name} -> ladder: {exc}",
                    )
                return self.partition(total, models)

        return guarded
