"""The geometrical partitioning algorithm (Lastovetsky--Reddy, ref. [10]).

Optimal partitioning balances execution times: ``t_1(x_1) = ... = t_p(x_p)``
with ``x_1 + ... + x_p = D``.  Geometrically, the optimum is found by
bisecting the space of *lines through the origin* of the (size, speed)
plane: the line of slope ``k`` intersects processor ``i``'s speed curve at
the unique size ``x_i`` where ``s_i(x_i) = k x_i`` -- which is exactly where
the execution time ``t_i(x_i) = x_i / s_i(x_i)`` equals ``1/k``.  The
algorithm therefore bisects on the common time level ``T = 1/k``:

1. bracket ``T`` between 0 (all allocations zero) and the time the *fastest
   possible* single process would need for all of ``D``;
2. at each step, invert every (strictly increasing) time function at ``T``
   to get the allocations ``x_i(T)``;
3. narrow the bracket until ``sum x_i(T) = D``.

Convergence is guaranteed by the FPM shape restrictions, which the
piecewise model enforces by coarsening: each time function is strictly
increasing, so each ``x_i(T)`` is monotone in ``T``.

The hot path is batched.  Each step probes ``probes`` interior levels at
once (multi-section: the bracket shrinks by ``probes + 1`` per step instead
of 2), and one :class:`~repro.core.partition.batch.ModelBank` call inverts
every device at every probed level: closed-form rows in one stacked numpy
evaluation, any other model through its own
:meth:`~repro.core.models.base.PerformanceModel.allocation_batch`.  The
allocations found at the bracketing levels are carried to the next step:
by monotonicity of ``x_i(T)`` they bound every interior allocation, so a
model that searches starts from an already tight bracket instead of
``[0, D]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.core.partition.batch import ModelBank
from repro.core.partition.cert import ConvergenceCert, certify
from repro.core.partition.dist import Distribution, Part, round_preserving_sum
from repro.core.partition.validate import validate_partition_inputs
from repro.core.partition.warm import WarmStart, warm_bracket
from repro.errors import PartitionError


@dataclass(frozen=True)
class BisectionStep:
    """One probed level of the geometrical algorithm.

    In the paper's picture (Fig. 3) each step is a *line through the
    origin* of the (size, speed) plane; its slope is ``1 / level`` because
    the ray of slope ``k`` crosses a speed curve where the execution time
    is ``1/k``.

    Attributes:
        level: the probed common execution time ``T`` (seconds).
        slope: the corresponding line slope in speed space (``1 / T``).
        allocations: continuous per-process sizes at this level.
        excess: ``sum(allocations) - total`` -- the bisection residual.
    """

    level: float
    slope: float
    allocations: List[float]
    excess: float


def partition_geometric(
    total: int,
    models: Sequence[PerformanceModel],
    tol: float = 1e-10,
    max_iter: int = 200,
    trace: Optional[List[BisectionStep]] = None,
    probes: int = 8,
    strict: bool = False,
    certs: Optional[List[ConvergenceCert]] = None,
    warm_start: Optional[WarmStart] = None,
) -> Distribution:
    """Partition ``total`` units by bisection on the equal-time level.

    Args:
        total: the problem size ``D`` in computation units.
        models: one performance model per process; their time functions
            should be (close to) strictly increasing.  The piecewise FPM
            guarantees this by coarsening.  A
            :class:`~repro.core.partition.batch.ModelBank` over them is
            solved on as it is, stacked and checked once for all the
            solves it serves.
        tol: relative tolerance on the bisection bracket.
        max_iter: maximum bisection steps.
        trace: optional list; when given, every probed level is appended as
            a :class:`BisectionStep` (the "lines" of the paper's Fig. 3).
        probes: interior levels probed per step; each step shrinks the
            bracket by ``probes + 1``.
        strict: raise :class:`~repro.errors.ConvergenceError` when the
            bisection exhausts ``max_iter`` without closing the bracket.
            With ``strict=False`` (default) the midpoint partition is still
            returned, annotated with a non-converged cert, and a
            :class:`~repro.errors.ConvergenceWarning` is emitted.
        certs: optional sink; the run's :class:`ConvergenceCert` is
            appended to it (and always attached to the returned
            distribution as ``.convergence``).
        warm_start: optional :class:`~repro.core.partition.warm.WarmStart`
            from a previously solved nearby plan.  Used only to narrow
            the *initial* bracket (the stopping criterion and rounding
            are untouched), so the result is identical to a cold solve
            with fewer -- never more -- bisection iterations.  A
            misleading hint is discarded, not trusted.

    Returns:
        A :class:`Distribution` summing exactly to ``total``.
    """
    bank = ModelBank.of(models)
    total = validate_partition_inputs(total, models, bank)
    return solve_geometric(
        total, bank, tol=tol, max_iter=max_iter, trace=trace, probes=probes,
        strict=strict, certs=certs, warm_start=warm_start,
    )


def solve_geometric(
    total: int,
    bank: ModelBank,
    tol: float = 1e-10,
    max_iter: int = 200,
    trace: Optional[List[BisectionStep]] = None,
    probes: int = 8,
    strict: bool = False,
    certs: Optional[List[ConvergenceCert]] = None,
    warm_start: Optional[WarmStart] = None,
) -> Distribution:
    """:func:`partition_geometric` on a bank of already validated models.

    For callers that evaluate the same models again after the solve
    (the Pareto sweep), so the models are validated and stacked once.
    """
    if probes < 1:
        raise PartitionError(f"probes must be >= 1, got {probes}")
    size = bank.size
    if total == 0:
        return certify(
            Distribution(Part(0, 0.0) for _ in range(size)),
            ConvergenceCert("geometric", True, 0, max_iter, 0.0, tol,
                            "trivial: total is 0"),
            strict, certs,
        )
    at_total = bank.times(np.full(size, float(total)))
    if size == 1:
        return certify(
            Distribution([Part(total, float(at_total[0]))]),
            ConvergenceCert("geometric", True, 0, max_iter, 0.0, tol,
                            "trivial: single process"),
            strict, certs,
        )

    # Upper bracket: the time level at which allocations certainly cover D
    # is at most the smallest single-process time for the whole problem
    # (at that level one process alone would absorb everything).
    t_hi = float(at_total.min())
    if t_hi <= 0.0:
        raise PartitionError("models predict non-positive time for the total size")

    cap = float(total)

    def record(level: float, allocations: np.ndarray, residual: float) -> None:
        if trace is not None and level > 0.0:
            trace.append(
                BisectionStep(
                    level=level,
                    slope=1.0 / level,
                    allocations=[float(a) for a in allocations],
                    excess=residual,
                )
            )

    # Invariant: excess(lo) < 0 <= excess(hi).  excess(0) = -D, and at
    # t_hi the fastest process alone reaches D.  alloc_lo/alloc_hi are the
    # per-model allocations at the bracketing levels; they bound every
    # allocation probed inside the bracket (x_i(T) is monotone in T).
    if warm_start is not None:
        lo, hi, alloc_lo, alloc_hi = warm_bracket(
            warm_start, total, bank, cap, t_hi
        )
    else:
        lo, hi = 0.0, t_hi
        alloc_lo = np.zeros(size)
        alloc_hi = np.full(size, cap)
    level: Optional[float] = None
    exact: Optional[np.ndarray] = None
    converged = False
    detail = ""
    iterations = 0
    fractions = np.arange(1, probes + 1) / (probes + 1.0)
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, abs(lo), abs(hi)):
            converged = True
            break
        iterations += 1
        levels = lo + (hi - lo) * fractions
        allocs = bank.allocations(levels, cap, alloc_lo, alloc_hi)
        residuals = allocs.sum(axis=0) - cap
        if trace is not None:
            for j in range(levels.size):
                record(float(levels[j]), allocs[:, j], float(residuals[j]))
        hit = np.flatnonzero(residuals == 0.0)
        if hit.size:
            level = float(levels[hit[0]])
            exact = allocs[:, hit[0]]
            converged = True
            detail = "exact zero-residual level hit"
            break
        j = int(np.searchsorted(residuals > 0.0, True))
        if j < levels.size:
            hi = float(levels[j])
            alloc_hi = allocs[:, j]
        if j > 0:
            lo = float(levels[j - 1])
            alloc_lo = allocs[:, j - 1]

    if level is None:
        level = 0.5 * (lo + hi)
        exact = bank.allocations(
            np.asarray([level]), cap, alloc_lo, alloc_hi
        )[:, 0]
        if not converged:
            detail = "iteration cap hit before the bracket closed"
    # The converged level is always the last trace entry, so the trace
    # ends with an (essentially) zero residual.
    record(level, exact, float(exact.sum()) - cap)
    shares: List[float] = [float(a) for a in exact]
    sizes = round_preserving_sum(shares, total)
    times = bank.times(np.asarray(sizes, dtype=float))
    dist = Distribution(
        Part(d, float(times[i]) if d > 0 else 0.0) for i, d in enumerate(sizes)
    )
    cert = ConvergenceCert(
        algorithm="geometric",
        converged=converged,
        iterations=iterations,
        max_iter=max_iter,
        residual=float(hi - lo),
        tolerance=tol * max(1.0, abs(lo), abs(hi)),
        detail=detail,
    )
    return certify(dist, cert, strict, certs)
