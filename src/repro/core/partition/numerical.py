"""The numerical partitioning algorithm (Rychkov et al., ref. [15]).

Solves the optimal-partitioning system directly with a multidimensional
solver:

    F_i(x) = t_i(x_i) - t_p(x_p) = 0      for i = 1 .. p-1
    F_p(x) = x_1 + ... + x_p - D  = 0

Works with smooth time functions of any shape; the Akima-spline FPM is the
intended input because it supplies the continuous derivative used in the
analytic Jacobian.  The solve chain is:

1. damped Newton (:func:`repro.solver.newton_system`) from the geometrical
   solution as the initial iterate, with the analytic Jacobian when models
   expose ``time_derivative``;
2. scipy's hybrid Powell method as a fallback;
3. the geometrical solution itself if both fail (the models may be too
   irregular for a root to exist).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.core.partition.batch import ModelBank, _part_values
from repro.core.partition.cert import ConvergenceCert, certify
from repro.core.partition.dist import Distribution, round_preserving_sum
from repro.core.partition.geometric import solve_geometric
from repro.core.partition.validate import validate_partition_inputs
from repro.core.partition.warm import WarmStart
from repro.solver.newton import newton_system


def _residual_factory(
    total: int, bank: ModelBank
) -> Callable[[np.ndarray], np.ndarray]:
    p = bank.size

    def residual(x: np.ndarray) -> np.ndarray:
        # All p time evaluations of the Newton step in one batched call;
        # iterates may step slightly negative.
        times = bank.times(np.maximum(np.asarray(x, dtype=float), 0.0))
        out = np.empty(p)
        out[: p - 1] = times[: p - 1] - times[p - 1]
        out[p - 1] = float(np.sum(x)) - float(total)
        return out

    return residual


def _jacobian_factory(
    models: Sequence[PerformanceModel],
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    if not all(hasattr(m, "time_derivative") for m in models):
        return None
    p = len(models)

    def jacobian(x: np.ndarray) -> np.ndarray:
        jac = np.zeros((p, p))
        derivs = np.asarray(
            [
                m.time_derivative(max(float(xi), 0.0))  # type: ignore[attr-defined]
                for m, xi in zip(models, x)
            ]
        )
        jac[: p - 1, : p - 1][np.diag_indices(p - 1)] = derivs[: p - 1]
        jac[: p - 1, p - 1] = -derivs[p - 1]
        jac[p - 1, :] = 1.0
        return jac

    return jacobian


def partition_numerical(
    total: int,
    models: Sequence[PerformanceModel],
    tol: float = 1e-9,
    max_iter: int = 100,
    strict: bool = False,
    certs: Optional[List[ConvergenceCert]] = None,
    warm_start: Optional[WarmStart] = None,
) -> Distribution:
    """Partition ``total`` units by solving the equal-time system.

    Args:
        total: the problem size ``D`` in computation units.
        models: one performance model per process.  Models exposing a
            ``time_derivative`` method (the Akima FPM) get an analytic
            Jacobian; others fall back to finite differences.  A
            :class:`~repro.core.partition.batch.ModelBank` over them is
            solved on as it is.
        tol: residual tolerance (seconds / units, mixed system).
        max_iter: Newton iteration cap.
        strict: raise :class:`~repro.errors.ConvergenceError` when both
            Newton and the hybrid-Powell fallback fail to converge.  With
            ``strict=False`` (default) the geometrical seed is returned,
            annotated with a non-converged cert, after a
            :class:`~repro.errors.ConvergenceWarning`.
        certs: optional sink for the run's :class:`ConvergenceCert` (also
            attached to the returned distribution as ``.convergence``).
        warm_start: optional :class:`~repro.core.partition.warm.WarmStart`
            from a nearby solved plan, forwarded to the geometrical seed
            solve.  The Newton phase then starts from the *same* iterate
            a cold run would use (the seed's integer shares), so the
            result is bit-identical to a cold solve; only the seed
            computation gets cheaper.

    Returns:
        A :class:`Distribution` summing exactly to ``total``.
    """
    bank = ModelBank.of(models)
    total = validate_partition_inputs(total, models, bank)
    size = len(models)
    if total == 0:
        return certify(
            Distribution.from_sizes([0] * size),
            ConvergenceCert("numerical", True, 0, max_iter, 0.0, tol,
                            "trivial: total is 0"),
            strict, certs,
        )
    if size == 1:
        return certify(
            Distribution.from_sizes([total], [float(bank._at_total(total)[0])]),
            ConvergenceCert("numerical", True, 0, max_iter, 0.0, tol,
                            "trivial: single process"),
            strict, certs,
        )

    seed = solve_geometric(total, bank, warm_start=warm_start)
    x0 = np.asarray(seed.sizes, dtype=float)
    # Strictly interior start helps when a part was rounded to zero.
    x0 = np.maximum(x0, 1e-3)

    residual = _residual_factory(total, bank)
    jacobian = _jacobian_factory(models)
    # Residual scale: a tolerance in absolute seconds would be meaningless
    # across problem scales, so normalise by the seed's makespan.
    scale = max(seed.predicted_makespan, 1e-12)
    abs_tol = tol * max(scale, 1.0)

    result = newton_system(
        residual,
        x0,
        jacobian=jacobian,
        tol=abs_tol,
        max_iter=max_iter,
        lower=[0.0] * size,
        upper=[float(total)] * size,
    )
    shares: Optional[List[float]] = None
    detail = "damped Newton with analytic Jacobian" if jacobian else "damped Newton"
    if result.converged:
        shares = [float(v) for v in result.x]
    else:
        from scipy.optimize import root  # only the fallback needs scipy

        sol = root(residual, x0, method="hybr")
        if sol.success and np.all(np.asarray(sol.x) >= -1e-9):
            x = np.clip(np.asarray(sol.x, dtype=float), 0.0, float(total))
            if abs(float(np.sum(x)) - total) <= max(1e-6 * total, 1e-6):
                shares = [float(v) for v in x]
                detail = "scipy hybrid-Powell fallback after Newton failed"
    if shares is None:
        # Both solvers failed: the geometrical solution is still a valid,
        # near-balanced distribution -- but no longer returned silently.
        cert = ConvergenceCert(
            algorithm="numerical",
            converged=False,
            iterations=result.iterations,
            max_iter=max_iter,
            residual=result.residual_norm,
            tolerance=abs_tol,
            detail="Newton and hybrid-Powell both failed; geometric seed returned",
        )
        return certify(seed, cert, strict, certs)
    sizes = round_preserving_sum(shares, total)
    dist = Distribution.from_sizes(sizes, _part_values(bank, sizes))
    cert = ConvergenceCert(
        algorithm="numerical",
        converged=True,
        iterations=result.iterations,
        max_iter=max_iter,
        residual=result.residual_norm if result.converged else 0.0,
        tolerance=abs_tol,
        detail=detail,
    )
    return certify(dist, cert, strict, certs)
