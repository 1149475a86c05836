"""Damped Newton method for small nonlinear systems.

The numerical data partitioning algorithm (Rychkov et al., ref. [15] of the
paper) formalises optimal partitioning as the nonlinear system

    t_i(x_i) - t_p(x_p) = 0   for i = 1 .. p-1
    x_1 + ... + x_p - D = 0

where ``t_i`` are Akima-spline time functions with continuous derivatives.
This module provides the multidimensional solver: Newton iterations with an
analytic (or finite-difference) Jacobian, a backtracking line search on the
residual norm, and box projection keeping the iterates inside the feasible
region (allocations must stay positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SolverError

#: Maximum halvings of the Newton step in the backtracking line search.
_DAMPING_STEPS = 30


@dataclass(frozen=True)
class NewtonResult:
    """Outcome of :func:`newton_system`.

    Attributes:
        x: the final iterate.
        residual_norm: infinity norm of ``F(x)`` at the final iterate.
        iterations: Newton iterations performed.
        converged: whether the tolerance was met.
    """

    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _fd_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    fx: np.ndarray,
    rel_step: float = 1e-7,
) -> np.ndarray:
    """Forward-difference Jacobian of ``f`` at ``x``."""
    n = x.size
    jac = np.empty((fx.size, n))
    for j in range(n):
        h = rel_step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        jac[:, j] = (f(xp) - fx) / h
    return jac


def newton_system(
    f: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-10,
    max_iter: int = 100,
    lower: Optional[Sequence[float]] = None,
    upper: Optional[Sequence[float]] = None,
) -> NewtonResult:
    """Solve ``f(x) = 0`` by damped Newton iteration.

    Args:
        f: residual function, mapping an n-vector to an n-vector.
        x0: initial iterate.
        jacobian: optional analytic Jacobian; finite differences otherwise.
        tol: convergence tolerance on ``||f(x)||_inf``.
        max_iter: maximum Newton iterations.
        lower/upper: optional elementwise bounds; iterates are projected
            into the box after every step.

    Returns:
        A :class:`NewtonResult`.  ``converged`` is False when the iteration
        stalls; callers (the numerical partitioner) then fall back to the
        geometrical algorithm.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo = None if lower is None else np.asarray(lower, dtype=float)
    hi = None if upper is None else np.asarray(upper, dtype=float)

    def project(v: np.ndarray) -> np.ndarray:
        if lo is not None:
            v = np.maximum(v, lo)
        if hi is not None:
            v = np.minimum(v, hi)
        return v

    x = project(x)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise SolverError(
            f"newton_system: residual shape {fx.shape} != unknown shape {x.shape}"
        )
    norm = float(np.max(np.abs(fx)))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(x, norm, iterations - 1, True)
        jac = jacobian(x) if jacobian is not None else _fd_jacobian(f, x, fx)
        jac = np.asarray(jac, dtype=float)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -fx, rcond=None)
        # Backtracking line search on the residual norm.
        alpha = 1.0
        improved = False
        for _ in range(_DAMPING_STEPS):
            x_new = project(x + alpha * step)
            fx_new = np.asarray(f(x_new), dtype=float)
            norm_new = float(np.max(np.abs(fx_new)))
            if norm_new < norm:
                x, fx, norm = x_new, fx_new, norm_new
                improved = True
                break
            alpha *= 0.5
        if not improved:
            return NewtonResult(x, norm, iterations, norm <= tol)
    return NewtonResult(x, norm, iterations, norm <= tol)
