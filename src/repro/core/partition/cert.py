"""Convergence certification for the iterative partitioners.

The partitioning algorithms are iterative: geometric bisection on the
equal-time level, Newton iteration on the equal-time system, the dynamic
benchmark-refine-repartition loop, and the distributed protocol.  Each of
them has an iteration cap, and before this module existed, exhausting the
cap silently returned the last iterate -- callers could not tell a
certified optimum from a best-effort guess.

A :class:`ConvergenceCert` is the typed answer: every iterative
partitioner now attaches one to the :class:`~repro.core.partition.dist.
Distribution` it returns (as the ``convergence`` attribute) and offers a
``cert`` sink argument for callers that want the whole history.  On cap
exhaustion the algorithms either raise
:class:`~repro.errors.ConvergenceError` (``strict=True``) or emit a
:class:`~repro.errors.ConvergenceWarning` and return the uncertified
iterate (``strict=False``, the default -- existing callers keep working,
but the failure is no longer silent).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConvergenceError, ConvergenceWarning


@dataclass(frozen=True)
class ConvergenceCert:
    """Evidence of how an iterative partitioning run ended.

    Attributes:
        algorithm: which algorithm produced the result (``"geometric"``,
            ``"numerical"``, ``"dynamic"``, ``"distributed"``,
            ``"basic"``).
        converged: whether the stopping criterion was met before the
            iteration cap.
        iterations: iterations actually performed.
        max_iter: the iteration cap in force.
        residual: the final error measure -- bracket width for the
            bisection, residual norm for Newton, largest relative share
            change for the dynamic loops (0.0 for non-iterative
            algorithms).
        tolerance: the stopping tolerance the residual is compared to.
        detail: human-readable specifics (solver fallbacks, exact hits).
    """

    algorithm: str
    converged: bool
    iterations: int
    max_iter: int
    residual: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> Dict:
        """JSON-friendly representation (floats via ``repr`` for fidelity)."""
        return {
            "algorithm": self.algorithm,
            "converged": self.converged,
            "iterations": self.iterations,
            "max_iter": self.max_iter,
            "residual": repr(self.residual),
            "tolerance": repr(self.tolerance),
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ConvergenceCert":
        """Rebuild a cert from :meth:`to_dict` output.

        Raises:
            KeyError, TypeError, ValueError: on a malformed mapping; the
                callers decoding a larger payload turn these into their
                own error.
        """
        return ConvergenceCert(
            algorithm=str(data["algorithm"]),
            converged=bool(data["converged"]),
            iterations=int(data["iterations"]),
            max_iter=int(data["max_iter"]),
            residual=float(data["residual"]),
            tolerance=float(data["tolerance"]),
            detail=str(data.get("detail", "")),
        )

    def summary(self) -> str:
        """One-line human summary."""
        state = "converged" if self.converged else "NOT converged"
        return (
            f"{self.algorithm}: {state} after {self.iterations}/{self.max_iter} "
            f"iterations (residual {self.residual:.3g}, tol {self.tolerance:.3g})"
            + (f" -- {self.detail}" if self.detail else "")
        )


def certify(
    dist,
    cert: ConvergenceCert,
    strict: bool,
    sink: Optional[List[ConvergenceCert]] = None,
):
    """Attach ``cert`` to ``dist`` and enforce the strictness contract.

    The shared tail of every iterative partitioner: the cert is attached
    to the distribution as ``dist.convergence`` and appended to the
    optional ``sink``; a non-converged cert raises
    :class:`~repro.errors.ConvergenceError` under ``strict`` and warns
    (:class:`~repro.errors.ConvergenceWarning`) otherwise.

    Returns ``dist`` for tail-call convenience.
    """
    dist.convergence = cert
    if sink is not None:
        sink.append(cert)
    if not cert.converged:
        if strict:
            raise ConvergenceError(cert.summary(), cert=cert, partial=dist)
        warnings.warn(cert.summary(), ConvergenceWarning, stacklevel=3)
    return dist
