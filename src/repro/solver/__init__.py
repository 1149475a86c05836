"""Numerical solver substrate.

A damped Newton method for small nonlinear systems
(:func:`newton_system`), used by the numerical algorithm on the system
``t_1(x_1) = ... = t_p(x_p)``, ``sum x_i = D`` built from Akima-spline
models (ref. [15] of the paper).  The geometrical algorithm's level
bisection runs on :class:`~repro.core.partition.batch.ModelBank`.
"""

from repro.solver.newton import NewtonResult, newton_system

__all__ = [
    "NewtonResult",
    "newton_system",
]
