"""A family subclass that overrides ``time`` is evaluated through ``time``.

The piecewise, constant and linear families evaluate and invert their
time functions in closed form (``_time_batch_impl`` and
``allocation_batch`` read the fitted knots or coefficients directly).  A
subclass that redefines ``time`` but not those kernels must not inherit
them: its batch times and its allocations have to follow the ``time`` it
actually defines, or the partitioners balance the parent's function.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import (
    ConstantEnergyModel,
    ConstantModel,
    LinearEnergyModel,
    LinearModel,
    PiecewiseEnergyModel,
    PiecewiseModel,
)
from repro.core.partition import partition_geometric
from repro.core.partition.batch import ModelBank
from repro.core.point import MeasurementPoint

TOTAL = 10_000
POINTS = [MeasurementPoint(d=d, t=d / 100.0) for d in (100, 1_000, 5_000)]


def _doubled(family):
    """A subclass of ``family`` whose time is twice its parent's."""

    class Doubled(family):
        def time(self, x: float) -> float:
            return 2.0 * super().time(x)

    Doubled.__name__ = f"Doubled{family.__name__}"
    return Doubled


def _fitted(cls):
    model = cls()
    model.update_many(POINTS)
    return model


@pytest.mark.parametrize("family", [PiecewiseModel, ConstantModel, LinearModel])
class TestOverriddenTime:
    def test_time_batch_follows_time(self, family):
        model = _fitted(_doubled(family))
        sizes = np.asarray([0.0, 1.0, 333.0, 5_000.0, 12_345.0])
        assert np.array_equal(
            model.time_batch(sizes), [model.time(x) for x in sizes]
        )
        assert model.time_batch([5_000.0])[0] == model.time(5_000.0) == 100.0

    def test_allocations_invert_time(self, family):
        model = _fitted(_doubled(family))
        levels = np.asarray([10.0, 40.0, 90.0])
        got = model.allocation_batch(levels, float(TOTAL))
        assert np.allclose([model.time(x) for x in got], levels, rtol=1e-6)

    def test_plan_balances_the_overridden_time(self, family):
        doubled, plain = _fitted(_doubled(family)), _fitted(family)
        dist = partition_geometric(TOTAL, [doubled, plain])
        sizes = dist.sizes
        assert sum(sizes) == TOTAL
        # Balanced: 2 d0 = d1, so d0 = TOTAL / 3 to within one unit.
        assert abs(sizes[0] - TOTAL / 3.0) <= 1.0
        models = (doubled, plain)
        slowest_less_one = max(m.time(d - 1) for m, d in zip(models, sizes))
        fastest_plus_one = min(m.time(d + 1) for m, d in zip(models, sizes))
        assert slowest_less_one <= fastest_plus_one

    def test_bank_does_not_stack_it(self, family):
        doubled = _fitted(_doubled(family))
        bank = ModelBank([doubled, _fitted(family)])
        times = bank.times(np.asarray([300.0, 300.0]))
        assert times[0] == doubled.time(300.0) == 2.0 * times[1]


@pytest.mark.parametrize("twin, family", [
    (PiecewiseEnergyModel, PiecewiseModel),
    (ConstantEnergyModel, ConstantModel),
    (LinearEnergyModel, LinearModel),
])
def test_energy_twins_keep_their_closed_forms(twin, family):
    for name in ("_time_batch_impl", "allocation_batch"):
        assert getattr(twin, name) is getattr(family, name)
    if family is not LinearModel:
        bank = ModelBank([_fitted(twin), _fitted(family)])
        bank.times(np.asarray([300.0, 300.0]))
        assert bank._fallback == []  # both rows stacked
