"""Properties of the bi-objective (time, energy) Pareto partitioner.

Hypothesis drives randomly skewed device sets through
:func:`~repro.core.partition.pareto.partition_pareto` and checks the
front invariants that must hold regardless of the platform:

* every returned point is feasible (sums to the total, non-negative);
* no point on the front dominates another (dominance filtering);
* the front is sorted by time (ascending) and energy (descending);
* the endpoints match pure single-objective solves bit for bit --
  the time endpoint is exactly :func:`partition_geometric` over the
  speed models, the energy endpoint exactly the same solver over the
  energy models;
* a warm-started front is bit-identical to a cold solve.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import PiecewiseModel
from repro.core.models.energy import PiecewiseEnergyModel
from repro.core.partition import (
    DEFAULT_FRONT_POINTS,
    MAX_FRONT_POINTS,
    ParetoFront,
    ParetoPoint,
    partition_pareto,
)
from repro.core.partition.geometric import partition_geometric
from repro.core.partition.warm import WarmStart
from repro.core.point import MeasurementPoint
from repro.errors import PartitionError
from repro.platform.power import (
    ConstantPower,
    LinearPower,
    energy_points_from_power,
)

pytestmark = pytest.mark.energy

SIZES = (64, 128, 256, 512, 1024, 2048)


def build_pair(speed: float, idle: float, dynamic: float):
    """A (speed model, energy model) pair for one device."""
    pts = [MeasurementPoint(d, d / speed) for d in SIZES]
    m = PiecewiseModel()
    m.update_many(pts)
    profile = ConstantPower(idle_watts=idle, dynamic_watts=dynamic)
    em = PiecewiseEnergyModel()
    em.update_many(energy_points_from_power(pts, profile))
    return m, em


def skewed_platform():
    """Fast-but-hungry device 0 vs slow-but-frugal device 1.

    The conflict makes the front non-degenerate: minimising time loads
    the hungry device, minimising energy sheds work onto the frugal one.
    """
    m0, e0 = build_pair(speed=400.0, idle=30.0, dynamic=220.0)
    m1, e1 = build_pair(speed=100.0, idle=5.0, dynamic=15.0)
    return [m0, m1], [e0, e1]


@st.composite
def _devices(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    specs = []
    for _ in range(n):
        speed = draw(st.floats(min_value=50.0, max_value=2000.0))
        idle = draw(st.floats(min_value=0.0, max_value=50.0))
        dynamic = draw(st.floats(min_value=5.0, max_value=300.0))
        specs.append((speed, idle, dynamic))
    return specs


def _models_from(specs):
    pairs = [build_pair(*s) for s in specs]
    return [p[0] for p in pairs], [p[1] for p in pairs]


class TestFrontProperties:
    @given(_devices(), st.integers(min_value=100, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_feasibility_and_non_domination(self, specs, total):
        models, emodels = _models_from(specs)
        front = partition_pareto(total, models, emodels, npoints=7)
        assert isinstance(front, ParetoFront)
        assert front.points, "front must never be empty"
        for p in front.points:
            assert sum(p.sizes) == total
            assert all(s >= 0 for s in p.sizes)
            assert math.isfinite(p.time) and math.isfinite(p.energy)
        # No point dominates another: with points sorted by time
        # ascending, energies must be strictly descending (ties are
        # deduplicated away).
        for a, b in zip(front.points, front.points[1:]):
            assert a.time < b.time or (a.time == b.time and a is b)
            assert a.energy > b.energy

    @given(_devices(), st.integers(min_value=100, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_front_sorted_by_time(self, specs, total):
        models, emodels = _models_from(specs)
        front = partition_pareto(total, models, emodels, npoints=5)
        times = [p.time for p in front.points]
        assert times == sorted(times)

    @given(st.integers(min_value=100, max_value=50_000),
           st.integers(min_value=3, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_endpoints_match_pure_single_objective_solves(self, total,
                                                          npoints):
        # A genuinely conflicting platform (fast-hungry vs slow-frugal)
        # keeps both endpoints on the front; the parity contract is that
        # they are bit-identical to the single-objective solves.
        models, emodels = skewed_platform()
        front = partition_pareto(total, models, emodels, npoints=npoints)
        time_opt = partition_geometric(total, models)
        assert front.points[0].sizes == tuple(time_opt.sizes)
        energy_opt = partition_geometric(total, emodels)
        assert front.points[-1].sizes == tuple(energy_opt.sizes)

    @given(st.integers(min_value=1000, max_value=80_000))
    @settings(max_examples=15, deadline=None)
    def test_warm_started_front_bit_identical_to_cold(self, total):
        models, emodels = skewed_platform()
        cold = partition_pareto(total, models, emodels, npoints=7)
        hint = WarmStart(
            total=total,
            level=max(cold.points[0].times, default=0.0),
            sizes=cold.points[0].sizes,
        )
        warm = partition_pareto(total, models, emodels, npoints=7,
                                warm_start=hint)
        assert [p.sizes for p in warm.points] == [
            p.sizes for p in cold.points]
        assert [p.time for p in warm.points] == [p.time for p in cold.points]
        assert [p.energy for p in warm.points] == [
            p.energy for p in cold.points]


class TestSelection:
    def test_alpha_endpoints(self):
        models, emodels = skewed_platform()
        front = partition_pareto(10_000, models, emodels, npoints=9)
        assert front.select(alpha=1.0).sizes == front.points[0].sizes
        assert front.select(alpha=0.0).sizes == front.points[-1].sizes

    def test_energy_cap_picks_fastest_feasible(self):
        models, emodels = skewed_platform()
        front = partition_pareto(10_000, models, emodels, npoints=9)
        mid = front.points[len(front.points) // 2]
        picked = front.select(max_joules=mid.energy)
        assert picked.energy <= mid.energy
        # Fastest point under the cap: everything faster busts the cap.
        for p in front.points:
            if p.time < picked.time:
                assert p.energy > mid.energy

    def test_impossible_cap_is_typed_error(self):
        models, emodels = skewed_platform()
        front = partition_pareto(10_000, models, emodels, npoints=5)
        floor = min(p.energy for p in front.points)
        with pytest.raises(PartitionError):
            front.select(max_joules=floor * 0.5)

    def test_front_round_trips_through_dicts(self):
        models, emodels = skewed_platform()
        front = partition_pareto(5_000, models, emodels, npoints=5)
        clone = ParetoFront.from_dict(front.to_dict())
        assert clone.total == front.total
        assert [p.sizes for p in clone.points] == [
            p.sizes for p in front.points]
        assert [p.energy for p in clone.points] == [
            p.energy for p in front.points]
        assert [p.cert for p in clone.points] == [p.cert for p in front.points]


class TestValidation:
    def test_npoints_bounds(self):
        models, emodels = skewed_platform()
        with pytest.raises(PartitionError):
            partition_pareto(1000, models, emodels, npoints=1)
        with pytest.raises(PartitionError):
            partition_pareto(1000, models, emodels,
                             npoints=MAX_FRONT_POINTS + 1)

    def test_mismatched_model_counts(self):
        models, emodels = skewed_platform()
        with pytest.raises(PartitionError):
            partition_pareto(1000, models, emodels[:1])

    def test_default_front_width(self):
        models, emodels = skewed_platform()
        front = partition_pareto(20_000, models, emodels)
        assert 2 <= len(front.points) <= DEFAULT_FRONT_POINTS

    def test_certificates_attached(self):
        models, emodels = skewed_platform()
        front = partition_pareto(20_000, models, emodels, npoints=5)
        for p in front.points:
            assert p.cert is not None
            assert p.cert.converged
