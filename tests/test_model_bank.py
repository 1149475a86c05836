"""The model bank: stacked evaluation must equal the per-model calls bit for bit.

:class:`~repro.core.partition.batch.ModelBank` stacks the piecewise and
constant families (and their energy twins) into one
:class:`~repro.core.models.piecewise.LevelTable` and leaves every other
model -- other families, subclasses overriding the closed forms,
duck-typed models -- on its own methods.  The contracts:

* ``bank.allocations``/``bank.times`` equal ``allocation_batch``/``time``
  (and ``time_batch`` for rows of sizes) with ``np.array_equal``, for
  any mix of models;
* the piecewise closed form equals the searchsorted inversion it
  replaced;
* the partitioners return the same plans whether or not the bank can
  stack a single model;
* a stacked solve makes no per-model ``allocation_batch`` or ``time``
  call.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import (
    AkimaModel,
    ConstantEnergyModel,
    ConstantModel,
    LinearEnergyModel,
    LinearModel,
    PchipModel,
    PiecewiseEnergyModel,
    PiecewiseModel,
    SegmentedLinearModel,
)
from repro.core.partition import (
    partition_geometric,
    partition_pareto,
    warm_start_from,
)
from repro.core.partition.batch import ModelBank
from repro.core.partition import pareto
from repro.core.partition.pareto import _Surrogate
from repro.core.point import MeasurementPoint
from repro.errors import ModelError
from repro.interp.piecewise_linear import upper_bound


class ScaledTimeModel(PiecewiseModel):
    """Overrides ``time`` only: the bank must not stack it."""

    def time(self, x: float) -> float:
        return 2.0 * super().time(x)


FAMILIES = [
    PiecewiseModel,
    PiecewiseEnergyModel,
    ConstantModel,
    ConstantEnergyModel,
    LinearModel,
    LinearEnergyModel,
    AkimaModel,
    PchipModel,
    SegmentedLinearModel,
    ScaledTimeModel,
]

# Per model: a family, its (size, time) points, and optional refit points
# re-measuring some sizes with noise (flat stretches after coarsening).
_points = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=200_000),
        st.floats(min_value=1e-4, max_value=1e3),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda p: p[0],
)
_model_spec = st.tuples(
    st.sampled_from(FAMILIES),
    _points,
    st.lists(st.tuples(st.integers(0, 11), st.floats(0.5, 2.0)), max_size=4),
)


def _build(spec):
    cls, raw, refits = spec
    model = cls()
    model.update_many([MeasurementPoint(d=d, t=t) for d, t in raw])
    if refits:
        model.update_many([
            MeasurementPoint(d=raw[i % len(raw)][0], t=raw[i % len(raw)][1] * f)
            for i, f in refits
        ])
    try:
        model.time(1.0)
    except ModelError:
        return None  # an unfittable set: no contract to check
    return model


def _models(specs) -> List:
    return [m for m in (_build(s) for s in specs) if m is not None]


def _searchsorted_inversion(model: PiecewiseModel, levels, cap):
    """The per-model closed form the stacked table replaced."""
    xk, sk, _ys, _lo, _hi = model.level_knots()
    tk = xk / sk
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    n = xk.size
    if n == 1:
        return np.clip(levels * sk[0], 0.0, cap)
    j = np.searchsorted(tk, levels, side="right") - 1
    left = j < 0
    right = j >= n - 1
    inner = ~(left | right)
    x = np.empty(levels.shape)
    x[left] = levels[left] * sk[0]
    x[right] = levels[right] * sk[-1]
    if np.any(inner):
        ji = j[inner]
        t = levels[inner]
        mk = (sk[ji + 1] - sk[ji]) / (xk[ji + 1] - xk[ji])
        denom = 1.0 - t * mk
        xi = np.where(
            denom > 1e-300,
            t * (sk[ji] - mk * xk[ji]) / np.where(denom > 1e-300, denom, 1.0),
            xk[ji + 1],
        )
        x[inner] = np.clip(xi, xk[ji], xk[ji + 1])
    return np.clip(x, 0.0, cap)


def _probe_levels(models, cap):
    """Levels at every knot time, between knots and past both ends."""
    at_cap = np.asarray([m.time(cap) for m in models])
    knots = [np.asarray([m.time(float(p.d)) for p in m.points]) for m in models]
    levels = np.concatenate([np.linspace(0.0, 1.2 * at_cap.max(), 17)] + knots)
    return np.unique(np.concatenate([levels, 0.5 * levels, [-1.0]]))


class TestUpperBound:
    @given(
        rows=st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=1, max_size=9),
            min_size=1, max_size=5,
        ),
        values=st.lists(st.floats(-1.0, 101.0), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_searchsorted_right(self, rows, values):
        width = max(len(r) for r in rows)
        table = np.full((len(rows), width), np.inf)
        for i, r in enumerate(rows):
            table[i, :len(r)] = sorted(r)
        # Knot values themselves are the ties that matter.
        vals = np.asarray(values + [v for r in rows for v in r])
        got = upper_bound(table, vals)
        for i, r in enumerate(rows):
            want = np.searchsorted(np.sort(r), vals, side="right")
            assert np.array_equal(got[i], want)


class TestBankParity:
    @given(specs=st.lists(_model_spec, min_size=1, max_size=8),
           cap=st.integers(1, 300_000))
    @settings(max_examples=60, deadline=None)
    def test_allocations_and_times_equal_per_model(self, specs, cap):
        models = _models(specs)
        if not models:
            return
        cap = float(cap)
        bank = ModelBank(models)
        levels = _probe_levels(models, cap)
        got = bank.allocations(levels, cap)
        want = np.stack([m.allocation_batch(levels, cap) for m in models])
        assert np.array_equal(got, want)

        for sizes in ([float(m.points[0].d) for m in models],
                      [cap] * len(models)):
            assert np.array_equal(
                bank.times(np.asarray(sizes)),
                np.asarray([m.time(x) for m, x in zip(models, sizes)]),
            )
        grid = np.outer(np.ones(len(models)),
                        [0.0, 1.0, 0.37 * cap, cap, 3.0 * cap])
        assert np.array_equal(
            bank.times(grid),
            np.stack([m.time_batch(row) for m, row in zip(models, grid)]),
        )

    @given(specs=st.lists(
        st.tuples(st.sampled_from([PiecewiseModel, PiecewiseEnergyModel]),
                  _points,
                  st.lists(st.tuples(st.integers(0, 11), st.floats(0.5, 2.0)),
                           max_size=4)),
        min_size=1, max_size=6),
        cap=st.integers(1, 300_000))
    @settings(max_examples=60, deadline=None)
    def test_piecewise_closed_form_unchanged(self, specs, cap):
        models = _models(specs)
        if not models:
            return
        levels = _probe_levels(models, float(cap))
        got = ModelBank(models).allocations(levels, float(cap))
        for row, model in zip(got, models):
            want = _searchsorted_inversion(model, levels, float(cap))
            assert np.array_equal(row, want)

    def test_overriding_subclass_keeps_its_own_time(self):
        model = ScaledTimeModel()
        model.update_many([MeasurementPoint(d=10, t=1.0),
                           MeasurementPoint(d=100, t=5.0)])
        plain = PiecewiseModel()
        plain.update_many(model.points)
        times = ModelBank([model, plain]).times(np.asarray([50.0, 50.0]))
        assert times[0] == model.time(50.0) == 2.0 * times[1]

    def test_shared_fallback_model_evaluated_once(self):
        akima = AkimaModel()
        akima.update_many([MeasurementPoint(d=d, t=d / 7.0)
                           for d in (10, 40, 90, 160)])
        calls = []
        original = akima.time_batch

        def counting(sizes):
            calls.append(len(sizes))
            return original(sizes)

        akima.time_batch = counting
        sizes = np.asarray([20.0, 50.0, 120.0])
        out = ModelBank([akima, akima, akima]).times(sizes)
        assert calls == [3]
        assert np.array_equal(out, [akima.time(x) for x in sizes])


class ForwardingProxy:
    """A duck-typed model: forwards everything, so the bank cannot stack it."""

    def __init__(self, model):
        self._model = model
        self.min_points = model.min_points

    @property
    def points(self):
        return self._model.points

    @property
    def is_ready(self):
        return self._model.is_ready

    def time(self, x):
        return self._model.time(x)

    def time_batch(self, sizes):
        return self._model.time_batch(sizes)

    def allocation_batch(self, levels, cap, lo=None, hi=None, tol=1e-9):
        return self._model.allocation_batch(levels, cap, lo=lo, hi=hi, tol=tol)


def _cluster(seed: int, p: int, energy: bool = False):
    rng = np.random.default_rng(seed)
    cls = PiecewiseEnergyModel if energy else PiecewiseModel
    models = []
    for _ in range(p):
        speed = rng.uniform(50.0, 5_000.0)
        cliff = rng.uniform(1e3, 1e5)
        sizes = np.unique(np.geomspace(10, 2e5, int(rng.integers(1, 12))).astype(int))
        model = cls()
        model.update_many([
            MeasurementPoint(d=int(d), t=float(d / (speed * (1.0 if d < cliff else 0.4))
                                               * rng.uniform(0.95, 1.05)))
            for d in sizes
        ])
        models.append(model)
    return models


def _plan(dist):
    return (dist.sizes, [p.t for p in dist.parts], dist.convergence)


class TestPartitionParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_geometric_cold_and_warm(self, seed):
        models = _cluster(seed, 24)
        proxies = [ForwardingProxy(m) for m in models]
        for total in (997, 100_022, 3_000_001):
            assert _plan(partition_geometric(total, models)) == _plan(
                partition_geometric(total, proxies))
            warm = warm_start_from(partition_geometric(total + 4_099, models))
            assert _plan(partition_geometric(total, models, warm_start=warm)) == _plan(
                partition_geometric(total, proxies, warm_start=warm))

    @pytest.mark.parametrize("seed", range(3))
    def test_pareto_front(self, seed):
        models = _cluster(seed, 16)
        energy = _cluster(seed + 100, 16, energy=True)
        for total in (5_003, 250_000):
            stacked = partition_pareto(total, models, energy, npoints=16)
            proxied = partition_pareto(
                total, [ForwardingProxy(m) for m in models],
                [ForwardingProxy(m) for m in energy], npoints=16,
            )
            assert stacked.to_dict() == proxied.to_dict()


def _per_device_inversion(X, V, levels, cap):
    """One device's surrogate inversion, as the sweep ran it per device."""
    M = V.shape[1]
    idx = np.sum(V[:, None, :] <= levels[:, :, None], axis=2)
    idx = np.clip(idx, 1, M - 1)
    xlo = X[idx - 1]
    xhi = X[idx]
    vlo = np.take_along_axis(V, idx - 1, axis=1)
    vhi = np.take_along_axis(V, idx, axis=1)
    denom = np.maximum(vhi - vlo, 1e-300)
    out = xlo + (levels - vlo) * (xhi - xlo) / denom
    out = np.clip(out, 0.0, cap)
    out[levels >= V[:, -1:]] = cap
    out[levels <= 0.0] = 0.0
    return out


class TestParetoSurrogate:
    """The sweep's stacked surrogate against its per-device form."""

    CAP = 250_000.0

    @pytest.fixture(scope="class")
    def banks(self):
        return ModelBank(_cluster(3, 40)), ModelBank(_cluster(4, 40, energy=True))

    def _surrogate(self, banks, alphas):
        alphas = np.asarray(alphas)
        surrogate = _Surrogate(*banks, self.CAP, 96)
        surrogate.weigh(alphas / 3.0, (1.0 - alphas) / 50.0)
        return surrogate

    def _levels(self, s):
        top = s.last.max(axis=0)
        return np.linspace(-0.1, 1.1, 13)[None, :] * top[:, None]

    def test_inversion_matches_per_device(self, banks):
        s = self._surrogate(banks, np.linspace(0.0, 1.0, 9)[1:-1])
        levels = self._levels(s)
        got = s.allocations(levels, self.CAP)
        for i, m in enumerate(s.count):
            want = _per_device_inversion(s.knots[i, :m], s.values[i, :, :m],
                                         levels, self.CAP)
            assert np.array_equal(got[i], want)

    def _assert_rank_order(self, s, levels):
        want = np.zeros(levels.shape)
        for row in s.allocations(levels, self.CAP):
            want += row
        assert np.array_equal(s.residuals(levels, self.CAP), want - self.CAP)

    def test_residuals_add_devices_in_rank_order(self, banks):
        s = self._surrogate(banks, np.linspace(0.0, 1.0, 9)[1:-1])
        self._assert_rank_order(s, self._levels(s))

    def test_one_level_sums_in_rank_order_too(self, banks):
        # A (1, 1) level array makes the device sum one contiguous 1-D
        # reduction, which numpy would otherwise add pairwise.
        s = self._surrogate(banks, [0.5])
        for level in self._levels(s)[0]:
            self._assert_rank_order(s, np.asarray([[level]]))


def test_weight_chunks_do_not_change_the_front(monkeypatch):
    # The sweep bounds its blended table by chunking the weights; every
    # weight's bisection is independent, so any chunking gives one front.
    models, energy = _cluster(5, 12), _cluster(6, 12, energy=True)
    whole = partition_pareto(50_000, models, energy, npoints=16).to_dict()
    monkeypatch.setattr(pareto, "_BLEND_TABLE_ENTRIES", 1)
    assert partition_pareto(50_000, models, energy, npoints=16).to_dict() == whole


def test_stacked_solves_make_no_per_model_calls(monkeypatch):
    models = _cluster(7, 128)
    energy = _cluster(8, 128, energy=True)
    calls = {"allocation_batch": 0, "time": 0}

    def counted(name):
        original = getattr(PiecewiseModel, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(PiecewiseModel, name, counted(name))
    partition_geometric(1_000_003, models)
    partition_pareto(1_000_003, models, energy, npoints=16)
    assert calls == {"allocation_batch": 0, "time": 0}
