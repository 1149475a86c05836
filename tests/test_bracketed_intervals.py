"""The geometric solve's knot intervals, carried between bisection steps.

:class:`~repro.core.models.piecewise.LevelTable` finds each level's knot
interval by searching the row's knot times.  Intervals are monotone in
the level, so the geometric solve carries each stacked row's interval
at its bracket ends, and a row whose ends agree is not searched.  The
contracts:

* a lookup bounded by the intervals of two bracketing levels returns
  the allocations and intervals of the full search bit for bit, and
  those equal the per-model searchsorted inversion;
* after the warm bracket's full search, a warm solve searches only the
  few rows its bracket leaves open;
* a bank reused across totals keeps the times at its last total only
  for that total, read-only.
"""

from __future__ import annotations

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import (
    ConstantEnergyModel,
    ConstantModel,
    PiecewiseEnergyModel,
    PiecewiseModel,
)
from repro.core.models import piecewise
from repro.core.partition import partition_geometric, warm_start_from
from repro.core.partition.batch import ModelBank
from tests.test_model_bank import (
    _cluster,
    _models,
    _plan,
    _points,
    _probe_levels,
    _searchsorted_inversion,
)

_stackable = st.tuples(
    st.sampled_from([PiecewiseModel, PiecewiseEnergyModel,
                     ConstantModel, ConstantEnergyModel]),
    _points,
    st.lists(st.tuples(st.integers(0, 11), st.floats(0.5, 2.0)), max_size=4),
)


@given(specs=st.lists(_stackable, min_size=1, max_size=8),
       cap=st.integers(1, 300_000),
       ends=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
       probes=st.integers(1, 9),
       bounds=st.sampled_from(["both", "lo", "hi"]))
@settings(max_examples=150, deadline=None)
def test_bounded_lookup_equals_the_full_search(specs, cap, ends, probes, bounds):
    models = _models(specs)
    if not models:
        return
    bank = ModelBank(models)
    bank._build()
    table = bank._table
    # Bracket ends at knot times, between and past them, at 0 and below.
    tk = table.tk[np.isfinite(table.tk)]
    candidates = np.unique(np.concatenate(
        [tk, -tk, _probe_levels(models, float(cap))]))
    lo, hi = sorted(float(candidates[i % candidates.size]) for i in ends)
    levels = np.concatenate(
        [[lo, hi], lo + (hi - lo) * np.arange(1, probes + 1) / (probes + 1.0)])
    full, intervals = table._bracketed(levels, cap)
    at_ends = table._bracketed([lo, hi], cap)[1]
    got, carried = table._bracketed(
        levels, cap,
        None if bounds == "hi" else at_ends[:, 0],
        None if bounds == "lo" else at_ends[:, 1],
    )
    assert np.array_equal(got, full)
    assert np.array_equal(carried, intervals)
    assert np.array_equal(full, table.allocations(levels, cap))
    for row, model in zip(got, models):
        assert np.array_equal(
            row, _searchsorted_inversion(model, levels, float(cap)))


def test_warm_solve_searches_only_open_rows(monkeypatch):
    # The warm bracket searches every row's knot times once; after that
    # the bracket pins almost every row's interval (a full search per
    # step would be 9-10 more of 128 rows each).
    models = _cluster(7, 128)
    bank = ModelBank(models)
    sources = {total: partition_geometric(total + 4_099, bank)
               for total in (100_003, 1_000_003, 5_000_011)}
    original = piecewise.upper_bound
    searched: List[int] = []

    def counted(table, values):
        if table is not bank._table.xk:  # not the part times' size search
            searched.append(table.shape[0])
        return original(table, values)

    monkeypatch.setattr(piecewise, "upper_bound", counted)
    for total, source in sources.items():
        searched.clear()
        partition_geometric(total, bank, warm_start=warm_start_from(source))
        assert searched[0] == 128
        assert len(searched) <= 3
        assert sum(searched[1:]) <= 16


def test_a_bank_reused_across_totals_plans_as_new_banks_do():
    # The validation, the solve and the Pareto scales of one request
    # share the times at its total; a request at another total must not
    # read them.
    models = _cluster(2, 24)
    bank = ModelBank(models)
    for total in (997, 100_022, 997, 3_000_001):
        assert _plan(partition_geometric(total, bank)) == _plan(
            partition_geometric(total, models))
        kept = bank._at_total(total)
        assert not kept.flags.writeable
        assert np.array_equal(kept, bank.times(np.full(len(models), float(total))))
