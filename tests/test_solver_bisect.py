"""Tests for the scalar bisection of the hot-path bench's reference.

``benchmarks/bench_hotpath_models.py`` judges the batched geometrical
partitioner against a scalar reference built on these two functions, so
the reference stays trustworthy only while they do.  ``benchmarks/`` is
not a package: the bench is imported with its directory on the path
(it imports its harness by name).
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SolverError


def _load_bench():
    bench_dir = str(Path(__file__).resolve().parent.parent / "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        return importlib.import_module("bench_hotpath_models")
    finally:
        sys.path.remove(bench_dir)


_bench = _load_bench()
bisect_monotone_inverse = _bench.bisect_monotone_inverse
bisect_root = _bench.bisect_root


class TestBisectRoot:
    def test_simple_root(self):
        root = bisect_root(lambda x: x * x - 4.0, 0.0, 10.0)
        assert root == pytest.approx(2.0, abs=1e-9)

    def test_root_at_endpoint_lo(self):
        assert bisect_root(lambda x: x, 0.0, 5.0) == 0.0

    def test_root_at_endpoint_hi(self):
        assert bisect_root(lambda x: x - 5.0, 0.0, 5.0) == 5.0

    def test_swapped_bracket(self):
        root = bisect_root(lambda x: x - 1.0, 3.0, 0.0)
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_no_bracket_raises(self):
        with pytest.raises(SolverError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_decreasing_function(self):
        root = bisect_root(lambda x: 3.0 - x, 0.0, 10.0)
        assert root == pytest.approx(3.0, abs=1e-9)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_finds_linear_root(self, r):
        root = bisect_root(lambda x: x - r, -100.0, 100.0)
        assert root == pytest.approx(r, abs=1e-6)


class TestMonotoneInverse:
    def test_inverse_of_square(self):
        x = bisect_monotone_inverse(lambda v: v * v, 9.0, 0.0, 10.0)
        assert x == pytest.approx(3.0, abs=1e-9)

    def test_expands_upper_bound(self):
        x = bisect_monotone_inverse(lambda v: v, 1000.0, 0.0, 1.0, expand=True)
        assert x == pytest.approx(1000.0, rel=1e-9)

    def test_no_expand_clamps_to_hi(self):
        x = bisect_monotone_inverse(lambda v: v, 1000.0, 0.0, 1.0, expand=False)
        assert x == 1.0

    def test_target_below_range_returns_lo(self):
        x = bisect_monotone_inverse(lambda v: v + 10.0, 5.0, 0.0, 1.0, expand=False)
        assert x == 0.0

    def test_empty_bracket_raises(self):
        with pytest.raises(SolverError):
            bisect_monotone_inverse(lambda v: v, 1.0, 5.0, 0.0)

    def test_exact_at_endpoint(self):
        x = bisect_monotone_inverse(lambda v: v, 0.0, 0.0, 1.0)
        assert x == 0.0

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_round_trip(self, slope, target):
        f = lambda v: slope * v  # noqa: E731 - tiny local function
        x = bisect_monotone_inverse(f, target, 0.0, 1.0)
        assert f(x) == pytest.approx(target, rel=1e-6, abs=1e-6)

    def test_step_function_inverse(self):
        # Piecewise-constant-ish steep transition: inverse lands in the jump.
        f = lambda v: 0.0 if v < 5.0 else 10.0  # noqa: E731
        x = bisect_monotone_inverse(f, 5.0, 0.0, 10.0)
        assert x == pytest.approx(5.0, abs=1e-6)
