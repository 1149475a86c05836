"""Tests for the running-statistics helpers."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._stats import RunningStats, student_t_quantile


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_sample(self):
        s = RunningStats()
        s.add(5.0)
        assert s.count == 1
        assert s.mean == 5.0
        assert s.variance == 0.0
        assert s.confidence_halfwidth() == math.inf

    def test_mean_of_known_samples(self):
        s = RunningStats()
        for x in [1.0, 2.0, 3.0, 4.0]:
            s.add(x)
        assert s.mean == pytest.approx(2.5)

    def test_variance_matches_statistics_module(self):
        samples = [0.1, 0.15, 0.12, 0.09, 0.2, 0.11]
        s = RunningStats()
        for x in samples:
            s.add(x)
        assert s.variance == pytest.approx(statistics.variance(samples))
        assert s.stddev == pytest.approx(statistics.stdev(samples))

    def test_stderr(self):
        samples = [1.0, 2.0, 3.0]
        s = RunningStats()
        for x in samples:
            s.add(x)
        assert s.stderr == pytest.approx(statistics.stdev(samples) / math.sqrt(3))

    def test_identical_samples_zero_interval(self):
        s = RunningStats()
        for _ in range(5):
            s.add(0.25)
        assert s.variance == pytest.approx(0.0, abs=1e-18)
        assert s.confidence_halfwidth() == pytest.approx(0.0, abs=1e-12)
        assert s.relative_error() == pytest.approx(0.0, abs=1e-12)

    def test_relative_error_zero_mean_is_inf(self):
        s = RunningStats()
        s.add(0.0)
        s.add(0.0)
        assert s.relative_error() == math.inf

    def test_confidence_interval_contains_known_value(self):
        # 95% CI of the mean of [9.9, 10.1] repeated should straddle 10.
        s = RunningStats()
        for x in [9.9, 10.1, 9.95, 10.05, 10.0]:
            s.add(x)
        hw = s.confidence_halfwidth(0.95)
        assert s.mean - hw <= 10.0 <= s.mean + hw

    def test_samples_recorded(self):
        s = RunningStats()
        s.add(1.0)
        s.add(2.0)
        assert s.samples == [1.0, 2.0]

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=50))
    def test_welford_matches_two_pass(self, samples):
        s = RunningStats()
        for x in samples:
            s.add(x)
        assert s.mean == pytest.approx(statistics.fmean(samples), rel=1e-9)
        assert s.variance == pytest.approx(statistics.variance(samples), rel=1e-6, abs=1e-12)


class TestStudentT:
    def test_known_quantile_dof10(self):
        # Classic table value: t(0.975, 10) = 2.228.
        assert student_t_quantile(0.95, 10) == pytest.approx(2.228, abs=2e-3)

    def test_known_quantile_dof1(self):
        # t(0.975, 1) = 12.706.
        assert student_t_quantile(0.95, 1) == pytest.approx(12.706, abs=1e-2)

    def test_approaches_normal_for_large_dof(self):
        assert student_t_quantile(0.95, 100000) == pytest.approx(1.9600, abs=1e-3)

    def test_higher_confidence_wider(self):
        assert student_t_quantile(0.99, 10) > student_t_quantile(0.95, 10)

    @pytest.mark.parametrize("cl", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999])
    def test_matches_scipy_stats(self, cl):
        from scipy import stats

        for dof in (1, 2, 3, 5, 10, 30, 100, 1000, 2000):
            expected = float(stats.t.ppf(1.0 - (1.0 - cl) / 2.0, dof))
            assert student_t_quantile(cl, dof) == pytest.approx(
                expected, rel=1e-12, abs=0.0
            ), dof

    @pytest.mark.parametrize("cl", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_confidence_level(self, cl):
        with pytest.raises(ValueError):
            student_t_quantile(cl, 10)

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.95, 0)

    def test_95_table_equals_scipy(self):
        from scipy.special import stdtrit

        for dof in range(1, 129):
            expected = float(stdtrit(dof, 1.0 - (1.0 - 0.95) / 2.0))
            assert student_t_quantile(0.95, dof) == expected, dof

    def test_default_measurement_imports_no_scipy(self):
        # A default-precision sweep on a noisy platform evaluates the 95 %
        # interval after every repetition; it must not load scipy.
        code = (
            "import sys\n"
            "from repro.core.benchmark import PlatformBenchmark, build_full_models\n"
            "from repro.core.models import PiecewiseModel\n"
            "from repro.platform.presets import fig4_trio\n"
            "bench = PlatformBenchmark(fig4_trio(noisy=True), unit_flops=1.0e8)\n"
            "build_full_models(bench, PiecewiseModel, sizes=[16, 64, 256])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", out.stdout
