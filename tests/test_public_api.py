"""Tests for the public API surface and the end-to-end workflows.

These are the integration tests: they exercise exactly the code paths a
downstream user follows (the quickstart, the static workflow, the dynamic
workflow) through the top-level ``repro`` namespace only.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    AkimaModel,
    ConstantModel,
    DynamicPartitioner,
    LoadBalancer,
    PiecewiseModel,
    PlatformBenchmark,
    Precision,
    build_full_models,
    partition_constant,
    partition_geometric,
    partition_numerical,
)
from repro.platform.presets import fig4_trio, heterogeneous_cluster


class TestApiSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_error_hierarchy_exposed(self):
        assert issubclass(repro.FuPerModError, Exception)

    def test_serve_stack_loads_neither_scipy_stats_nor_optimize(self):
        # Every serving process pays for what it imports: scipy.stats
        # alone is tens of megabytes, and serving needs neither package.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro.serve.aio, repro.cli\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize')"
            " if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestStaticWorkflow:
    """Full models built in advance, then static partitioning."""

    @pytest.fixture(scope="class")
    def built(self):
        platform = heterogeneous_cluster(noisy=False)
        bench = PlatformBenchmark(platform, unit_flops=2.0 * 32**3)
        sizes = [64, 256, 1024, 4096, 16384]
        pw, _ = build_full_models(bench, PiecewiseModel, sizes)
        ak, _ = build_full_models(bench, AkimaModel, sizes)
        cm, _ = build_full_models(bench, ConstantModel, [1024])
        return platform, pw, ak, cm

    def test_all_algorithms_partition_exactly(self, built):
        _platform, pw, ak, cm = built
        total = 50_000
        for dist in (
            partition_geometric(total, pw),
            partition_numerical(total, ak),
            partition_constant(total, cm),
        ):
            assert dist.total == total
            assert all(p.d >= 0 for p in dist.parts)

    def test_fpm_gives_gpu_most_work(self, built):
        platform, pw, _ak, _cm = built
        dist = partition_geometric(50_000, pw)
        gpu_rank = max(range(platform.size), key=lambda r: dist.sizes[r])
        assert "gpu" in platform.devices[gpu_rank].name

    def test_fpm_predicted_balance_tight(self, built):
        _platform, pw, _ak, _cm = built
        dist = partition_geometric(50_000, pw)
        active = [p.t for p in dist.parts if p.d > 0]
        assert (max(active) - min(active)) / max(active) < 0.05

    def test_geometric_and_numerical_agree(self, built):
        _platform, pw, ak, _cm = built
        total = 50_000
        dg = partition_geometric(total, pw)
        dn = partition_numerical(total, ak)
        for a, b in zip(dg.sizes, dn.sizes):
            assert abs(a - b) <= 0.05 * total


class TestDynamicWorkflow:
    def test_dynamic_partitioner_end_to_end(self):
        platform = fig4_trio(noisy=False)
        bench = PlatformBenchmark(
            platform, unit_flops=1.0e6, precision=Precision(reps_min=1, reps_max=3)
        )
        models = [PiecewiseModel() for _ in range(platform.size)]
        dyn = DynamicPartitioner(
            partition_geometric, models, 3600, bench.measure_group, eps=0.02
        )
        result = dyn.run()
        assert result.converged
        # fig4 speeds 16:11:9 -> 1600/1100/900.
        assert result.final.sizes[0] == pytest.approx(1600, abs=40)
        assert result.final.sizes[1] == pytest.approx(1100, abs=40)

    def test_load_balancer_with_simulated_times(self):
        platform = fig4_trio(noisy=False)
        models = [PiecewiseModel() for _ in range(platform.size)]
        lb = LoadBalancer(partition_geometric, models, 360, threshold=0.05)
        import numpy as np

        rngs = [np.random.default_rng(i) for i in range(platform.size)]
        for _ in range(8):
            times = [
                platform.device(r).execution_time(1.0e6 * d, d, rngs[r])
                if d > 0 else 0.0
                for r, d in enumerate(lb.dist.sizes)
            ]
            lb.iterate(times)
        assert lb.dist.sizes == [160, 110, 90]
