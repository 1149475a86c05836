"""Convergence certification and boundary validation of the partitioners.

Every iterative partitioner must say whether it converged (a
:class:`~repro.core.ConvergenceCert` on the returned distribution), warn
on cap exhaustion, and raise a typed
:class:`~repro.errors.ConvergenceError` in strict mode -- never return
silently from an exhausted loop.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.models import ConstantModel, PiecewiseModel
from repro.core.partition.basic import partition_constant
from repro.core.partition.cert import ConvergenceCert, certify
from repro.core.partition.dist import Distribution
from repro.core.partition.distributed import distributed_partition
from repro.core.partition.dynamic import DynamicPartitioner, LoadBalancer
from repro.core.partition.geometric import partition_geometric
from repro.core.partition.numerical import partition_numerical
from repro.core.partition.validate import validate_partition_inputs, validate_total
from repro.core.point import MeasurementPoint
from repro.errors import ConvergenceError, ConvergenceWarning, PartitionError


def _model(pairs, cls=PiecewiseModel):
    m = cls()
    m.update_many([MeasurementPoint(d, t) for d, t in pairs])
    return m


def _linear_models(speeds, sizes=(10, 100, 1000)):
    return [_model([(d, d / s) for d in sizes]) for s in speeds]


class TestCertAttachment:
    def test_geometric_attaches_converged_cert(self):
        dist = partition_geometric(500, _linear_models([3.0, 1.0]))
        cert = dist.convergence
        assert isinstance(cert, ConvergenceCert)
        assert cert.algorithm == "geometric"
        assert cert.converged
        assert 0 < cert.iterations <= cert.max_iter
        assert "converged" in cert.summary()

    def test_numerical_attaches_cert(self):
        dist = partition_numerical(500, _linear_models([3.0, 1.0]))
        assert dist.convergence.algorithm == "numerical"
        assert dist.convergence.converged

    def test_basic_attaches_closed_form_cert(self):
        dist = partition_constant(500, _linear_models([3.0, 1.0], sizes=(10,)))
        assert dist.convergence.algorithm == "basic"
        assert dist.convergence.converged
        assert dist.convergence.iterations == 0

    def test_cert_to_dict_round_trips_floats(self):
        dist = partition_geometric(500, _linear_models([3.0, 1.0]))
        d = dist.convergence.to_dict()
        assert d["algorithm"] == "geometric"
        assert float(d["residual"]) == dist.convergence.residual
        assert ConvergenceCert.from_dict(d) == dist.convergence

    def test_malformed_cert_raises_each_payloads_own_error(self):
        from repro.core.partition.pareto import ParetoPoint
        from repro.serve.plan import PlanResult

        cert = {"algorithm": "geometric", "converged": True}  # truncated
        point = {"sizes": [1], "times": ["0.5"], "time": "0.5",
                 "energy": "1.0", "alpha": "0.0", "cert": cert}
        with pytest.raises(PartitionError, match="malformed pareto point"):
            ParetoPoint.from_dict(point)
        plan = {"key": "k", "total": 1, "sizes": [1], "times": ["0.5"],
                "algorithm": "geometric", "cert": cert}
        with pytest.raises(PartitionError, match="malformed plan payload"):
            PlanResult.from_dict(plan)

    def test_certs_sink_collects(self):
        sink = []
        partition_geometric(500, _linear_models([3.0, 1.0]), certs=sink)
        assert len(sink) == 1 and sink[0].algorithm == "geometric"


class TestCapExhaustion:
    def test_geometric_warns_not_silent(self):
        models = _linear_models([3.0, 1.0])
        with pytest.warns(ConvergenceWarning):
            dist = partition_geometric(500, models, max_iter=1)
        # Still a valid full partition, flagged as uncertified.
        assert sum(dist.sizes) == 500
        assert not dist.convergence.converged
        assert dist.convergence.iterations == 1

    def test_geometric_strict_raises_with_partial(self):
        models = _linear_models([3.0, 1.0])
        with pytest.raises(ConvergenceError) as exc_info:
            partition_geometric(500, models, max_iter=1, strict=True)
        exc = exc_info.value
        assert not exc.cert.converged
        assert exc.partial is not None
        assert sum(exc.partial.sizes) == 500

    def test_numerical_strict_raises_when_both_solvers_fail(self):
        # Flat time functions make the equal-time system degenerate (the
        # Jacobian is singular), so neither Newton nor the hybrid-Powell
        # fallback can meet a zero tolerance.  This used to return the
        # geometric seed silently; now it certifies the failure.
        models = [_model([(d, 1.0) for d in (10, 100, 1000)])
                  for _ in range(2)]
        with pytest.raises(ConvergenceError) as exc_info:
            partition_numerical(500, models, tol=0.0, max_iter=1, strict=True)
        assert "both failed" in exc_info.value.cert.detail
        # The partial result is still a valid full partition (the seed).
        assert sum(exc_info.value.partial.sizes) == 500

    def test_numerical_nonstrict_warns_when_both_solvers_fail(self):
        models = [_model([(d, 1.0) for d in (10, 100, 1000)])
                  for _ in range(2)]
        with pytest.warns(ConvergenceWarning):
            dist = partition_numerical(500, models, tol=0.0, max_iter=1)
        assert sum(dist.sizes) == 500
        assert not dist.convergence.converged


class TestDynamicCerts:
    @staticmethod
    def _measure(rates):
        def measure(sizes):
            return [
                None if d is None else MeasurementPoint(d, d / rate)
                for d, rate in zip(sizes, rates)
            ]
        return measure

    def test_dynamic_result_carries_cert(self):
        models = [PiecewiseModel() for _ in range(2)]
        dyn = DynamicPartitioner(
            partition_geometric, models, 200, self._measure([300.0, 100.0]),
            eps=0.05,
        )
        result = dyn.run()
        assert result.cert is not None
        assert result.cert.algorithm == "dynamic"
        assert result.cert.converged == result.converged

    def test_dynamic_strict_raises_on_cap(self):
        # Oscillating observed speeds keep the distribution moving, so a
        # 2-iteration cap cannot stabilise it.
        models = [PiecewiseModel() for _ in range(2)]
        flip = {"state": False}

        def measure(sizes):
            flip["state"] = not flip["state"]
            rates = [300.0, 10.0] if flip["state"] else [10.0, 300.0]
            return [
                None if d is None else MeasurementPoint(d, d / rate)
                for d, rate in zip(sizes, rates)
            ]

        dyn = DynamicPartitioner(
            partition_geometric, models, 200, measure,
            eps=1e-6, max_iterations=2, strict=True,
        )
        with pytest.raises(ConvergenceError):
            dyn.run()

    def test_load_balancer_harvests_certs(self):
        models = [PiecewiseModel() for _ in range(2)]
        lb = LoadBalancer(partition_geometric, models, total=200, threshold=0.0)
        lb.iterate([1.0, 3.0])
        lb.iterate([1.5, 2.5])
        assert lb.certs
        assert all(isinstance(c, ConvergenceCert) for c in lb.certs)


class TestDistributedCerts:
    @staticmethod
    def _bench(speeds):
        from repro.core.benchmark import PlatformBenchmark
        from repro.platform.cluster import Node, Platform
        from repro.platform.device import Device
        from repro.platform.noise import NoNoise
        from repro.platform.profiles import ConstantProfile

        platform = Platform([
            Node(f"n{i}", [Device(f"d{i}", ConstantProfile(s), noise=NoNoise())])
            for i, s in enumerate(speeds)
        ])
        return PlatformBenchmark(platform, unit_flops=1.0e6)

    def test_distributed_result_carries_cert(self):
        bench = self._bench([3.0e9, 1.0e9])
        result = distributed_partition(
            bench, partition_geometric, PiecewiseModel, 3000, eps=0.05
        )
        assert result.cert is not None
        assert result.cert.algorithm == "distributed"
        assert result.cert.converged == result.converged

    def test_distributed_cap_warns(self):
        bench = self._bench([3.0e9, 1.0e9])
        with pytest.warns(ConvergenceWarning):
            result = distributed_partition(
                bench, partition_geometric, PiecewiseModel, 3000,
                eps=-1.0, max_iterations=2,
            )
        assert not result.cert.converged

    def test_distributed_strict_raises(self):
        bench = self._bench([3.0e9, 1.0e9])
        with pytest.raises(ConvergenceError):
            distributed_partition(
                bench, partition_geometric, PiecewiseModel, 3000,
                eps=-1.0, max_iterations=2, strict=True,
            )


class TestCertifyHelper:
    def test_certify_attaches_and_returns(self):
        dist = Distribution.even(10, 2)
        cert = ConvergenceCert("x", True, 1, 5, 0.0, 1e-9)
        assert certify(dist, cert, strict=False) is dist
        assert dist.convergence is cert

    def test_certify_strict_raises_on_failure(self):
        dist = Distribution.even(10, 2)
        cert = ConvergenceCert("x", False, 5, 5, 1.0, 1e-9)
        with pytest.raises(ConvergenceError):
            certify(dist, cert, strict=True)

    def test_certify_nonstrict_warns_on_failure(self):
        dist = Distribution.even(10, 2)
        cert = ConvergenceCert("x", False, 5, 5, 1.0, 1e-9)
        with pytest.warns(ConvergenceWarning):
            certify(dist, cert, strict=False)


class TestBoundaryValidation:
    @pytest.mark.parametrize("fn", [partition_constant, partition_geometric,
                                    partition_numerical])
    def test_empty_models_rejected(self, fn):
        with pytest.raises(PartitionError, match="empty"):
            fn(100, [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1, 1.5, True])
    def test_bad_totals_rejected(self, bad):
        models = _linear_models([1.0, 1.0])
        with pytest.raises(PartitionError):
            partition_geometric(bad, models)

    def test_validate_total_returns_int(self):
        assert validate_total(10.0) == 10
        assert isinstance(validate_total(10.0), int)

    def test_unready_model_rejected_with_actionable_message(self):
        with pytest.raises(PartitionError, match="measured point"):
            validate_partition_inputs(100, [PiecewiseModel()])

    def test_zero_total_skips_model_checks(self):
        assert validate_partition_inputs(0, [PiecewiseModel()]) == 0

    def test_zero_total_partitions_to_zeros(self):
        dist = partition_geometric(0, _linear_models([3.0, 1.0]))
        assert dist.sizes == [0, 0]
        assert dist.convergence.converged

    def test_domain_excluding_model_rejected(self):
        class BrokenModel(ConstantModel):
            def time(self, d):
                return float("nan")

        broken = BrokenModel()
        broken.update(MeasurementPoint(10, 1.0))
        with pytest.raises(PartitionError, match="domain excludes"):
            validate_partition_inputs(100, [broken])
