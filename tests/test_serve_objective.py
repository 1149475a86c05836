"""Objective-keyed serving: kinds, cache keys, WAL, replication, client.

The regression this file pins is *cross-kind cache aliasing*: a
``"time"`` plan (seconds) and a ``"pareto"`` plan (a joule/second
trade-off front) computed from the same speed models must never answer
each other's requests.  Keys differ by construction
(:func:`fingerprint_objective_request` mixes in the kind and the
energy-model fingerprint) and every storage boundary -- in-memory
cache, write-ahead journal, replication push -- refuses an entry whose
request spec and result disagree on the kind.
"""

from __future__ import annotations

import math

import pytest

from repro.core.models import PiecewiseModel
from repro.core.models.energy import PiecewiseEnergyModel
from repro.core.partition.cert import ConvergenceCert
from repro.core.point import MeasurementPoint
from repro.errors import FuPerModError, PartitionError
from repro.platform.power import (
    ConstantPower,
    LinearPower,
    energy_points_from_power,
)
from repro.serve import (
    METRICS_SCHEMA,
    DurablePlanCache,
    PlanCache,
    PlanClient,
    PlanEngine,
    PlanServer,
    fingerprint_models,
    fingerprint_objective_request,
)
from repro.serve.cache import check_spec_kind
from repro.serve.frontend import handle_request, validate_objective
from repro.serve.plan import PLAN_KINDS, PlanResult
from repro.serve.router import PlanRouter

pytestmark = [pytest.mark.serve, pytest.mark.energy]

SIZES = (64, 128, 256, 512, 1024)


def build_platform():
    """Fast-but-hungry rank 0 vs slow-but-frugal rank 1."""
    specs = [(400.0, 30.0, 220.0), (100.0, 5.0, 15.0)]
    models, emodels = [], []
    for speed, idle, dyn in specs:
        pts = [MeasurementPoint(d, d / speed) for d in SIZES]
        m = PiecewiseModel()
        m.update_many(pts)
        models.append(m)
        em = PiecewiseEnergyModel()
        em.update_many(energy_points_from_power(
            pts, ConstantPower(idle_watts=idle, dynamic_watts=dyn)))
        emodels.append(em)
    return models, emodels


@pytest.fixture
def platform():
    return build_platform()


@pytest.fixture
def server(platform):
    models, emodels = platform
    srv = PlanServer(models, engine=PlanEngine(cache=PlanCache()))
    srv.attach_energy(emodels)
    return srv


class TestObjectiveKeys:
    def test_time_and_pareto_keys_never_collide(self, platform):
        models, emodels = platform
        mfp = fingerprint_models(models)
        efp = fingerprint_models(emodels)
        time_key = fingerprint_objective_request(
            "time", mfp, "", 1000, "geometric", {}, {})
        pareto_key = fingerprint_objective_request(
            "pareto", mfp, efp, 1000, "geometric", {}, {})
        assert time_key != pareto_key

    def test_time_kind_keeps_legacy_key(self, platform):
        """Pre-kind caches and replicas stay bit-compatible."""
        from repro.serve.fingerprint import fingerprint_request

        models, _ = platform
        mfp = fingerprint_models(models)
        assert fingerprint_objective_request(
            "time", mfp, "ignored", 500, "geometric", {"tol": 1e-9}, {},
        ) == fingerprint_request(mfp, 500, "geometric", {"tol": 1e-9})

    def test_energy_refit_invalidates_only_pareto_keys(self, platform):
        models, emodels = platform
        mfp = fingerprint_models(models)
        key_a = fingerprint_objective_request(
            "pareto", mfp, "efp-epoch-1", 1000, "geometric", {}, {})
        key_b = fingerprint_objective_request(
            "pareto", mfp, "efp-epoch-2", 1000, "geometric", {}, {})
        assert key_a != key_b
        assert fingerprint_objective_request(
            "time", mfp, "efp-epoch-1", 1000, "geometric", {}, {},
        ) == fingerprint_objective_request(
            "time", mfp, "efp-epoch-2", 1000, "geometric", {}, {})


def time_plan(key="k", total=100):
    return PlanResult(
        key=key, total=total, sizes=(50, 50), times=(0.5, 0.5),
        algorithm="geometric",
        cert=ConvergenceCert("geometric", True, 5, 200, 1e-11, 1e-10, ""),
    )


class TestCrossKindAliasing:
    def test_cache_put_refuses_kind_mismatch(self):
        cache = PlanCache()
        spec = (100, "geometric", {}, "pareto", {})
        with pytest.raises(PartitionError):
            cache.put("k", time_plan(), "mfp", spec=spec)

    def test_check_spec_kind_defaults_legacy_specs_to_time(self):
        check_spec_kind(time_plan(), (100, "geometric", {}))
        check_spec_kind(time_plan(), None)

    def test_durable_cache_refuses_before_journaling(self, tmp_path):
        cache = DurablePlanCache(tmp_path / "plans.json")
        cache.recover()
        with pytest.raises(PartitionError):
            cache.put("k", time_plan(), "mfp",
                      spec=(100, "geometric", {}, "pareto", {}))
        # The poisoned record must not have reached the journal: a
        # fresh recovery replays zero operations.
        fresh = DurablePlanCache(tmp_path / "plans.json")
        snapshot_entries, wal_ops = fresh.recover()
        assert (snapshot_entries, wal_ops) == (0, 0)

    def test_time_plan_never_serves_pareto_request(self, server):
        """The end-to-end regression: same models, different kinds."""
        out = handle_request(server, {"cmd": "plan", "total": 1000})
        assert "code" not in out and out.get("kind", "time") == "time"
        hit = server.try_cached(1000, None, {}, "pareto", {})
        assert hit is None
        out2 = handle_request(
            server, {"cmd": "plan", "total": 1000, "objective": "pareto"})
        assert out2["kind"] == "pareto" and not out2["cached"]
        assert out2["front"], "pareto plan must carry its front"

    def test_replicate_rejects_cross_kind_push(self, tmp_path):
        from repro.serve.replicate import PlanReplicator

        rep = PlanReplicator("shard-0", PlanCache(), replicas=1)
        result = time_plan(key="k1")
        status, body = rep.apply_replicate({
            "key": "k1",
            "models_fp": "mfp",
            "result": result.to_dict(),
            "spec": [100, "geometric", {}, "pareto", {}],
        })
        assert status == 400
        assert "rejected replicated plan" in body["error"]
        assert rep.cache.get("k1") is None


class TestServingRoundTrip:
    def test_pareto_plan_round_trips_through_wal(self, tmp_path, platform):
        models, emodels = platform
        cache = DurablePlanCache(tmp_path / "plans.json")
        cache.recover()
        srv = PlanServer(models, engine=PlanEngine(cache=cache))
        srv.attach_energy(emodels)
        out = handle_request(
            srv, {"cmd": "plan", "total": 2000, "objective": "pareto",
                  "alpha": 0.5})
        assert out["kind"] == "pareto"
        # A recovered cache serves the identical front without solving.
        recovered = DurablePlanCache(tmp_path / "plans.json")
        recovered.recover()
        srv2 = PlanServer(models, engine=PlanEngine(cache=recovered))
        srv2.attach_energy(emodels)
        out2 = handle_request(
            srv2, {"cmd": "plan", "total": 2000, "objective": "pareto",
                   "alpha": 0.5})
        assert out2["cached"]
        assert out2["sizes"] == out["sizes"]
        assert [p["sizes"] for p in out2["front"]] == [
            p["sizes"] for p in out["front"]]

    def test_time_endpoint_matches_time_only_plan(self, server):
        pareto = handle_request(
            server, {"cmd": "plan", "total": 5000, "objective": "pareto",
                     "alpha": 1.0})
        time_only = handle_request(server, {"cmd": "plan", "total": 5000})
        assert pareto["front"][0]["sizes"] == time_only["sizes"]
        assert pareto["sizes"] == time_only["sizes"]

    def test_energy_cap_selection(self, server):
        sweep = handle_request(
            server, {"cmd": "plan", "total": 5000, "objective": "pareto"})
        energies = [float(p["energy"]) for p in sweep["front"]]
        cap = sorted(energies)[len(energies) // 2]
        out = handle_request(
            server, {"cmd": "plan", "total": 5000, "objective": "pareto",
                     "energy_cap": cap})
        picked = [p for p in out["front"] if p["sizes"] == out["sizes"]]
        assert picked and float(picked[0]["energy"]) <= cap

    def test_infeasible_energy_cap_is_500_not_silent(self, server):
        out = handle_request(
            server, {"cmd": "plan", "total": 5000, "objective": "pareto",
                     "energy_cap": 1e-9})
        assert out["code"] == 500  # solver-level PartitionError

    def test_plans_by_kind_in_metrics(self, server):
        handle_request(server, {"cmd": "plan", "total": 1000})
        handle_request(server, {"cmd": "plan", "total": 1000,
                                "objective": "pareto"})
        handle_request(server, {"cmd": "plan", "total": 1000,
                                "objective": "pareto"})
        met = handle_request(server, {"cmd": "metrics"})["metrics"]
        assert met["schema"] == METRICS_SCHEMA
        assert met["plans_by_kind"]["time"] == 1
        assert met["plans_by_kind"]["pareto"] == 2

    def test_fleet_metrics_sum_plans_by_kind(self):
        per_shard = {
            "s0": {"plans_by_kind": {"time": 3, "pareto": 1}},
            "s1": {"plans_by_kind": {"time": 2}},
            "s2": {"error": "unreachable"},
        }
        router = PlanRouter({sid: "http://127.0.0.1:1" for sid in per_shard})
        summary = router._fleet_sections(per_shard)["plans_by_kind"]
        assert summary == {"time": 5, "pareto": 1}


class TestProtocolValidation:
    def test_unknown_objective_is_400(self, server):
        out = handle_request(
            server, {"cmd": "plan", "total": 100, "objective": "carbon"})
        assert out["code"] == 400
        assert "objective" in out["error"]

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, "half", float("nan")])
    def test_bad_alpha_is_400(self, server, alpha):
        out = handle_request(
            server, {"cmd": "plan", "total": 100, "objective": "pareto",
                     "alpha": alpha})
        assert out["code"] == 400
        assert "alpha" in out["error"]

    @pytest.mark.parametrize("cap", [0, -5.0, float("inf"), "lots"])
    def test_bad_energy_cap_is_400(self, server, cap):
        out = handle_request(
            server, {"cmd": "plan", "total": 100, "objective": "pareto",
                     "energy_cap": cap})
        assert out["code"] == 400
        assert "energy_cap" in out["error"]

    @pytest.mark.parametrize("npoints", [1, 0, 65, 2.5, "nine"])
    def test_bad_npoints_is_400(self, server, npoints):
        out = handle_request(
            server, {"cmd": "plan", "total": 100, "objective": "pareto",
                     "npoints": npoints})
        assert out["code"] == 400
        assert "npoints" in out["error"]

    def test_objective_params_without_pareto_are_400(self, server):
        out = handle_request(
            server, {"cmd": "plan", "total": 100, "alpha": 0.5})
        assert out["code"] == 400

    def test_pareto_without_energy_models_is_400(self, platform):
        models, _ = platform
        bare = PlanServer(models, engine=PlanEngine(cache=PlanCache()))
        out = handle_request(
            bare, {"cmd": "plan", "total": 100, "objective": "pareto"})
        assert out["code"] == 400
        assert "energy models" in out["error"]

    def test_validate_objective_passes_plain_time(self, server):
        assert validate_objective({"total": 100}, server) == ("time", {})
        assert "time" in PLAN_KINDS and "pareto" in PLAN_KINDS


class TestClientSideValidation:
    """Bad objective parameters never reach the wire."""

    @pytest.fixture
    def client(self):
        def explode(payload):
            raise AssertionError("transport must not be reached")

        return PlanClient(explode, max_attempts=1)

    @pytest.mark.parametrize("alpha", [-0.5, 1.0001, float("nan")])
    def test_alpha_out_of_range(self, client, alpha):
        with pytest.raises(ValueError, match="alpha"):
            client.plan(100, objective="pareto", alpha=alpha)

    @pytest.mark.parametrize("cap", [0.0, -1.0, float("inf"), float("nan")])
    def test_energy_cap_not_positive_finite(self, client, cap):
        with pytest.raises(ValueError, match="energy_cap"):
            client.plan(100, objective="pareto", energy_cap=cap)

    def test_npoints_validated(self, client):
        with pytest.raises(ValueError, match="npoints"):
            client.plan(100, objective="pareto", npoints=1)

    def test_objective_params_require_pareto(self, client):
        with pytest.raises(ValueError, match="objective"):
            client.plan(100, alpha=0.5)

    def test_valid_objective_reaches_transport(self, platform):
        models, emodels = platform
        srv = PlanServer(models, engine=PlanEngine(cache=PlanCache()))
        srv.attach_energy(emodels)
        client = PlanClient(lambda p: handle_request(srv, p), max_attempts=1)
        result = client.plan(1000, objective="pareto", alpha=0.25)
        assert result.kind == "pareto"
        assert result.front
        assert sum(result.sizes) == 1000


class TestWarmStarts:
    def test_neighboring_front_seeds_warm_start_bit_identically(
            self, platform):
        models, emodels = platform
        warm_srv = PlanServer(models, engine=PlanEngine(cache=PlanCache()))
        warm_srv.attach_energy(emodels)
        handle_request(warm_srv, {"cmd": "plan", "total": 10_000,
                                  "objective": "pareto"})
        warm = handle_request(warm_srv, {"cmd": "plan", "total": 10_100,
                                         "objective": "pareto"})
        cold_srv = PlanServer(models, engine=PlanEngine(
            cache=PlanCache(), warm=False))
        cold_srv.attach_energy(emodels)
        cold = handle_request(cold_srv, {"cmd": "plan", "total": 10_100,
                                         "objective": "pareto"})
        assert warm["sizes"] == cold["sizes"]
        assert [p["sizes"] for p in warm["front"]] == [
            p["sizes"] for p in cold["front"]]
        assert [p["time"] for p in warm["front"]] == [
            p["time"] for p in cold["front"]]
        assert warm_srv.engine.counters.warm_starts >= 1

    def test_time_warm_hints_never_cross_kinds(self, server):
        handle_request(server, {"cmd": "plan", "total": 10_000})
        near = server.engine.cache.nearest(
            fingerprint_models(server.models), 10_050, kind="pareto")
        assert near is None


class TestAioFastLane:
    def test_cached_pareto_rides_fast_lane(self, server):
        from repro.serve.aio import try_fast_plan

        payload = {"cmd": "plan", "total": 3000, "objective": "pareto"}
        assert try_fast_plan(server, payload) is None  # cold: slow path
        handle_request(server, payload)
        out = try_fast_plan(server, payload)
        assert out is not None and out["kind"] == "pareto" and out["cached"]

    def test_malformed_objective_falls_through(self, server):
        from repro.serve.aio import try_fast_plan

        assert try_fast_plan(
            server, {"cmd": "plan", "total": 100, "objective": "pareto",
                     "alpha": 7}) is None
