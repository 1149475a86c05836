"""Fingerprint stability: the contract the plan cache is built on."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import model_from_time_fn
from repro.core.models import (
    AkimaModel,
    ConstantModel,
    LinearModel,
    PchipModel,
    PiecewiseModel,
    SegmentedLinearModel,
)
from repro.core.models.energy import (
    ConstantEnergyModel,
    LinearEnergyModel,
    PiecewiseEnergyModel,
)
from repro.core.partition.pareto import BlendedModel
from repro.core.point import MeasurementPoint
from repro.errors import FuPerModError
from repro.platform.power import ConstantPower, energy_points_from_power
from repro.serve import FeedbackController, ModelLineage, PlanServer
from repro.serve import fingerprint as fingerprint_module
from repro.serve.aio import try_fast_plan
from repro.serve.frontend import handle_request
from repro.serve.fingerprint import (
    canonical,
    digest,
    fingerprint_model,
    fingerprint_models,
    fingerprint_request,
)
from repro.serve.plan import PlanRequest

pytestmark = pytest.mark.serve

MODEL_CLASSES = [
    ConstantModel,
    PiecewiseModel,
    AkimaModel,
    LinearModel,
    PchipModel,
    SegmentedLinearModel,
]

ALL_FAMILIES = MODEL_CLASSES + [
    ConstantEnergyModel,
    LinearEnergyModel,
    PiecewiseEnergyModel,
]

SIZES = [16, 64, 256, 1024]


def _time_fn(d):
    return d / 150.0 + 1e-4


class TestCanonical:
    """The canonical encoding underlying every digest."""

    def test_floats_bit_exact(self):
        assert canonical(0.1) == repr(0.1)
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_negative_zero_distinguished(self):
        assert canonical(-0.0) != canonical(0.0)

    def test_bool_not_confused_with_int(self):
        assert canonical(True) != canonical(1)

    def test_mapping_order_insensitive(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_numpy_scalars_match_python(self):
        np = pytest.importorskip("numpy")
        assert canonical(np.float64(0.25)) == canonical(0.25)
        assert canonical(np.int64(7)) == canonical(7)

    def test_unsupported_type_raises(self):
        with pytest.raises(FuPerModError, match="canonicalise"):
            canonical(object())

    def test_digest_sensitive_to_part_boundaries(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        assert digest("ab", "c") != digest("a", "bc")


class TestModelFingerprints:
    """Fingerprints follow fitted parameters, not object identity."""

    @pytest.mark.parametrize("model_cls", MODEL_CLASSES)
    def test_same_fit_same_fingerprint(self, model_cls):
        a = model_from_time_fn(model_cls, _time_fn, SIZES)
        b = model_from_time_fn(model_cls, _time_fn, SIZES)
        assert fingerprint_model(a) == fingerprint_model(b)

    @pytest.mark.parametrize("model_cls", MODEL_CLASSES)
    def test_different_fit_different_fingerprint(self, model_cls):
        a = model_from_time_fn(model_cls, _time_fn, SIZES)
        b = model_from_time_fn(model_cls, lambda d: d / 75.0 + 1e-4, SIZES)
        assert fingerprint_model(a) != fingerprint_model(b)

    def test_families_never_collide(self):
        fps = {
            fingerprint_model(model_from_time_fn(cls, _time_fn, SIZES))
            for cls in MODEL_CLASSES
        }
        assert len(fps) == len(MODEL_CLASSES)

    def test_fingerprint_resolves_lazy_fit(self):
        model = PiecewiseModel()
        model.update_many(
            [MeasurementPoint(d=d, t=_time_fn(d), reps=1, ci=0.0)
             for d in SIZES]
        )
        # No evaluation has happened yet; fingerprinting must force the
        # fit rather than hash an unfitted placeholder.
        fp_lazy = fingerprint_model(model)
        model.time(100)
        assert fingerprint_model(model) == fp_lazy

    def test_refit_changes_fingerprint(self):
        model = model_from_time_fn(PiecewiseModel, _time_fn, SIZES)
        before = fingerprint_model(model)
        model.update(MeasurementPoint(d=2048, t=_time_fn(2048) * 2, reps=1,
                                      ci=0.0))
        assert fingerprint_model(model) != before

    def test_unfingerprintable_object_raises(self):
        with pytest.raises(FuPerModError, match="fingerprint_state"):
            fingerprint_model(object())


class TestModelSetAndRequest:
    """Set and request fingerprints."""

    def test_rank_order_matters(self):
        fast = model_from_time_fn(ConstantModel, lambda d: d / 200.0, [64])
        slow = model_from_time_fn(ConstantModel, lambda d: d / 50.0, [64])
        assert fingerprint_models([fast, slow]) != fingerprint_models(
            [slow, fast]
        )

    def test_request_varies_with_every_field(self):
        base = fingerprint_request("mfp", 1000, "geometric", {})
        assert fingerprint_request("mfp2", 1000, "geometric", {}) != base
        assert fingerprint_request("mfp", 1001, "geometric", {}) != base
        assert fingerprint_request("mfp", 1000, "numerical", {}) != base
        assert fingerprint_request(
            "mfp", 1000, "geometric", {"probes": 4}
        ) != base

    def test_request_option_order_insensitive(self):
        a = fingerprint_request("m", 10, "geometric", {"a": 1, "b": 2.5})
        b = fingerprint_request("m", 10, "geometric", {"b": 2.5, "a": 1})
        assert a == b


def _fresh(model) -> str:
    """The model's digest hashed from its state now, bypassing any memo."""
    return digest("model", model.fingerprint_state())


@st.composite
def _base_points(draw):
    """2-5 points of an increasing time function ``t = d / speed + lat``."""
    sizes = sorted(draw(st.sets(st.integers(8, 4096), min_size=2, max_size=5)))
    speed = draw(st.floats(50.0, 500.0))
    lat = draw(st.floats(0.0, 1e-3))
    return [MeasurementPoint(d=d, t=d / speed + lat) for d in sizes]


def _slower_point(points, grow: int, slow: float) -> MeasurementPoint:
    """A point past the largest size at a lower speed: it moves every fit."""
    last = points[-1]
    d = last.d * grow
    return MeasurementPoint(d=d, t=d / (slow * last.d / last.t))


_MUTATION = st.tuples(
    st.sampled_from(["update", "update_many"]),
    st.integers(2, 4),
    st.floats(0.3, 0.7),
)


class TestMemoFollowsMutations:
    """A memoised digest never outlives a change to what it hashes."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        points=_base_points(),
        mutations=st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_update_and_update_many_change_the_fingerprint(
        self, family, points, mutations
    ):
        model = family()
        model.update_many(points)
        points = list(points)
        before = fingerprint_model(model)
        assert fingerprint_model(model) == before == _fresh(model)
        for path, grow, slow in mutations:
            new = _slower_point(points, grow, slow)
            if path == "update":
                model.update(new)
            else:
                model.update_many([new])
            points.append(new)
            after = fingerprint_model(model)
            assert after == _fresh(model), path
            assert after != before, path
            before = after

    @settings(max_examples=30, deadline=None)
    @given(
        points=_base_points(),
        mutation=_MUTATION,
        side=st.sampled_from(["time", "energy"]),
        weights=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
    )
    def test_blend_follows_its_components(self, points, mutation, side, weights):
        tm, em = PiecewiseModel(), PiecewiseEnergyModel()
        tm.update_many(points)
        em.update_many([MeasurementPoint(d=p.d, t=30.0 * p.t) for p in points])
        blend = BlendedModel(tm, em, *weights)
        before = fingerprint_model(blend)
        assert fingerprint_model(blend) == before == _fresh(blend)
        _path, grow, slow = mutation
        part = tm if side == "time" else em
        part.update(_slower_point(list(part.points), grow, slow))
        after = fingerprint_model(blend)
        assert after == _fresh(blend)
        assert after != before

    def test_blend_without_component_counters_is_hashed_per_call(self):
        class Bare:
            """A duck-typed model: fingerprintable, no mutation counter."""

            def __init__(self, state):
                self.state = state

            def fingerprint_state(self):
                return ("Bare", self.state)

        part = Bare(1.0)
        blend = BlendedModel(part, Bare(2.0), 0.5, 0.5)
        assert blend.version is None
        before = fingerprint_model(blend)
        part.state = 3.0
        assert fingerprint_model(blend) != before
        assert fingerprint_model(part) == _fresh(part)

    @settings(max_examples=8, deadline=None)
    @given(factor=st.floats(1.5, 2.5))
    def test_feedback_commit_changes_the_served_fingerprint(self, factor):
        speeds = (100.0, 200.0, 400.0)
        models = [
            model_from_time_fn(PiecewiseModel, lambda d, s=s: d / s,
                               [16, 128, 1024, 4096])
            for s in speeds
        ]
        with PlanServer(models, max_workers=1) as server:
            lineage = ModelLineage(server.models)
            server.attach_feedback(
                FeedbackController(server, lineage, refit_every=4)
            )
            first = server.request(700)
            fp_before = fingerprint_models(server.models)
            sizes = (100, 200, 400)
            payload = {
                "cmd": "feedback", "source": "app", "total": 700,
                "sizes": list(sizes),
                "times": [factor * d / s for d, s in zip(sizes, speeds)],
            }
            outs = [server.feedback.handle(payload) for _ in range(4)]
            assert outs[-1]["refit"] == "committed"
            fp_after = fingerprint_models(server.models)
            assert fp_after != fp_before
            assert fp_after == digest(
                "models", [_fresh(m) for m in server.models]
            )
            # The parent's models were not touched, so their memos hold.
            assert fingerprint_models(models) == fp_before
            assert server.request(700).key != first.key


# Exact binary fractions, so every fit below rounds the same way on any
# IEEE-754 platform; the linear families get one point, so their fit is
# one division instead of a LAPACK least-squares solve.
GOLDEN_POINTS = ((16, 0.125), (64, 0.375), (256, 1.25), (1024, 4.5))


def _golden_model(family):
    pts = GOLDEN_POINTS[-1:] if family in (LinearModel, LinearEnergyModel) \
        else GOLDEN_POINTS
    model = family()
    model.update_many([MeasurementPoint(d=d, t=t) for d, t in pts])
    return model


class TestGoldenDigests:
    """``fp1`` digests pinned from before fingerprints were memoised.

    Persisted plan caches, write-ahead journals and replicas are keyed by
    these digests; a change to any of them would turn every stored plan
    into a miss.
    """

    GOLDEN_MODELS = {
        "ConstantModel":
            "07cb8e1d1bd5bff4dac7b9cdf5df14a087e43ec6f9c9ccfd20c4010b00c1b43b",
        "PiecewiseModel":
            "fae47dd92082b6fbadf7f020476de54b3a17e711dec516dd0ba60f5143ec3d8d",
        "AkimaModel":
            "aa974e4e7060da2b5a1eb87e821f74890cb7cc62c8daf4247fff165fa9b83d22",
        "LinearModel":
            "e17924fad67ace5e292e1713f36a5ee66cf587e73c67af5d7e6d4b52d143863c",
        "PchipModel":
            "86e922a34f9514649e7ca95fd8e59709e1272b2ba15e3358d25c8c2d4a4007d7",
        "SegmentedLinearModel":
            "efe629337d94a18d4d31d861b231fb6eff99aade7b52d4db5aaba9acc9b5cb72",
        "ConstantEnergyModel":
            "78bc695b7cda3873e246769a529e68e86c0d77e7c259f0ae56264988cb5aa0c6",
        "LinearEnergyModel":
            "c9a939f0565d79ab83f033019b19504842aa267927e000f1ad454ec0b98d7153",
        "PiecewiseEnergyModel":
            "1912f9fac5089036aaf4137d8c9b77db7f2e2fc7a98ad4e0cede551a5b58072c",
        "BlendedModel":
            "32f10d0455e7af4be7b63859be89efdcd19e0cfda308bff811699a598c938474",
    }
    GOLDEN_SET = (
        "434a07d7df39b4fced31ee57cb7437adfc7ae543ed66bf8dd5e6727c06603cdb")
    GOLDEN_TIME_KEY = (
        "42a923916e8a4cdbafca8f5e4d7a20c0f44a17b2c6a323f5941afc82c227727a")
    GOLDEN_PARETO_KEY = (
        "3882a5cdc1940221fee685dbb5cc3ea23eae9654ebb618e1b2a202d654abc02c")

    def test_model_digests(self):
        got = {f.__name__: fingerprint_model(_golden_model(f))
               for f in ALL_FAMILIES}
        got["BlendedModel"] = fingerprint_model(BlendedModel(
            _golden_model(PiecewiseModel), _golden_model(PiecewiseEnergyModel),
            0.25, 0.75,
        ))
        assert got == self.GOLDEN_MODELS

    def test_set_and_request_keys(self):
        speed = [_golden_model(c)
                 for c in (ConstantModel, PiecewiseModel, AkimaModel)]
        energy = [_golden_model(c) for c in (
            ConstantEnergyModel, PiecewiseEnergyModel, LinearEnergyModel)]
        models_fp = fingerprint_models(speed)
        assert models_fp == self.GOLDEN_SET
        time_key = PlanRequest.make(
            models_fp, 1000, "geometric", {"probes": 4}).key
        assert time_key == self.GOLDEN_TIME_KEY
        pareto_key = PlanRequest.make(
            models_fp, 1000, kind="pareto",
            energy_fp=fingerprint_models(energy),
            objective={"alpha": 0.5, "npoints": 8},
        ).key
        assert pareto_key == self.GOLDEN_PARETO_KEY


def _count_digests(monkeypatch) -> list:
    """Record every ``digest`` call the fingerprint module makes."""
    calls: list = []
    real = fingerprint_module.digest

    def counting(*parts):
        calls.append(parts[0])
        return real(*parts)

    monkeypatch.setattr(fingerprint_module, "digest", counting)
    return calls


def _serve(server, payload):
    """One plan request the way the asyncio front end answers it."""
    out = try_fast_plan(server, payload)
    return out if out is not None else handle_request(server, payload)


class TestDigestCounts:
    """Hashing per request is a count, so it is pinned without a clock."""

    DEVICES = 64
    SIZES = [16, 128, 1024, 4096]

    def platform(self):
        models, energy = [], []
        for rank in range(self.DEVICES):
            speed = 50.0 + 7.0 * rank
            model = model_from_time_fn(
                PiecewiseModel, lambda d, s=speed: d / s, self.SIZES)
            em = PiecewiseEnergyModel()
            em.update_many(energy_points_from_power(
                model.points,
                ConstantPower(idle_watts=8.0, dynamic_watts=20.0 + rank % 4),
            ))
            models.append(model)
            energy.append(em)
        return models, energy

    def test_hits_and_misses_hash_at_most_twice(self, monkeypatch):
        calls = _count_digests(monkeypatch)
        models, energy = self.platform()
        pareto = {"total": 4000, "objective": "pareto", "npoints": 4}
        time_plan = {"total": 20000}
        with PlanServer(models, max_workers=1) as server:
            server.attach_energy(energy)
            _serve(server, pareto)  # warm-up: hashes both model sets
            for payload, cached in (
                (time_plan, False), (time_plan, True), (pareto, True),
            ):
                calls.clear()
                out = _serve(server, payload)
                assert out.get("cached", False) is cached, out
                # One digest, the request key: a miss's slow path takes
                # the request the fast lane built.
                assert len(calls) == 1, (payload, calls)

    def test_feedback_commits_add_no_hashing(self, monkeypatch):
        calls = _count_digests(monkeypatch)
        models, energy = self.platform()
        speeds = [50.0 + 7.0 * rank for rank in range(self.DEVICES)]
        time_plan = {"total": 20000}
        with PlanServer(models, max_workers=1) as server:
            server.attach_energy(energy)
            lineage = ModelLineage(server.models)
            server.attach_feedback(
                FeedbackController(server, lineage, refit_every=4)
            )
            sizes = _serve(server, time_plan)["sizes"]
            calls.clear()
            assert _serve(server, time_plan)["cached"]
            at_epoch_0 = len(calls)
            report = {
                "cmd": "feedback", "source": "app", "total": 20000,
                "sizes": sizes,
                "times": [2.0 * d / s for d, s in zip(sizes, speeds)],
            }
            for epoch in (1, 2, 3):
                outs = [server.feedback.handle(report) for _ in range(4)]
                assert outs[-1]["refit"] == "committed", outs[-1]
                assert lineage.epoch == epoch
            # The commit re-solved the plan, so the next request is a hit.
            calls.clear()
            assert _serve(server, time_plan)["cached"]
            assert len(calls) == at_epoch_0 <= 2
