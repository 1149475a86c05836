"""A plan miss derives its state once, and every byte it writes is unchanged.

A miss used to rebuild three things that change only with the plan or
the model set: the plan's float text (once each for the cache's byte
estimate, the journal record and the reply), the stacked
:class:`~repro.core.partition.batch.ModelBank` with its per-model
checks, and a scan of every cached plan for the warm-start neighbour.
Each is now derived once per thing it derives from.  This suite pins
what that must not change:

* **bytes**: the HTTP and stdio replies, the journal line, the snapshot
  file and ``bytes_used`` of a miss equal those of an unmemoised copy of
  its plan, for time and Pareto plans at 64 and 128 devices, with and
  without a request ``id`` and under a memory-only ack; the float text
  is rendered once per miss;
* **plans**: a reused bank gives bit for bit the plan a fresh bank
  gives, across an in-place ``update()``, a lineage commit (which also
  frees the retired model set), a duck-typed model without ``version``
  and a Pareto solve's energy bank;
* **lookup**: the indexed :meth:`~repro.serve.cache.PlanCache.nearest`
  answers as a scan of the cache would, and evicts only expired entries
  it meets on the way, through random puts, invalidations, clears,
  evictions, TTL expiry and journal replay.
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import sys
import threading
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.conftest import model_from_time_fn
from repro.core.models import PiecewiseModel
from repro.core.models.energy import PiecewiseEnergyModel
from repro.core.partition import partition_geometric
from repro.core.partition.pareto import ParetoPoint, partition_pareto
from repro.core.point import MeasurementPoint
from repro.faults import DiskFaultPlan, DiskFaults, faulty_open
from repro.io.plans import save_plan_cache
from repro.platform.power import ConstantPower, energy_points_from_power
from repro.serve import DurablePlanCache, ModelLineage, PlanEngine, PlanServer
from repro.serve.aio import AioFrontend, encode_response, try_fast_plan
from repro.serve.cache import PlanCache
from repro.serve.frontend import handle_request, serve_stdio
from repro.serve import plan as plan_module
from repro.serve.plan import PlanResult
from repro.serve.wal import PlanWAL

pytestmark = pytest.mark.serve

SIZES = [16, 128, 1024, 4096]


def platform(devices):
    """Piecewise speed models and their energy twins, one per device."""
    models, energy = [], []
    for rank in range(devices):
        speed = 50.0 + 7.0 * rank
        model = model_from_time_fn(
            PiecewiseModel, lambda d, s=speed: d / s, SIZES)
        em = PiecewiseEnergyModel()
        em.update_many(energy_points_from_power(
            model.points,
            ConstantPower(idle_watts=8.0, dynamic_watts=20.0 + rank % 4),
        ))
        models.append(model)
        energy.append(em)
    return models, energy


def count_text_builds(monkeypatch) -> list:
    """Record every rendering of a result's float text."""
    real = plan_module._render_float_text
    builds: list = []

    def counting(result):
        builds.append(result.key)
        return real(result)

    monkeypatch.setattr(plan_module, "_render_float_text", counting)
    return builds


def same_plan(got, want):
    """Bit-equal shares, times and certificate (compute time aside)."""
    assert got.sizes == tuple(want.sizes)
    assert got.times == tuple(want.times)
    assert got.cert == want.convergence


# -- one float encoding per plan ------------------------------------------


@pytest.fixture(scope="module")
def platforms():
    return {devices: platform(devices) for devices in (64, 128)}


def _serve_miss(server, payload, transport):
    """One miss through a front end; returns the reply bytes."""
    if transport == "http":
        frontend = AioFrontend(server)
        try:
            status, response, extra = asyncio.run(frontend._handle_one(
                "POST", "/plan", json.dumps(payload).encode(), {}))
        finally:
            frontend._pool.shutdown(wait=True)
        return encode_response(status, response, True, extra)
    out = io.StringIO()
    serve_stdio(server, io.StringIO(json.dumps(payload) + "\n"), out)
    return out.getvalue().encode()


def _expected_reply(reply_dict, transport):
    if transport == "http":
        return encode_response(200, reply_dict, True, None)
    return (json.dumps(reply_dict) + "\n").encode()


CASES = [
    (devices, kind, req_id, transport, False)
    for devices in (64, 128)
    for kind in ("time", "pareto")
    for req_id in (None, "req-7")
    for transport in ("http", "stdio")
] + [
    (64, kind, "req-8", transport, True)
    for kind in ("time", "pareto")
    for transport in ("http", "stdio")
]


class TestOneEncodingPerPlan:
    """A miss's bytes equal those of an unmemoised copy of its plan."""

    @pytest.mark.parametrize("devices,kind,req_id,transport,memory_only", CASES)
    def test_miss_bytes_match_an_unmemoised_copy(
        self, tmp_path, platforms, monkeypatch,
        devices, kind, req_id, transport, memory_only,
    ):
        models, energy = platforms[devices]
        if memory_only:
            dead = DiskFaultPlan({"plans.wal*": DiskFaults(
                fail_after=0, error="ENOSPC")})
            cache = DurablePlanCache(
                tmp_path / "plans", fsync=False, durability_budget=1,
                probe_interval=30.0, opener=faulty_open(dead),
            )
        else:
            cache = DurablePlanCache(tmp_path / "plans", fsync=False)
        payload = {"total": 20000 + devices}
        if kind == "pareto":
            payload.update(objective="pareto", npoints=4)
        if req_id is not None:
            payload["id"] = req_id
        with PlanServer(models, engine=PlanEngine(cache=cache),
                        max_workers=1) as server:
            server.attach_energy(energy)
            builds = count_text_builds(monkeypatch)
            reply = _serve_miss(server, payload, transport)
            assert len(builds) == 1, builds
            monkeypatch.undo()

            ((key, models_fp, stored, spec),) = cache.payload_items()
            assert "_float_text" not in vars(stored)  # the miss's alone
            copy = PlanResult.from_dict(stored.to_dict())
            assert copy == stored  # the text parses back to the same floats

            want = copy.to_dict()
            if memory_only:
                want["durable"] = False
            if req_id is not None:
                want["id"] = req_id
            assert reply == _expected_reply(want, transport)

            ref_cache = PlanCache()
            ref_cache.put(key, copy, models_fp, spec=spec)
            assert cache.stats().bytes_used == ref_cache.stats().bytes_used

            journal = cache.wal.path
            lines = journal.read_bytes().splitlines() if journal.exists() else []
            if memory_only:
                assert lines == []
            else:
                ref_wal = PlanWAL(tmp_path / "ref.wal", fsync=False)
                ref_wal.append_put(key, models_fp, copy, spec=spec)
                ref_wal.close()
                assert lines == (tmp_path / "ref.wal").read_bytes().splitlines()
                cache.compact()
                save_plan_cache(tmp_path / "ref.snapshot", ref_cache)
                assert cache.snapshot_path.read_bytes() == (
                    tmp_path / "ref.snapshot").read_bytes()
        cache.close()

    def test_memo_stays_out_of_equality_copies_and_pickles(self, platforms):
        import copy as copy_mod
        import pickle

        models, energy = platforms[64]
        engine = PlanEngine()
        result = engine.plan(models, 5000, kind="pareto",
                             objective={"npoints": 4}, energy_models=energy)
        bare = result.replace()
        plain = pickle.dumps(bare)
        assert "_float_text" in vars(result)  # a miss keeps its text
        first = result.to_dict()
        assert result == bare and hash(result) == hash(bare)
        assert pickle.dumps(result) == plain
        assert "_float_text" not in vars(copy_mod.copy(result))
        assert "_float_text" not in vars(result.replace(cached=True))
        # Every caller gets its own containers.
        first["times"].append("x")
        first["front"][0]["times"].clear()
        assert result.to_dict() == bare.to_dict()


# -- one stacked bank per model set ---------------------------------------


class Unversioned:
    """A duck-typed model: a piecewise fit behind a wrapper, no ``version``."""

    min_points = 1

    def __init__(self, model):
        self._model = model

    @property
    def points(self):
        return self._model.points

    def time(self, x):
        return self._model.time(x)

    def time_batch(self, xs):
        return self._model.time_batch(xs)

    def allocation_batch(self, levels, cap, lo=None, hi=None):
        return self._model.allocation_batch(levels, cap, lo=lo, hi=hi)

    def fingerprint_state(self):
        return ("Unversioned", self._model.fingerprint_state())


def slow_down(model):
    """Re-measure ``model`` three times slower, in place, one ``update`` a point."""
    for point in list(model.points):
        model.update(MeasurementPoint(d=point.d, t=3.0 * point.t, reps=1, ci=0.0))


class TestBankPerModelSet:
    """A reused bank gives the plan a fresh one gives, bit for bit."""

    def test_an_unchanged_set_reuses_its_bank(self):
        models, _ = platform(16)
        engine = PlanEngine(warm=False)
        engine.plan(models, 5000)
        bank = engine._banks["speed"][1]
        same_plan(engine.plan(models, 6000), partition_geometric(6000, models))
        assert engine._banks["speed"][1] is bank
        assert bank.checked

    def test_update_in_place_gets_a_fresh_bank(self):
        models, _ = platform(16)
        engine = PlanEngine(warm=False)
        engine.plan(models, 5000)
        stale = engine._banks["speed"][1]
        slow_down(models[3])
        got = engine.plan(models, 6000)
        want = partition_geometric(6000, list(models))
        same_plan(got, want)
        assert engine._banks["speed"][1] is not stale
        # The test can tell: the stale bank would have answered otherwise.
        assert partition_geometric(6000, stale).sizes != want.sizes

    def test_lineage_commit_solves_on_the_child_and_frees_the_parent(self):
        models, _ = platform(16)
        with PlanServer(models, engine=PlanEngine(warm=False),
                        max_workers=1) as server:
            lineage = ModelLineage(server.models)
            server.request(5000)
            parent = weakref.ref(server.models[3])
            new_points = [[] for _ in models]
            new_points[3] = [
                MeasurementPoint(d=p.d, t=3.0 * p.t, reps=1, ci=0.0)
                for p in models[3].points
            ]
            lineage.commit(lineage.propose(new_points))
            server.models = lineage.models
            del models
            got = server.request(6000)
            same_plan(got, partition_geometric(6000, list(server.models)))
            gc.collect()
            assert parent() is None, "the retired model set is still held"

    def test_models_without_a_version_get_a_fresh_bank(self):
        models, _ = platform(16)
        ducks = [Unversioned(m) for m in models]
        engine = PlanEngine(warm=False)
        same_plan(engine.plan(ducks, 5000), partition_geometric(5000, ducks))
        assert "speed" not in engine._banks
        slow_down(models[3])
        same_plan(engine.plan(ducks, 6000), partition_geometric(6000, ducks))

    @pytest.mark.energy
    def test_pareto_energy_bank_follows_the_energy_models(self):
        models, energy = platform(16)
        engine = PlanEngine(warm=False)

        def front(total):
            return engine.plan(models, total, kind="pareto",
                               objective={"npoints": 4}, energy_models=energy)

        def assert_fresh(got, total):
            want = partition_pareto(total, list(models), list(energy), npoints=4)
            assert got.front == want.points

        assert_fresh(front(5000), 5000)
        speed, power = engine._banks["speed"][1], engine._banks["energy"][1]
        assert_fresh(front(6000), 6000)
        assert engine._banks["energy"][1] is power
        slow_down(energy[2])
        assert_fresh(front(7000), 7000)
        assert engine._banks["energy"][1] is not power
        assert engine._banks["speed"][1] is speed


class TestOneFingerprintPerMiss:
    """The slow path takes the fast lane's request only for the same plan."""

    def test_a_miss_hands_its_request_to_the_slow_path(self, monkeypatch):
        models, _ = platform(8)
        with PlanServer(models, max_workers=1) as server:
            built = []
            real = server.engine.request
            monkeypatch.setattr(server.engine, "request",
                                lambda *a, **k: built.append(a[1]) or real(*a, **k))
            assert server.try_cached(3000) is None
            assert server.request(3000).total == 3000
            assert built == [3000]

    def test_other_arguments_or_swapped_models_build_afresh(self):
        models, _ = platform(8)
        with PlanServer(models, max_workers=1) as server:
            assert server.try_cached(3000) is None
            assert server.request(3100).total == 3100  # other total
            assert server.try_cached(3200) is None
            swapped = [model_from_time_fn(PiecewiseModel, lambda d, s=s: d / s, SIZES)
                       for s in (60.0 + 9.0 * r for r in range(8))]
            server.models = swapped  # a lineage swap between the lanes
            got = server.request(3200)
            assert got.key == server.engine.request(swapped, 3200).key
            same_plan(got, partition_geometric(3200, swapped))


def run_threads(target, count):
    """Run ``target(i)`` on ``count`` threads with a short switch interval."""
    errors: list = []

    def guarded(i):
        try:
            target(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestSharedAcrossThreads:
    """Held banks and handed-off requests never answer for the wrong input."""

    def test_threads_flipping_model_sets_get_their_own_plans(self):
        sets = [platform(8)[0], platform(8)[0]]
        slow_down(sets[1][2])
        totals = [3000 + 37 * i for i in range(16)]
        want = {(s, t): partition_geometric(t, list(sets[s]))
                for s in (0, 1) for t in totals}
        # A one-entry cache makes nearly every request a solve, and the
        # alternating sets make the held bank flip between them.
        engine = PlanEngine(cache=PlanCache(capacity=1), warm=False)
        wrong: list = []

        def solve(worker):
            for i, total in enumerate(totals):
                s = (worker + i) % 2
                got = engine.plan(sets[s], total)
                if (got.sizes, got.times) != (
                    tuple(want[s, total].sizes), tuple(want[s, total].times)
                ):
                    wrong.append((worker, s, total))

        assert run_threads(solve, 6) == []
        assert wrong == []

    def test_handed_off_requests_match_their_payloads(self):
        models, _ = platform(8)
        with PlanServer(models, max_workers=4) as server:
            def serve(worker):
                for i in range(20):
                    total = 2000 + 100 * worker + i
                    payload = {"total": total}
                    out = try_fast_plan(server, payload)
                    if out is None:
                        out = handle_request(server, payload)
                    assert out["total"] == total, out
                    assert out["key"] == server.engine.request(
                        server.models, total).key

            assert run_threads(serve, 6) == []


# -- an indexed warm-start lookup -----------------------------------------


TTL = 5.0
KEYS = [f"k{i}" for i in range(12)]
FPS = ["m0", "m1"]
KINDS = ["time", "pareto"]

# Mostly one model set and kind, plans on a grid of totals that lookups
# fall between, mostly puts and lookups and rare clears: the cache then
# holds enough plans of one (set, kind) for ties and expired neighbours
# to come up.
_fp = st.sampled_from(["m0", "m0", "m0", "m1"])
_kind = st.sampled_from(["time", "time", "time", "pareto"])
_OP_ARGS = {
    "put": st.tuples(st.sampled_from(KEYS), _fp, _kind,
                     st.sampled_from([0, 4, 8, 12, 16])),
    "nearest": st.tuples(_fp, _kind, st.integers(0, 18),
                         st.sampled_from([None] + KEYS)),
    "tick": st.tuples(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
    "get": st.tuples(st.sampled_from(KEYS)),
    "invalidate": st.tuples(st.sampled_from(KEYS)),
    "invalidate_models": st.tuples(_fp),
    "clear": st.just(()),
}
_ops = st.sampled_from(
    ["put"] * 4 + ["nearest"] * 4 + ["tick"] * 2
    + ["get", "invalidate", "invalidate_models", "clear"]
).flatmap(lambda name: _OP_ARGS[name].map(lambda args: (name,) + args))


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _result(key, kind, total):
    front = ()
    if kind == "pareto":
        front = (ParetoPoint(sizes=(total,), times=(0.25,), time=0.25,
                             energy=1.0, alpha=1.0),)
    return PlanResult(key=key, total=total, sizes=(total,), times=(0.25,),
                      algorithm="geometric", kind=kind, front=front)


def _distance(total, result):
    return (abs(result.total - total), result.total)


def check_nearest(cache, clock, stored_at, fp, kind, total, exclude):
    """One ``nearest`` call against a scan of the cache's entries."""
    items = cache.payload_items()
    expired = {k for k, *_ in items if clock.now - stored_at[k] > TTL}
    candidates = [(k, r) for k, f, r, _ in items if f == fp and r.kind == kind]
    live = [(_distance(total, r), k) for k, r in candidates
            if k not in expired and k != exclude and r.total > 0]
    want = min(live)[0] if live else None
    counted = cache.stats().expirations

    got = cache.nearest(fp, total, exclude=exclude, kind=kind)

    after = cache.payload_items()
    dropped = {k for k, *_ in items} - {k for k, *_ in after}
    if want is None:
        assert got is None
    else:
        assert got is not None and _distance(total, got) == want
        assert got.kind == kind and got.key != exclude
        assert after[-1][2] is got, "the answer's LRU position is refreshed"
    # Only expired same-set, same-kind entries are evicted, each counted,
    # and every one nearer than the answer is met and evicted.
    assert cache.stats().expirations - counted == len(dropped)
    assert dropped <= expired & {k for k, _ in candidates}
    bound = want if want is not None else (float("inf"),)
    for k, r in candidates:
        if k in expired and _distance(total, r) < bound:
            assert k in dropped


class TestIndexedNearest:
    """The bisected index answers as the scan of every entry did."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(puts=st.lists(_OP_ARGS["put"], min_size=2, max_size=10),
           ops=st.lists(_ops, min_size=8, max_size=60))
    @example(puts=[("k0", "m0", "time", 4), ("k1", "m0", "time", 8)],
             ops=[("nearest", "m0", "time", 6, None)])  # a tie: the smaller
    @example(puts=[("k0", "m0", "time", 12)],  # an expired neighbour met
             ops=[("tick", 4.0), ("put", "k1", "m0", "time", 16),
                  ("tick", 2.0), ("nearest", "m0", "time", 13, None),
                  ("get", "k0")])
    def test_nearest_agrees_with_a_scan(self, puts, ops):
        clock = Clock()
        cache = PlanCache(capacity=10, ttl=TTL, clock=clock)
        stored_at = {}
        for op in [("put",) + args for args in puts] + ops:
            name = op[0]
            if name == "put":
                _, key, fp, kind, total = op
                cache.put(key, _result(key, kind, total), fp)
                stored_at[key] = clock.now
            elif name == "nearest":
                check_nearest(cache, clock, stored_at, *op[1:])
            elif name == "get":
                present = {k for k, *_ in cache.payload_items()}
                live = op[1] in present and clock.now - stored_at[op[1]] <= TTL
                assert (cache.get(op[1]) is not None) == live
            elif name == "invalidate":
                cache.invalidate(op[1])
            elif name == "invalidate_models":
                cache.invalidate_models(op[1])
            elif name == "clear":
                cache.clear()
            else:
                clock.now += op[1]

    def test_journal_replay_rebuilds_the_index(self, tmp_path):
        path = tmp_path / "plans"
        cache = DurablePlanCache(path, fsync=False, compact_every=1000)
        for i, total in enumerate([300, 100, 200, 500, 400]):
            cache.put(f"t{i}", _result(f"t{i}", "time", total), "m0")
        cache.put("p0", _result("p0", "pareto", 250), "m0")
        cache.invalidate("t3")
        cache.clear()
        cache.put("t1", _result("t1", "time", 100), "m0")
        cache.put("t3", _result("t3", "time", 450), "m1")
        cache.put("p1", _result("p1", "pareto", 350), "m0")
        cache.put("t4", _result("t4", "time", 400), "m0")
        cache.invalidate("t1")
        cache.wal.close()  # a crash: no compaction on the way out
        recovered = DurablePlanCache(path, fsync=False)
        assert recovered.recover() == (0, 13)
        assert sorted(k for k, *_ in recovered.payload_items()) == ["p1", "t3", "t4"]
        clock = Clock()
        stored_at = {k: 0.0 for k, *_ in recovered.payload_items()}
        for total in (0, 90, 150, 260, 455, 999):
            for fp in FPS:
                for kind in KINDS:
                    check_nearest(recovered, clock, stored_at,
                                  fp, kind, total, None)
        recovered.close()
