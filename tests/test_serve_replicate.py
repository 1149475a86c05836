"""Replica placement, hinted handoff and epoch verification -- in process.

The netsplit suite (``test_fleet_netsplit.py``) proves the replication
layer end to end with real worker processes; this file proves the unit
contracts it is built from, without sockets:

* :func:`~repro.serve.replicate.entry_fingerprint` keys digest diffs on
  the full serialized result, not just the cache key;
* :class:`~repro.serve.replicate.HintLog` follows the WAL discipline --
  hint/ack netting on replay, torn tail dropped and truncated, interior
  corruption refused loudly;
* :class:`~repro.serve.replicate.PlanReplicator` pushes committed plans
  to ring successors, journals failed pushes as durable hints, drains
  them when the peer answers again, and survives a home crash between
  the two;
* ``apply_replicate`` refuses entries that do not answer their own key
  (the poisoning guard) and never routes through the engine (no
  replication storms);
* a plan-WAL / lineage-WAL epoch disagreement (torn lineage tail)
  recovers to a consistent *older* epoch and purges the cache entries
  whose fingerprints the shorter lineage can no longer vouch for.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import pytest

from tests.conftest import model_from_time_fn, points_from_time_fn
from repro.core.models import PiecewiseModel
from repro.errors import FuPerModError, PersistenceError
from repro.faults import corrupt_wal
from repro.serve import (
    DurablePlanCache,
    HashRing,
    HintLog,
    ModelLineage,
    PlanCache,
    PlanReplicator,
    PlanRequest,
    PlanResult,
    affinity_key,
    entry_fingerprint,
)
from repro.serve.stack import purge_unverified

pytestmark = [pytest.mark.serve, pytest.mark.fleet]

FP = "a" * 16


def make_result(total=100, sizes=(60, 40), times=(0.6, 0.4), fp=FP,
                partitioner="geometric"):
    request = PlanRequest.make(fp, total, partitioner)
    result = PlanResult(
        key=request.key,
        total=total,
        sizes=list(sizes),
        times=[float(t) for t in times],
        algorithm=partitioner,
    )
    return request, result


def make_entry(total=100, sizes=(60, 40), fp=FP, source="s0"):
    request, result = make_result(total=total, sizes=sizes, fp=fp)
    return {
        "key": request.key,
        "models_fp": fp,
        "result": result.to_dict(),
        "spec": [request.total, request.partitioner, request.option_dict()],
        "source": source,
    }


class StubNet:
    """A fake fleet: records pushes per shard, fails the 'down' ones."""

    def __init__(self):
        self.down = set()
        self.pushes = defaultdict(list)
        self.lock = threading.Lock()

    def factory(self, url, sid, timeout):
        net = self

        class _Client:
            def replicate(self, entry):
                with net.lock:
                    if sid in net.down:
                        raise ConnectionError(f"{sid} unreachable")
                    net.pushes[sid].append(entry)
                return True

            def close(self):
                pass

        return _Client()

    def count(self, sid):
        with self.lock:
            return len(self.pushes[sid])


def roster(*sids):
    return [{"shard_id": sid, "url": f"http://127.0.0.1:0/{sid}"}
            for sid in sids]


def wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestEntryFingerprint:
    def test_covers_the_full_serialized_result(self):
        _, result = make_result()
        same = entry_fingerprint(result.key, result)
        assert entry_fingerprint(result.key, result) == same
        _, drifted = make_result(times=(0.61, 0.4))
        assert drifted.key == result.key  # same request...
        assert entry_fingerprint(result.key, drifted) != same  # ...new bytes

    def test_distinct_keys_distinct_fingerprints(self):
        _, a = make_result(total=100)
        _, b = make_result(total=101, sizes=(61, 40))
        assert entry_fingerprint(a.key, a) != entry_fingerprint(b.key, b)


class TestHintLog:
    def test_replay_nets_acks_and_orders_by_seq(self, tmp_path):
        log = HintLog(tmp_path / "hints.wal")
        log.append_hint(1, "s1", make_entry(total=100))
        log.append_hint(2, "s2", make_entry(total=200, sizes=(120, 80)))
        log.append_ack(1)
        log.close()
        pending, _, dropped = HintLog(tmp_path / "hints.wal").replay()
        assert not dropped
        assert [h["seq"] for h in pending] == [2]
        assert pending[0]["target"] == "s2"

    def test_missing_journal_replays_empty(self, tmp_path):
        pending, valid, dropped = HintLog(tmp_path / "never.wal").replay()
        assert (pending, valid, dropped) == ([], 0, False)

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "hints.wal"
        log = HintLog(path)
        log.append_hint(1, "s1", make_entry())
        log.append_hint(2, "s2", make_entry(total=200, sizes=(150, 50)))
        log.close()
        corrupt_wal(path, "torn-tail")
        reborn = HintLog(path)
        pending, valid_bytes, dropped = reborn.replay()
        assert dropped
        assert [h["seq"] for h in pending] == [1]
        reborn.truncate(valid_bytes)
        # Post-truncate, the journal replays clean.
        pending2, _, dropped2 = HintLog(path).replay()
        assert not dropped2
        assert [h["seq"] for h in pending2] == [1]

    def test_interior_corruption_refused(self, tmp_path):
        path = tmp_path / "hints.wal"
        log = HintLog(path)
        log.append_hint(1, "s1", make_entry())
        log.append_hint(2, "s2", make_entry(total=200, sizes=(150, 50)))
        log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PersistenceError):
            HintLog(path).replay()

    def test_reset_empties_the_journal(self, tmp_path):
        path = tmp_path / "hints.wal"
        log = HintLog(path)
        log.append_hint(1, "s1", make_entry())
        log.reset()
        log.close()
        assert path.stat().st_size == 0
        assert HintLog(path).replay() == ([], 0, False)


class TestReplicaSet:
    def test_replica_set_is_the_ring_preference_prefix(self):
        ring = HashRing()
        for sid in ("s0", "s1", "s2", "s3"):
            ring.add(sid)
        for key in ("alpha", "beta", "gamma"):
            replicas = ring.replica_set(key, 2)
            assert replicas == ring.preference(key, limit=2)
            assert replicas[0] == ring.lookup(key)
            assert len(set(replicas)) == 2

    def test_replica_set_caps_at_membership(self):
        ring = HashRing()
        ring.add("only")
        assert ring.replica_set("k", 3) == ["only"]


class TestPlanReplicator:
    def _replicator(self, net, tmp_path=None, **kwargs):
        kwargs.setdefault("retry_interval", 0.05)
        hint_path = (
            str(tmp_path / "s0.hints") if tmp_path is not None else None
        )
        rep = PlanReplicator(
            "s0", PlanCache(), replicas=2, hint_path=hint_path,
            client_factory=net.factory, **kwargs,
        )
        rep.set_peers(roster("s0", "s1", "s2"))
        return rep

    def _home_target(self, rep, request):
        """The one non-self member of the entry's replica set."""
        key = affinity_key(request.total, request.partitioner,
                           request.option_dict())
        targets = [
            sid for sid in rep._ring.replica_set(key, rep.replicas)
            if sid != rep.shard_id
        ]
        assert len(targets) == 1
        return targets[0]

    def test_committed_plans_push_to_ring_successors(self):
        net = StubNet()
        rep = self._replicator(net)
        try:
            request, result = make_result()
            target = self._home_target(rep, request)
            rep.plan_committed(request, result)
            assert rep.quiesce(timeout=5.0)
            assert net.count(target) == 1
            pushed = net.pushes[target][0]
            assert pushed["key"] == request.key
            assert pushed["source"] == "s0"
            assert PlanResult.from_dict(pushed["result"]).to_dict() \
                == result.to_dict()
            assert rep.stats()["replicas_written"] == 1
        finally:
            rep.close()

    def test_replicas_one_disables_pushing(self):
        net = StubNet()
        rep = PlanReplicator("s0", PlanCache(), replicas=1,
                             client_factory=net.factory)
        rep.set_peers(roster("s0", "s1"))
        try:
            request, result = make_result()
            rep.plan_committed(request, result)
            assert rep.quiesce()
            assert rep.stats()["pending_pushes"] == 0
            assert sum(net.count(s) for s in ("s1",)) == 0
        finally:
            rep.close()

    def test_bad_replica_count_refused(self):
        with pytest.raises(FuPerModError):
            PlanReplicator("s0", PlanCache(), replicas=0)

    def test_failed_push_becomes_a_durable_hint(self, tmp_path):
        net = StubNet()
        rep = self._replicator(net, tmp_path)
        try:
            request, result = make_result()
            target = self._home_target(rep, request)
            net.down.add(target)
            rep.plan_committed(request, result)
            assert rep.quiesce()
            assert wait_for(lambda: rep.stats()["pending_hints"] == 1)
            assert rep.hint_log.records >= 1
            # The peer answers again: the drainer hands the hint off.
            with net.lock:
                net.down.discard(target)
            assert wait_for(lambda: net.count(target) == 1)
            assert wait_for(lambda: rep.stats()["pending_hints"] == 0)
            stats = rep.stats()
            assert stats["hints_queued"] == 1
            assert stats["hints_drained"] == 1
            # Every hint acked: the journal resets to zero bytes.
            assert wait_for(
                lambda: (tmp_path / "s0.hints").stat().st_size == 0
            )
        finally:
            rep.close()

    def test_hints_survive_a_home_crash(self, tmp_path):
        net = StubNet()
        rep = self._replicator(net, tmp_path)
        request, result = make_result()
        target = self._home_target(rep, request)
        net.down.add(target)
        rep.plan_committed(request, result)
        assert rep.quiesce()
        assert wait_for(lambda: rep.stats()["pending_hints"] == 1)
        rep.close()  # the "crash": hints only exist in the journal now

        with net.lock:
            net.down.discard(target)
        reborn = self._replicator(net, tmp_path)
        try:
            assert reborn.recover() == 1
            assert wait_for(lambda: net.count(target) == 1)
            assert net.pushes[target][0]["key"] == request.key
        finally:
            reborn.close()

    def test_hint_cap_abandons_the_oldest(self):
        net = StubNet()
        rep = PlanReplicator(
            "s0", PlanCache(), replicas=2, max_hints=2,
            retry_interval=30.0, client_factory=net.factory,
        )
        rep.set_peers(roster("s0", "s1"))
        try:
            net.down.add("s1")
            for total in (100, 200, 300):
                request, result = make_result(
                    total=total, sizes=(total - 40, 40)
                )
                rep.plan_committed(request, result)
            assert rep.quiesce()
            assert wait_for(lambda: rep.stats()["hints_queued"] == 3)
            stats = rep.stats()
            assert stats["pending_hints"] == 2  # bounded, not growing
            assert stats["hints_dropped"] == 1
        finally:
            rep.close()


class TestApplyReplicate:
    def _receiver(self):
        return PlanReplicator("s1", PlanCache(), replicas=2)

    def test_valid_entry_lands_bit_identically(self):
        rep = self._receiver()
        try:
            entry = make_entry()
            status, reply = rep.apply_replicate(entry)
            assert status == 200 and reply["ok"]
            exported = rep.cache.export_entry(entry["key"])
            assert exported is not None
            result, models_fp, spec = exported
            assert result.to_dict() == entry["result"]
            assert models_fp == FP
            assert list(spec) == entry["spec"]
            assert rep.stats()["replicas_received"] == 1
            assert rep.stats()["repairs_applied"] == 0
        finally:
            rep.close()

    def test_repair_pushes_are_counted(self):
        rep = self._receiver()
        try:
            status, _ = rep.apply_replicate(dict(make_entry(), repair=True))
            assert status == 200
            assert rep.stats()["repairs_applied"] == 1
        finally:
            rep.close()

    @pytest.mark.parametrize("mangle", [
        lambda e: None,
        lambda e: "not a dict",
        lambda e: {k: v for k, v in e.items() if k != "result"},
        lambda e: dict(e, result=dict(e["result"], key="someone-else")),
        lambda e: dict(e, result=dict(e["result"], sizes=[1, 1])),
        lambda e: dict(e, result=dict(e["result"], times=["0.5"])),
    ])
    def test_poisoned_entries_refused(self, mangle):
        rep = self._receiver()
        try:
            status, reply = rep.apply_replicate(mangle(make_entry()))
            assert status == 400 and "error" in reply
            assert rep.cache.export_entry(make_entry()["key"]) is None
            assert rep.stats()["replicas_received"] == 0
        finally:
            rep.close()


class TestDigest:
    def test_digest_is_sorted_and_spec_aware(self):
        rep = PlanReplicator("s0", PlanCache(), replicas=2)
        try:
            with_spec = make_entry(total=100)
            rep.apply_replicate(with_spec)
            _, bare = make_result(total=200, sizes=(150, 50))
            rep.cache.put(bare.key, bare, FP)  # no spec: not placeable
            digest = rep.digest()
            assert digest["shard_id"] == "s0"
            keys = [row[0] for row in digest["entries"]]
            assert keys == sorted(keys) and len(keys) == 2
            by_key = {row[0]: row for row in digest["entries"]}
            assert by_key[with_spec["key"]][2] is not None  # affinity key
            assert by_key[bare.key][2] is None  # anti-entropy skips it
            stored = rep.cache.export_entry(with_spec["key"])[0]
            assert by_key[with_spec["key"]][1] == entry_fingerprint(
                with_spec["key"], stored
            )
            assert digest["pending_hints"] == 0
            assert rep.stats()["digests_served"] == 1
        finally:
            rep.close()

    def test_digest_carries_the_epoch_when_sourced(self):
        rep = PlanReplicator(
            "s0", PlanCache(), replicas=2,
            epoch_source=lambda: (7, "f" * 16),
        )
        try:
            digest = rep.digest()
            assert digest["epoch"] == 7
            assert digest["models_fp"] == "f" * 16
        finally:
            rep.close()


SIZES = [16, 128, 1024, 4096]


def make_models(speeds=(100.0, 200.0)):
    return [
        model_from_time_fn(PiecewiseModel, lambda d, s=s: d / s, SIZES)
        for s in speeds
    ]


def drift_points(speeds, factor, sizes=(48, 2048)):
    return [
        points_from_time_fn(lambda d, s=s: factor * d / s, sizes)
        for s in speeds
    ]


class TestEpochVerification:
    """Satellite: plan WAL vs lineage WAL disagreeing about the epoch."""

    def test_verified_fingerprints_cover_every_committed_epoch(self):
        speeds = (100.0, 200.0)
        lineage = ModelLineage(make_models(speeds))
        root_fp = lineage.fingerprint
        lineage.commit(lineage.propose(drift_points(speeds, 2.0)))
        child_fp = lineage.fingerprint
        verified = lineage.verified_fingerprints()
        assert verified == {root_fp, child_fp}

    def test_purge_drops_only_unverifiable_plans(self):
        lineage = ModelLineage(make_models())
        cache = PlanCache()
        good_req, good = make_result(fp=lineage.fingerprint)
        cache.put(good_req.key, good, lineage.fingerprint)
        bad_req, bad = make_result(total=200, sizes=(150, 50),
                                   fp="dead" * 4)
        cache.put(bad_req.key, bad, "dead" * 4)
        assert purge_unverified(cache, lineage) == 1
        assert cache.export_entry(good_req.key) is not None
        assert cache.export_entry(bad_req.key) is None

    def test_torn_lineage_tail_never_serves_unverifiable_plans(
        self, tmp_path
    ):
        """The epoch-disagreement crash.

        The plan WAL committed a plan against epoch 1's models; the
        lineage WAL lost epoch 1 to a torn tail.  Recovery must land on
        the consistent *older* epoch and refuse to serve the plan whose
        fingerprint the shorter lineage cannot vouch for -- plans from
        surviving epochs stay servable.
        """
        speeds = (100.0, 200.0)
        lineage_wal = tmp_path / "models.lineage"
        snapshot = tmp_path / "plans.json"

        lineage = ModelLineage(make_models(speeds), wal_path=lineage_wal)
        root_fp = lineage.fingerprint
        cache = DurablePlanCache(snapshot)
        old_req, old_plan = make_result(fp=root_fp)
        cache.put(old_req.key, old_plan, root_fp)

        lineage.commit(lineage.propose(drift_points(speeds, 2.0)))
        epoch1_fp = lineage.fingerprint
        new_req, new_plan = make_result(total=200, sizes=(150, 50),
                                        fp=epoch1_fp)
        cache.put(new_req.key, new_plan, epoch1_fp)
        lineage.close()
        cache.wal.close()

        # The crash: the plan WAL kept epoch 1's plan, the lineage WAL
        # tore mid-commit and lost epoch 1 itself.
        corrupt_wal(lineage_wal, "torn-tail")

        reborn_lineage = ModelLineage(make_models(speeds),
                                      wal_path=lineage_wal)
        assert reborn_lineage.recover() == 0
        assert reborn_lineage.epoch == 0
        assert reborn_lineage.fingerprint == root_fp

        reborn_cache = DurablePlanCache(snapshot)
        reborn_cache.recover()
        assert reborn_cache.export_entry(new_req.key) is not None  # replayed

        purged = purge_unverified(reborn_cache, reborn_lineage)
        assert purged == 1
        assert reborn_cache.export_entry(new_req.key) is None
        assert reborn_cache.export_entry(old_req.key) is not None
        served = reborn_cache.export_entry(old_req.key)[0]
        assert served.to_dict() == old_plan.to_dict()
