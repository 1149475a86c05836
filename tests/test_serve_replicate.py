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
* its sibling fill asks at most two peers in ring preference order,
  skips failing ones, and shares one client per peer with the pushes;
* its digest is pinned: the entries a fixed cache digests to do not
  move;
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
from repro.core.partition.cert import ConvergenceCert
from repro.core.partition.pareto import ParetoPoint
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
    """A fake fleet: records pushes and cache peeks per shard, fails the
    'down' ones, and serves each shard's ``cached`` plans."""

    def __init__(self):
        self.down = set()
        self.pushes = defaultdict(list)
        self.cached = defaultdict(dict)
        self.probes = []
        self.clients = []
        # What each client carried, by client id: "push" and/or "fill".
        self.users = defaultdict(set)
        self.lock = threading.Lock()

    def factory(self, url, sid, timeout):
        net = self

        class _Client:
            def replicate(self, entry):
                with net.lock:
                    if sid in net.down:
                        raise ConnectionError(f"{sid} unreachable")
                    net.pushes[sid].append(entry)
                    net.users[id(self)].add("push")
                return True

            def get_cached(self, key):
                with net.lock:
                    net.probes.append(sid)
                    net.users[id(self)].add("fill")
                    if sid in net.down:
                        raise ConnectionError(f"{sid} unreachable")
                    return net.cached[sid].get(key)

            def close(self):
                pass

        client = _Client()
        with self.lock:
            self.clients.append((sid, client))
        return client

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


class TestSiblingFill:
    """Fills ask the replicator's own peers, in ring preference order."""

    def _replicator(self, net, replicas=2):
        rep = PlanReplicator(
            "s0", PlanCache(), replicas=replicas, client_factory=net.factory,
        )
        rep.set_peers(roster("s0", "s1", "s2", "s3"))
        return rep

    def _preference(self, rep, request):
        """The peers in ring preference order for the request, self left out."""
        key = affinity_key(request.total, request.partitioner,
                           request.option_dict())
        return [sid for sid in rep._ring.preference(key) if sid != "s0"]

    def test_asks_two_peers_in_preference_order_skipping_itself(self):
        net = StubNet()
        rep = self._replicator(net)
        try:
            request, _ = make_result()
            assert rep.sibling_fill(request) is None  # nobody holds it
            assert net.probes == self._preference(rep, request)[:2]
            assert "s0" not in net.probes
        finally:
            rep.close()

    def test_the_first_peer_holding_the_plan_answers(self):
        net = StubNet()
        rep = self._replicator(net)
        try:
            request, result = make_result()
            first, second = self._preference(rep, request)[:2]
            net.cached[first][request.key] = result
            net.cached[second][request.key] = "not asked"
            assert rep.sibling_fill(request) is result
            assert net.probes == [first]
        finally:
            rep.close()

    def test_a_failing_peer_is_skipped(self):
        net = StubNet()
        rep = self._replicator(net)
        try:
            request, result = make_result()
            first, second, third = self._preference(rep, request)
            net.down.add(first)
            net.cached[second][request.key] = result
            net.cached[third][request.key] = "beyond the cap"
            assert rep.sibling_fill(request) is result
            assert net.probes == [first, second]
            net.probes.clear()
            net.down.add(second)
            assert rep.sibling_fill(request) is None  # two asked, both down
            assert net.probes == [first, second]
        finally:
            rep.close()

    def test_a_single_copy_fleet_still_fills(self):
        net = StubNet()
        rep = self._replicator(net, replicas=1)
        try:
            request, result = make_result()
            home = self._preference(rep, request)[0]
            net.cached[home][request.key] = result
            assert rep.sibling_fill(request) is result
        finally:
            rep.close()

    def test_no_peers_no_probes(self):
        net = StubNet()
        rep = PlanReplicator("s0", PlanCache(), client_factory=net.factory)
        try:
            request, _ = make_result()
            assert rep.sibling_fill(request) is None
            rep.set_peers(roster("s0"))
            assert rep.sibling_fill(request) is None
            assert net.probes == [] and net.clients == []
        finally:
            rep.close()

    def test_one_client_per_peer_carries_fills_and_pushes(self):
        net = StubNet()
        rep = self._replicator(net)
        try:
            assert sorted(sid for sid, _ in net.clients) == ["s1", "s2", "s3"]
            request, result = make_result()
            assert rep.sibling_fill(request) is None
            rep.plan_committed(request, result)
            assert rep.quiesce()
            pushed = [sid for sid in ("s1", "s2", "s3") if net.count(sid)]
            # The replica set is a prefix of the ring preference, so the
            # fill asked every push target, through the same client.
            assert pushed and set(pushed) <= set(net.probes)
            clients = dict(net.clients)
            for sid in pushed:
                assert net.users[id(clients[sid])] == {"fill", "push"}
            assert len(net.clients) == 3  # no client is built per use
            # A new roster builds one client per peer, once.
            rep.set_peers(roster("s0", "s1", "s2"))
            assert sorted(sid for sid, _ in net.clients[3:]) == ["s1", "s2"]
            assert rep.stats()["peers"] == 2
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

    def test_digest_matches_pinned_literals(self):
        """Time and Pareto entries, with and without a spec.

        The literals were computed by the implementation that decoded
        and re-encoded every cached plan before fingerprinting it.
        """
        cert = ConvergenceCert("geometric", True, 7, 64, 0.1 + 0.2, 1e-9,
                               "warm")

        def time_plan(total, sizes, times):
            request = PlanRequest.make(FP, total)
            return request, PlanResult(
                key=request.key, total=total, sizes=tuple(sizes),
                times=tuple(times), algorithm="geometric", cert=cert,
                compute_seconds=0.00123,
            )

        def pareto_plan(total, alpha):
            request = PlanRequest.make(
                FP, total, kind="pareto", energy_fp="e" * 16,
                objective={"alpha": alpha, "npoints": 3},
            )
            fast = ParetoPoint((total - 40, 40), (0.1 * 3, 0.7), 0.7, 12.5,
                               1.0, cert)
            frugal = ParetoPoint((total - 10, 10), (1 / 3, 0.2), 1 / 3, 9.75,
                                 0.0)
            return request, PlanResult(
                key=request.key, total=total, sizes=fast.sizes,
                times=fast.times, algorithm="geometric", cert=cert,
                kind="pareto", front=(fast, frugal), compute_seconds=0.5,
            )

        rep = PlanReplicator("s0", PlanCache(), replicas=2,
                             epoch_source=lambda: (3, "f" * 16))
        try:
            for request, result, with_spec in (
                time_plan(100, (60, 40), (0.6, 0.4 + 1e-17)) + (True,),
                time_plan(250, (200, 50), (2 / 3, 0.1)) + (True,),
                time_plan(300, (150, 150), (1.5, 1.5)) + (False,),
                pareto_plan(500, 0.5) + (True,),
                pareto_plan(700, 0.25) + (False,),
            ):
                rep.cache.put(request.key, result, request.models_fp,
                              spec=request.spec if with_spec else None)
            assert rep.digest() == {
                "shard_id": "s0",
                "entries": [
                    ["767bdc0d22cbf7af787cd843b58b06790cdb02f17d2f9b656ca6052d4807b060",
                     "d1e22a1db597802871fe4ebfde5f3db7b452c564892183ad401f514427657ebe",
                     None],
                    ["aebc6931abd1d8b0a77b6fef5cc52a90937ebab1ee24980d9050333837b31852",
                     "a35bb050b6030e4b34750da8cd2f454968840ba98d7914173233490c9b1378ba",
                     "1b81fef1814fe5d7b8c27266e8377379e686cca5fe83786409248217c383bf1f"],
                    ["b8cb80b4ad8d5ae989751d2d8b1389a8ab96d046cd4d68c6b2178d3b5d01d14e",
                     "5671404f9654057126c6502ba60b5b0ca1be7e4d9cad985f4c9789822d0dc11f",
                     "b35201f9b68eafb36a5fd4bc9c0a2fe4acd0ec0e7fb58d78fac888d6d6c0be37"],
                    ["ce3d727d2c6b1ced8784aba298df310cd8cef6046a555ae2b582702e04f61617",
                     "0e9f03696c078b859f95d896d4c405e30d4b4db6aece909da302e573d8105375",
                     "a4648b4258c929430de089db258afd5322766698ebc91d6036d779c9ab8648a8"],
                    ["d759cd3841dd291c930d56c70dbdea5692bf74076c10e813f50ca682d76cec99",
                     "e419f8098d369ec9148285aa4e7f973a3358f44e1df1c8a44a47d205877f4b78",
                     None],
                ],
                "pending_hints": 0,
                "fingerprint_version": "fp1",
                "epoch": 3,
                "models_fp": "f" * 16,
            }
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
