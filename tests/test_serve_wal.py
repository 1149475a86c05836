"""Write-ahead journal and durable plan cache: the crash-safety contract.

The invariants under test:

* **write-ahead** -- a plan is journaled (fsynced) before it is applied,
  so once ``put`` returns it is committed;
* **bit-for-bit recovery** -- ``snapshot + WAL replay`` reproduces the
  cache exactly: same entries, same LRU order, same capacity evictions;
* **torn-tail tolerance** -- a journal cut mid-record (SIGKILL during an
  append) recovers everything before the tear and truncates the tear
  away, so later appends land on a clean record boundary;
* **interior corruption refusal** -- damage anywhere *except* the tail
  raises :class:`PersistenceError` instead of replaying records of
  unknown integrity;
* **compaction** -- the journal folds into the snapshot atomically, on
  threshold and on close, and recovery after compaction still matches.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import PersistenceError
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanResult
from repro.serve.wal import DurablePlanCache, PlanWAL

from tests.test_serve_cache import FakeClock, plan

pytestmark = pytest.mark.serve


def entries_of(cache: PlanCache):
    """The cache's full observable content, LRU order included."""
    return cache.to_payload()


def durable(tmp_path, **kwargs) -> DurablePlanCache:
    return DurablePlanCache(tmp_path / "plans.json", **kwargs)


class TestPlanWAL:
    """The journal file itself."""

    def test_missing_journal_replays_empty(self, tmp_path):
        wal = PlanWAL(tmp_path / "never-written.wal")
        replayed = wal.replay()
        assert replayed.ops == []
        assert replayed.valid_bytes == 0
        assert not replayed.dropped_tail

    def test_append_replay_roundtrip(self, tmp_path):
        wal = PlanWAL(tmp_path / "plans.wal")
        wal.append_put("k1", "m1", plan("k1"))
        wal.append_invalidate("k1")
        wal.append_clear()
        wal.close()
        replayed = wal.replay()
        assert [op["op"] for op in replayed.ops] == ["put", "invalidate", "clear"]
        assert replayed.ops[0]["key"] == "k1"
        assert not replayed.dropped_tail
        assert replayed.valid_bytes == (tmp_path / "plans.wal").stat().st_size
        assert PlanResult.from_dict(replayed.ops[0]["result"]) == plan("k1")

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        wal = PlanWAL(tmp_path / "plans.wal")
        wal.append_put("k1", "m1", plan("k1"))
        wal.append_put("k2", "m1", plan("k2"))
        wal.close()
        data = (tmp_path / "plans.wal").read_bytes()
        cut = data.index(b"\n") + 1 + 20  # 20 bytes into record 2
        (tmp_path / "plans.wal").write_bytes(data[:cut])
        replayed = wal.replay()
        assert [op["key"] for op in replayed.ops] == ["k1"]
        assert replayed.dropped_tail

    def test_truncate_then_append_keeps_journal_clean(self, tmp_path):
        path = tmp_path / "plans.wal"
        wal = PlanWAL(path)
        wal.append_put("k1", "m1", plan("k1"))
        wal.append_put("k2", "m1", plan("k2"))
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the final record
        replayed = wal.replay()
        wal.truncate(replayed.valid_bytes)
        wal.append_put("k3", "m1", plan("k3"))
        wal.close()
        healed = wal.replay()
        assert [op["key"] for op in healed.ops] == ["k1", "k3"]
        assert not healed.dropped_tail

    def test_interior_corruption_refused(self, tmp_path):
        path = tmp_path / "plans.wal"
        wal = PlanWAL(path)
        for key in ("k1", "k2", "k3"):
            wal.append_put(key, "m1", plan(key))
        wal.close()
        lines = path.read_bytes().split(b"\n")
        lines[1] = b'{"not": "a wal record"}'
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(PersistenceError):
            wal.replay()

    def test_undecodable_bytes_refused(self, tmp_path):
        path = tmp_path / "plans.wal"
        wal = PlanWAL(path)
        wal.append_put("k1", "m1", plan("k1"))
        wal.append_put("k2", "m1", plan("k2"))
        wal.close()
        data = bytearray(path.read_bytes())
        data[3] ^= 0xFF  # interior byte flip -> invalid UTF-8 / JSON
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            wal.replay()

    def test_foreign_fingerprint_records_are_skipped(self, tmp_path):
        path = tmp_path / "plans.wal"
        wal = PlanWAL(path)
        wal.append_put("k1", "m1", plan("k1"))
        wal.close()
        record = json.loads(path.read_text().strip())
        record["fp"] = "fp0-from-the-past"
        record["key"] = "k-old"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        replayed = wal.replay()
        assert [op["key"] for op in replayed.ops] == ["k1"]
        assert not replayed.dropped_tail  # skipped, but well-formed

    def test_malformed_put_payload_is_corruption(self, tmp_path):
        path = tmp_path / "plans.wal"
        wal = PlanWAL(path)
        wal.append_put("k1", "m1", plan("k1"))
        wal.close()
        record = json.loads(path.read_text().strip())
        del record["result"]["sizes"]
        path.write_text(json.dumps(record) + "\n")
        path_second = json.dumps({"op": "put"}) + "\n"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(path_second)
        with pytest.raises(PersistenceError):
            wal.replay()


class TestDurableRecovery:
    """snapshot + WAL replay == the cache that was killed."""

    def test_puts_recover_bit_for_bit(self, tmp_path):
        cache = durable(tmp_path)
        for key in ("a", "b", "c"):
            cache.put(key, plan(key), "m1")
        cache.get("a")  # touch: a becomes most-recent
        before = entries_of(cache)
        cache.wal.close()  # simulate SIGKILL: no compact, no snapshot

        recovered = durable(tmp_path)
        recovered.recover()
        # Replay cannot reproduce the post-put `get` LRU touch (gets are
        # not journaled -- they are not mutations), so compare puts only.
        assert {e["key"] for e in entries_of(recovered)} == {"a", "b", "c"}
        for entry, original in zip(
            sorted(entries_of(recovered), key=lambda e: e["key"]),
            sorted(before, key=lambda e: e["key"]),
        ):
            assert entry == original

    def test_recovery_reproduces_capacity_evictions(self, tmp_path):
        cache = durable(tmp_path, capacity=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, plan(key), "m1")
        before = entries_of(cache)
        assert [e["key"] for e in before] == ["c", "d"]
        cache.wal.close()

        recovered = durable(tmp_path, capacity=2)
        recovered.recover()
        assert entries_of(recovered) == before

    def test_invalidate_and_clear_recover(self, tmp_path):
        cache = durable(tmp_path)
        cache.put("a", plan("a"), "m1")
        cache.put("b", plan("b"), "m1")
        assert cache.invalidate("a")
        before = entries_of(cache)
        cache.wal.close()

        recovered = durable(tmp_path)
        recovered.recover()
        assert entries_of(recovered) == before

        cache2 = durable(tmp_path / "second")
        cache2.put("x", plan("x"), "m1")
        cache2.clear()
        cache2.put("y", plan("y"), "m1")
        cache2.wal.close()
        recovered2 = durable(tmp_path / "second")
        recovered2.recover()
        assert [e["key"] for e in entries_of(recovered2)] == ["y"]

    def test_invalidating_a_missing_key_is_not_journaled(self, tmp_path):
        cache = durable(tmp_path)
        assert not cache.invalidate("never-stored")
        assert cache.wal.records == 0

    def test_torn_tail_loses_at_most_the_last_commit(self, tmp_path):
        cache = durable(tmp_path)
        for key in ("a", "b", "c"):
            cache.put(key, plan(key), "m1")
        cache.wal.close()
        wal_path = cache.wal.path
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-10])  # die mid-append of "c"

        recovered = durable(tmp_path)
        snapshot_entries, wal_ops = recovered.recover()
        assert (snapshot_entries, wal_ops) == (0, 2)
        assert {e["key"] for e in entries_of(recovered)} == {"a", "b"}
        # The tear was truncated: appending and re-recovering stays clean.
        recovered.put("d", plan("d"), "m1")
        recovered.wal.close()
        third = durable(tmp_path)
        third.recover()
        assert {e["key"] for e in entries_of(third)} == {"a", "b", "d"}

    def test_recovery_grants_fresh_ttl_lease(self, tmp_path):
        clock = FakeClock()
        cache = durable(tmp_path, ttl=10.0, clock=clock)
        cache.put("a", plan("a"), "m1")
        cache.wal.close()

        late_clock = FakeClock()
        late_clock.now = 1e6  # a restart far in the future
        recovered = durable(tmp_path, ttl=10.0, clock=late_clock)
        recovered.recover()
        assert recovered.get("a") is not None

    def test_replayed_operations_are_not_rejournaled(self, tmp_path):
        cache = durable(tmp_path)
        for key in ("a", "b"):
            cache.put(key, plan(key), "m1")
        cache.wal.close()
        size_before = cache.wal.path.stat().st_size

        recovered = durable(tmp_path)
        recovered.recover()
        assert recovered.wal.path.stat().st_size == size_before


class TestCompaction:
    """Journal folds into the snapshot; recovery still matches."""

    def test_threshold_compaction_resets_journal(self, tmp_path):
        cache = durable(tmp_path, compact_every=3)
        for key in ("a", "b", "c"):
            cache.put(key, plan(key), "m1")
        assert cache.compactions == 1
        assert cache.wal.records == 0
        assert cache.snapshot_path.exists()
        recovered = durable(tmp_path)
        snapshot_entries, wal_ops = recovered.recover()
        assert (snapshot_entries, wal_ops) == (3, 0)
        assert entries_of(recovered) == entries_of(cache)

    def test_close_compacts(self, tmp_path):
        with durable(tmp_path) as cache:
            cache.put("a", plan("a"), "m1")
            assert not cache.snapshot_path.exists()
        assert cache.snapshot_path.exists()
        assert cache.wal.path.stat().st_size == 0
        recovered = durable(tmp_path)
        assert recovered.recover() == (1, 0)

    def test_post_compaction_mutations_recover(self, tmp_path):
        cache = durable(tmp_path, compact_every=2)
        for key in ("a", "b", "c"):  # compacts after b; c stays journaled
            cache.put(key, plan(key), "m1")
        cache.wal.close()
        recovered = durable(tmp_path)
        snapshot_entries, wal_ops = recovered.recover()
        assert (snapshot_entries, wal_ops) == (2, 1)
        assert entries_of(recovered) == entries_of(cache)

    def test_durability_stats_surface(self, tmp_path):
        cache = durable(tmp_path, compact_every=2)
        cache.put("a", plan("a"), "m1")
        stats = cache.durability_stats()
        assert stats["wal_records"] == 1
        assert stats["compactions"] == 0
        assert stats["compact_every"] == 2

    def test_write_ahead_ordering(self, tmp_path):
        """The journal holds a put before the entry is observable."""
        cache = durable(tmp_path)

        class Journal(PlanWAL):
            observed = []

            def append_put(self, key, models_fp, result, spec=None):
                # At journal time the cache must NOT yet hold the entry.
                Journal.observed.append(key in cache)
                super().append_put(key, models_fp, result, spec=spec)

        cache.wal.close()
        cache.wal = Journal(cache.wal.path)
        cache.put("a", plan("a"), "m1")
        assert Journal.observed == [False]
        assert "a" in cache
