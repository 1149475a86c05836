"""PlanCache semantics: LRU, TTL, byte budget, counters, persistence."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.partition.cert import ConvergenceCert
from repro.errors import PartitionError, PersistenceError
from repro.io.plans import load_plan_cache, save_plan_cache
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import FINGERPRINT_VERSION
from repro.serve.plan import PlanResult

pytestmark = pytest.mark.serve


def plan(key: str, total: int = 100, with_cert: bool = True) -> PlanResult:
    """A small synthetic plan for cache tests."""
    cert = (
        ConvergenceCert("geometric", True, 7, 200, 1e-11, 1e-10, "")
        if with_cert
        else None
    )
    return PlanResult(
        key=key,
        total=total,
        sizes=(total // 2, total - total // 2),
        times=(0.5, 0.5),
        algorithm="geometric",
        cert=cert,
        compute_seconds=0.01,
    )


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestLRU:
    """Eviction order and counters."""

    def test_hit_and_miss_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", plan("a"), "m1")
        assert cache.get("a").key == "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.inserts) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_prefers_stale_entries(self):
        cache = PlanCache(capacity=2)
        cache.put("a", plan("a"), "m1")
        cache.put("b", plan("b"), "m1")
        cache.get("a")  # refresh "a"; "b" is now least recent
        cache.put("c", plan("c"), "m1")
        assert "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert cache.stats().evictions == 1

    def test_overwrite_same_key_does_not_grow(self):
        cache = PlanCache(capacity=2)
        cache.put("a", plan("a", 100), "m1")
        cache.put("a", plan("a", 100), "m1")
        assert len(cache) == 1
        assert cache.stats().evictions == 0

    def test_byte_budget_evicts(self):
        one_entry = len(
            __import__("json").dumps(plan("x").to_dict(),
                                     separators=(",", ":"))
        )
        cache = PlanCache(capacity=100, max_bytes=2 * one_entry + 10)
        for key in ("a", "b", "c", "d"):
            cache.put(key, plan(key), "m1")
        assert len(cache) <= 2
        assert cache.stats().evictions >= 2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
        with pytest.raises(ValueError):
            PlanCache(ttl=0.0)
        with pytest.raises(ValueError):
            PlanCache(max_bytes=-1)


class TestTTL:
    """Lazy expiry under an injected clock."""

    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("a", plan("a"), "m1")
        clock.now = 9.0
        assert cache.get("a") is not None
        clock.now = 11.0
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.entries == 0

    def test_nearest_skips_expired(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("old", plan("old", total=100), "m1")
        clock.now = 5.0
        cache.put("new", plan("new", total=500), "m1")
        clock.now = 11.0  # "old" expired, "new" alive
        near = cache.nearest("m1", 120)
        assert near is not None and near.key == "new"

    def test_nearest_and_get_agree_on_expiry(self):
        """Regression: every lookup path shares one TTL gate.

        ``nearest`` must never warm-start from an entry ``get`` would
        refuse, and both must evict (and count) the expired entry
        identically whichever runs first.
        """
        for first_lookup in ("get", "nearest"):
            clock = FakeClock()
            cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
            cache.put("a", plan("a", total=100), "m1")
            clock.now = 15.0
            if first_lookup == "get":
                assert cache.get("a") is None
                assert cache.nearest("m1", 100) is None
            else:
                assert cache.nearest("m1", 100) is None
                assert cache.get("a") is None
            stats = cache.stats()
            # Exactly one expiration however the lookups are ordered.
            assert stats.expirations == 1, first_lookup
            assert stats.entries == 0

    def test_contains_agrees_with_get_on_expiry(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("a", plan("a"), "m1")
        clock.now = 11.0
        assert "a" not in cache
        assert cache.stats().expirations == 1
        assert cache.get("a") is None  # and the state left behind agrees
        assert cache.stats().expirations == 1


class TestNearest:
    """The warm-start lookup."""

    def test_picks_closest_total_for_same_models(self):
        cache = PlanCache(capacity=8)
        cache.put("a", plan("a", total=100), "m1")
        cache.put("b", plan("b", total=1000), "m1")
        cache.put("c", plan("c", total=5000), "m2")
        near = cache.nearest("m1", 900)
        assert near is not None and near.key == "b"

    def test_excludes_requested_key(self):
        cache = PlanCache(capacity=8)
        cache.put("a", plan("a", total=100), "m1")
        assert cache.nearest("m1", 100, exclude="a") is None

    def test_no_entry_for_model_set(self):
        cache = PlanCache(capacity=8)
        cache.put("a", plan("a"), "m1")
        assert cache.nearest("m-other", 100) is None

    def test_eviction_cleans_secondary_index(self):
        cache = PlanCache(capacity=1)
        cache.put("a", plan("a", total=100), "m1")
        cache.put("b", plan("b", total=200), "m2")  # evicts "a"
        assert cache.nearest("m1", 100) is None


class TestConcurrency:
    """Interleaved access from many threads stays consistent."""

    def test_parallel_get_put(self):
        cache = PlanCache(capacity=16)
        errors = []

        def worker(tid: int) -> None:
            try:
                for i in range(200):
                    key = f"k{(tid + i) % 24}"
                    if cache.get(key) is None:
                        cache.put(key, plan(key, total=100 + tid), "m1")
                    cache.nearest("m1", 100 + i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.entries <= 16
        assert stats.hits + stats.misses == 8 * 200

    def test_save_while_serving_never_tears_the_snapshot(self, tmp_path):
        """Persisting under concurrent inserts yields loadable snapshots.

        Every snapshot written while other threads insert must be a
        consistent document -- loadable, internally coherent (each entry
        round-trips), never a torn or half-written file.
        """
        cache = PlanCache(capacity=64)
        cache.put("seed", plan("seed"), "m1")
        path = tmp_path / "plans.json"
        stop = threading.Event()
        errors = []

        def inserter(tid: int) -> None:
            i = 0
            while not stop.is_set():
                key = f"t{tid}-{i}"
                cache.put(key, plan(key, total=100 + i), "m1")
                cache.get(key)
                i += 1

        def saver() -> None:
            try:
                for _ in range(25):
                    saved = save_plan_cache(path, cache)
                    fresh = PlanCache(capacity=64)
                    loaded = load_plan_cache(path, fresh)
                    assert loaded == saved
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=inserter, args=(t,))
                   for t in range(4)]
        save_thread = threading.Thread(target=saver)
        for t in threads:
            t.start()
        save_thread.start()
        save_thread.join(timeout=60.0)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        # The final snapshot on disk is fully loadable too.
        final = PlanCache(capacity=64)
        assert load_plan_cache(path, final) >= 1

    def test_durable_cache_concurrent_puts_recover_consistently(
        self, tmp_path
    ):
        """Journaled inserts from many threads replay without loss."""
        from repro.serve.wal import DurablePlanCache

        cache = DurablePlanCache(tmp_path / "plans.json", capacity=256)
        errors = []

        def worker(tid: int) -> None:
            try:
                for i in range(20):
                    key = f"t{tid}-{i}"
                    cache.put(key, plan(key, total=100 + i), f"m{tid}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        cache.wal.close()  # crash, not close: no compaction
        recovered = DurablePlanCache(tmp_path / "plans.json", capacity=256)
        recovered.recover()
        assert len(recovered) == 80
        assert recovered.to_payload() == cache.to_payload()


class TestPersistence:
    """Round trips through repro.io.plans."""

    def test_roundtrip_preserves_entries_and_certs(self, tmp_path):
        cache = PlanCache(capacity=8)
        cache.put("a", plan("a", total=100), "m1")
        cache.put("b", plan("b", total=200, with_cert=False), "m1")
        path = tmp_path / "plans.json"
        assert save_plan_cache(path, cache) == 2
        fresh = PlanCache(capacity=8)
        assert load_plan_cache(path, fresh) == 2
        got = fresh.get("a")
        assert got.sizes == (50, 50)
        assert got.cert is not None and got.cert.iterations == 7
        assert fresh.get("b").cert is None
        assert fresh.nearest("m1", 150) is not None

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_snapshot_is_the_document_dumped_whole(self, tmp_path, count):
        # The snapshot is written one entry at a time; its bytes must be
        # those of the whole document dumped with indent=2.
        cache = PlanCache(capacity=8)
        for i in range(count):
            spec = (100 + i, "geometric", {"probes": 8}) if i == 1 else None
            cache.put(f"k{i}", plan(f"k{i}", total=100 + i, with_cert=i != 2),
                      "m1", spec=spec)
        path = tmp_path / "plans.json"
        assert save_plan_cache(path, cache) == count
        doc = {
            "format": "fupermod-plan-cache",
            "version": 1,
            "fingerprint_version": FINGERPRINT_VERSION,
            "entries": cache.to_payload(),
        }
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"

    def test_fingerprint_version_mismatch_loads_empty(self, tmp_path):
        cache = PlanCache(capacity=8)
        cache.put("a", plan("a"), "m1")
        path = tmp_path / "plans.json"
        save_plan_cache(path, cache)
        doc = path.read_text()
        path.write_text(doc.replace('"fp1"', '"fp0"'))
        fresh = PlanCache(capacity=8)
        assert load_plan_cache(path, fresh) == 0
        assert len(fresh) == 0

    def test_corrupt_file_raises_persistence_error(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_plan_cache(path, PlanCache())
        path.write_text('{"format": "something-else"}')
        with pytest.raises(PersistenceError, match="not a fupermod"):
            load_plan_cache(path, PlanCache())

    def test_malformed_entry_raises(self, tmp_path):
        cache = PlanCache(capacity=8)
        cache.put("a", plan("a"), "m1")
        path = tmp_path / "plans.json"
        save_plan_cache(path, cache)
        doc = path.read_text().replace('"sizes": [', '"sizes": ["x", ')
        path.write_text(doc)
        with pytest.raises((PartitionError, PersistenceError)):
            load_plan_cache(path, PlanCache())
