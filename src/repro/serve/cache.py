"""Thread-safe LRU plan cache with TTL, byte budget and counters.

The cache maps request keys (content fingerprints) to
:class:`~repro.serve.plan.PlanResult` objects.  Eviction is
least-recently-used, with two optional extra pressures:

* ``ttl`` -- entries older than this many seconds are expired lazily on
  access (the clock is injectable for tests; ``time.monotonic`` by
  default, so wall-clock jumps never mass-expire a cache);
* ``max_bytes`` -- an approximate byte budget; entry sizes are estimated
  from their JSON encoding, and inserts evict LRU entries until the
  budget holds.

Every decision is counted: :class:`CacheStats` snapshots hits, misses,
inserts, evictions and expirations so tests and benchmarks can assert the
serving contract ("repeated identical requests never recompute") on the
counters rather than on timing.

A secondary index by model-set fingerprint supports
:meth:`PlanCache.nearest` -- the warm-start lookup: "the cached plan for
these same devices whose total is closest to mine".
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import PartitionError
from repro.serve.plan import PlanResult


def _spec_kind(spec: Optional[Tuple[Any, ...]]) -> str:
    """The plan kind a request spec names (legacy 3-tuples mean "time").

    Specs recorded before plan kinds existed are
    ``(total, partitioner, options)``; kinded specs append the kind as a
    fourth element.  Centralised so the cache, the WAL replayer and the
    replicator all read specs the same way.
    """
    if spec is not None and len(spec) >= 4:
        return str(spec[3])
    return "time"


def check_spec_kind(result: PlanResult, spec: Optional[Tuple[Any, ...]]) -> None:
    """Refuse a spec/result pair that disagrees on the plan kind.

    Entry keys embed the plan kind
    (:func:`~repro.serve.fingerprint.fingerprint_objective_request`), so
    a mismatched pair means some caller built the key for one kind and
    the payload for another -- caching it would let a ``"time"`` plan
    answer a ``"pareto"`` request or vice versa.  Called by
    :meth:`PlanCache.put` and, *before journaling*, by
    :meth:`~repro.serve.wal.DurablePlanCache.put`, so a poisoned entry
    can reach neither memory nor the WAL.

    Raises:
        PartitionError: on a kind mismatch.
    """
    if spec is not None and _spec_kind(spec) != result.kind:
        raise PartitionError(
            f"plan kind mismatch: spec says {_spec_kind(spec)!r} but "
            f"result is {result.kind!r}; refusing to cache a "
            f"cross-kind aliased entry"
        )


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's counters.

    Attributes:
        hits: gets that returned a live entry.
        misses: gets that found nothing (or only an expired entry).
        inserts: puts that stored a new entry.
        evictions: entries dropped for capacity or byte-budget pressure.
        expirations: entries dropped because their TTL ran out.
        entries: live entry count at snapshot time.
        bytes_used: estimated bytes of the live entries.
    """

    hits: int
    misses: int
    inserts: int
    evictions: int
    expirations: int
    entries: int
    bytes_used: int

    @property
    def hit_rate(self) -> float:
        """Fraction of gets served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (for ``/stats`` endpoints)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "entries": self.entries,
            "bytes_used": self.bytes_used,
            "hit_rate": self.hit_rate,
        }


class _Entry:
    """One cached plan plus bookkeeping (internal)."""

    __slots__ = ("result", "models_fp", "stored_at", "nbytes", "spec")

    def __init__(
        self,
        result: PlanResult,
        models_fp: str,
        stored_at: float,
        nbytes: int,
        spec: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        self.result = result
        self.models_fp = models_fp
        self.stored_at = stored_at
        self.nbytes = nbytes
        self.spec = spec


def _estimate_bytes(result: PlanResult) -> int:
    """Approximate in-cache footprint as the JSON encoding's length."""
    return len(json.dumps(result.to_dict(), separators=(",", ":")))


def payload_entry(
    key: str,
    models_fp: str,
    result: PlanResult,
    spec: Optional[Tuple[Any, ...]] = None,
) -> Dict[str, Any]:
    """One cache entry as the JSON-ready dict of :meth:`PlanCache.to_payload`."""
    item: Dict[str, Any] = {
        "key": key,
        "models_fp": models_fp,
        "result": result.to_dict(),
    }
    if spec is not None:
        item["spec"] = list(spec)
    return item


class PlanCache:
    """LRU cache for partition plans, safe for concurrent serving threads.

    Args:
        capacity: maximum entry count (must be positive).
        ttl: optional time-to-live in seconds; ``None`` disables expiry.
        max_bytes: optional approximate byte budget; ``None`` disables it.
        clock: monotonic-seconds source, injectable for deterministic
            TTL tests.

    All public methods take the internal lock, so interleaved get/put
    from many threads never corrupts the LRU order or the counters.
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._capacity = capacity
        self._ttl = ttl
        self._max_bytes = max_bytes
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._by_models: Dict[str, Set[str]] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._evictions = 0
        self._expirations = 0

    # -- internal helpers (caller holds the lock) --------------------------

    def _drop(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        peers = self._by_models.get(entry.models_fp)
        if peers is not None:
            peers.discard(key)
            if not peers:
                del self._by_models[entry.models_fp]

    def _expired(self, entry: _Entry, now: float) -> bool:
        return self._ttl is not None and now - entry.stored_at > self._ttl

    def _live_entry(self, key: str, now: float) -> Optional[_Entry]:
        """The entry for ``key`` if present and unexpired, else None.

        The single expiry gate for every lookup path (``get``,
        ``nearest``, ``__contains__``): a TTL-expired entry is evicted
        and counted as an expiration *here*, so no path can ever hand
        out (or warm-start from) an entry another path would refuse.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._expired(entry, now):
            self._drop(key)
            self._expirations += 1
            return None
        return entry

    def _evict_for_space(self) -> None:
        while len(self._entries) > self._capacity:
            key = next(iter(self._entries))
            self._drop(key)
            self._evictions += 1
        if self._max_bytes is not None:
            while self._bytes > self._max_bytes and len(self._entries) > 1:
                key = next(iter(self._entries))
                self._drop(key)
                self._evictions += 1

    # -- public API --------------------------------------------------------

    def get(self, key: str) -> Optional[PlanResult]:
        """The cached plan for ``key``, or None (counting hit/miss)."""
        with self._lock:
            entry = self._live_entry(key, self._clock())
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.result

    def peek(self, key: str) -> Optional[PlanResult]:
        """The cached plan for ``key`` without counting a hit or a miss.

        Sibling cache-fill probes from peer shards use this: a peer
        peeking for a plan must not skew this shard's hit-rate counters
        or refresh the entry's LRU position (the peer's interest says
        nothing about local access patterns).  TTL expiry still applies
        -- a peek never hands out an entry :meth:`get` would refuse.
        """
        with self._lock:
            entry = self._live_entry(key, self._clock())
            return entry.result if entry is not None else None

    def put(
        self,
        key: str,
        result: PlanResult,
        models_fp: str,
        spec: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        """Store ``result`` under ``key``, evicting as needed.

        ``models_fp`` feeds the secondary warm-start index; pass the
        model-set fingerprint the plan was computed against.  ``spec``
        optionally records the ``(total, partitioner, options[, kind])``
        the plan answers, so a model refit can re-solve invalidated
        entries (:meth:`invalidate_models`) without reverse-engineering
        requests from result keys.

        Raises:
            PartitionError: when ``spec`` names a plan kind that differs
                from ``result.kind``.  Entry keys embed the plan kind
                (``fingerprint_objective_request``), so a mismatched
                spec/result pair means some caller built the key for one
                kind and the payload for another -- caching it would let
                a ``"time"`` plan answer a ``"pareto"`` request or vice
                versa.  Refuse at the boundary instead.
        """
        check_spec_kind(result, spec)
        with self._lock:
            if key in self._entries:
                self._drop(key)
            nbytes = _estimate_bytes(result)
            self._entries[key] = _Entry(
                result, models_fp, self._clock(), nbytes, spec
            )
            self._bytes += nbytes
            self._by_models.setdefault(models_fp, set()).add(key)
            self._inserts += 1
            self._evict_for_space()

    def nearest(
        self,
        models_fp: str,
        total: int,
        exclude: Optional[str] = None,
        kind: str = "time",
    ) -> Optional[PlanResult]:
        """The live cached plan for the same model set nearest in total.

        This is the warm-start lookup: an exact-key miss can still find a
        plan for the *same devices* at a different problem size, whose
        equal-time level scales to a tight initial bracket.  Ties go to
        the smaller total (conservative bracket).  Only plans of the same
        ``kind`` are considered: a pareto front's selected point sits at
        some blend of time and energy, so its level would mis-seed a
        time-only bisection (and vice versa).  Returns None when no live
        same-kind plan for ``models_fp`` exists.
        """
        with self._lock:
            keys = self._by_models.get(models_fp)
            if not keys:
                return None
            now = self._clock()
            best: Optional[_Entry] = None
            best_key: Optional[str] = None
            # _live_entry evicts expired entries, mutating the index set;
            # iterate a copy.
            for key in list(keys):
                entry = self._live_entry(key, now)
                if entry is None or key == exclude or entry.result.total <= 0:
                    continue
                if entry.result.kind != kind:
                    continue
                if best is None or (
                    abs(entry.result.total - total),
                    entry.result.total,
                ) < (abs(best.result.total - total), best.result.total):
                    best, best_key = entry, key
            if best_key is not None:
                self._entries.move_to_end(best_key)
            return best.result if best is not None else None

    def export_entry(
        self, key: str
    ) -> Optional[Tuple[PlanResult, str, Optional[Tuple[Any, ...]]]]:
        """The full stored entry for ``key``: ``(result, models_fp, spec)``.

        The replication and anti-entropy paths use this: pushing a plan
        to a peer needs the model fingerprint and request spec the entry
        was stored under, not just the result.  Like :meth:`peek` it
        neither counts a hit/miss nor refreshes LRU order (a repair
        pulling an entry says nothing about local access patterns), and
        TTL expiry still applies.  Returns None when absent or expired.
        """
        with self._lock:
            entry = self._live_entry(key, self._clock())
            if entry is None:
                return None
            return entry.result, entry.models_fp, entry.spec

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it existed."""
        with self._lock:
            if key not in self._entries:
                return False
            self._drop(key)
            return True

    def invalidate_models(self, models_fp: str) -> List[Optional[Tuple[Any, ...]]]:
        """Drop every entry planned against ``models_fp``.

        This is the refit invalidation hook: when a model lineage commits
        a new epoch, plans computed against the *parent* fingerprint are
        stale -- they answer requests correctly for models nobody serves
        any more.  Returns the recorded request spec of each dropped
        entry, oldest-first (``None`` for entries stored without one), so
        the caller can count the drops and warm-re-solve the spec'd ones
        against the child models off the request path.

        Goes through :meth:`invalidate` per key, so subclasses that
        journal invalidations (``DurablePlanCache``) record each drop.
        """
        with self._lock:
            keys = [
                key
                for key in self._entries
                if self._entries[key].models_fp == models_fp
            ]
            specs = [self._entries[key].spec for key in keys]
            for key in keys:
                self.invalidate(key)
            return specs

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._by_models.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                inserts=self._inserts,
                evictions=self._evictions,
                expirations=self._expirations,
                entries=len(self._entries),
                bytes_used=self._bytes,
            )

    def __len__(self) -> int:
        """Live entry count."""
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership without touching LRU order or hit/miss counters.

        A TTL-expired entry is evicted here too (counted as an
        expiration), so membership agrees with ``get`` *and* leaves the
        same cache state behind.
        """
        with self._lock:
            return self._live_entry(key, self._clock()) is not None

    # -- persistence (payload shape; file I/O lives in repro.io.plans) -----

    def to_payload(self) -> List[Dict[str, Any]]:
        """Entries oldest-first as JSON-ready dicts (LRU order preserved).

        The optional ``spec`` slot (refit re-solve bookkeeping) is
        emitted only when present, so payloads from spec-less caches are
        byte-identical to the pre-lineage format.
        """
        return [payload_entry(*item) for item in self.payload_items()]

    def payload_items(
        self,
    ) -> List[Tuple[str, str, PlanResult, Optional[Tuple[Any, ...]]]]:
        """``(key, models_fp, result, spec)`` per entry, oldest first.

        One locked read: a consistent LRU snapshot whose parts are
        immutable, so :func:`payload_entry` may render them afterwards,
        one at a time.
        """
        with self._lock:
            return [
                (key, entry.models_fp, entry.result, entry.spec)
                for key, entry in self._entries.items()
            ]

    def load_payload(self, payload: List[Dict[str, Any]]) -> int:
        """Insert persisted entries, returning how many were loaded.

        Entries get a *fresh* TTL clock: monotonic timestamps do not
        survive a process restart, so age cannot be carried across one
        (documented in ``docs/API.md``).  Malformed entries raise
        :class:`~repro.errors.PartitionError` via
        :meth:`PlanResult.from_dict`.
        """
        count = 0
        for item in payload:
            result = PlanResult.from_dict(item["result"])
            spec = item.get("spec")
            self.put(
                str(item["key"]),
                result,
                str(item["models_fp"]),
                spec=tuple(spec) if spec is not None else None,
            )
            count += 1
        return count
