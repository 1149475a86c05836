"""Write-ahead journal for the plan cache (crash-safe serving).

Whole-file snapshots (:mod:`repro.io.plans`) only persist the cache at
shutdown; a killed ``fupermod serve`` process loses every plan computed
since the last save.  This module closes that gap with the same
journalling discipline as :class:`repro.io.checkpoint.SweepCheckpoint`:

* :class:`PlanWAL` is an append-only journal of cache *operations*
  (``put`` / ``invalidate`` / ``clear``), one fsynced JSON line each, so
  the on-disk log is always a durable prefix of the mutations applied;
* :class:`DurablePlanCache` is a :class:`~repro.serve.cache.PlanCache`
  that journals every mutation **before** applying it (write-ahead), and
  recovers bit-for-bit from ``snapshot + WAL replay`` -- replaying the
  operation log through the same ``put`` path reproduces the same LRU
  order and the same evictions, so a SIGKILL loses at most the one torn
  tail record of an interrupted commit;
* :meth:`DurablePlanCache.compact` atomically rewrites the snapshot
  (temp file + ``os.replace``, reusing the idiom of
  ``SweepCheckpoint.compact``) and truncates the journal; compaction
  runs automatically every ``compact_every`` journaled operations and on
  graceful shutdown (:meth:`DurablePlanCache.close`).

Journal records carry the fingerprint version: a log written under a
different :data:`~repro.serve.fingerprint.FINGERPRINT_VERSION` replays
as empty (mirroring the snapshot contract), because its keys can never
match -- and could falsely match -- requests under the current encoding.

**Durability degradation.**  A dead disk must not take the serving path
down with it: with a ``durability_budget`` configured, journal-append
failures are absorbed instead of raised.  Every failed append still
lands the mutation in memory (the request succeeds, acknowledged
``durable: false``), and once ``durability_budget`` *consecutive*
appends have failed the cache trips to **memory-only mode** -- appends
stop entirely, a background probe re-tests the disk every
``probe_interval`` seconds, and on the first successful probe the cache
re-syncs: fresh snapshot, ``os.replace``, journal reset on a brand-new
handle.  The fsyncgate rule is load-bearing here -- a handle that saw a
failed write or fsync is never trusted again (the base journal discards
it at failure time), so healing always starts from a reopened file and
a full re-sync rather than an append to a wounded log.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import PersistenceError
from repro.serve.cache import PlanCache, check_spec_kind
from repro.serve.fingerprint import FINGERPRINT_VERSION
from repro.serve.journal import AppendJournal, Opener
from repro.serve.plan import PlanResult

PathLike = Union[str, Path]

_MAGIC = "fupermod-plan-wal"
_VERSION = 1

#: Operations a journal record may carry.
_OPS = ("put", "invalidate", "clear")


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of reading a journal back.

    Attributes:
        ops: the validated operation records, in commit order.  Records
            written under a different fingerprint version are omitted
            (their keys are meaningless under the current encoding).
        valid_bytes: length of the well-formed prefix of the file; a
            recovering cache truncates the journal here so the torn tail
            of an interrupted commit cannot corrupt later appends.
        dropped_tail: True when a torn final record was dropped (the
            signature of dying mid-write).
    """

    ops: List[Dict[str, Any]]
    valid_bytes: int
    dropped_tail: bool


class PlanWAL(AppendJournal):
    """Append-only, fsynced journal of plan-cache operations.

    One :class:`~repro.serve.journal.AppendJournal` specialised to the
    cache-operation vocabulary (``put`` / ``invalidate`` / ``clear``);
    the append path, torn-tail replay loop and lifecycle live in the
    base, along with the injectable ``opener`` fault seam.

    The journal keeps its file handle open across appends; call
    :meth:`close` (or use :class:`DurablePlanCache` as a context
    manager) when done.  Appends are not internally locked --
    :class:`DurablePlanCache` serialises them under the cache lock so
    journal order always matches apply order.
    """

    magic = _MAGIC
    version = _VERSION
    record_name = "plan-WAL"
    log_name = "WAL"
    op_name = "WAL"
    ops = _OPS

    # -- appending ---------------------------------------------------------

    def _record(self, op: str, **fields: Any) -> Dict[str, Any]:
        return self._stamp(fp=FINGERPRINT_VERSION, op=op, **fields)

    def append_put(
        self,
        key: str,
        models_fp: str,
        result: PlanResult,
        spec: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        """Durably journal one insert before it is applied.

        ``spec`` is the optional ``(total, partitioner, options[, kind,
        objective])`` the cache stores for refit re-solving; journalled
        so it survives a crash along with the entry it annotates.
        """
        fields: Dict[str, Any] = {
            "key": key, "models_fp": models_fp, "result": result.to_dict()
        }
        if spec is not None:
            fields["spec"] = list(spec)
        self._write_line(self._record("put", **fields))

    def append_invalidate(self, key: str) -> None:
        """Durably journal one invalidation."""
        self._write_line(self._record("invalidate", key=key))

    def append_clear(self) -> None:
        """Durably journal a full clear."""
        self._write_line(self._record("clear"))

    # -- replay ------------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Read the committed operations back, tolerating a torn tail.

        A missing journal is empty.  A torn *final* line (interrupted
        mid-write) is dropped; corruption anywhere else raises
        :class:`~repro.errors.PersistenceError` -- a journal with a
        damaged interior cannot be trusted at all.
        """
        entries, valid_bytes, dropped = self.replay_lines()
        ops = [entry for entry in entries if entry is not None]
        return ReplayResult(ops, valid_bytes, dropped)

    def _validate(self, record: Dict[str, Any], lineno: int) -> Optional[Dict[str, Any]]:
        """Validate one journal record; None when fingerprint-mismatched."""
        op = self._check_op(record, lineno)
        if op == "put":
            try:
                # Validate eagerly: a malformed result is corruption, and
                # only a *torn tail* corruption is forgivable.
                PlanResult.from_dict(record["result"])
                str(record["key"]), str(record["models_fp"])
            except Exception as exc:
                raise PersistenceError(
                    f"{self.path}:{lineno}: malformed put record: {exc}"
                ) from None
        elif op == "invalidate" and "key" not in record:
            raise PersistenceError(
                f"{self.path}:{lineno}: invalidate record without a key"
            )
        if record.get("fp") != FINGERPRINT_VERSION:
            return None
        return record


class DurablePlanCache(PlanCache):
    """A plan cache whose every mutation survives a SIGKILL.

    Args:
        snapshot_path: the snapshot file (``repro.io.plans`` format).
        wal_path: the journal file (default: ``<snapshot_path>.wal``).
        compact_every: journaled operations between automatic
            compactions (snapshot rewrite + journal truncation).
        fsync: fsync every journal append (see :class:`PlanWAL`).
        durability_budget: consecutive journal-append failures tolerated
            before the cache trips to memory-only mode.  ``None``
            (default) disables degradation: an append failure raises
            :class:`~repro.errors.PersistenceError` out of the mutation,
            the historical behaviour.
        probe_interval: seconds between background disk re-tests while
            in memory-only mode.
        opener: ``open``-compatible callable for every journal file
            access (the storage fault seam; see
            :mod:`repro.faults.disk`).
        on_transition: called as ``on_transition(mode, reason)`` exactly
            once per durability-mode change (``"memory-only"`` on trip,
            ``"durable"`` on heal) -- the serving layer's
            one-log-line-per-transition hook.  Called under the cache
            lock; keep it cheap and never touch the cache from it.
        **cache_kwargs: forwarded to :class:`~repro.serve.cache.PlanCache`
            (``capacity``, ``ttl``, ``max_bytes``, ``clock``).

    Write-ahead contract: once ``put`` returns, the plan is durable.  A
    crash *between* the journal append and the in-memory apply recovers
    the plan anyway (committed means journaled).  Replay drives the
    journal back through the normal ``put``/``invalidate``/``clear``
    path, so recovery reproduces LRU order and capacity evictions
    bit-for-bit; entries get a fresh TTL lease, exactly as snapshot
    loading does (monotonic clocks do not survive restarts).

    With a ``durability_budget``, the contract weakens *visibly* rather
    than failing: mutations that could not be journaled are applied in
    memory anyway and :meth:`ack_durable` flips False until the next
    successful heal re-sync, so callers always know which promise the
    return of ``put`` carries.
    """

    def __init__(
        self,
        snapshot_path: PathLike,
        wal_path: Optional[PathLike] = None,
        compact_every: int = 256,
        fsync: bool = True,
        durability_budget: Optional[int] = None,
        probe_interval: float = 1.0,
        opener: Optional[Opener] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
        **cache_kwargs: Any,
    ) -> None:
        super().__init__(**cache_kwargs)
        if compact_every <= 0:
            raise ValueError(
                f"compact_every must be positive, got {compact_every}"
            )
        if durability_budget is not None and durability_budget <= 0:
            raise ValueError(
                f"durability_budget must be positive or None, "
                f"got {durability_budget}"
            )
        if probe_interval <= 0:
            raise ValueError(
                f"probe_interval must be positive, got {probe_interval}"
            )
        self.snapshot_path = Path(snapshot_path)
        self.wal = PlanWAL(
            wal_path if wal_path is not None
            else self.snapshot_path.with_name(self.snapshot_path.name + ".wal"),
            fsync=fsync,
            opener=opener,
        )
        self.compact_every = compact_every
        self.compactions = 0
        self._replaying = False
        # -- durability guard state --
        self.durability_budget = durability_budget
        self.probe_interval = probe_interval
        self.on_transition = on_transition
        self._mode = "durable"
        self._append_failures = 0  # consecutive
        self.trips = 0
        self.heals = 0
        self.last_disk_error = ""
        self._probe_stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Tuple[int, int]:
        """Rebuild the cache from ``snapshot + WAL replay``.

        Returns ``(snapshot_entries, wal_ops)``.  A torn journal tail is
        truncated away so subsequent appends start on a clean record
        boundary.  Raises :class:`~repro.errors.PersistenceError` on
        interior corruption of either file.
        """
        from repro.io.plans import load_plan_cache

        with self._lock:
            snapshot_entries = 0
            self._replaying = True
            try:
                if self.snapshot_path.exists():
                    snapshot_entries = load_plan_cache(self.snapshot_path, self)
                replayed = self.wal.replay()
                for op in replayed.ops:
                    if op["op"] == "put":
                        spec = op.get("spec")
                        super().put(
                            str(op["key"]),
                            PlanResult.from_dict(op["result"]),
                            str(op["models_fp"]),
                            spec=tuple(spec) if spec is not None else None,
                        )
                    elif op["op"] == "invalidate":
                        super().invalidate(str(op["key"]))
                    else:
                        super().clear()
            finally:
                self._replaying = False
            if replayed.dropped_tail:
                self.wal.truncate(replayed.valid_bytes)
            self.wal.records = len(replayed.ops)
            return snapshot_entries, len(replayed.ops)

    # -- the durability guard ----------------------------------------------

    @property
    def durability_mode(self) -> str:
        """``"durable"`` or ``"memory-only"``."""
        return self._mode

    def ack_durable(self) -> bool:
        """Whether an acknowledgement issued *now* may claim durability.

        False while in memory-only mode **and** while the most recent
        journal append failed (the pre-trip window): a plan whose append
        was absorbed is in memory only, even though the cache has not
        given up on the disk yet.
        """
        return self._mode == "durable" and self._append_failures == 0

    def _journal(self, append: Callable[[], None]) -> bool:
        """Run one WAL append under the guard; True when journaled.

        Caller holds the lock.  With no ``durability_budget`` a failure
        propagates (historical behaviour).  With one, the failure is
        absorbed -- counted, and once the budget is exhausted the cache
        trips to memory-only mode.  In memory-only mode appends are not
        attempted at all (the disk is known dead; the probe owns it).
        """
        if self._mode != "durable":
            return False
        try:
            append()
        except PersistenceError as exc:
            self.last_disk_error = str(exc)
            if self.durability_budget is None:
                raise
            self._append_failures += 1
            if self._append_failures >= self.durability_budget:
                self._trip(str(exc))
            return False
        else:
            self._append_failures = 0
            return True

    def _trip(self, reason: str) -> None:
        """Enter memory-only mode and start probing for a heal."""
        self._mode = "memory-only"
        self.trips += 1
        self._probe_stop.clear()
        thread = threading.Thread(
            target=self._probe_loop, name="durability-probe", daemon=True
        )
        self._probe_thread = thread
        thread.start()
        if self.on_transition is not None:
            self.on_transition("memory-only", reason)

    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.probe_interval):
            if self.probe_now():
                return

    def _probe_disk(self) -> bool:
        """One write+fsync round-trip against the journal's disk."""
        probe_path = self.wal.path.with_name(self.wal.path.name + ".probe")
        try:
            handle = self.wal.opener(probe_path, "w", encoding="utf-8")
            try:
                handle.write("durability-probe\n")
                handle.flush()
                if self.wal.fsync:
                    self.wal._sync(handle)
            finally:
                handle.close()
        except OSError:
            return False
        finally:
            try:
                probe_path.unlink()
            except OSError:
                pass
        return True

    def probe_now(self) -> bool:
        """Re-test the disk once; heal and re-sync if it answers.

        The background probe calls this on its interval; tests (and
        impatient operators) may call it directly.  Returns True when
        the cache is durable again.
        """
        if self._mode == "durable":
            return True
        if not self._probe_disk():
            return False
        with self._lock:
            if self._mode == "durable":
                return True
            try:
                # fsyncgate: the old handle was discarded at failure
                # time; re-sync from scratch -- fresh snapshot,
                # os.replace, journal reset on a brand-new handle.
                written = self.compact()
            except PersistenceError as exc:
                self.last_disk_error = str(exc)
                return False
            self._mode = "durable"
            self._append_failures = 0
            self.heals += 1
            self._probe_stop.set()
            if self.on_transition is not None:
                self.on_transition(
                    "durable", f"disk healed; re-synced {written} entries"
                )
            return True

    # -- journaled mutations ----------------------------------------------

    def put(
        self,
        key: str,
        result: PlanResult,
        models_fp: str,
        spec: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        """Journal, then insert; durable once this returns.

        The cross-kind aliasing guard runs *before* the journal append:
        a spec/result pair disagreeing on the plan kind must reach
        neither memory nor the WAL (a journaled poisoned record would
        fail every future recovery).
        """
        check_spec_kind(result, spec)
        with self._lock:
            if not self._replaying:
                self._journal(lambda: self.wal.append_put(
                    key, models_fp, result, spec=spec
                ))
            super().put(key, result, models_fp, spec=spec)
            if not self._replaying:
                self._maybe_compact()

    def invalidate(self, key: str) -> bool:
        """Journal, then drop one entry; True if it existed."""
        with self._lock:
            if not self._replaying and key in self._entries:
                self._journal(lambda: self.wal.append_invalidate(key))
            return super().invalidate(key)

    def clear(self) -> None:
        """Journal, then drop every entry."""
        with self._lock:
            if not self._replaying:
                self._journal(self.wal.append_clear)
            super().clear()
            if not self._replaying:
                self._maybe_compact()

    # -- compaction --------------------------------------------------------

    def _maybe_compact(self) -> None:
        # Never compact while degraded: the snapshot rewrite would fail
        # on the same dead disk, and the heal re-sync owns that work.
        if self._mode == "durable" and self.wal.records >= self.compact_every:
            self.compact()

    def compact(self) -> int:
        """Snapshot the live entries atomically and truncate the journal.

        Returns the number of entries written.  Safe against a crash at
        any point: the snapshot lands via temp-file + ``os.replace``,
        and a journal that survives the snapshot merely replays
        idempotent operations already captured by it.
        """
        from repro.io.plans import save_plan_cache

        with self._lock:
            written = save_plan_cache(self.snapshot_path, self)
            self.wal.reset()
            self.compactions += 1
            return written

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: compact, then release the journal handle.

        In memory-only mode there is nothing durable to say goodbye to:
        the probe is stopped and the handle released, but no compaction
        is attempted against the dead disk.
        """
        self._probe_stop.set()
        thread = self._probe_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        with self._lock:
            if self._mode == "durable":
                try:
                    self.compact()
                except PersistenceError as exc:
                    # A disk dying *during* shutdown must not crash the
                    # shutdown path when degradation is on; the journal
                    # already holds everything that could be saved.
                    if self.durability_budget is None:
                        raise
                    self.last_disk_error = str(exc)
            self.wal.close()

    def durability_stats(self) -> Dict[str, Any]:
        """Snapshot of the durability-side counters (for ``/stats``)."""
        with self._lock:
            return {
                "wal_records": self.wal.records,
                "compactions": self.compactions,
                "compact_every": self.compact_every,
                "snapshot": str(self.snapshot_path),
                "mode": self._mode,
                "budget": self.durability_budget,
                "append_errors": self.wal.append_errors,
                "consecutive_failures": self._append_failures,
                "trips": self.trips,
                "heals": self.heals,
                "last_disk_error": self.last_disk_error,
            }

    def __enter__(self) -> "DurablePlanCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
