"""Replica placement with hinted handoff for the sharded plan fleet.

Until this module, the fleet kept exactly one copy of each plan: the
home shard the router consistent-hashes its key to.  A SIGKILL (or a
netsplit hiding the home) silently turned every plan that shard owned
into a cold solve.  This module gives each committed plan a **replica
set** -- the home plus its successors clockwise on the hash ring
(:meth:`~repro.serve.hashring.HashRing.replica_set`) -- kept in sync by
three mechanisms, in escalating order of patience:

* **asynchronous replication**: the home's engine fires
  :meth:`PlanReplicator.plan_committed` after every freshly solved plan
  is cached; a background thread pushes the entry to each replica via
  ``POST /replicate``.  Replication is off the request path and
  best-effort -- serving never waits on it.
* **hinted handoff**: a push that fails (replica down, link cut) is
  journalled to a durable :class:`HintLog` -- same fsync / torn-tail
  contract as the plan WAL -- and retried in the background until the
  peer answers again.  A hint survives the *home's* crash too: replay
  nets acked hints out and resumes the unacked ones.
* **anti-entropy**: :meth:`PlanReplicator.digest` serves a sorted
  ``(key, fingerprint)`` digest of this shard's cache (``GET /digest``)
  so the fleet supervisor can diff replica sets after a heal and repair
  divergent entries (``repair`` pushes through the same ``/replicate``
  endpoint).

Plans are replicated as their exact serialized form, so a replica
serving a failed-over read is bit-identical to the home serving it --
the netsplit chaos suite asserts this.  Each push also carries the
home's lineage epoch, so peers (and ``/digest`` readers) can see how
current the source's models were.

The replicator holds the worker's one view of its peers: one ring and
one :class:`~repro.serve.shard.ShardClient` per peer, which carry both
the pushes above and the engine's sibling fill
(:meth:`PlanReplicator.sibling_fill`), so a roster change or a cut link
reaches both at once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FuPerModError, PersistenceError
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import FINGERPRINT_VERSION, affinity_key, digest
from repro.serve.hashring import HashRing
from repro.serve.journal import AppendJournal, Opener
from repro.serve.plan import PlanRequest, PlanResult
from repro.serve.shard import ShardClient

PathLike = Union[str, Path]

_HINT_MAGIC = "fupermod-hint-log"
_HINT_VERSION = 1

#: Default replica set size: the home shard plus one successor.
DEFAULT_REPLICA_SET = 2

#: Peers asked for a cached plan before a local miss solves cold.  Not
#: tied to the replica set size: a ``replicas=1`` fleet still fills from
#: the home shard.
FILL_PROBES = 2

#: Socket timeout of a peer client, seconds: the request path's bound,
#: since fills run on it.  A push that times out becomes a hint.
PEER_TIMEOUT_S = 2.0


def _spec_affinity(spec: Optional[Sequence[Any]]) -> Optional[str]:
    """The ring key of a request spec, or None when it cannot be placed."""
    if not spec:
        return None
    try:
        return affinity_key(int(spec[0]), str(spec[1]), spec[2] or {})
    except Exception:
        return None


def entry_fingerprint(key: str, result: PlanResult) -> str:
    """Content fingerprint of one cached entry, for digest comparison.

    Two shards hold the same entry iff this matches: it covers the key
    and the full serialized result (sizes, times, cert, provenance), so
    a replica that diverged in any served byte shows up in a digest diff.
    """
    return digest("plan-entry", key, result.to_dict())


class HintLog(AppendJournal):
    """Durable journal of undelivered replica pushes (hinted handoff).

    Same discipline as :class:`~repro.serve.wal.PlanWAL` -- both ride
    the shared :class:`~repro.serve.journal.AppendJournal` base
    (append-only fsynced JSON lines, a torn final record dropped and
    truncated away, interior corruption raising
    :class:`~repro.errors.PersistenceError`, an injectable ``opener``
    fault seam).  Two record types:

    * ``hint`` -- one undelivered push: the target shard and the full
      entry payload, under a monotonically increasing sequence number;
    * ``ack`` -- the hint with that sequence number was delivered (or
      deliberately abandoned); replay nets it out.

    Once every journalled hint is acked the log resets to empty, so a
    healthy fleet's hint logs stay at zero bytes.
    """

    magic = _HINT_MAGIC
    version = _HINT_VERSION
    record_name = "hint-log"
    log_name = "hint-log"
    op_name = "hint"
    ops = ("hint", "ack")

    # -- appending ---------------------------------------------------------

    def append_hint(
        self, seq: int, target: str, entry: Dict[str, Any]
    ) -> None:
        """Durably record one undelivered push."""
        self._write_line({
            "magic": _HINT_MAGIC,
            "v": _HINT_VERSION,
            "fp": FINGERPRINT_VERSION,
            "op": "hint",
            "seq": int(seq),
            "target": str(target),
            "entry": entry,
        })

    def append_ack(self, seq: int) -> None:
        """Durably record that hint ``seq`` was delivered (or abandoned)."""
        self._write_line({
            "magic": _HINT_MAGIC,
            "v": _HINT_VERSION,
            "fp": FINGERPRINT_VERSION,
            "op": "ack",
            "seq": int(seq),
        })

    # -- replay ------------------------------------------------------------

    def replay(self) -> Tuple[List[Dict[str, Any]], int, bool]:
        """Read the pending (unacked) hints back, tolerating a torn tail.

        Returns ``(pending, valid_bytes, dropped_tail)`` where
        ``pending`` is the acked-netted hint records in append order.
        Hints written under a different fingerprint version are dropped
        (their keys cannot match current requests); interior corruption
        raises :class:`~repro.errors.PersistenceError`.
        """
        entries, valid_bytes, dropped = self.replay_lines()
        hints: Dict[int, Dict[str, Any]] = {}
        # Every well-formed line counts as a record (foreign-fingerprint
        # hints included -- they occupy journal space until a reset),
        # but only current-fingerprint hints are eligible for delivery.
        self.records = len(entries)
        for record in entries:
            if record is None:
                continue
            seq = int(record["seq"])
            if record["op"] == "hint":
                hints[seq] = record
            else:
                hints.pop(seq, None)
        return [hints[seq] for seq in sorted(hints)], valid_bytes, dropped

    def _validate(self, record: Dict[str, Any], lineno: int) -> Optional[Dict[str, Any]]:
        op = self._check_op(record, lineno)
        try:
            int(record["seq"])
            if op == "hint":
                str(record["target"])
                entry = record["entry"]
                PlanResult.from_dict(entry["result"])
                str(entry["key"]), str(entry["models_fp"])
        except Exception as exc:
            raise PersistenceError(
                f"{self.path}:{lineno}: malformed {op} record: {exc}"
            ) from None
        if record.get("fp") != FINGERPRINT_VERSION:
            return None
        return record


class PlanReplicator:
    """Push committed plans to their ring successors, hinting on failure.

    It also answers the engine's sibling fill from the same peers.

    Args:
        shard_id: this shard's fleet identity (excluded from push
            targets -- the home already holds the entry).
        cache: the local plan cache; ``apply_replicate`` inserts into it
            directly (bypassing the engine, so an applied replica never
            re-replicates -- no replication storms).
        replicas: replica set size including the home.  ``1`` disables
            pushing entirely (the pre-replication fleet).
        hint_path: optional durable hint journal; ``None`` keeps hints
            in memory only (lost on crash, repaired by anti-entropy).
        retry_interval: seconds between background hint-drain attempts
            while hints are pending.
        max_hints: in-memory hint cap; beyond it the oldest hint is
            abandoned (acked away, counted in ``hints_dropped``) --
            anti-entropy repairs whatever abandoned hints would have
            delivered.  A partition must bound memory, not grow it.
        client_factory: ``(url, shard_id, timeout) -> ShardClient``
            seam, called once per peer per roster; the worker passes a
            chaos-wrapping factory so the transport-fault layer covers
            pushes and fills alike.
        epoch_source: optional zero-argument callable returning this
            shard's current ``(epoch, models_fingerprint)``; stamped on
            every push and digest so peers can see source currency.
    """

    def __init__(
        self,
        shard_id: str,
        cache: PlanCache,
        replicas: int = DEFAULT_REPLICA_SET,
        hint_path: Optional[PathLike] = None,
        retry_interval: float = 2.0,
        max_hints: int = 512,
        client_factory: Optional[
            Callable[[str, str, float], ShardClient]
        ] = None,
        epoch_source: Optional[Callable[[], Tuple[int, str]]] = None,
        opener: Optional[Opener] = None,
    ) -> None:
        if replicas <= 0:
            raise FuPerModError(
                f"replica set size must be positive, got {replicas}"
            )
        self.shard_id = shard_id
        self.cache = cache
        self.replicas = replicas
        self.retry_interval = retry_interval
        self.max_hints = max_hints
        self.epoch_source = epoch_source
        self._client_factory = client_factory or (
            lambda url, sid, tmo: ShardClient(url, sid, timeout=tmo)
        )
        self.hint_log: Optional[HintLog] = (
            HintLog(hint_path, opener=opener)
            if hint_path is not None else None
        )
        self._clients: Dict[str, ShardClient] = {}
        self._ring = HashRing()
        self._queue: Deque[Dict[str, Any]] = deque()
        self._hints: List[Dict[str, Any]] = []
        self._next_seq = 1
        self._busy = False
        self._closed = False
        self._cv = threading.Condition()
        self.counters: Dict[str, int] = {
            "replicas_written": 0,
            "replicate_failures": 0,
            "replicas_received": 0,
            "repairs_applied": 0,
            "hints_queued": 0,
            "hints_drained": 0,
            "hints_dropped": 0,
            "digests_served": 0,
        }
        self._thread = threading.Thread(
            target=self._run, name=f"fupermod-replicate-{shard_id}",
            daemon=True,
        )
        self._thread.start()

    # -- recovery ----------------------------------------------------------

    def recover(self) -> int:
        """Reload pending hints from the journal (home-crash recovery).

        Returns the number of pending hints resumed.  A torn tail is
        truncated away; a fully drained log replays to zero hints.
        """
        if self.hint_log is None:
            return 0
        pending, valid_bytes, dropped = self.hint_log.replay()
        if dropped:
            self.hint_log.truncate(valid_bytes)
        with self._cv:
            self._hints = list(pending)
            if pending:
                self._next_seq = max(int(h["seq"]) for h in pending) + 1
            self._cv.notify_all()
        return len(pending)

    # -- membership --------------------------------------------------------

    def set_peers(self, peers: Sequence[Dict[str, str]]) -> int:
        """Install the roster (``[{"shard_id", "url"}, ...]``, self included).

        Builds the ring and one client per peer, which pushes and fills
        share, and returns the peer count.  The supervisor re-broadcasts
        the roster whenever membership changes -- including when a dead
        peer rejoins -- so this doubles as the peer-recovery signal that
        wakes the hint drainer.
        """
        clients: Dict[str, ShardClient] = {}
        ring = HashRing()
        for peer in peers:
            sid, url = str(peer["shard_id"]), str(peer["url"])
            ring.add(sid)
            if sid != self.shard_id:
                clients[sid] = self._client_factory(url, sid, PEER_TIMEOUT_S)
        with self._cv:
            old = self._clients
            self._clients = clients
            self._ring = ring
            self._cv.notify_all()
        for client in old.values():
            try:
                client.close()
            except Exception:
                pass
        return len(clients)

    # -- the read path (engine hook) ---------------------------------------

    def sibling_fill(self, request: PlanRequest) -> Optional[PlanResult]:
        """A peer's cached plan for ``request``, or None (the engine's fill).

        Peers are asked with a pure cache peek (``GET /cache/<key>``) in
        ring preference order for the request's affinity key, so the
        home shard, which the router sends that key to, is asked first.
        A peer that fails is skipped; at most :data:`FILL_PROBES` are
        asked before the engine solves cold.  The engine validates what
        comes back.
        """
        with self._cv:
            clients, ring = self._clients, self._ring
        key = _spec_affinity(request.spec) if clients else None
        if key is None:
            return None
        order = [sid for sid in ring.preference(key) if sid in clients]
        for sid in order[:FILL_PROBES]:
            try:
                got = clients[sid].get_cached(request.key)
            except Exception:
                continue  # dead peer: the next preference may answer
            if got is not None:
                return got
        return None

    # -- the write path (engine hook) --------------------------------------

    def plan_committed(self, request: PlanRequest, result: PlanResult) -> None:
        """Queue one freshly committed plan for replication (non-blocking)."""
        if self.replicas <= 1:
            return
        entry = {
            "key": request.key,
            "models_fp": request.models_fp,
            "result": result.to_dict(),
            "spec": list(request.spec),
            "source": self.shard_id,
        }
        if self.epoch_source is not None:
            try:
                epoch, models_fp = self.epoch_source()
                entry["epoch"] = int(epoch)
                entry["epoch_fp"] = str(models_fp)
            except Exception:
                pass
        with self._cv:
            if self._closed:
                return
            self._queue.append(entry)
            self._cv.notify_all()

    # -- background thread -------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cv:
                while (
                    not self._closed
                    and not self._queue
                    and not self._hints
                ):
                    self._cv.wait()
                if self._closed and not self._queue:
                    return
                item = self._queue.popleft() if self._queue else None
                self._busy = True
            try:
                if item is not None:
                    self._replicate_one(item)
                    continue  # drain the queue before retrying hints
                self._drain_hints()
            finally:
                with self._cv:
                    self._busy = False
                    self._cv.notify_all()
            # Hints (and only hints) pending: pace the retries.
            with self._cv:
                if self._closed:
                    return
                if self._hints and not self._queue:
                    self._cv.wait(self.retry_interval)

    def _targets(self, entry: Dict[str, Any]) -> List[str]:
        """The replica set for this entry's affinity key, minus self."""
        key = _spec_affinity(entry.get("spec"))
        with self._cv:
            ring = self._ring
        if key is None or len(ring) == 0:
            return []
        return [
            sid for sid in ring.replica_set(key, self.replicas)
            if sid != self.shard_id
        ]

    def _push(self, target: str, entry: Dict[str, Any]) -> bool:
        with self._cv:
            client = self._clients.get(target)
        if client is None:
            return False
        try:
            return client.replicate(entry)
        except Exception:
            return False

    def _replicate_one(self, entry: Dict[str, Any]) -> None:
        for target in self._targets(entry):
            if self._push(target, entry):
                with self._cv:
                    self.counters["replicas_written"] += 1
            else:
                self._queue_hint(target, entry)

    def _queue_hint(self, target: str, entry: Dict[str, Any]) -> None:
        with self._cv:
            seq = self._next_seq
            self._next_seq += 1
            self.counters["replicate_failures"] += 1
            self.counters["hints_queued"] += 1
            hint = {"op": "hint", "seq": seq, "target": target,
                    "entry": entry}
            self._hints.append(hint)
            dropped = None
            if len(self._hints) > self.max_hints:
                dropped = self._hints.pop(0)
                self.counters["hints_dropped"] += 1
        if self.hint_log is not None:
            try:
                self.hint_log.append_hint(seq, target, entry)
                if dropped is not None:
                    # Abandoned, not delivered: ack it away so replay
                    # nets to the same bounded set.
                    self.hint_log.append_ack(int(dropped["seq"]))
            except PersistenceError:
                pass  # a full disk must not take the serve path down

    def _drain_hints(self) -> None:
        with self._cv:
            pending = list(self._hints)
        for hint in pending:
            if self._push(str(hint["target"]), hint["entry"]):
                with self._cv:
                    try:
                        self._hints.remove(hint)
                    except ValueError:
                        continue  # a concurrent roster change raced us
                    self.counters["hints_drained"] += 1
                if self.hint_log is not None:
                    try:
                        self.hint_log.append_ack(int(hint["seq"]))
                    except PersistenceError:
                        pass
        with self._cv:
            empty = not self._hints
        if empty and self.hint_log is not None and self.hint_log.records:
            try:
                self.hint_log.reset()
            except PersistenceError:
                pass

    # -- the receive path (worker endpoint) --------------------------------

    def apply_replicate(
        self, payload: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        """Apply one pushed entry; the ``POST /replicate`` handler.

        Validation is the poisoning guard: the result must decode, carry
        the advertised key, and its shares must sum to its total --
        exactly the sibling-fill checks.  A valid entry is inserted
        straight into the cache (never through the engine, so an applied
        replica cannot trigger re-replication).  Returns
        ``(status, response)``.
        """
        if not isinstance(payload, dict):
            return 400, {"error": "replicate payload must be a JSON object"}
        try:
            key = str(payload["key"])
            models_fp = str(payload["models_fp"])
            result = PlanResult.from_dict(payload["result"])
        except Exception as exc:
            return 400, {"error": f"malformed replicate payload: {exc}"}
        if (
            result.key != key
            or sum(result.sizes) != result.total
            or len(result.sizes) != len(result.times)
        ):
            return 400, {
                "error": "replicated plan does not answer its own key"
            }
        spec = payload.get("spec")
        try:
            self.cache.put(
                key, result, models_fp,
                spec=tuple(spec) if spec is not None else None,
            )
        except FuPerModError as exc:
            # The cache's cross-kind aliasing guard: a push whose spec
            # and result disagree on the plan kind is poisoned, refused
            # like any other malformed entry.
            return 400, {"error": f"rejected replicated plan: {exc}"}
        with self._cv:
            self.counters["replicas_received"] += 1
            if payload.get("repair"):
                self.counters["repairs_applied"] += 1
        return 200, {"ok": True, "key": key}

    # -- anti-entropy ------------------------------------------------------

    def digest(self) -> Dict[str, Any]:
        """Sorted ``(key, entry fingerprint, affinity key)`` digest.

        The supervisor diffs these across shards after a heal: a key a
        replica-set member lacks (or holds under a different
        fingerprint) is divergent and gets repaired.  Entries stored
        without a request spec have a ``null`` affinity -- they cannot
        be placed on the ring, so anti-entropy skips them.
        """
        entries = sorted(
            [key, entry_fingerprint(key, result), _spec_affinity(spec)]
            for key, _models_fp, result, spec in self.cache.payload_items()
        )
        with self._cv:
            self.counters["digests_served"] += 1
            pending_hints = len(self._hints)
        out: Dict[str, Any] = {
            "shard_id": self.shard_id,
            "entries": entries,
            "pending_hints": pending_hints,
            "fingerprint_version": FINGERPRINT_VERSION,
        }
        if self.epoch_source is not None:
            try:
                epoch, models_fp = self.epoch_source()
                out["epoch"] = int(epoch)
                out["models_fp"] = str(models_fp)
            except Exception:
                pass
        return out

    # -- introspection and lifecycle ---------------------------------------

    def pending(self) -> Tuple[int, int]:
        """``(queued pushes, pending hints)`` gauges."""
        with self._cv:
            return len(self._queue), len(self._hints)

    def quiesce(self, timeout: float = 10.0) -> bool:
        """Wait until the push queue is empty and the worker is idle.

        Pending *hints* do not block quiescence -- a partition can hold
        hints indefinitely, and quiesce is the tests' and benchmarks'
        "replication has caught up as far as it can" barrier.
        """
        deadline = time.monotonic() + timeout
        with self._cv:
            while self._queue or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(remaining)
            return True

    def stats(self) -> Dict[str, Any]:
        """Replication counters and gauges (for ``/stats`` and ``/metrics``)."""
        with self._cv:
            out: Dict[str, Any] = dict(self.counters)
            out["replicas"] = self.replicas
            out["peers"] = len(self._clients)
            out["pending_pushes"] = len(self._queue)
            out["pending_hints"] = len(self._hints)
            out["durable_hints"] = self.hint_log is not None
        return out

    def close(self, timeout: float = 5.0) -> None:
        """Stop the background thread and release the hint journal."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout)
        if self.hint_log is not None:
            self.hint_log.close()
        with self._cv:
            clients = list(self._clients.values())
        for client in clients:
            try:
                client.close()
            except Exception:
                pass
