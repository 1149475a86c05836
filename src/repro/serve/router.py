"""The fleet router: consistent-hash affinity plus FPM-balanced spillover.

The router is the fleet's single public endpoint.  Every request takes
one of two paths:

* **Affinity routing** (the default): the request's
  :func:`~repro.serve.fingerprint.affinity_key` is looked up on a
  consistent-hash ring (:class:`~repro.serve.hashring.HashRing`), so
  identical requests always land on the same *home* shard and the
  fleet's aggregate cache is the union of the shards' caches, not N
  copies of one.  A dead home fails over to the next shard clockwise --
  the same preference order workers use for sibling-fill probes.
* **Balanced routing** (requests carrying ``"affinity": false``): the
  request stream is apportioned by the repo's own machinery, dogfooded.
  Each worker's *service* is modelled as a functional performance model
  -- a :class:`~repro.core.models.PiecewiseModel` fitted to measured
  batch-latency points, exactly as a compute kernel would be -- and a
  registered partitioner divides a slot budget among the workers the
  way it would divide matrix rows among processors.  The resulting
  integer shares drive a deterministic smooth weighted round-robin.
  Latencies observed in flight refit the models online, so a shard that
  slows down sheds load without operator input.

Plans are **relayed as raw bytes**: the router never re-encodes a
worker's response, which makes plans served through the fleet
bit-identical to plans served by the worker directly (the parity tests
assert this).  Shard failures mark the shard dead and reroute; the
supervisor revives it after a restart.

The router also tracks each shard's **durability mode**: the health
probe loop polls live workers' ``GET /health`` and remembers which ones
report ``"durable": false`` (their :class:`~repro.serve.wal.DurablePlanCache`
tripped to memory-only after exhausting its disk failure budget).
Memory-only shards stay fully routable -- they serve correct plans from
memory -- but candidate ordering deprioritizes them so new cold solves
land on shards whose disks can actually keep the result.  Fleet
``/metrics`` (schema ``fupermod-fleet-metrics/4``) aggregates the
per-shard ``durability`` sections plus the router's own view.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.models import PiecewiseModel
from repro.core.point import MeasurementPoint
from repro.errors import FuPerModError, PartitionError
from repro.serve.aio import (
    MAX_BODY_BYTES, AsyncHTTPBase, Reply, merge_deadline_header,
    read_header_block,
)
from repro.serve.fingerprint import affinity_key
from repro.serve.hashring import DEFAULT_REPLICAS, HashRing
from repro.serve.shard import DEADLINE_HEADER, parse_base_url

#: Schema marker of the router's aggregated ``/metrics`` payload.
FLEET_METRICS_SCHEMA = "fupermod-fleet-metrics/4"

#: Slot budget the partitioner divides among workers.  Finer than the
#: worker count by orders of magnitude so shares resolve small speed
#: differences; coarse enough that geometric partitioning is instant.
BALANCE_SLOTS = 240


class RetryBudget:
    """Token-bucket budget for failover retries (the anti-retry-storm).

    The *first* shard tried for a request is always free; every
    additional attempt (a failover after an error) must draw a token.
    Tokens refill at ``rate`` per second up to ``burst``, so a brief
    blip retries freely while a sustained partition quickly degrades to
    "serve from whoever answers first, else fail fast" instead of every
    request hammering the whole candidate list.  Thread-safe; time is
    injected for deterministic tests.
    """

    def __init__(
        self,
        rate: float = 10.0,
        burst: float = 20.0,
        clock=time.monotonic,
    ) -> None:
        if rate < 0.0 or burst <= 0.0:
            raise FuPerModError(
                f"retry budget needs rate >= 0 and burst > 0, "
                f"got rate={rate}, burst={burst}"
            )
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Draw ``tokens`` from the bucket; False means budget exhausted."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def available(self) -> float:
        """Tokens currently in the bucket (refilled to now)."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            return self._tokens


class RoundRobinBalancer:
    """The control: equal turns to every live worker, no model.

    Shares the :class:`FpmBalancer` interface so the router (and the
    benchmark that compares the two) can swap them freely.
    """

    def __init__(self, shard_ids: Sequence[str]) -> None:
        self._ids = sorted(shard_ids)
        self._alive = set(self._ids)
        self._cursor = 0
        self._lock = threading.Lock()

    def seed(self, shard_id: str, points: Sequence[Tuple[float, float]]) -> None:
        """No-op: round-robin has no model to seed."""

    def observe(self, shard_id: str, seconds: float) -> None:
        """No-op: round-robin never adapts."""

    def set_alive(self, shard_id: str, alive: bool) -> None:
        """Mark a worker (un)routable."""
        with self._lock:
            (self._alive.add if alive else self._alive.discard)(shard_id)

    def next(self) -> Optional[str]:
        """The next live worker in strict rotation (None if all dead)."""
        with self._lock:
            if not self._alive:
                return None
            for _ in range(len(self._ids)):
                sid = self._ids[self._cursor % len(self._ids)]
                self._cursor += 1
                if sid in self._alive:
                    return sid
        return None  # pragma: no cover

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot for ``/metrics``."""
        with self._lock:
            return {"policy": "round-robin", "alive": sorted(self._alive)}


class FpmBalancer:
    """Load shares from functional performance models of the workers.

    Args:
        shard_ids: the fleet's worker identities.
        partitioner: registered partitioner dividing the slot budget
            (the dogfooding seam -- the same algorithm that splits
            matrices splits the request stream).
        slots: integer slot budget to divide (resolution of the shares).
        window: sliding-window length of observed per-request latencies
            kept per worker for online refits.
        refresh_every: observations between automatic refits.

    Seeding: the supervisor measures each worker's hit-path service rate
    at startup (timed batches of b requests) and calls :meth:`seed` with
    ``(batch, seconds)`` points; these become the worker's FPM exactly
    as kernel benchmarks become a device's FPM.  :meth:`observe` feeds
    per-request latencies from live traffic; every ``refresh_every``
    observations the models refit from the sliding window and the
    shares re-partition.
    """

    def __init__(
        self,
        shard_ids: Sequence[str],
        partitioner: str = "geometric",
        slots: int = BALANCE_SLOTS,
        window: int = 256,
        refresh_every: int = 64,
    ) -> None:
        if slots < len(shard_ids):
            raise FuPerModError(
                f"{slots} slots cannot cover {len(shard_ids)} workers"
            )
        self.partitioner_name = partitioner
        self.slots = slots
        self.window = window
        self.refresh_every = refresh_every
        self.refits = 0
        self._ids = sorted(shard_ids)
        self._alive = set(self._ids)
        self._seeds: Dict[str, List[MeasurementPoint]] = {}
        self._observed: Dict[str, Deque[float]] = {
            sid: deque(maxlen=window) for sid in self._ids
        }
        self._since_refresh = 0
        self._weights: Dict[str, int] = {sid: 1 for sid in self._ids}
        self._swrr: Dict[str, int] = {sid: 0 for sid in self._ids}
        self._lock = threading.Lock()

    # -- model fitting -----------------------------------------------------

    def seed(self, shard_id: str, points: Sequence[Tuple[float, float]]) -> None:
        """Install startup-probe measurements: ``(batch size, seconds)``."""
        fitted = [
            MeasurementPoint(d=max(1, int(round(b))), t=max(float(t), 1e-9))
            for b, t in points
        ]
        with self._lock:
            self._seeds[shard_id] = fitted
            self._refit_locked()

    def observe(self, shard_id: str, seconds: float) -> None:
        """Feed one observed request latency; refits periodically."""
        if seconds <= 0.0:
            return
        with self._lock:
            window = self._observed.get(shard_id)
            if window is None:
                return
            window.append(seconds)
            self._since_refresh += 1
            if self._since_refresh >= self.refresh_every:
                self._refit_locked()

    def _model_for(self, sid: str) -> Optional[PiecewiseModel]:
        """This worker's service FPM from observations, else seeds."""
        window = self._observed.get(sid)
        if window and len(window) >= 8:
            mean = sum(window) / len(window)
            points = [
                MeasurementPoint(d=b, t=max(mean * b, 1e-9))
                for b in (1, 2, 4, 8)
            ]
        elif self._seeds.get(sid):
            points = self._seeds[sid]
        else:
            return None
        model = PiecewiseModel()
        model.update_many(points)
        return model

    def _refit_locked(self) -> None:
        """Rebuild models and re-partition the slot budget (lock held)."""
        self._since_refresh = 0
        alive = [sid for sid in self._ids if sid in self._alive]
        if not alive:
            return
        models = [self._model_for(sid) for sid in alive]
        weights: Dict[str, int]
        if any(m is None for m in models) or len(alive) == 1:
            weights = {sid: self.slots // len(alive) for sid in alive}
        else:
            try:
                fn = registry.partitioner(self.partitioner_name)
                dist = fn(self.slots, models)
                # A starving share still gets one slot: a slow shard must
                # stay observable or its model can never recover.
                weights = {
                    sid: max(1, int(d)) for sid, d in zip(alive, dist.sizes)
                }
            except (PartitionError, FuPerModError, ValueError):
                weights = {sid: self.slots // len(alive) for sid in alive}
        self._weights = weights
        self._swrr = {sid: 0 for sid in weights}
        self.refits += 1

    # -- routing -----------------------------------------------------------

    def set_alive(self, shard_id: str, alive: bool) -> None:
        """Mark a worker (un)routable and re-partition among survivors."""
        with self._lock:
            (self._alive.add if alive else self._alive.discard)(shard_id)
            self._refit_locked()

    def next(self) -> Optional[str]:
        """Deterministic smooth weighted round-robin pick (None = all dead).

        Classic SWRR: every pick adds each worker's weight to its
        current score, serves the highest score, then subtracts the
        total weight from it -- proportional in the long run, maximally
        interleaved in the short run, and fully deterministic (ties
        break lexicographically).
        """
        with self._lock:
            live = {
                sid: w for sid, w in self._weights.items()
                if sid in self._alive
            }
            if not live:
                return None
            total = sum(live.values())
            best: Optional[str] = None
            for sid in sorted(live):
                self._swrr[sid] = self._swrr.get(sid, 0) + live[sid]
                if best is None or self._swrr[sid] > self._swrr[best]:
                    best = sid
            self._swrr[best] -= total
            return best

    def weights(self) -> Dict[str, int]:
        """Current integer shares (slots per worker)."""
        with self._lock:
            return dict(self._weights)

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot for ``/metrics``."""
        with self._lock:
            return {
                "policy": "fpm",
                "partitioner": self.partitioner_name,
                "slots": self.slots,
                "weights": dict(self._weights),
                "alive": sorted(self._alive),
                "refits": self.refits,
                "observed": {
                    sid: len(win) for sid, win in self._observed.items()
                },
            }


class WorkerLink:
    """Pooled keep-alive asyncio connections to one worker.

    Lives on the router's event loop.  Up to ``pool`` requests run
    concurrently, each on its own persistent connection; a request that
    fails on a *reused* connection retries once on a fresh one, while a
    fresh-connection failure propagates (the shard is down).
    """

    def __init__(
        self, shard_id: str, url: str, pool: int = 8, timeout: float = 30.0
    ) -> None:
        self.shard_id = shard_id
        self.url = url.rstrip("/")
        self.host, self.port, self.prefix = parse_base_url(url)
        self.timeout = timeout
        self._free: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._sem = asyncio.Semaphore(pool)

    async def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        payload = body or b""
        head_lines = [
            f"{method} {self.prefix}{path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(payload)}",
            "Content-Type: application/json",
        ]
        if headers:
            head_lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("ascii")
        while True:
            reused = bool(self._free)
            if reused:
                reader, writer = self._free.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            try:
                writer.write(head + payload)
                await writer.drain()
                status_line = await reader.readline()
                if not status_line:
                    raise ConnectionError("worker closed the connection")
                status = int(status_line.split()[1])
                reply_headers = await read_header_block(reader)
                if reply_headers is None:
                    raise ConnectionError("worker truncated the response")
                length = int(reply_headers.get("content-length", "0"))
                data = await reader.readexactly(length) if length else b""
            except (
                ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError, IndexError,
            ):
                writer.close()
                if reused:
                    continue  # stale kept-alive connection: one fresh retry
                raise
            keep = reply_headers.get("connection", "keep-alive").lower()
            if keep == "close":
                writer.close()
            else:
                self._free.append((reader, writer))
            return status, reply_headers, data

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request to this worker: ``(status, headers, raw body)``.

        ``headers`` rides extra hop metadata (the propagated deadline);
        ``timeout`` overrides the link's default for this call so a
        nearly-exhausted request budget is honoured instead of the full
        worker timeout.
        """
        async with self._sem:
            return await asyncio.wait_for(
                self._roundtrip(method, path, body, headers=headers),
                timeout=self.timeout if timeout is None else timeout,
            )

    def close(self) -> None:
        """Close pooled connections (call from the event loop)."""
        for _reader, writer in self._free:
            writer.close()
        self._free.clear()


class PlanRouter(AsyncHTTPBase):
    """The fleet's public endpoint: route, relay, fail over.

    Args:
        workers: mapping of shard id to worker base URL.
        routing: ``"fpm"`` (FPM-partitioned smooth weighted round-robin)
            or ``"round-robin"`` for balanced requests.
        balance_partitioner: partitioner dividing the slot budget when
            ``routing="fpm"``.
        replicas: virtual nodes per shard on the affinity ring.
        read_replicas: the fleet's plan replica-set size (how many
            shards hold each committed plan); reported in metrics so
            operators see the durability the fleet was launched with.
        host / port: bind address (port 0 = ephemeral).
        link_pool: concurrent connections per worker.
        worker_timeout: per-relay timeout, seconds.
        retry_rate / retry_burst: the failover :class:`RetryBudget`
            (tokens per second / bucket depth).  The first shard tried
            per request is free; each failover hop draws one token, so
            a partition degrades to fast single-shot serving instead of
            a retry storm.
        health_probe_interval: seconds between half-open probe rounds
            over dead shards (``GET /metrics``); 0 disables probing.
    """

    def __init__(
        self,
        workers: Mapping[str, str],
        routing: str = "fpm",
        balance_partitioner: str = "geometric",
        replicas: int = DEFAULT_REPLICAS,
        read_replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = MAX_BODY_BYTES,
        link_pool: int = 8,
        worker_timeout: float = 30.0,
        retry_rate: float = 10.0,
        retry_burst: float = 20.0,
        health_probe_interval: float = 1.0,
    ) -> None:
        if not workers:
            raise FuPerModError("a plan router needs at least one worker")
        if routing not in ("fpm", "round-robin"):
            raise FuPerModError(
                f"unknown routing policy {routing!r} "
                "(want 'fpm' or 'round-robin')"
            )
        super().__init__(host, port, max_body_bytes, "fupermod-router")
        self.routing = routing
        self.ring = HashRing(workers, replicas=replicas)
        self.read_replicas = read_replicas
        self._urls = {sid: url.rstrip("/") for sid, url in workers.items()}
        self._link_pool = link_pool
        self._worker_timeout = worker_timeout
        self._links: Dict[str, WorkerLink] = {}
        self._dead: set = set()
        # Shards whose durability layer reported memory-only mode: still
        # routable (they serve correctly from memory) but deprioritized,
        # so new plans land on disks that can actually keep them.
        self._memory_only: set = set()
        self._state_lock = threading.Lock()
        self._started_at = time.monotonic()
        self.retry_budget = RetryBudget(rate=retry_rate, burst=retry_burst)
        self.health_probe_interval = health_probe_interval
        self._probe_task: Optional["asyncio.Task[None]"] = None
        self._probe_cooldown: Dict[str, float] = {}
        if routing == "fpm":
            self.balancer = FpmBalancer(
                list(workers), partitioner=balance_partitioner
            )
        else:
            self.balancer = RoundRobinBalancer(list(workers))
        self.counters: Dict[str, int] = {
            "requests": 0,
            "affinity_routed": 0,
            "balanced_routed": 0,
            "reroutes": 0,
            "shard_errors": 0,
            "feedback_relayed": 0,
            "retry_budget_exhausted": 0,
            "deadline_rejected": 0,
            "health_probes": 0,
            "probe_revivals": 0,
            "durability_probes": 0,
        }

    # -- membership (supervisor-facing, thread-safe) -----------------------

    def mark_dead(self, shard_id: str) -> None:
        """Stop routing to a shard (router also does this on errors).

        A dead shard is not gone for good: the half-open health prober
        pings it (``GET /metrics``) every probe round and revives it the
        moment it answers again, so a healed-but-never-restarted shard
        rejoins routing without supervisor intervention.
        """
        with self._state_lock:
            self._dead.add(shard_id)
            self._probe_cooldown[shard_id] = time.monotonic()
        self.balancer.set_alive(shard_id, False)

    def revive(self, shard_id: str, url: Optional[str] = None) -> None:
        """Route to a shard again (optionally at a new URL post-restart)."""
        with self._state_lock:
            if url is not None:
                self._urls[shard_id] = url.rstrip("/")
                # The old link's sockets died with the old process; a new
                # link is built lazily on the loop at the new URL.
                self._links.pop(shard_id, None)
            self._dead.discard(shard_id)
        self.balancer.set_alive(shard_id, True)

    def alive(self) -> List[str]:
        """Currently routable shard ids."""
        with self._state_lock:
            return [s for s in self.ring.shards if s not in self._dead]

    def note_durability(self, shard_id: str, durable: bool) -> None:
        """Record a shard's reported durability mode.

        Fed by the health-probe loop (every live shard's ``GET /health``
        now reports ``durable``) and available to supervisors and tests
        directly.  A memory-only shard keeps serving -- cache hits are
        as correct as ever -- but :meth:`_candidates` deprioritizes it,
        so plans that have yet to be computed prefer shards whose acks
        actually mean durable.
        """
        with self._state_lock:
            if durable:
                self._memory_only.discard(shard_id)
            else:
                self._memory_only.add(shard_id)

    def memory_only(self) -> List[str]:
        """Shards currently known to be serving memory-only."""
        with self._state_lock:
            return sorted(self._memory_only)

    def _link(self, shard_id: str) -> WorkerLink:
        with self._state_lock:
            link = self._links.get(shard_id)
            if link is None:
                link = WorkerLink(
                    shard_id, self._urls[shard_id],
                    pool=self._link_pool, timeout=self._worker_timeout,
                )
                self._links[shard_id] = link
            return link

    # -- routing -----------------------------------------------------------

    def _candidates(
        self, payload: Dict[str, Any], force_affinity: bool = False
    ) -> Tuple[List[str], bool]:
        """The shard order to try for a plan payload.

        Returns ``(candidates, affinity)``.  Affinity requests follow
        ring preference (home first); balanced requests take the
        balancer's pick, with the remaining live shards as failovers.
        ``force_affinity`` ignores the payload's ``affinity`` flag --
        feedback must reach the shard that owns the plan's cache entries
        and models, so it is never load-balanced.

        Durability-aware ordering: shards reporting memory-only mode
        (see :meth:`note_durability`) are deprioritized.  On the
        affinity path only the replica group -- the first
        ``read_replicas`` candidates, which all hold copies of a cached
        plan -- is stably reordered durable-first, so cache hits are
        still served by the replica set while cold solves prefer a
        member whose disk works; the failover tail keeps ring order.
        Balanced requests (no data affinity, any shard computes) are
        stably reordered durable-first outright.
        """
        live = set(self.alive())
        affinity = force_affinity or bool(payload.get("affinity", True))
        if affinity:
            try:
                key = affinity_key(
                    int(payload.get("total", 0)),
                    str(payload.get("partitioner") or "geometric"),
                    payload.get("options") or {},
                )
            except (TypeError, ValueError, FuPerModError):
                # Malformed request: any shard will produce the 400.
                return self._durable_first(sorted(live)), True
            order = [s for s in self.ring.preference(key) if s in live]
            head = self._durable_first(order[:self.read_replicas])
            return head + order[self.read_replicas:], True
        pick = self.balancer.next()
        if pick is None or pick not in live:
            return self._durable_first(sorted(live)), False
        return self._durable_first([pick] + sorted(live - {pick})), False

    def _durable_first(self, order: List[str]) -> List[str]:
        """Stable partition: durable shards first, memory-only after."""
        with self._state_lock:
            degraded = set(self._memory_only)
        if not degraded:
            return order
        return (
            [s for s in order if s not in degraded]
            + [s for s in order if s in degraded]
        )

    async def _route_plan(
        self,
        body: bytes,
        path: str = "/plan",
        force_affinity: bool = False,
        request_headers: Optional[Dict[str, str]] = None,
    ) -> Reply:
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (UnicodeDecodeError, ValueError) as exc:
            return 400, {"error": f"bad JSON: {exc}"}, None
        merge_deadline_header(payload, request_headers)
        deadline: Optional[float] = None
        raw_deadline = payload.get("deadline")
        if raw_deadline is not None:
            try:
                deadline = float(raw_deadline)
            except (TypeError, ValueError):
                deadline = None
        candidates, affinity = self._candidates(payload, force_affinity)
        self.counters["requests"] += 1
        started = time.monotonic()
        for position, sid in enumerate(candidates):
            hop_headers: Optional[Dict[str, str]] = None
            hop_timeout: Optional[float] = None
            if deadline is not None:
                remaining = deadline - (time.monotonic() - started)
                if remaining <= 0.0:
                    self.counters["deadline_rejected"] += 1
                    return 504, {
                        "error": (
                            f"deadline of {deadline:.3f}s exhausted "
                            f"before {path} could be served"
                        ),
                        "code": 504,
                    }, None
                hop_headers = {DEADLINE_HEADER: f"{remaining:.6f}"}
                hop_timeout = min(self._worker_timeout, remaining)
            if position > 0 and not self.retry_budget.try_acquire():
                # Budget spent: fail fast instead of walking the whole
                # candidate list during a sustained partition.
                self.counters["retry_budget_exhausted"] += 1
                break
            link = self._link(sid)
            start = time.perf_counter()
            try:
                status, headers, data = await link.request(
                    "POST", path, body,
                    headers=hop_headers, timeout=hop_timeout,
                )
            except (
                ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError,
            ):
                self.counters["shard_errors"] += 1
                self.mark_dead(sid)
                continue
            if position > 0:
                self.counters["reroutes"] += 1
            if affinity:
                self.counters["affinity_routed"] += 1
            else:
                self.counters["balanced_routed"] += 1
                if status == 200:
                    self.balancer.observe(sid, time.perf_counter() - start)
            extra = None
            retry_after = headers.get("retry-after")
            if retry_after is not None:
                extra = {"Retry-After": retry_after}
            # Raw relay: the worker's bytes, untouched (bit parity).
            return status, data, extra
        return 503, {
            "error": f"no live shard can serve {path}",
            "code": 503,
            "retry_after": 1.0,
        }, None

    async def _aggregate(self, endpoint: str) -> Dict[str, Any]:
        """Fan ``GET endpoint`` out to live shards, keyed by shard id."""
        shards = self.alive()

        async def one(sid: str) -> Tuple[str, Dict[str, Any]]:
            try:
                status, _headers, data = await self._link(sid).request(
                    "GET", endpoint
                )
                decoded = json.loads(data.decode("utf-8"))
                if status != 200 or not isinstance(decoded, dict):
                    raise ValueError(f"HTTP {status}")
            except Exception as exc:
                return sid, {"error": f"unreachable: {exc}"}
            return sid, decoded.get(endpoint.strip("/"), decoded)

        pairs = await asyncio.gather(*(one(sid) for sid in shards))
        return dict(pairs)

    def _fleet_summary(self) -> Dict[str, Any]:
        with self._state_lock:
            dead = sorted(self._dead)
            memory_only = sorted(self._memory_only)
        return {
            "routing": self.routing,
            "shards": list(self.ring.shards),
            "dead": dead,
            "memory_only": memory_only,
            "counters": dict(self.counters),
            "balancer": self.balancer.to_dict(),
        }

    def _replication_summary(
        self, per_shard: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """The fleet-wide ``replication`` metrics section.

        Sums the numeric fields of every reachable shard's own
        ``replication`` section (replicas written, hints queued/drained,
        digests served, repairs applied) and adds the router-side
        partition-tolerance counters (retry-budget exhaustions, probe
        revivals).
        """
        totals: Dict[str, float] = {}
        reporting = 0
        for info in per_shard.values():
            section = info.get("replication") if isinstance(info, dict) else None
            if not isinstance(section, dict):
                continue
            reporting += 1
            for name, value in section.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                totals[name] = totals.get(name, 0) + value
        return {
            "replica_set": self.read_replicas,
            "shards_reporting": reporting,
            "workers": totals,
            "router": {
                "retry_budget_exhausted":
                    self.counters["retry_budget_exhausted"],
                "retry_budget_available":
                    round(self.retry_budget.available(), 3),
                "deadline_rejected": self.counters["deadline_rejected"],
                "health_probes": self.counters["health_probes"],
                "probe_revivals": self.counters["probe_revivals"],
            },
        }

    def _durability_summary(
        self, per_shard: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """The fleet-wide ``durability`` metrics section.

        Sums the numeric fields of every reachable shard's own
        ``durability`` section (journal append errors, trips, heals,
        consecutive failures) and reports the degradation ladder's
        fleet view: which shards the router currently believes are
        serving from memory only, and a by-mode shard count.
        """
        totals: Dict[str, float] = {}
        modes: Dict[str, int] = {}
        reporting = 0
        for info in per_shard.values():
            section = info.get("durability") if isinstance(info, dict) else None
            if not isinstance(section, dict):
                continue
            reporting += 1
            mode = section.get("mode")
            if isinstance(mode, str):
                modes[mode] = modes.get(mode, 0) + 1
            for name, value in section.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                totals[name] = totals.get(name, 0) + value
        return {
            "shards_reporting": reporting,
            "modes": modes,
            "memory_only": self.memory_only(),
            "workers": totals,
            "router": {
                "durability_probes": self.counters["durability_probes"],
            },
        }

    @staticmethod
    def _plans_by_kind_summary(per_shard: Mapping[str, Any]) -> Dict[str, int]:
        """Fleet-wide served-plans-by-kind tally.

        Sums each reachable shard's ``plans_by_kind`` counters (schema
        ``fupermod-metrics/4``); shards that predate the section, or were
        unreachable, simply contribute nothing -- the same tolerant
        summing as :meth:`_replication_summary`.
        """
        totals: Dict[str, int] = {}
        for info in per_shard.values():
            section = info.get("plans_by_kind") if isinstance(info, dict) else None
            if not isinstance(section, dict):
                continue
            for name, value in section.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    continue
                totals[str(name)] = totals.get(str(name), 0) + value
        return totals

    async def _probe_dead_shards(self) -> None:
        """Half-open probe loop: ping dead shards, revive the responsive.

        Runs on the event loop for the router's whole life.  Each round
        probes every dead shard whose cooldown has lapsed with a cheap
        ``GET /metrics``; a 200 means the process is healthy again
        (restarted by hand, or the partition healed) and it rejoins
        routing immediately -- ``revive`` stays available for the
        supervisor's explicit restart path, which also updates the URL.
        """
        interval = self.health_probe_interval
        while True:
            await asyncio.sleep(interval)
            await self._poll_durability()
            with self._state_lock:
                dead = sorted(self._dead)
            now = time.monotonic()
            for sid in dead:
                with self._state_lock:
                    since = self._probe_cooldown.get(sid, 0.0)
                if now - since < interval:
                    continue
                self.counters["health_probes"] += 1
                try:
                    status, _headers, _data = await self._link(sid).request(
                        "GET", "/metrics", timeout=min(2.0, interval * 2),
                    )
                except Exception:
                    with self._state_lock:
                        self._probe_cooldown[sid] = time.monotonic()
                    continue
                if status == 200:
                    self.counters["probe_revivals"] += 1
                    self.revive(sid)
                else:
                    with self._state_lock:
                        self._probe_cooldown[sid] = time.monotonic()

    async def _poll_durability(self) -> None:
        """One ``GET /health`` round over live shards: learn durability.

        Workers report ``durable`` in their health payload (absent on
        shards with no durable cache).  A shard that trips to
        memory-only mode mid-flood is deprioritized within one probe
        interval; one that heals is restored just as fast.  Probe
        failures change nothing here -- the request path's own error
        handling owns marking shards dead.
        """
        for sid in self.alive():
            self.counters["durability_probes"] += 1
            try:
                status, _headers, data = await self._link(sid).request(
                    "GET", "/health",
                    timeout=min(2.0, self.health_probe_interval * 2),
                )
                health = json.loads(data.decode("utf-8"))
                if status != 200 or not isinstance(health, dict):
                    continue
            except Exception:
                continue
            durable = health.get("durable")
            if isinstance(durable, bool):
                self.note_durability(sid, durable)
            else:
                self.note_durability(sid, True)

    async def _handle_one(
        self, method: str, path: str, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Reply:
        norm = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "POST" and norm == "/plan":
            return await self._route_plan(body, request_headers=headers)
        if method == "POST" and norm == "/feedback":
            # Forced affinity: a report must reach the shard whose
            # models and cached plans cover its (total, partitioner,
            # options) -- the same home the plan itself routed to.  The
            # shard's response (200/400/403/429) relays verbatim.
            self.counters["feedback_relayed"] += 1
            return await self._route_plan(
                body, path="/feedback", force_affinity=True,
                request_headers=headers,
            )
        if method == "GET" and norm == "/health":
            return 200, {"ok": True, "role": "router",
                         "alive": self.alive()}, None
        if method == "GET" and norm in ("/stats", "/metrics"):
            per_shard = await self._aggregate(norm)
            out: Dict[str, Any] = {
                "fleet": self._fleet_summary(),
                "shards": per_shard,
            }
            if norm == "/metrics":
                out["fleet"]["replication"] = (
                    self._replication_summary(per_shard)
                )
                out["fleet"]["plans_by_kind"] = (
                    self._plans_by_kind_summary(per_shard)
                )
                out["fleet"]["durability"] = (
                    self._durability_summary(per_shard)
                )
                out["schema"] = FLEET_METRICS_SCHEMA
                out["uptime_s"] = time.monotonic() - self._started_at
                return 200, {"metrics": out}, None
            return 200, {"stats": out}, None
        return 404, {"error": f"no such endpoint {path!r}"}, None

    async def _on_start(self) -> None:
        if self.health_probe_interval > 0.0:
            self._probe_task = asyncio.get_running_loop().create_task(
                self._probe_dead_shards()
            )

    async def _on_stop(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            self._probe_task = None
        with self._state_lock:
            links = list(self._links.values())
        for link in links:
            link.close()
