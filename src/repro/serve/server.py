"""The plan server: concurrent request handling with single-flight.

:class:`PlanServer` binds a :class:`~repro.serve.engine.PlanEngine` to a
fixed model set and serves plan requests from many threads.  Beyond the
engine it owns three serving-side guarantees:

* **Coalescing** -- when N identical requests are in flight at once,
  exactly one partitioner computation runs and all N callers share its
  future.  The guarantee (tested by ``tests/test_serve_server.py``) is
  counter-based, not timing-based: ``counters.computations`` rises by
  one however many identical requests race.
* **Admission control** -- with ``max_pending`` set, a request that would
  start a *new* computation while that many are already in flight is
  shed immediately with :class:`~repro.errors.ServiceOverloadError`
  (counted in ``counters.shed``) instead of queueing without bound.
  Coalesced joins never count against the cap: they add no work.
* **Deadlines** -- :meth:`request` takes a per-request budget (a float
  of seconds or a :class:`~repro.degrade.watchdog.Deadline`).  Expiry
  raises :class:`~repro.errors.DeadlineExceeded` *at the wait site
  only*: the computation keeps running and fills the cache, because its
  future may be shared by coalesced callers with laxer deadlines.

The server also exposes batch submission (:meth:`request_many`) for
callers that want a whole sweep of totals planned concurrently, a
consolidated :meth:`stats` snapshot for the front ends, and a
:meth:`drain`-then-:meth:`close` shutdown path for graceful termination.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.degrade.policy import DegradationPolicy
from repro.degrade.watchdog import Deadline
from repro.errors import DeadlineExceeded, ServiceOverloadError
from repro.serve.breaker import BreakerBoard
from repro.serve.cache import PlanCache
from repro.serve.engine import PlanEngine
from repro.serve.plan import PlanRequest, PlanResult

#: Schema marker of a shard's ``/metrics`` payload (:meth:`PlanServer.metrics`).
METRICS_SCHEMA = "fupermod-metrics/4"


class PlanServer:
    """Serve partition plans for one model set, coalescing duplicates.

    Args:
        models: the fitted per-rank performance models to plan against.
        engine: optional preconfigured engine (cache/policy/partitioner
            wiring); a default cache-backed engine is built when omitted.
        cache: cache for the default engine (ignored when ``engine`` is
            given).
        policy: degradation policy for the default engine (ignored when
            ``engine`` is given).
        max_workers: worker-thread cap for concurrent computations.
        max_pending: admission cap -- maximum distinct computations in
            flight before new (non-coalescing) requests are shed with
            :class:`~repro.errors.ServiceOverloadError`.  ``None``
            disables shedding (the pre-hardening behaviour).
        default_deadline: seconds granted to :meth:`request` calls that
            pass no explicit deadline; ``None`` means wait forever.
        shed_retry_after: the ``Retry-After`` hint (seconds) attached to
            shed errors, surfaced as an HTTP header by the front end.
        breakers: circuit-breaker board for the default engine (ignored
            when ``engine`` is given).

    Use as a context manager, or call :meth:`close` when done, to stop
    the worker pool.
    """

    def __init__(
        self,
        models: Sequence,
        engine: Optional[PlanEngine] = None,
        cache: Optional[PlanCache] = None,
        policy: Optional[DegradationPolicy] = None,
        max_workers: int = 4,
        max_pending: Optional[int] = None,
        default_deadline: Optional[float] = None,
        shed_retry_after: float = 1.0,
        breakers: Optional[BreakerBoard] = None,
    ) -> None:
        if not models:
            raise ValueError("a plan server needs at least one model")
        if max_pending is not None and max_pending <= 0:
            raise ValueError(
                f"max_pending must be positive or None, got {max_pending}"
            )
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive or None, got {default_deadline}"
            )
        self.models = list(models)
        #: Fitted per-rank *energy* models (J as a function of size), set
        #: by :meth:`attach_energy`; required before any ``"pareto"``
        #: request can be served.
        self.energy_models: Optional[List] = None
        self.engine = (
            engine
            if engine is not None
            else PlanEngine(cache=cache, policy=policy, breakers=breakers)
        )
        self._plans_by_kind: Dict[str, int] = {}
        self.max_pending = max_pending
        self.default_deadline = default_deadline
        self.shed_retry_after = shed_retry_after
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="fupermod-serve"
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, "Future[PlanResult]"] = {}
        self._closed = False
        self._started_at = time.monotonic()
        #: Optional closed-loop refinement controller
        #: (:class:`repro.serve.feedback.FeedbackController`); the front
        #: ends dispatch ``{"cmd": "feedback"}`` to it when attached.
        self.feedback = None
        #: Optional zero-argument callable returning replication stats
        #: (the fleet worker wires :meth:`PlanReplicator.stats` here);
        #: when set, :meth:`stats` grows a ``"replication"`` section.
        self.replication = None

    # -- bi-objective serving ----------------------------------------------

    def attach_energy(self, energy_models: Sequence) -> None:
        """Enable ``"pareto"`` plans by attaching per-rank energy models.

        ``energy_models[i]`` must model the same device as
        ``models[i]`` (joules instead of seconds), so the lists must
        match in length.  Like the speed models, the energy models are
        fingerprinted per request, from each model's per-version memo --
        refitting the power side alone changes exactly the energy-keyed
        cache identities.
        """
        energy_models = list(energy_models)
        if len(energy_models) != len(self.models):
            raise ValueError(
                f"{len(energy_models)} energy models for "
                f"{len(self.models)} speed models; the lists must pair up "
                f"rank for rank"
            )
        self.energy_models = energy_models

    def _count_plan(self, kind: str) -> None:
        """Tally one served plan for the ``/metrics`` per-kind counters."""
        with self._lock:
            self._plans_by_kind[kind] = self._plans_by_kind.get(kind, 0) + 1

    # -- core serving ------------------------------------------------------

    def _make_request(
        self,
        total: int,
        partitioner: Optional[str],
        options: Optional[Mapping[str, Any]],
        kind: str,
        objective: Optional[Mapping[str, Any]],
    ) -> PlanRequest:
        """Build the content-addressed request (typed errors propagate)."""
        return self.engine.request(
            self.models, total, partitioner, options,
            kind=kind, objective=objective,
            energy_models=self.energy_models if kind != "time" else None,
        )

    def _cached(self, request: PlanRequest) -> Optional[PlanResult]:
        """The cached plan for ``request``, counted as a hit, or None.

        Peek first, so a miss is not counted here: the engine path that
        serves the miss counts it exactly once.
        """
        cache = self.engine.cache
        if cache.peek(request.key) is None:
            return None
        hit = cache.get(request.key)
        if hit is None:
            return None
        self._count_plan(hit.kind)
        return hit.replace(cached=True)

    def try_cached(
        self,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        kind: str = "time",
        objective: Optional[Mapping[str, Any]] = None,
    ) -> Optional[PlanResult]:
        """The plan iff it is already cached locally; never queues work.

        This is the asyncio front end's fast lane: a cache hit is served
        inline on the event loop (memoised fingerprints, one request-key
        digest and an LRU lookup: microseconds) instead of round-tripping
        through the worker pool.  A miss returns ``None`` without counting
        it -- the caller falls back to :meth:`request`, whose engine path
        counts the miss exactly once.
        """
        if kind != "time" and self.energy_models is None:
            return None  # the slow path owns the typed 400
        return self._cached(
            self._make_request(total, partitioner, options, kind, objective)
        )

    def _serve(
        self, request: PlanRequest
    ) -> Union[PlanResult, "Future[PlanResult]"]:
        """A cached plan at once, else the future of its computation.

        Hits are served on the calling thread, before admission control
        and the pool: only a request that starts a *new* computation can
        be shed, and a hit never waits behind busy workers.  Raises as
        :meth:`submit` does.
        """
        if self._closed:
            raise RuntimeError("plan server is closed")
        hit = self._cached(request)
        if hit is not None:
            return hit
        with self._lock:
            if self._closed:
                raise RuntimeError("plan server is closed")
            existing = self._inflight.get(request.key)
            if existing is not None:
                self.engine.counters.coalesced += 1
                return existing
            pending = len(self._inflight)
            if self.max_pending is not None and pending >= self.max_pending:
                self.engine.counters.shed += 1
                raise ServiceOverloadError(
                    f"admission queue full ({pending} computations in "
                    f"flight, cap {self.max_pending}); request shed",
                    retry_after=self.shed_retry_after,
                    pending=pending,
                )
            future = self._pool.submit(self._run, request)
            self._inflight[request.key] = future
            return future

    def submit(
        self,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        kind: str = "time",
        objective: Optional[Mapping[str, Any]] = None,
    ) -> "Future[PlanResult]":
        """Queue one request, returning its future.

        A cached plan comes back as an already-completed future.
        Single-flight: if an identical request (same content key) is
        already in flight, its future is returned and no new work starts;
        the duplicate is counted in ``counters.coalesced``.

        Raises:
            ServiceOverloadError: when ``max_pending`` distinct
                computations are already in flight and this request would
                start another (counted in ``counters.shed``).
            RuntimeError: when the server has been closed.
        """
        served = self._serve(
            self._make_request(total, partitioner, options, kind, objective)
        )
        if isinstance(served, PlanResult):
            done: "Future[PlanResult]" = Future()
            done.set_result(served)
            return done
        return served

    def _run(self, request: PlanRequest) -> PlanResult:
        """Worker body: serve the request, then retire it from in-flight."""
        try:
            result = self.engine.plan_request(
                self.models, request, energy_models=self.energy_models
            )
            self._count_plan(result.kind)
            return result
        finally:
            with self._lock:
                self._inflight.pop(request.key, None)

    def request(
        self,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        deadline: Optional[Union[float, Deadline]] = None,
        kind: str = "time",
        objective: Optional[Mapping[str, Any]] = None,
    ) -> PlanResult:
        """Serve one request, blocking until the plan is ready.

        A cached plan is returned on the calling thread, whatever the
        pool and admission queue are doing.

        Args:
            deadline: seconds to wait (or a prepared
                :class:`~repro.degrade.watchdog.Deadline`); falls back to
                the server's ``default_deadline``; ``None`` waits
                forever.
            kind: the plan kind (``"time"`` or ``"pareto"``; the latter
                requires :meth:`attach_energy` first).
            objective: objective parameters for non-time kinds
                (``alpha``, ``energy_cap``, ``npoints``).

        Raises:
            DeadlineExceeded: the budget ran out before the plan arrived
                (counted in ``counters.deadline_expired``).  The
                computation itself is *not* cancelled -- coalesced
                callers may still be waiting on it, and its result
                populates the cache for the retry.
        """
        if deadline is None and self.default_deadline is not None:
            deadline = self.default_deadline
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline(float(deadline), stage="serve:request",
                                clock=time.monotonic)
        served = self._serve(
            self._make_request(total, partitioner, options, kind, objective)
        )
        if isinstance(served, PlanResult):
            return served
        if deadline is None:
            return served.result()
        try:
            return served.result(timeout=deadline.remaining)
        except FutureTimeoutError:
            self.engine.counters.deadline_expired += 1
            raise DeadlineExceeded(
                f"plan request (total={total}) exceeded its "
                f"{deadline.budget:.3g}s deadline",
                budget=deadline.budget,
                elapsed=deadline.elapsed,
                stage=deadline.stage or "serve:request",
            ) from None

    def request_many(
        self,
        specs: Sequence[Tuple[int, Optional[str], Optional[Mapping[str, Any]]]],
    ) -> List[PlanResult]:
        """Serve a batch of ``(total, partitioner, options)`` specs.

        All specs are submitted before any result is awaited, so
        independent plans compute concurrently (bounded by the worker
        pool) and identical specs coalesce to one computation.  Results
        come back in spec order.
        """
        futures = [self.submit(*spec) for spec in specs]
        return [f.result() for f in futures]

    # -- closed-loop refinement --------------------------------------------

    def attach_feedback(self, controller) -> None:
        """Enable closed-loop refinement through ``controller``.

        The controller (:class:`repro.serve.feedback.FeedbackController`)
        must refine *this* server's model list -- it swaps
        :attr:`models` on epoch commits.  Once attached, the front ends
        route ``{"cmd": "feedback"}`` / ``POST /feedback`` to it and
        :meth:`stats` grows a ``"feedback"`` section.
        """
        self.feedback = controller

    # -- introspection and lifecycle --------------------------------------

    def inflight(self) -> int:
        """Number of distinct computations currently running."""
        with self._lock:
            return len(self._inflight)

    def ack_durable(self) -> Optional[bool]:
        """Whether acks issued now may claim durability.

        ``None`` when the cache makes no durability promise at all (a
        plain in-memory :class:`~repro.serve.cache.PlanCache`): the
        front ends omit the ``durable`` flag entirely.  ``False`` while
        a durable cache is degraded (memory-only mode, or inside the
        pre-trip failure window); ``True`` otherwise.
        """
        probe = getattr(self.engine.cache, "ack_durable", None)
        if not callable(probe):
            return None
        return bool(probe())

    def stats(self) -> Dict[str, Any]:
        """Consolidated snapshot: cache + serving + breaker counters."""
        out: Dict[str, Any] = {
            "cache": self.engine.cache.stats().to_dict(),
            "serve": self.engine.counters.to_dict(),
            "inflight": self.inflight(),
            "ranks": len(self.models),
        }
        if self.engine.breakers is not None:
            out["breakers"] = self.engine.breakers.to_dict()
        durability = getattr(self.engine.cache, "durability_stats", None)
        if callable(durability):
            out["durability"] = durability()
        if self.feedback is not None:
            out["feedback"] = self.feedback.stats()
        if self.replication is not None:
            out["replication"] = self.replication()
        return out

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: existing counters under a versioned schema.

        Nothing here is newly measured -- this is the same cache, serving
        and breaker state :meth:`stats` snapshots, wrapped with a schema
        marker and uptime so fleet benchmarks and production scrapers can
        read one stable shape (documented in ``docs/API.md``).
        """
        out = self.stats()
        out["schema"] = METRICS_SCHEMA
        out["uptime_s"] = time.monotonic() - self._started_at
        with self._lock:
            out["plans_by_kind"] = dict(self._plans_by_kind)
        return out

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting work and wait for in-flight computations.

        Returns True when everything finished inside ``timeout`` -- wall
        seconds for the whole drain, ``0`` to wait for nothing -- (or
        unconditionally with ``timeout=None``), False when computations
        were still running at expiry.  Safe to call more than once;
        :meth:`close` drains implicitly.
        """
        with self._lock:
            self._closed = True
            pending = list(self._inflight.values())
        end = None if timeout is None else time.monotonic() + timeout
        for future in pending:
            try:
                future.result(
                    timeout=None if end is None
                    else max(0.0, end - time.monotonic())
                )
            except FutureTimeoutError:
                return False
            except Exception:
                # A failed computation still counts as drained; its error
                # already went to that request's caller.
                continue
        return True

    def close(self) -> None:
        """Stop accepting work and shut the worker pool down."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "PlanServer":
        """Context-manager entry (no-op)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the pool."""
        self.close()
