"""repro.serve -- the partition-plan service.

Production use of FuPerMod is repetitive: the same fitted models are
queried for plans at a stream of nearby totals, often from several
threads at once.  This package turns the one-shot partitioners into a
serving layer built on three ideas:

* **content fingerprints** (:mod:`~repro.serve.fingerprint`) -- plans are
  keyed by the fitted parameters of the model set plus the request, so
  identity survives refits, restarts and processes;
* **a plan cache with warm starts** (:mod:`~repro.serve.cache`,
  :class:`~repro.serve.engine.PlanEngine`) -- exact repeats are served
  without computing; near repeats seed the iterative partitioners with a
  :class:`~repro.core.partition.warm.WarmStart`, cutting iterations while
  staying bit-identical to a cold solve;
* **single-flight coalescing** (:class:`~repro.serve.server.PlanServer`)
  -- N concurrent identical requests run exactly one computation.

The hardening layer makes the service safe to depend on:

* **durability** (:mod:`~repro.serve.wal`) -- a write-ahead journal plus
  periodic snapshot compaction make the cache of a killed server
  recoverable bit-for-bit, minus at most one torn tail record;
* **overload protection** -- bounded admission with load shedding and
  per-request deadlines (:class:`~repro.serve.server.PlanServer`),
  per-model-fingerprint circuit breakers
  (:mod:`~repro.serve.breaker`) that short-circuit failing model sets
  to the degradation ladder, and a jittered-backoff
  :class:`~repro.serve.client.PlanClient`.

Front ends (``fupermod serve``) expose the server over JSON-lines stdio
(:mod:`~repro.serve.frontend`) and a keep-alive :mod:`asyncio` HTTP
front end (:mod:`~repro.serve.aio`) with an inline cache-hit fast lane,
both speaking one protocol with a typed error taxonomy
(400/413/500/503/504) and a versioned ``/metrics`` endpoint.  The one
synchronous HTTP client, :class:`~repro.serve.shard.ShardClient`, owns
keep-alive, reconnect backoff and deadline propagation;
:class:`~repro.serve.client.KeepAliveTransport` adapts it to the
:class:`~repro.serve.client.PlanClient` protocol.

The fleet layer scales out to many processes:

* **sharding** -- :class:`~repro.serve.fleet.PlanFleet` runs N worker
  processes (:mod:`~repro.serve.worker`), each with its own engine and
  per-shard write-ahead journal;
* **routing** -- :class:`~repro.serve.router.PlanRouter`
  consistent-hashes requests to a home shard
  (:class:`~repro.serve.hashring.HashRing`) and relays responses as raw
  bytes (bit parity through the fleet); non-affinitised traffic is
  apportioned by the repo's *own partitioners* over functional
  performance models fitted to each worker's measured service rate --
  FuPerMod dogfooding its methodology on its serving fleet;
* **peer cache fill** -- a shard missing a plan probes its siblings
  (ring preference order) before solving cold;
* **partition tolerance** (:mod:`~repro.serve.replicate`) -- each
  committed plan is pushed asynchronously to its ring successors
  (:class:`~repro.serve.replicate.PlanReplicator`), failed pushes
  become durable hints (:class:`~repro.serve.replicate.HintLog`,
  hinted handoff) drained on peer recovery, and shard digests feed
  anti-entropy repair (:meth:`~repro.serve.fleet.PlanFleet.anti_entropy`)
  after a partition heals; the router propagates per-request deadlines
  hop to hop and caps failover retries with a token-bucket
  :class:`~repro.serve.router.RetryBudget`.

The closed-loop layer lets served models track the platform:

* **feedback with a trust boundary** (:mod:`~repro.serve.feedback`) --
  apps report actual per-rank timings (``POST /feedback``); a per-source
  :class:`~repro.serve.feedback.FeedbackQuarantine` scores every report
  against the current models (non-finite, negative, outlier, impossible
  sizes, rate limits) and quarantines offenders, naming every rejection
  in a :class:`~repro.serve.feedback.QuarantineReport`;
* **versioned model lineage** (:mod:`~repro.serve.lineage`) -- accepted
  points refit *copies* of the models behind a parent-to-child
  fingerprint chain with monotonically increasing epochs, journalled to
  a :class:`~repro.serve.lineage.LineageWAL` before the atomic swap, so
  old plans stay servable during a refit and a SIGKILL mid-refit
  recovers a consistent epoch;
* **a regression gate** -- each refit must predict a held-back window of
  accepted feedback at least as well as its parent, or the lineage
  rolls back (counted in ``/metrics``); stale cache entries are
  invalidated and warm-re-solved off the request path.

Cache persistence lives in :mod:`repro.io.plans`; serve-level chaos
hooks (including the seeded :class:`~repro.faults.FeedbackStorm`) in
:mod:`repro.faults.serve`.
"""

from repro.serve.aio import AioFrontend, AsyncHTTPBase
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.cache import CacheStats, PlanCache
from repro.serve.client import KeepAliveTransport, PlanClient, http_transport
from repro.serve.engine import PlanEngine
from repro.serve.feedback import (
    FeedbackController,
    FeedbackCounters,
    FeedbackQuarantine,
    FeedbackReport,
    QuarantineReport,
)
from repro.serve.fingerprint import (
    FINGERPRINT_VERSION,
    affinity_key,
    fingerprint_model,
    fingerprint_models,
    fingerprint_objective_request,
    fingerprint_request,
)
from repro.serve.fleet import PlanFleet
from repro.serve.frontend import (
    handle_request,
    serve_stdio,
    validate_objective,
)
from repro.serve.hashring import HashRing
from repro.serve.lineage import LineageRecord, LineageWAL, ModelLineage
from repro.serve.plan import (
    PLAN_KINDS,
    PLAN_KIND_VERSION,
    PlanRequest,
    PlanResult,
    ServeCounters,
)
from repro.serve.replicate import (
    DEFAULT_REPLICA_SET,
    HintLog,
    PlanReplicator,
    entry_fingerprint,
)
from repro.serve.router import (
    FLEET_METRICS_SCHEMA,
    FpmBalancer,
    PlanRouter,
    RetryBudget,
    RoundRobinBalancer,
)
from repro.serve.server import METRICS_SCHEMA, PlanServer
from repro.serve.shard import DEADLINE_HEADER, ShardClient
from repro.serve.wal import DurablePlanCache, PlanWAL, ReplayResult

__all__ = [
    "AioFrontend",
    "AsyncHTTPBase",
    "BreakerBoard",
    "CacheStats",
    "CircuitBreaker",
    "DEADLINE_HEADER",
    "DEFAULT_REPLICA_SET",
    "DurablePlanCache",
    "FINGERPRINT_VERSION",
    "FLEET_METRICS_SCHEMA",
    "FeedbackController",
    "FeedbackCounters",
    "FeedbackQuarantine",
    "FeedbackReport",
    "FpmBalancer",
    "HashRing",
    "HintLog",
    "KeepAliveTransport",
    "LineageRecord",
    "LineageWAL",
    "METRICS_SCHEMA",
    "ModelLineage",
    "PLAN_KINDS",
    "PLAN_KIND_VERSION",
    "PlanCache",
    "PlanClient",
    "PlanEngine",
    "PlanFleet",
    "PlanReplicator",
    "PlanRequest",
    "PlanResult",
    "PlanRouter",
    "PlanServer",
    "PlanWAL",
    "QuarantineReport",
    "ReplayResult",
    "RetryBudget",
    "RoundRobinBalancer",
    "ServeCounters",
    "ShardClient",
    "affinity_key",
    "entry_fingerprint",
    "fingerprint_model",
    "fingerprint_models",
    "fingerprint_objective_request",
    "fingerprint_request",
    "handle_request",
    "http_transport",
    "serve_stdio",
    "validate_objective",
]
