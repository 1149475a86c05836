"""The plan engine: cache-backed, warm-started partition solving.

:class:`PlanEngine` is the single compute path of the serving layer.
Given a model set and a total it:

1. fingerprints the models and the request (content identity, see
   :mod:`repro.serve.fingerprint`);
2. consults the :class:`~repro.serve.cache.PlanCache` -- a hit is
   returned without touching the partitioner at all;
3. on a miss, looks for a cached plan for the *same model set* at a
   nearby total and turns it into a
   :class:`~repro.core.partition.warm.WarmStart` seed;
4. consults the model set's circuit breaker (when a
   :class:`~repro.serve.breaker.BreakerBoard` is wired in): an open
   breaker short-circuits straight to the degradation ladder without
   touching the partitioner;
5. runs the requested partitioner (warm-started when it accepts a seed),
   falling back to the :class:`~repro.degrade.DegradationPolicy` ladder
   when one is configured and the partitioner fails with a typed error,
   recording the outcome on the breaker either way;
6. stores and returns the :class:`~repro.serve.plan.PlanResult`
   (breaker short circuits are served but never cached).

The engine is deliberately model-set agnostic: callers pass the models
with every request (the dynamic loops refit them between calls), and the
fingerprint keeps cache identity honest across mutation.  It solves on a
:class:`~repro.core.partition.batch.ModelBank` it keeps for the speed
models and one for the energy models, stacked and checked once per model
set: a refit, an in-place ``update`` or a lineage swap changes the set's
fingerprint and gets a fresh bank.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.partition.batch import ModelBank
from repro.core.partition.dist import Distribution
from repro.core.partition.pareto import DEFAULT_FRONT_POINTS, partition_pareto
from repro.core.partition.warm import WarmStart
from repro.degrade.policy import _FALLBACK_TRIGGERS, DegradationPolicy, _parameter_names
from repro.errors import CircuitOpenError, PartitionError
from repro.serve.breaker import BreakerBoard
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import fingerprint_models
from repro.serve.plan import PlanRequest, PlanResult, ServeCounters


class PlanEngine:
    """Cache-backed partition planning over any registered partitioner.

    Args:
        cache: the plan cache (a default 128-entry LRU when omitted;
            pass ``None`` explicitly via ``PlanEngine(cache=None)`` is
            not supported -- caching is the point of the engine).
        policy: optional :class:`DegradationPolicy`; when the requested
            partitioner fails with a typed error the ladder produces the
            plan instead and the result records the degradation.
        partitioner: default partitioner name for requests that name none.
        warm: enable warm-started solves from nearby cached plans.
        counters: optional shared :class:`ServeCounters` (the server
            passes its own so coalescing and computation counts live
            together).
        breakers: optional :class:`~repro.serve.breaker.BreakerBoard`.
            When a model set's breaker is open, solves for it are
            short-circuited: the ladder answers (when a policy is
            configured) or :class:`~repro.errors.CircuitOpenError` is
            raised.  Short-circuited plans are **not** cached -- a cached
            degraded plan would keep being served long after the breaker
            recovered.
        sibling_fill: optional peer-cache lookup for fleet serving.
            Called with the :class:`~repro.serve.plan.PlanRequest` on a
            local cache miss, *before* solving cold; a returned
            :class:`~repro.serve.plan.PlanResult` (validated against the
            request) is stored locally and served.  Any exception or a
            plan that does not answer the request is swallowed into the
            ``sibling_errors`` counter and the solve proceeds cold -- a
            dead or lying peer must never fail, or poison, this shard.
        on_commit: optional hook called with ``(request, result)`` after
            a freshly *solved* plan is cached -- the fleet's replication
            trigger.  Cache hits and sibling fills do not fire it: a hit
            was already replicated when first committed, and a sibling
            fill is a copy of a plan whose home committed (and
            replicated) it.  Exceptions are swallowed; replication must
            never fail a serve.
    """

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        policy: Optional[DegradationPolicy] = None,
        partitioner: str = "geometric",
        warm: bool = True,
        counters: Optional[ServeCounters] = None,
        breakers: Optional[BreakerBoard] = None,
        sibling_fill=None,
        on_commit=None,
    ) -> None:
        self.cache = cache if cache is not None else PlanCache()
        self.policy = policy
        self.default_partitioner = partitioner
        self.warm = warm
        self.counters = counters if counters is not None else ServeCounters()
        self.breakers = breakers
        self.sibling_fill = sibling_fill
        self.on_commit = on_commit
        # ``role -> (model-set fingerprint, bank)``: the bank of the speed
        # models and of the energy models last solved, nothing older.
        self._banks: Dict[str, Tuple[str, ModelBank]] = {}

    def _bank(self, role: str, models: Sequence, fp: str) -> ModelBank:
        """The bank to solve ``models`` (fingerprint ``fp``) on.

        The held bank of ``role`` when it was built for this fingerprint
        from these very model objects: equal digests mean equal fitted
        state, and the same objects mean the bank's per-model rows are
        the models passed.  Otherwise a fresh bank, held in place of the
        old one (which lets a retired model set go) unless a model has
        no ``version`` counter, whose fingerprint cannot vouch for it.
        """
        held = self._banks.get(role)
        if held is not None and held[0] == fp:
            bank = held[1]
            if len(bank) == len(models) and all(
                map(operator.is_, bank.models, models)
            ):
                return bank
        bank = ModelBank(models)
        if all(getattr(m, "version", None) is not None for m in bank.models):
            self._banks[role] = (fp, bank)
        else:
            self._banks.pop(role, None)
        return bank

    # -- request construction ---------------------------------------------

    def request(
        self,
        models: Sequence,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        kind: str = "time",
        objective: Optional[Mapping[str, Any]] = None,
        energy_models: Optional[Sequence] = None,
    ) -> PlanRequest:
        """Build the content-addressed request for ``models`` at ``total``.

        The model fingerprint is checked on every call -- the dynamic
        loops mutate models between requests, and a stale fingerprint
        would serve a stale plan -- but each model is hashed only once
        per version (:func:`~repro.serve.fingerprint.fingerprint_model`),
        so an unchanged set costs a memo lookup.  For non-``"time"``
        kinds the energy models fingerprint the same way, so refitting
        the power side alone changes exactly the energy-keyed identities.
        """
        if kind != "time" and not energy_models:
            raise PartitionError(
                f"plan kind {kind!r} requires energy models; none attached"
            )
        return PlanRequest.make(
            models_fp=fingerprint_models(models),
            total=total,
            partitioner=partitioner or self.default_partitioner,
            options=options,
            kind=kind,
            energy_fp=(
                fingerprint_models(energy_models) if kind != "time" else ""
            ),
            objective=objective,
        )

    # -- warm-start lookup --------------------------------------------------

    def _warm_hint(self, request: PlanRequest) -> Optional[WarmStart]:
        """A seed from the nearest cached *same-kind* plan for the model set.

        A time solve seeds from a time plan's equal-time level; a pareto
        solve seeds from a neighbouring front's pure-time endpoint (the
        front sweep then re-derives every interior bracket from its own
        endpoints).  Kinds never cross-seed -- a blended level is not an
        equal-time level.
        """
        if not self.warm:
            return None
        near = self.cache.nearest(
            request.models_fp, request.total, exclude=request.key,
            kind=request.kind,
        )
        if near is None:
            return None
        if near.kind == "pareto" and near.front:
            # The front is sorted by time, so points[0] is the pure-time
            # endpoint -- the only point whose level is an equal-time
            # level, which is what the endpoint solve brackets from.
            sizes = near.front[0].sizes
            level = max(near.front[0].times, default=0.0)
        else:
            sizes = near.sizes
            level = max(near.times, default=0.0)
        if not level > 0.0:
            return None
        try:
            return WarmStart(total=near.total, level=level, sizes=sizes)
        except PartitionError:
            return None

    # -- solving -------------------------------------------------------------

    def _short_circuit(self, request: PlanRequest, models: Sequence, breaker) -> PlanResult:
        """Answer a request whose breaker is open without solving."""
        self.counters.short_circuits += 1
        if self.policy is None:
            raise CircuitOpenError(
                f"circuit open for model set {request.models_fp[:12]}...; "
                f"no degradation policy configured",
                retry_after=breaker.remaining_cooldown(),
            )
        start = time.perf_counter()
        dist = self.policy.partition(request.total, models)
        elapsed = time.perf_counter() - start
        cert = getattr(dist, "convergence", None)
        return PlanResult(
            key=request.key,
            total=request.total,
            sizes=tuple(dist.sizes),
            times=tuple(dist.times),
            algorithm=cert.algorithm if cert is not None else "degraded",
            cert=cert,
            cached=False,
            warm=False,
            degraded=(
                f"circuit open for model set "
                f"({breaker.remaining_cooldown():.1f}s cooldown remaining); "
                f"ladder engaged"
            ),
            compute_seconds=elapsed,
        )

    def _solve_pareto(
        self,
        request: PlanRequest,
        models: Sequence,
        energy_models: Sequence,
    ) -> Tuple[PlanResult, bool]:
        """Solve a bi-objective request: sweep the front, select one point.

        The full dominance-filtered front rides on the result (and hence
        into the cache), so every later request against the same
        ``(models_fp, energy_fp, objective)`` key re-selects from the
        cached front without re-solving.  Neither the circuit breaker nor
        the degradation ladder applies here: both produce *time* plans,
        and answering a pareto request with a time plan would be exactly
        the cross-kind aliasing the key schema exists to prevent -- a
        failed front solve raises its typed error instead.
        """
        if not energy_models:
            raise PartitionError(
                f"plan kind {request.kind!r} requires energy models; "
                "none attached to this engine call"
            )
        obj = request.objective_dict()
        kwargs = request.option_dict()
        npoints = int(obj.get("npoints", DEFAULT_FRONT_POINTS))
        warm_used = False
        if "warm_start" not in kwargs:
            hint = self._warm_hint(request)
            if hint is not None:
                kwargs["warm_start"] = hint
                warm_used = True
        start = time.perf_counter()
        front = partition_pareto(
            request.total,
            self._bank("speed", models, request.models_fp),
            self._bank("energy", energy_models, request.energy_fp),
            npoints=npoints, **kwargs,
        )
        elapsed = time.perf_counter() - start
        self.counters.computations += 1
        if warm_used:
            self.counters.warm_starts += 1
        alpha = obj.get("alpha")
        cap = obj.get("energy_cap")
        point = front.select(
            alpha=float(alpha) if alpha is not None else None,
            max_joules=float(cap) if cap is not None else None,
        )
        return (
            PlanResult(
                key=request.key,
                total=request.total,
                sizes=point.sizes,
                times=point.times,
                algorithm="pareto",
                cert=point.cert,
                cached=False,
                warm=warm_used,
                degraded="",
                compute_seconds=elapsed,
                kind="pareto",
                front=front.points,
            ),
            True,
        )

    def _solve(
        self,
        request: PlanRequest,
        models: Sequence,
        energy_models: Optional[Sequence] = None,
    ) -> Tuple[PlanResult, bool]:
        """Run the partitioner for a cache miss (no cache interaction).

        Returns ``(result, cacheable)``: breaker-open short circuits are
        not cacheable -- the cache would keep serving the degraded plan
        long after the breaker recovered.
        """
        if request.kind == "pareto":
            return self._solve_pareto(request, models, energy_models or ())
        breaker = (
            self.breakers.breaker(request.models_fp)
            if self.breakers is not None
            else None
        )
        if breaker is not None and not breaker.allow():
            return self._short_circuit(request, models, breaker), False
        fn = registry.partitioner(request.partitioner)
        kwargs = request.option_dict()
        warm_used = False
        if "warm_start" in _parameter_names(fn) and "warm_start" not in kwargs:
            hint = self._warm_hint(request)
            if hint is not None:
                kwargs["warm_start"] = hint
                warm_used = True
        degraded = ""
        start = time.perf_counter()
        try:
            dist = fn(
                request.total, self._bank("speed", models, request.models_fp),
                **kwargs,
            )
        except _FALLBACK_TRIGGERS as exc:
            if breaker is not None:
                breaker.record_failure()
            if self.policy is None:
                raise
            degraded = (
                f"{request.partitioner} failed "
                f"({type(exc).__name__}: {exc}); ladder engaged"
            )
            dist = self.policy.partition(request.total, models)
            warm_used = False
        else:
            if breaker is not None:
                breaker.record_success()
        elapsed = time.perf_counter() - start
        self.counters.computations += 1
        if warm_used:
            self.counters.warm_starts += 1
        cert = getattr(dist, "convergence", None)
        return (
            PlanResult(
                key=request.key,
                total=request.total,
                sizes=tuple(dist.sizes),
                times=tuple(dist.times),
                algorithm=cert.algorithm if cert is not None else request.partitioner,
                cert=cert,
                cached=False,
                warm=warm_used,
                degraded=degraded,
                compute_seconds=elapsed,
            ),
            True,
        )

    def _from_sibling(self, request: PlanRequest) -> Optional[PlanResult]:
        """A validated plan from a sibling shard's cache, or None.

        The validation is the poisoning guard: a sibling answering with
        the wrong key, the wrong total, or shares that do not sum to the
        total is counted as an error and ignored, never cached.
        """
        try:
            got = self.sibling_fill(request)
        except Exception:
            self.counters.sibling_errors += 1
            return None
        if got is None:
            self.counters.sibling_misses += 1
            return None
        if (
            not isinstance(got, PlanResult)
            or got.key != request.key
            or got.total != request.total
            or got.kind != request.kind
            or sum(got.sizes) != request.total
            or len(got.sizes) != len(got.times)
            or (got.kind != "time" and not got.front)
        ):
            self.counters.sibling_errors += 1
            return None
        self.counters.sibling_fills += 1
        return got

    def plan_request(
        self,
        models: Sequence,
        request: PlanRequest,
        energy_models: Optional[Sequence] = None,
    ) -> PlanResult:
        """Serve one prepared request: cache hit, sibling fill, or solve."""
        hit = self.cache.get(request.key)
        if hit is not None:
            return hit.replace(cached=True)
        # The spec rides along with cached entries so a model refit can
        # re-solve exactly the requests this cache was answering.  Time
        # plans keep the historical 3-tuple (byte parity with persisted
        # caches and replicas written before plan kinds existed); other
        # kinds append their kind and objective so the re-solve -- and
        # the cache's cross-kind aliasing guard -- see them.
        spec: Tuple[Any, ...] = (
            request.total, request.partitioner, request.option_dict()
        )
        if request.kind != "time":
            spec = spec + (request.kind, request.objective_dict())
        if self.sibling_fill is not None:
            filled = self._from_sibling(request)
            if filled is not None:
                self.cache.put(
                    request.key, filled, request.models_fp, spec=spec
                )
                return filled.replace(cached=True)
        result, cacheable = self._solve(request, models, energy_models)
        if cacheable:
            # Journal record, byte estimate and reply: one rendering.
            result._keep_float_text()
            self.cache.put(request.key, result, request.models_fp, spec=spec)
            if self.on_commit is not None:
                try:
                    self.on_commit(request, result)
                except Exception:
                    pass  # replication is asynchronous and best-effort
        return result

    def plan(
        self,
        models: Sequence,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        kind: str = "time",
        objective: Optional[Mapping[str, Any]] = None,
        energy_models: Optional[Sequence] = None,
    ) -> PlanResult:
        """Serve a plan for ``models`` at ``total`` (request sugar)."""
        return self.plan_request(
            models,
            self.request(
                models, total, partitioner, options,
                kind=kind, objective=objective, energy_models=energy_models,
            ),
            energy_models=energy_models,
        )

    def distribution(
        self,
        models: Sequence,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> Distribution:
        """Serve a plan and rebuild it as a :class:`Distribution`."""
        return self.plan(models, total, partitioner, options).distribution()
