"""Typed plan requests and results for the partition-plan service.

A :class:`PlanRequest` names a partitioning problem by semantic identity:
the fingerprint of the fitted model set, the total, the partitioner and
its options.  Its :attr:`~PlanRequest.key` is the cache key and the
single-flight coalescing key.

A :class:`PlanResult` is the answer: the integer shares and predicted
times (enough to rebuild a :class:`~repro.core.partition.dist.
Distribution`), the convergence certificate, and serving metadata -- did
it come from the cache, was the solve warm-started, did the degradation
ladder have to step in.  Results serialise to plain JSON dicts for the
stdio/HTTP front ends and for cache persistence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.partition.cert import ConvergenceCert
from repro.core.partition.dist import Distribution
from repro.core.partition.pareto import ParetoPoint
from repro.errors import PartitionError
from repro.serve.fingerprint import fingerprint_objective_request

#: Plan-kind schema version, emitted with every non-default-kind plan so
#: persisted caches and replicas from a future incompatible kind encoding
#: can be refused instead of misread.
PLAN_KIND_VERSION = 1

#: The plan kinds this build can serve.
PLAN_KINDS = ("time", "pareto")


@dataclass(frozen=True)
class PlanRequest:
    """One partitioning problem, identified by content.

    Attributes:
        models_fp: fingerprint of the ordered fitted-model set (see
            :func:`~repro.serve.fingerprint.fingerprint_models`).
        total: problem size ``D`` in computation units.
        partitioner: registered partitioner name (``"geometric"``, ...).
        options: extra keyword arguments for the partitioner, as an
            order-insensitive tuple of ``(name, value)`` pairs.
        kind: the plan kind -- ``"time"`` (default, the classic
            single-objective plan) or ``"pareto"`` (bi-objective front).
        energy_fp: fingerprint of the energy-model set (``""`` for
            ``"time"`` requests; required for ``"pareto"``).
        objective: objective parameters (``alpha``, ``energy_cap``,
            ``npoints``) as an order-insensitive tuple of pairs; part of
            the cache key for non-time kinds.
    """

    models_fp: str
    total: int
    partitioner: str = "geometric"
    options: Tuple[Tuple[str, Any], ...] = ()
    kind: str = "time"
    energy_fp: str = ""
    objective: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        models_fp: str,
        total: int,
        partitioner: str = "geometric",
        options: Optional[Mapping[str, Any]] = None,
        kind: str = "time",
        energy_fp: str = "",
        objective: Optional[Mapping[str, Any]] = None,
    ) -> "PlanRequest":
        """Build a request, normalising ``options`` from any mapping."""
        if total < 0:
            raise PartitionError(f"total must be non-negative, got {total}")
        if kind not in PLAN_KINDS:
            raise PartitionError(
                f"unknown plan kind {kind!r}; known kinds: {list(PLAN_KINDS)}"
            )
        if kind != "time" and not energy_fp:
            raise PartitionError(
                f"plan kind {kind!r} requires an energy-model fingerprint"
            )
        opts = tuple(sorted((options or {}).items()))
        obj = tuple(sorted((objective or {}).items()))
        return PlanRequest(
            models_fp=models_fp,
            total=int(total),
            partitioner=partitioner,
            options=opts,
            kind=kind,
            energy_fp=energy_fp if kind != "time" else "",
            objective=obj if kind != "time" else (),
        )

    @functools.cached_property
    def key(self) -> str:
        """The request's content hash -- cache and coalescing key.

        ``"time"`` requests hash exactly as before plan kinds existed;
        other kinds mix ``(kind, energy_fp, objective)`` into the digest
        so plans of different kinds can never alias.  Hashed once per
        request: every field is frozen.
        """
        return fingerprint_objective_request(
            self.kind, self.models_fp, self.energy_fp, self.total,
            self.partitioner, dict(self.options), dict(self.objective),
        )

    @functools.cached_property
    def spec(self) -> Tuple[Any, ...]:
        """``(total, partitioner, options[, kind, objective])``.

        What a cache entry, a journal line and a replica push record to
        re-solve this request after a model refit.  Time plans keep the
        historical 3-tuple (byte parity with persisted caches and
        replicas written before plan kinds existed); other kinds append
        their kind and objective, so the re-solve -- and the cache's
        cross-kind aliasing guard -- see them.
        """
        spec = (self.total, self.partitioner, self.option_dict())
        if self.kind != "time":
            return spec + (self.kind, self.objective_dict())
        return spec

    def option_dict(self) -> Dict[str, Any]:
        """The options as a plain keyword-argument dict."""
        return dict(self.options)

    def objective_dict(self) -> Dict[str, Any]:
        """The objective parameters as a plain dict."""
        return dict(self.objective)


def _render_float_text(result: "PlanResult") -> Tuple[Tuple[str, ...], ...]:
    """The ``repr`` of every per-rank time :meth:`PlanResult.to_dict` emits.

    One tuple for the plan's own times, then one per front point (the
    point the plan was selected from shares the plan's).  Rendering them
    is most of an encoding's cost.
    """
    own = tuple(map(repr, result.times))
    return (own,) + tuple(
        own if p.times is result.times else tuple(map(repr, p.times))
        for p in result.front
    )


@dataclass(frozen=True)
class PlanResult:
    """A served partition plan plus its provenance.

    Attributes:
        key: the originating request's content hash.
        total: the problem size the plan covers.
        sizes: integer per-rank shares (sum to ``total``).
        times: model-predicted per-rank seconds.
        algorithm: partitioner that actually produced the plan (after any
            degradation).
        cert: the solve's convergence certificate (None for plans from
            partitioners that do not certify).
        cached: True when served from the plan cache without computing.
        warm: True when the solve was warm-started from a nearby plan.
        degraded: summary of the degradation ladder's fallbacks, or ``""``
            when the requested partitioner succeeded directly.
        compute_seconds: wall seconds the solve took (0.0 for cache hits).
        kind: the plan kind (``"time"`` or ``"pareto"``); ``sizes`` and
            ``times`` always hold one concrete distribution -- for a
            pareto plan, the point selected by the request's objective.
        front: the full dominance-filtered front for ``"pareto"`` plans
            (empty for ``"time"`` plans).
        durable: False when the serving node acknowledged this plan
            while its durability layer was degraded to memory-only mode
            (the plan is correct but may not survive that node's crash);
            True everywhere else, including servers with no durable
            cache at all.  Serialisation emits the flag only when False,
            so historical payload layouts are byte-identical.
    """

    key: str
    total: int
    sizes: Tuple[int, ...]
    times: Tuple[float, ...]
    algorithm: str
    cert: Optional[ConvergenceCert] = None
    cached: bool = False
    warm: bool = False
    degraded: str = ""
    compute_seconds: float = 0.0
    kind: str = "time"
    durable: bool = True
    front: Tuple[ParetoPoint, ...] = ()

    def distribution(self) -> Distribution:
        """Rebuild a fresh :class:`Distribution` (cert re-attached)."""
        dist = Distribution.from_sizes(self.sizes, self.times)
        if self.cert is not None:
            dist.convergence = self.cert
        return dist

    def _keep_float_text(self) -> None:
        """Render the float text once and keep it on this result.

        The plan engine calls this on a freshly solved plan, which is
        encoded three times (the cache's byte estimate, the journal
        record, the reply).  Kept outside the fields, so equality,
        :meth:`replace` (so every hit), copies and pickles leave it out,
        and :meth:`~repro.serve.cache.PlanCache.put` caches a copy
        without it: the text lives no longer than the miss.
        """
        self.__dict__["_float_text"] = _render_float_text(self)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_float_text", None)
        return state

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (used by front ends and persistence).

        Every call returns new containers, so a caller may add keys to
        its copy (the front ends add ``durable`` and ``id``).
        """
        text = self.__dict__.get("_float_text") or _render_float_text(self)
        out: Dict[str, Any] = {
            "key": self.key,
            "total": self.total,
            "sizes": list(self.sizes),
            "times": list(text[0]),
            "algorithm": self.algorithm,
            "cached": self.cached,
            "warm": self.warm,
            "degraded": self.degraded,
            "compute_seconds": self.compute_seconds,
        }
        if self.cert is not None:
            out["cert"] = self.cert.to_dict()
        if not self.durable:
            # Emitted only when degraded: durable acks keep the
            # historical byte layout.
            out["durable"] = False
        if self.kind != "time":
            # Time plans keep their historical byte layout (bit parity
            # through relays, WALs and replicas written before kinds
            # existed); other kinds declare themselves and their schema.
            out["kind"] = self.kind
            out["kind_v"] = PLAN_KIND_VERSION
            out["front"] = [
                p._dict(list(t)) for p, t in zip(self.front, text[1:])
            ]
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "PlanResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises:
            PartitionError: on a malformed payload (missing fields or
                mismatched lengths), so corrupt persisted caches fail
                loudly instead of serving garbage plans.
        """
        try:
            sizes = tuple(int(d) for d in data["sizes"])
            times = tuple(float(t) for t in data["times"])
            if len(sizes) != len(times):
                raise ValueError(
                    f"{len(sizes)} sizes for {len(times)} times"
                )
            cert = (
                ConvergenceCert.from_dict(data["cert"]) if "cert" in data else None
            )
            kind = str(data.get("kind", "time"))
            if kind not in PLAN_KINDS:
                raise ValueError(f"unknown plan kind {kind!r}")
            front: Tuple[ParetoPoint, ...] = ()
            if kind != "time":
                kind_v = int(data.get("kind_v", PLAN_KIND_VERSION))
                if kind_v != PLAN_KIND_VERSION:
                    raise ValueError(
                        f"plan kind schema v{kind_v} is not v{PLAN_KIND_VERSION}"
                    )
                front = tuple(
                    ParetoPoint.from_dict(p) for p in data.get("front", ())
                )
                if not front:
                    raise ValueError(f"{kind!r} plan carries an empty front")
            return PlanResult(
                key=str(data["key"]),
                total=int(data["total"]),
                sizes=sizes,
                times=times,
                algorithm=str(data["algorithm"]),
                cert=cert,
                cached=bool(data.get("cached", False)),
                warm=bool(data.get("warm", False)),
                degraded=str(data.get("degraded", "")),
                compute_seconds=float(data.get("compute_seconds", 0.0)),
                kind=kind,
                durable=bool(data.get("durable", True)),
                front=front,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PartitionError(f"malformed plan payload: {exc}") from exc

    def replace(self, **changes: Any) -> "PlanResult":
        """A copy with the given fields changed (dataclass-replace sugar)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)


@dataclass
class ServeCounters:
    """Mutable serving counters shared by engine and server.

    Attributes:
        computations: partitioner solves actually executed.
        warm_starts: solves that were seeded from a nearby cached plan.
        coalesced: requests that piggybacked on an identical in-flight
            computation instead of starting their own.
        shed: requests rejected at admission because the queue was full
            (each raised a :class:`~repro.errors.ServiceOverloadError`).
        deadline_expired: requests whose caller gave up on a
            :class:`~repro.degrade.watchdog.Deadline` before the plan
            arrived (the solve itself keeps running and fills the cache).
        short_circuits: requests served without trying the requested
            partitioner because the model set's circuit breaker was open.
        sibling_fills: cache misses answered by a sibling shard's cache
            instead of a cold solve (fleet serving only).
        sibling_misses: sibling lookups that came back empty (the solve
            proceeded cold).
        sibling_errors: sibling lookups that failed (dead peer, bad
            payload); never fatal -- the solve proceeds cold.
    """

    computations: int = 0
    warm_starts: int = 0
    coalesced: int = 0
    shed: int = 0
    deadline_expired: int = 0
    short_circuits: int = 0
    sibling_fills: int = 0
    sibling_misses: int = 0
    sibling_errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Snapshot as a plain dict."""
        return {
            "computations": self.computations,
            "warm_starts": self.warm_starts,
            "coalesced": self.coalesced,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "short_circuits": self.short_circuits,
            "sibling_fills": self.sibling_fills,
            "sibling_misses": self.sibling_misses,
            "sibling_errors": self.sibling_errors,
        }


# Re-exported for type hints in the front ends.
__all__ = [
    "PLAN_KINDS",
    "PLAN_KIND_VERSION",
    "PlanRequest",
    "PlanResult",
    "ServeCounters",
    "field",
]
