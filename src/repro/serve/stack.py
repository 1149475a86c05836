"""The single-node serving stack, built one way for every serving process.

``fupermod serve`` and the fleet worker (``python -m repro.serve.worker``)
serve the same stack: point files fitted into one model set, a plan
cache (durable with ``--cache-file``), an engine with its degradation
policy and circuit breakers, a :class:`~repro.serve.server.PlanServer`,
and the closed-loop lineage and feedback controller.  Cache identity
hangs off every process building that stack identically, so this module
holds the only copy of each part of it:

* :data:`STACK_FLAGS` -- the stack's command-line flags, each with one
  default; both parsers add them with :func:`add_stack_flags`, and the
  fleet supervisor forwards them to its workers with :func:`stack_argv`;
* :func:`load_rank_points`, :func:`fit_models` and
  :func:`fit_energy_models` -- one reading of a ``build`` output
  directory, each point file read once;
* :func:`build_stack` -- creates and recovers the whole stack from
  parsed flags and returns a :class:`ServingStack`, whose
  :meth:`~ServingStack.close` shuts it down in order.

The entry points keep only what is theirs: the CLI its transports and
signal handling, the worker its fleet surface (sibling fill,
replication, chaos routes, the READY line).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Tuple, Union,
)

from repro.core.registry import model_factory
from repro.degrade.policy import DegradationPolicy
from repro.errors import FuPerModError, PartitionError, PersistenceError
from repro.io.files import load_points
from repro.serve.breaker import BreakerBoard
from repro.serve.cache import PlanCache
from repro.serve.engine import PlanEngine
from repro.serve.feedback import FeedbackController, FeedbackQuarantine
from repro.serve.journal import Opener
from repro.serve.lineage import ModelLineage
from repro.serve.replicate import DEFAULT_REPLICA_SET
from repro.serve.server import PlanServer
from repro.serve.wal import DurablePlanCache

PathLike = Union[str, Path]

#: The serving stack's flags as ``(flag, add_argument keywords)``.  Each
#: flag's dest is argparse's own (``--cache-size`` -> ``cache_size``).
STACK_FLAGS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("--points", dict(
        required=True,
        help="directory of rank*.points files from 'build'")),
    ("--model", dict(
        default="piecewise",
        help="model family fitted to each rank's points")),
    ("--power", dict(
        default=None,
        help="per-rank power-profile JSON (see repro.platform.power); fits "
             "energy models alongside the speed models and enables "
             "bi-objective (pareto) plans")),
    ("--algorithm", dict(
        default="geometric",
        help="default partitioner for requests that name none")),
    ("--cache-size", dict(
        type=int, default=128, help="plan cache capacity (entries)")),
    ("--ttl", dict(
        type=float, default=None,
        help="plan time-to-live in seconds (default: no expiry)")),
    ("--cache-file", dict(
        default=None,
        help="snapshot file for the plan cache: recovered from (snapshot + "
             "write-ahead journal) at startup and compacted to on "
             "shutdown; for 'fupermod serve --workers N' (N >= 2) a "
             "directory of per-shard caches")),
    ("--compact-every", dict(
        type=int, default=256,
        help="journaled operations between automatic snapshot "
             "compactions")),
    ("--durability-budget", dict(
        type=int, default=3,
        help="consecutive journal-append failures tolerated before the "
             "durable cache degrades to memory-only mode (plans keep "
             "serving, acks carry 'durable': false, a background probe "
             "re-syncs the disk when it heals)")),
    ("--no-durability-degrade", dict(
        action="store_true",
        help="disable the durability degradation ladder: journal failures "
             "surface as request errors, the pre-hardening behaviour")),
    ("--no-warm", dict(
        action="store_true",
        help="disable warm-started solves from nearby plans")),
    ("--degrade", dict(
        action="store_true",
        help="fall back down the partitioner ladder instead of failing a "
             "request")),
    ("--threads", dict(
        type=int, default=4,
        help="solver threads per serving process for concurrent "
             "computations")),
    ("--replicas", dict(
        type=int, default=DEFAULT_REPLICA_SET,
        help="plan replica-set size including the home shard (fleet "
             "mode): committed plans replicate to ring successors so a "
             "killed shard's plans keep serving; 1 disables replication")),
    ("--max-pending", dict(
        type=int, default=None,
        help="admission cap: shed new requests (HTTP 503) once this many "
             "computations are in flight (default: unbounded)")),
    ("--deadline", dict(
        type=float, default=None,
        help="default per-request deadline in seconds; expiry answers "
             "HTTP 504 (default: wait forever)")),
    ("--no-breaker", dict(
        action="store_true",
        help="disable the per-model-set circuit breakers")),
    ("--breaker-cooldown", dict(
        type=float, default=30.0,
        help="seconds an open circuit breaker waits before admitting a "
             "trial request")),
    ("--no-feedback", dict(
        action="store_true",
        help="serve without the closed-loop feedback path (POST /feedback "
             "answers 400)")),
    ("--refit-every", dict(
        type=int, default=16,
        help="accepted feedback reports buffered between model refits")),
    ("--feedback-k", dict(
        type=float, default=8.0,
        help="outlier ratio bound of the feedback quarantine: a reported "
             "time outside [pred/k, k*pred] is rejected")),
    ("--feedback-strikes", dict(
        type=int, default=3,
        help="consecutive rejected reports before a source is quarantined "
             "(403)")),
    ("--feedback-rate", dict(
        type=int, default=None,
        help="max feedback reports per source per minute; over-rate "
             "answers 429 with Retry-After (default: unlimited)")),
    ("--drain-timeout", dict(
        type=float, default=10.0,
        help="seconds to wait for in-flight computations at shutdown")),
)


def add_stack_flags(parser: argparse.ArgumentParser) -> None:
    """Add every :data:`STACK_FLAGS` entry to ``parser``."""
    for flag, spec in STACK_FLAGS:
        parser.add_argument(flag, **spec)


def stack_argv(
    args: argparse.Namespace, skip: Collection[str] = ()
) -> List[str]:
    """The stack flags of ``args`` as argv that parses back to the same values.

    A ``store_true`` flag appears when set, a valued flag when not
    ``None``; ``skip`` names the flags the caller passes itself.
    """
    argv: List[str] = []
    for flag, spec in STACK_FLAGS:
        if flag in skip:
            continue
        value = getattr(args, flag[2:].replace("-", "_"))
        if spec.get("action") == "store_true":
            if value:
                argv.append(flag)
        elif value is not None:
            argv += [flag, str(value)]
    return argv


# -- point files -----------------------------------------------------------


def load_rank_points(points_dir: PathLike) -> List[List[Any]]:
    """Every rank's measurement points from a ``build`` output directory.

    Ranks are the sorted ``rank*.points`` files.  A missing, truncated or
    corrupt file raises :class:`~repro.errors.PartitionError` naming the
    rank, the file and the fix.
    """
    files = sorted(Path(points_dir).glob("rank*.points"))
    if not files:
        raise FuPerModError(f"no rank*.points files in {points_dir}")
    rank_points = []
    for rank, path in enumerate(files):
        try:
            rank_points.append(load_points(path)[0])
        except PersistenceError as exc:
            raise PartitionError(
                f"cannot load points for rank {rank}: {exc}; the file is "
                "missing or corrupt -- re-run 'fupermod build' to "
                "regenerate it"
            ) from exc
    return rank_points


def fit_models(
    rank_points: List[List[Any]], model: str = "piecewise"
) -> List[Any]:
    """One fitted ``model``-family performance model per rank."""
    factory = model_factory(model)
    models = []
    for points in rank_points:
        fitted = factory()
        fitted.update_many(points)
        models.append(fitted)
    return models


def fit_energy_models(
    rank_points: List[List[Any]], power_path: PathLike, model: str
) -> List[Any]:
    """Per-rank *energy* models from the timing points and power profiles.

    Each rank's points are priced in joules through its
    :class:`~repro.platform.power.PowerProfile` (rank order in the JSON
    file matches ``rank*.points`` order) and fitted with the energy
    family matching ``model``
    (:func:`~repro.core.models.energy.energy_model_for`).
    """
    from repro.core.models.energy import energy_model_for
    from repro.platform.power import (
        energy_points_from_power, load_power_profiles,
    )

    profiles = load_power_profiles(power_path)
    if len(profiles) != len(rank_points):
        raise FuPerModError(
            f"{len(profiles)} power profiles in {power_path} for "
            f"{len(rank_points)} rank*.points files; they must pair up rank "
            f"for rank"
        )
    family = energy_model_for(model)
    energy_models = []
    for points, profile in zip(rank_points, profiles):
        fitted = family()
        fitted.update_many(energy_points_from_power(points, profile))
        energy_models.append(fitted)
    return energy_models


# -- the stack -------------------------------------------------------------


def purge_unverified(cache: PlanCache, lineage: ModelLineage) -> int:
    """Drop cached plans whose model fingerprint lineage cannot verify.

    The plan WAL and the lineage journal are separate files with
    separate torn tails: a crash can leave the cache holding plans
    stamped with a model epoch the (shorter) recovered lineage never
    reaches.  Serving such a plan would assert a provenance the lineage
    chain cannot back, so on recovery every entry whose ``models_fp`` is
    outside :meth:`ModelLineage.verified_fingerprints` is invalidated --
    a fleet's replicas (or a cold solve against the recovered models)
    re-cover the key.  Returns how many were dropped.
    """
    verified = lineage.verified_fingerprints()
    purged = 0
    for key, models_fp, _result, _spec in cache.payload_items():
        if models_fp not in verified:
            cache.invalidate(key)
            purged += 1
    return purged


def _stderr(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


@dataclass
class ServingStack:
    """A built stack: the server and what :meth:`close` shuts down.

    ``cache`` is a recovered :class:`~repro.serve.wal.DurablePlanCache`
    when ``cache_file`` is set; ``lineage`` is ``None`` with
    ``--no-feedback``; ``recovered`` counts the snapshot entries and
    journaled ops replayed at start.
    """

    server: PlanServer
    cache: PlanCache
    lineage: Optional[ModelLineage]
    cache_file: Optional[Path]
    recovered: int
    drain_timeout: float
    log: Callable[[str], None]

    @property
    def durable(self) -> bool:
        """Whether the cache journals to :attr:`cache_file`."""
        return self.cache_file is not None

    def close(self) -> None:
        """Drain in-flight solves, then close server, lineage and cache.

        Closing a durable cache compacts its journal into the snapshot.
        Logs a warning if the drain window expires, then one summary of
        the cache and serving counters.
        """
        if not self.server.drain(timeout=self.drain_timeout):
            self.log(f"warning: in-flight computations still running after "
                     f"{self.drain_timeout:.3g}s drain window")
        self.server.close()
        if self.lineage is not None:
            self.lineage.close()
        if self.cache_file is not None:
            self.cache.close()
            self.log(f"compacted {len(self.cache)} cached plan(s) to "
                     f"{self.cache_file}")
        stats = self.server.stats()
        self.log(f"cache: {stats['cache']['hits']} hit(s), "
                 f"{stats['cache']['misses']} miss(es); "
                 f"serve: {stats['serve']['computations']} computation(s), "
                 f"{stats['serve']['coalesced']} coalesced, "
                 f"{stats['serve']['warm_starts']} warm-started, "
                 f"{stats['serve']['shed']} shed, "
                 f"{stats['serve']['short_circuits']} short-circuited")


def build_stack(
    args: argparse.Namespace,
    log: Callable[[str], None] = _stderr,
    opener: Optional[Opener] = None,
    probe_interval: float = 1.0,
) -> ServingStack:
    """Build and recover the stack that the stack flags in ``args`` describe.

    In order: the models (and energy models with ``--power``); the plan
    cache, recovered from snapshot + journal with ``--cache-file``; the
    policy, breakers, engine and server; then, unless
    ``--no-feedback``, the lineage recovered from its journal beside
    the cache file, :func:`purge_unverified`, and the feedback
    controller.  ``opener`` opens the journals (the disk-fault seam)
    and ``probe_interval`` is a degraded cache's disk re-test period.
    Status lines go to ``log``.
    """
    rank_points = load_rank_points(args.points)
    models = fit_models(rank_points, args.model)

    cache_file = Path(args.cache_file) if args.cache_file else None
    recovered = 0
    if cache_file is not None:
        def log_transition(mode: str, reason: str) -> None:
            # One line per durability-mode change (trip or heal), never
            # one per failed append.
            log(f"warning: plan cache durability {mode}: {reason}")

        cache: PlanCache = DurablePlanCache(
            cache_file, compact_every=args.compact_every,
            capacity=args.cache_size, ttl=args.ttl,
            durability_budget=(
                None if args.no_durability_degrade else args.durability_budget
            ),
            probe_interval=probe_interval, opener=opener,
            on_transition=log_transition,
        )
        snapshot_entries, wal_ops = cache.recover()
        recovered = snapshot_entries + wal_ops
        if recovered:
            log(f"recovered {snapshot_entries} plan(s) from snapshot + "
                f"{wal_ops} journaled op(s) from {cache_file}")
    else:
        cache = PlanCache(capacity=args.cache_size, ttl=args.ttl)

    engine = PlanEngine(
        cache=cache,
        policy=DegradationPolicy() if args.degrade else None,
        partitioner=args.algorithm,
        warm=not args.no_warm,
        breakers=(
            None if args.no_breaker
            else BreakerBoard(cooldown=args.breaker_cooldown)
        ),
    )
    server = PlanServer(
        models, engine=engine, max_workers=args.threads,
        max_pending=args.max_pending, default_deadline=args.deadline,
    )
    if args.power is not None:
        server.attach_energy(
            fit_energy_models(rank_points, args.power, args.model)
        )
        log(f"bi-objective plans enabled: {len(server.energy_models)} "
            f"energy model(s) fitted from {args.power}")

    lineage = None
    if not args.no_feedback:
        # The lineage journal sits beside the cache WAL so models and
        # the plans computed from them crash-recover together.
        lineage = ModelLineage(
            models,
            wal_path=(
                str(cache_file) + ".lineage" if cache_file is not None
                else None
            ),
            opener=opener,
        )
        replayed = lineage.recover()
        if replayed:
            log(f"replayed {replayed} lineage op(s); serving model "
                f"epoch {lineage.epoch}")
        # Replay may have advanced past the loaded models' epoch.
        server.models = lineage.models
        purged = purge_unverified(cache, lineage)
        if purged:
            log(f"purged {purged} cached plan(s) with unverifiable model "
                "fingerprints")
        server.attach_feedback(FeedbackController(
            server, lineage,
            quarantine=FeedbackQuarantine(
                k=args.feedback_k,
                max_strikes=args.feedback_strikes,
                rate_limit=args.feedback_rate,
            ),
            refit_every=args.refit_every,
        ))
    return ServingStack(
        server=server, cache=cache, lineage=lineage, cache_file=cache_file,
        recovered=recovered, drain_timeout=args.drain_timeout, log=log,
    )
