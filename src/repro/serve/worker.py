"""One fleet shard: a worker process serving plans over the asyncio front end.

Run as ``python -m repro.serve.worker`` (the fleet supervisor's child
process).  Each worker owns the full single-node serving stack, built by
:func:`~repro.serve.stack.build_stack` from the same stack flags, with
the same defaults, as ``fupermod serve`` -- its own
:class:`~repro.serve.engine.PlanEngine`,
:class:`~repro.serve.wal.DurablePlanCache` with a **per-shard** WAL, and
an :class:`~repro.serve.aio.AioFrontend` -- plus the fleet-internal
surface:

* ``GET /cache/<key>`` -- a pure cache peek for sibling fill and
  anti-entropy pulls: the plan's serialized form (plus the model
  fingerprint and request spec it was stored under) if this shard has
  it, 404 otherwise.  Never solves.
* ``POST /peers`` -- the supervisor's roster broadcast, installed in the
  :class:`~repro.serve.replicate.PlanReplicator`, which holds the
  shard's one view of its peers: one ring and one client per peer,
  shared by sibling fill (local misses probe peers in consistent-hash
  preference order for the request's affinity key before solving cold)
  and replica pushes.  A new roster also wakes the hinted-handoff
  drainer.
* ``POST /replicate`` / ``GET /digest`` -- the replica write path and
  the anti-entropy digest (see :mod:`repro.serve.replicate`).
* ``POST /chaos`` / ``GET /chaos`` -- install / inspect a
  transport-fault plan (:mod:`repro.faults.net`) covering this worker's
  *outbound* links (sibling fills and replica pushes); the netsplit
  suite's seam for asymmetric partitions.
* a **READY line** on stdout once the port is bound:
  ``{"ready": true, "shard_id": ..., "port": ..., "durability": ...}``
  -- how the supervisor learns ephemeral ports (and the shard's
  durability mode) without a race.

Storage resilience: ``--durability-budget N`` (default 3) lets the
shard absorb journal-append failures and degrade to memory-only mode
instead of failing requests (``--no-durability-degrade`` restores the
fail-fast behaviour); ``--disk-fault-plan FILE`` splices a seeded
:class:`~repro.faults.disk.DiskFaultPlan` under the shard's journals --
the disk chaos suite's seam.  Durability-mode transitions log exactly
one stderr line each; ``GET /health`` and the READY line expose the
current mode.

``--slowdown MS`` injects a blocking per-request service time into the
event loop.  This is the fleet's simulated heterogeneity: the sleep
genuinely consumes the worker's serving capacity (its event loop can do
nothing else meanwhile), exactly as a slower processor would, so
routing and scaling results measured against it are real queueing
behaviour, not arithmetic.

Shutdown: SIGTERM/SIGINT drain in-flight solves and compact the WAL;
SIGKILL is the crash case the WAL recovers from on restart.  A worker
whose supervisor dies without stopping it (SIGKILL, OOM) notices within
about half a second that it has been re-parented and shuts down the
same way, so it neither keeps its port nor appends to its WAL.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import FuPerModError
from repro.faults.net import NetChaos, NetFaultPlan, wrap_shard_client
from repro.serve.aio import AioFrontend
from repro.serve.replicate import PlanReplicator
from repro.serve.server import PlanServer
from repro.serve.shard import ShardClient
from repro.serve.stack import add_stack_flags, build_stack

#: Seconds between checks, while serving, that the supervisor is alive.
_SUPERVISOR_POLL_S = 0.5


def _extra_routes(
    server: PlanServer, replicator: PlanReplicator, chaos: NetChaos
):
    """The worker's fleet-internal routes for the asyncio front end."""

    def cache_peek(path: str, _payload) -> Tuple[int, Dict[str, Any]]:
        key = path.rsplit("/", 1)[-1]
        hit = server.engine.cache.export_entry(key)
        if hit is None:
            return 404, {"error": f"no cached plan for key {key[:16]}..."}
        result, models_fp, spec = hit
        return 200, {
            "plan": result.to_dict(),
            "models_fp": models_fp,
            "spec": list(spec) if spec is not None else None,
        }

    def set_peers(_path: str, payload) -> Tuple[int, Dict[str, Any]]:
        peers = (payload or {}).get("peers")
        if not isinstance(peers, list):
            return 400, {"error": "'peers' must be a list of shard records"}
        try:
            count = replicator.set_peers(peers)
        except (KeyError, TypeError, FuPerModError) as exc:
            return 400, {"error": f"bad peer roster: {exc}"}
        return 200, {"ok": True, "peers": count}

    def replicate(_path: str, payload) -> Tuple[int, Dict[str, Any]]:
        return replicator.apply_replicate(payload)

    def digest(_path: str, _payload) -> Tuple[int, Dict[str, Any]]:
        return 200, replicator.digest()

    def set_chaos(_path: str, payload) -> Tuple[int, Dict[str, Any]]:
        try:
            plan = NetFaultPlan.from_dict(payload or {})
        except FuPerModError as exc:
            return 400, {"error": str(exc)}
        chaos.set_plan(plan)
        return 200, {"ok": True, "plan": plan.to_dict()}

    def get_chaos(_path: str, _payload) -> Tuple[int, Dict[str, Any]]:
        return 200, chaos.stats()

    return {
        "GET /cache/": cache_peek,
        "POST /peers": set_peers,
        "POST /replicate": replicate,
        "GET /digest": digest,
        "POST /chaos": set_chaos,
        "GET /chaos": get_chaos,
    }


def build_parser() -> argparse.ArgumentParser:
    """The worker's argument parser (exposed for tests).

    The stack flags and their defaults are ``fupermod serve``'s
    (:data:`~repro.serve.stack.STACK_FLAGS`); the rest are the shard's.
    """
    parser = argparse.ArgumentParser(
        prog="repro.serve.worker", description="one plan-fleet shard"
    )
    add_stack_flags(parser)
    parser.add_argument("--shard-id", default="shard0", dest="shard_id")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--probe-interval", type=float, default=1.0,
                        dest="probe_interval",
                        help="seconds between disk re-tests while degraded")
    parser.add_argument("--disk-fault-plan", default=None,
                        dest="disk_fault_plan", metavar="JSON",
                        help="seeded DiskFaultPlan file spliced under this "
                             "shard's journals (the disk chaos seam)")
    parser.add_argument("--slowdown", type=float, default=0.0, metavar="MS",
                        help="simulated per-request service time in "
                             "milliseconds (models a slower shard)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Worker entry point: serve until SIGTERM/SIGINT or the supervisor dies."""
    supervisor = os.getppid()
    args = build_parser().parse_args(argv)

    opener = None
    if args.disk_fault_plan is not None:
        from repro.faults.disk import DiskFaultPlan, faulty_open

        opener = faulty_open(DiskFaultPlan.load(args.disk_fault_plan))

    def log(line: str) -> None:
        print(f"shard {args.shard_id}: {line}", file=sys.stderr, flush=True)

    stack = build_stack(
        args, log=log, opener=opener, probe_interval=args.probe_interval
    )
    server, lineage = stack.server, stack.lineage

    # One fault controller covers every outbound link this worker owns:
    # the netsplit suite partitions a worker by POSTing a plan to /chaos.
    chaos = NetChaos()

    def chaotic_client(url: str, sid: str, tmo: float) -> ShardClient:
        return wrap_shard_client(
            ShardClient(url, sid, timeout=tmo), chaos, args.shard_id
        )

    # The replicator owns the peers: every freshly committed plan is
    # pushed to its ring successors off the request path (failed pushes
    # become durable hints beside the cache WAL), and local misses are
    # filled from the same peers' caches.  Its clients come from the
    # chaos-wrapped factory, so a partition cuts fills and pushes alike.
    epoch_source = None
    if lineage is not None:
        epoch_source = lambda: (lineage.epoch, lineage.fingerprint)  # noqa: E731
    replicator = PlanReplicator(
        args.shard_id, stack.cache, replicas=args.replicas,
        hint_path=(str(stack.cache_file) + ".hints" if stack.durable else None),
        client_factory=chaotic_client, epoch_source=epoch_source,
        opener=opener,
    )
    pending_hints = replicator.recover()
    server.engine.sibling_fill = replicator.sibling_fill
    server.engine.on_commit = replicator.plan_committed
    server.replication = replicator.stats

    plan_hook = None
    if args.slowdown > 0.0:
        delay = args.slowdown / 1000.0

        def plan_hook() -> None:
            # Deliberately blocks the event loop: this *is* the shard's
            # service time, so it must consume serving capacity.
            time.sleep(delay)

    frontend = AioFrontend(
        server, host=args.host, port=args.port,
        extra_routes=_extra_routes(server, replicator, chaos),
        plan_hook=plan_hook,
    )
    frontend.start()
    print(json.dumps({
        "ready": True,
        "shard_id": args.shard_id,
        "host": args.host,
        "port": frontend.port,
        "url": frontend.url,
        "recovered": stack.recovered,
        "epoch": lineage.epoch if lineage is not None else None,
        "replicas": args.replicas,
        "pending_hints": pending_hints,
        "energy": server.energy_models is not None,
        "durability": (
            stack.cache.durability_mode  # type: ignore[attr-defined]
            if stack.durable else None
        ),
    }), flush=True)

    stop = threading.Event()

    def _on_signal(signum, _frame) -> None:
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _on_signal)
    while not stop.wait(_SUPERVISOR_POLL_S):
        if os.getppid() != supervisor:
            log(f"supervisor {supervisor} is gone; shutting down")
            break

    frontend.stop()
    replicator.close()
    stack.close()
    log("clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
