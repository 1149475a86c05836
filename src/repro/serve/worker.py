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
* ``POST /peers`` -- the supervisor's roster broadcast; installs the
  sibling-fill hook so local misses probe peers (in consistent-hash
  preference order for the request's affinity key) before solving cold,
  and feeds the replicator's peer roster (which doubles as its
  peer-recovery signal for hinted handoff).
* ``POST /replicate`` / ``GET /digest`` -- the replica write path and
  the anti-entropy digest (see :mod:`repro.serve.replicate`).
* ``POST /chaos`` / ``GET /chaos`` -- install / inspect a
  transport-fault plan (:mod:`repro.faults.net`) covering this worker's
  *outbound* links (sibling probes and replica pushes); the netsplit
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
from repro.serve.fingerprint import affinity_key
from repro.serve.hashring import HashRing
from repro.serve.plan import PlanRequest, PlanResult
from repro.serve.replicate import PlanReplicator
from repro.serve.server import PlanServer
from repro.serve.shard import ShardClient
from repro.serve.stack import add_stack_flags, build_stack

#: Seconds between checks, while serving, that the supervisor is alive.
_SUPERVISOR_POLL_S = 0.5


class SiblingFill:
    """Peer-cache lookup hook for :class:`PlanEngine`.

    On a local miss the engine calls this with the
    :class:`~repro.serve.plan.PlanRequest`; peers are probed with a pure
    cache peek (``GET /cache/<key>``) in consistent-hash preference
    order for the request's affinity key -- the home shard, which the
    router sends that key to, is asked first.  A dead or slow peer is
    skipped (never fatal); at most ``max_probes`` peers are asked before
    giving up and solving cold.
    """

    def __init__(
        self,
        shard_id: str,
        max_probes: int = 2,
        timeout: float = 2.0,
        client_factory=None,
    ) -> None:
        self.shard_id = shard_id
        self.max_probes = max_probes
        self.timeout = timeout
        # The client seam the transport-fault layer wraps: probes to
        # peers go through whatever clients this factory builds.
        self._client_factory = client_factory or (
            lambda url, sid, tmo: ShardClient(url, sid, timeout=tmo)
        )
        self._lock = threading.Lock()
        self._clients: Dict[str, ShardClient] = {}
        self._ring = HashRing()

    def set_peers(self, peers: Sequence[Dict[str, str]]) -> int:
        """Install the roster (``[{"shard_id", "url"}, ...]``, self included)."""
        clients: Dict[str, ShardClient] = {}
        ring = HashRing()
        for peer in peers:
            sid, url = str(peer["shard_id"]), str(peer["url"])
            ring.add(sid)
            if sid != self.shard_id:
                clients[sid] = self._client_factory(url, sid, self.timeout)
        with self._lock:
            self._clients = clients
            self._ring = ring
        return len(clients)

    def __call__(self, request: PlanRequest) -> Optional[PlanResult]:
        with self._lock:
            clients = dict(self._clients)
            ring = self._ring
        if not clients:
            return None
        key = affinity_key(request.total, request.partitioner,
                           request.option_dict())
        order = [s for s in ring.preference(key) if s in clients]
        probed = 0
        for sid in order:
            if probed >= self.max_probes:
                break
            probed += 1
            try:
                got = clients[sid].get_cached(request.key)
            except Exception:
                continue  # dead peer: the next preference may answer
            if got is not None:
                return got
        return None


def _extra_routes(
    server: PlanServer,
    sibling: SiblingFill,
    replicator: Optional[PlanReplicator] = None,
    chaos: Optional[NetChaos] = None,
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
            count = sibling.set_peers(peers)
            if replicator is not None:
                replicator.set_peers(peers)
        except (KeyError, TypeError, FuPerModError) as exc:
            return 400, {"error": f"bad peer roster: {exc}"}
        return 200, {"ok": True, "peers": count}

    routes = {
        "GET /cache/": cache_peek,
        "POST /peers": set_peers,
    }

    if replicator is not None:
        def replicate(_path: str, payload) -> Tuple[int, Dict[str, Any]]:
            return replicator.apply_replicate(payload)

        def digest(_path: str, _payload) -> Tuple[int, Dict[str, Any]]:
            return 200, replicator.digest()

        routes["POST /replicate"] = replicate
        routes["GET /digest"] = digest

    if chaos is not None:
        def set_chaos(_path: str, payload) -> Tuple[int, Dict[str, Any]]:
            try:
                plan = NetFaultPlan.from_dict(payload or {})
            except FuPerModError as exc:
                return 400, {"error": str(exc)}
            chaos.set_plan(plan)
            return 200, {"ok": True, "plan": plan.to_dict()}

        def get_chaos(_path: str, _payload) -> Tuple[int, Dict[str, Any]]:
            return 200, chaos.stats()

        routes["POST /chaos"] = set_chaos
        routes["GET /chaos"] = get_chaos

    return routes


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
    parser.add_argument("--sibling-probes", type=int, default=2,
                        dest="sibling_probes",
                        help="peers asked per miss before solving cold")
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

    # One fault controller covers every outbound link this worker owns
    # (sibling probes and replica pushes): the netsplit suite partitions
    # a worker by POSTing a plan to /chaos, and both transports see it.
    chaos = NetChaos()

    def chaotic_client(url: str, sid: str, tmo: float) -> ShardClient:
        return wrap_shard_client(
            ShardClient(url, sid, timeout=tmo), chaos, args.shard_id
        )

    sibling = SiblingFill(
        args.shard_id, max_probes=args.sibling_probes,
        client_factory=chaotic_client,
    )

    # Replica placement: every freshly committed plan is pushed to its
    # ring successors off the request path; failed pushes become durable
    # hints beside the cache WAL.  The replicator shares the chaos-
    # wrapped client factory, so partitions cut replication too.
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
    server.engine.sibling_fill = sibling
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
        extra_routes=_extra_routes(server, sibling, replicator, chaos),
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
