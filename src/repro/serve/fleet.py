"""The plan fleet: N worker processes behind one FPM-dogfooding router.

:class:`PlanFleet` scales the plan service past one process.  It spawns
``workers`` copies of :mod:`repro.serve.worker` (each with its own
:class:`~repro.serve.engine.PlanEngine`, cache and **per-shard WAL**),
wires them into a peer roster for sibling fill, measures each worker's
hit-path service rate, and fronts them with a
:class:`~repro.serve.router.PlanRouter`:

* requests are **consistent-hashed** to a home shard by affinity key, so
  the fleet cache is a union, not N copies;
* non-affinitised requests are **apportioned by the repo's own
  partitioners** over functional performance models fitted to the
  startup probes -- the FuPerMod methodology applied to its own serving
  fleet;
* a worker that dies is routed around immediately; a restarted worker
  recovers its plans from its own WAL and rejoins the ring at the same
  position (shard ids, not addresses, hash onto the ring);
* with ``replicas >= 2`` each committed plan also lives on its ring
  successors (:mod:`repro.serve.replicate`): a SIGKILLed home's plans
  keep serving as bit-identical replica hits, failed pushes drain as
  hints on peer recovery, and :meth:`PlanFleet.anti_entropy` diffs
  shard digests after a heal and repairs whatever diverged.

Startup sequencing (the ephemeral-port chicken-and-egg): workers bind
port 0 and announce the bound port in a READY line on stdout; once all
workers are up the supervisor broadcasts the full roster to every
worker, probes, and only then opens the router.  The same broadcast
runs again whenever membership changes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import FuPerModError
from repro.serve.client import PlanClient, http_transport
from repro.serve.router import PlanRouter
from repro.serve.shard import ShardClient

PathLike = Union[str, Path]

#: Batch sizes of the startup service-rate probe (requests per timing).
PROBE_BATCHES = (1, 2, 4, 8)

#: The problem size the startup probe plans, distinct from real traffic
#: so the probe's plan stays cache-warm.
PROBE_TOTAL = 654_321

#: Seconds each worker is allowed to become ready.
STARTUP_TIMEOUT_S = 30.0


def _worker_env() -> Dict[str, str]:
    """The child's environment: inherit, with our import path exported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _read_ready(proc: subprocess.Popen, timeout: float) -> Dict[str, Any]:
    """The worker's READY line, or raise if it dies / stalls."""
    result: Dict[str, Any] = {}

    def reader() -> None:
        line = proc.stdout.readline()
        if line:
            try:
                result.update(json.loads(line))
            except ValueError:
                result["error"] = f"bad READY line: {line!r}"

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive() or not result.get("ready"):
        code = proc.poll()
        proc.kill()
        raise FuPerModError(
            f"worker failed to become ready within {timeout:.3g}s "
            f"(exit code {code}, READY={result or None})"
        )
    return result


class _Shard:
    """Supervisor-side record of one worker process."""

    def __init__(self, shard_id: str, cache_file: Path,
                 slowdown_ms: float) -> None:
        self.shard_id = shard_id
        self.cache_file = cache_file
        self.slowdown_ms = slowdown_ms
        self.proc: Optional[subprocess.Popen] = None
        self.url: str = ""
        self.client: Optional[ShardClient] = None

    @property
    def running(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class PlanFleet:
    """Supervise a sharded plan-serving fleet.

    Args:
        points: ``build`` output directory the workers load models from.
        workers: number of worker processes (shards).
        routing: balanced-routing policy, ``"fpm"`` or ``"round-robin"``.
        cache_dir: directory for the per-shard WAL-backed caches
            (``<shard>.plans``); ``None`` disables durability.
        slowdowns_ms: per-worker simulated service time in milliseconds
            (cycled if shorter than ``workers``); models a heterogeneous
            fleet on a homogeneous host.  0 disables.
        probe: measure each worker's hit-path service rate at startup
            (planning :data:`PROBE_TOTAL`) and seed the balancer's
            performance models from it.
        host / port: router bind address (port 0 = ephemeral).
        worker_args: extra argv appended to every worker command line:
            the stack flags of :mod:`repro.serve.stack` (``--model``,
            ``--threads``, ``--durability-budget``, ...), which default
            to ``fupermod serve``'s values.
        replicas: plan replica-set size including the home shard
            (passed to every worker as ``--replicas``; 1 disables
            replication -- the pre-replication fleet).
        disk_fault_plan: path to a serialized
            :class:`~repro.faults.disk.DiskFaultPlan` spliced into every
            worker's journals (forwarded as ``--disk-fault-plan``); the
            chaos suite's storage-failure seam.

    Use as a context manager, or call :meth:`stop`.
    """

    def __init__(
        self,
        points: PathLike,
        workers: int = 2,
        routing: str = "fpm",
        cache_dir: Optional[PathLike] = None,
        slowdowns_ms: Optional[Sequence[float]] = None,
        probe: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_args: Optional[Sequence[str]] = None,
        replicas: int = 2,
        disk_fault_plan: Optional[PathLike] = None,
    ) -> None:
        if workers <= 0:
            raise FuPerModError(f"a fleet needs at least one worker, got {workers}")
        self.points = Path(points)
        self.probe = probe
        self.worker_args = list(worker_args or [])
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        slowdowns = list(slowdowns_ms or [0.0])
        self.shards: Dict[str, _Shard] = {}
        for i in range(workers):
            sid = f"shard{i}"
            cache_file = (
                self.cache_dir / f"{sid}.plans"
                if self.cache_dir is not None else None
            )
            self.shards[sid] = _Shard(
                sid, cache_file, slowdowns[i % len(slowdowns)]
            )
        if replicas <= 0:
            raise FuPerModError(
                f"replica set size must be positive, got {replicas}"
            )
        self.replicas = replicas
        self.disk_fault_plan = (
            Path(disk_fault_plan) if disk_fault_plan is not None else None
        )
        self.router = PlanRouter(
            {sid: "http://127.0.0.1:0" for sid in self.shards},
            routing=routing, host=host, port=port,
            read_replicas=replicas,
        )
        self._stopped = False

    # -- worker lifecycle --------------------------------------------------

    def _worker_cmd(self, shard: _Shard) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro.serve.worker",
            "--points", str(self.points),
            "--shard-id", shard.shard_id,
            "--port", "0",
            "--replicas", str(self.replicas),
        ]
        if shard.cache_file is not None:
            cmd += ["--cache-file", str(shard.cache_file)]
        if shard.slowdown_ms > 0.0:
            cmd += ["--slowdown", str(shard.slowdown_ms)]
        if self.disk_fault_plan is not None:
            cmd += ["--disk-fault-plan", str(self.disk_fault_plan)]
        cmd += self.worker_args
        return cmd

    def _spawn(self, shard: _Shard) -> Dict[str, Any]:
        shard.proc = subprocess.Popen(
            self._worker_cmd(shard),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_worker_env(),
        )
        ready = _read_ready(shard.proc, STARTUP_TIMEOUT_S)
        shard.url = str(ready["url"])
        shard.client = ShardClient(shard.url, shard.shard_id, timeout=10.0)
        return ready

    def _broadcast_peers(self) -> None:
        """Deliver the current roster to every running worker."""
        roster = [
            {"shard_id": s.shard_id, "url": s.url}
            for s in self.shards.values() if s.running
        ]
        for shard in self.shards.values():
            if shard.running and shard.client is not None:
                try:
                    shard.client.set_peers(roster)
                except Exception:
                    pass  # the monitor/restart path will resync it

    def _probe_shard(self, shard: _Shard) -> List[Any]:
        """Measure this worker's hit-path service rate: (batch, seconds)."""
        client = shard.client
        payload = {"cmd": "plan", "total": PROBE_TOTAL}
        client.plan(payload)  # cold solve; everything after is the hit path
        points = []
        for batch in PROBE_BATCHES:
            start = time.perf_counter()
            for _ in range(batch):
                client.plan(payload)
            points.append((batch, time.perf_counter() - start))
        return points

    def start(self) -> "PlanFleet":
        """Spawn the workers, wire peers, probe, open the router."""
        for shard in self.shards.values():
            self._spawn(shard)
            self.router.revive(shard.shard_id, shard.url)
        self._broadcast_peers()
        if self.probe:
            for shard in self.shards.values():
                try:
                    points = self._probe_shard(shard)
                except Exception:
                    continue  # unseeded workers fall back to equal shares
                self.router.balancer.seed(shard.shard_id, points)
        self.router.start()
        return self

    # -- chaos / membership ------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL one worker (the crash case; no drain, no WAL compact)."""
        shard = self.shards[shard_id]
        if shard.proc is not None:
            shard.proc.kill()
            shard.proc.wait()
        self.router.mark_dead(shard_id)

    def restart_shard(self, shard_id: str) -> Dict[str, Any]:
        """Respawn a dead worker on its original cache file.

        The worker recovers its plans from its own WAL (snapshot +
        journal replay), rejoins the ring at its old position (same
        shard id), and the roster is re-broadcast fleet-wide.  Returns
        the worker's READY record (including its ``recovered`` count).
        """
        shard = self.shards[shard_id]
        if shard.running:
            raise FuPerModError(f"shard {shard_id} is still running")
        ready = self._spawn(shard)
        self.router.revive(shard_id, shard.url)
        self._broadcast_peers()
        if self.replicas > 1:
            # A rejoining shard missed every plan committed while it was
            # down; repair it in the background (reads keep flowing to
            # its replicas meanwhile, so nothing waits on this).
            threading.Thread(
                target=self._safe_anti_entropy,
                name=f"fupermod-anti-entropy-{shard_id}",
                daemon=True,
            ).start()
        return ready

    # -- anti-entropy ------------------------------------------------------

    def _safe_anti_entropy(self) -> None:
        try:
            self.anti_entropy()
        except Exception:
            pass  # background repair is best-effort; digests retry later

    def digest_report(self) -> Dict[str, Dict[str, Any]]:
        """Every running shard's anti-entropy digest, keyed by shard id."""
        digests: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards.values():
            if shard.running and shard.client is not None:
                got = shard.client.digest()
                if got is not None:
                    digests[shard.shard_id] = got
        return digests

    def anti_entropy(self) -> Dict[str, Any]:
        """Diff shard digests and repair divergent replica sets.

        For every key any shard holds (with a placeable affinity), the
        desired holders are its replica set on the *full* membership
        ring, filtered to running shards.  The authoritative copy is the
        ring-preference-first running holder; any desired holder missing
        the key -- or holding it under a different entry fingerprint --
        is repaired by pulling the entry from the authority and pushing
        it through ``POST /replicate`` with the ``repair`` flag.

        Returns a report: keys examined, divergent keys found, repairs
        pushed, push failures.  Run it after a partition heals (the
        netsplit suite asserts zero divergent keys on a second pass) or
        let :meth:`restart_shard` trigger it in the background.
        """
        from repro.serve.hashring import HashRing

        digests = self.digest_report()
        holdings: Dict[str, Dict[str, Any]] = {
            sid: {
                str(e[0]): (str(e[1]), e[2])
                for e in d.get("entries", ())
            }
            for sid, d in digests.items()
        }
        ring = HashRing()
        for sid in self.shards:
            ring.add(sid)
        report = {"keys": 0, "divergent": 0, "repairs": 0, "failures": 0}
        all_keys: Dict[str, Optional[str]] = {}
        for entries in holdings.values():
            for key, (_fp, affinity) in entries.items():
                if affinity is not None:
                    all_keys[key] = str(affinity)
                else:
                    all_keys.setdefault(key, None)
        for key, affinity in sorted(all_keys.items()):
            report["keys"] += 1
            if affinity is None:
                continue  # spec-less entries cannot be placed on the ring
            preference = ring.preference(affinity)
            desired = [
                sid for sid in preference[: self.replicas]
                if sid in holdings
            ]
            source_sid = next(
                (sid for sid in preference
                 if sid in holdings and key in holdings[sid]),
                None,
            )
            if source_sid is None or not desired:
                continue
            source_fp = holdings[source_sid][key][0]
            targets = [
                sid for sid in desired
                if sid != source_sid
                and holdings[sid].get(key, (None, None))[0] != source_fp
            ]
            if not targets:
                continue
            report["divergent"] += 1
            source = self.shards[source_sid].client
            entry = source.get_entry(key) if source is not None else None
            if entry is None:
                report["failures"] += len(targets)
                continue
            result, models_fp, spec = entry
            payload = {
                "key": key,
                "models_fp": models_fp,
                "result": result.to_dict(),
                "spec": list(spec) if spec is not None else None,
                "source": source_sid,
                "repair": True,
            }
            for sid in targets:
                client = self.shards[sid].client
                try:
                    ok = client is not None and client.replicate(payload)
                except Exception:
                    ok = False
                report["repairs" if ok else "failures"] += 1
        return report

    # -- client-facing -----------------------------------------------------

    @property
    def url(self) -> str:
        """The router's base URL (valid once started)."""
        return self.router.url

    def client(self, **kwargs: Any) -> PlanClient:
        """A retrying :class:`PlanClient` against the router."""
        return PlanClient(http_transport(self.url), **kwargs)

    def shard_client(self, shard_id: str) -> ShardClient:
        """Direct client for one worker (parity tests, probes)."""
        client = self.shards[shard_id].client
        if client is None:
            raise FuPerModError(f"shard {shard_id} has not started")
        return client

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: SIGTERM workers, drain, stop the router."""
        if self._stopped:
            return
        self._stopped = True
        for shard in self.shards.values():
            if shard.running:
                shard.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for shard in self.shards.values():
            if shard.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                shard.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                shard.proc.kill()
                shard.proc.wait()
        self.router.stop()

    def __enter__(self) -> "PlanFleet":
        """Context-manager entry: start the fleet."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: stop everything."""
        self.stop()
