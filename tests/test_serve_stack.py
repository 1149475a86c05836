"""One serving stack for every entry point.

``fupermod serve``, the fleet worker (``python -m repro.serve.worker``)
and ``fupermod serve --workers N`` all build the stack of
:mod:`repro.serve.stack`.  The contracts:

* both parsers take every stack flag with the same dest and default,
  and differ only in their entry-point flags;
* the argv the fleet path builds for a worker parses back to the CLI's
  values for every stack flag;
* single-node recovery drops the plans a torn lineage journal cannot
  verify, as a recovering worker does;
* ``fupermod serve --workers N`` runs its shards with the flags it was
  given (``-m fleet``: real worker processes).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.conftest import points_from_time_fn
from repro.cli import _fleet_from_args, build_parser, main
from repro.faults import corrupt_wal
from repro.serve import (
    DurablePlanCache,
    ModelLineage,
    PlanRequest,
    PlanResult,
    ShardClient,
)
from repro.serve import worker
from repro.serve.stack import STACK_FLAGS, fit_models, load_rank_points

pytestmark = pytest.mark.serve

REPO_ROOT = Path(__file__).resolve().parents[1]

CLI_ONLY = {"--workers", "--routing", "--http"}
WORKER_ONLY = {
    "--shard-id", "--slowdown", "--probe-interval", "--disk-fault-plan",
}


@pytest.fixture(scope="module")
def points_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stack-points")
    assert main([
        "build", "--platform", "fig4", "--sizes", "32,128,512",
        "--out", str(out),
    ]) == 0
    return out


def serve_parser() -> argparse.ArgumentParser:
    """The ``fupermod serve`` subparser."""
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices["serve"]


def options(parser: argparse.ArgumentParser):
    """Option string -> action, without ``--help``."""
    return {
        opt: action
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


def dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def non_default(spec) -> str:
    """A command-line value that differs from the flag's default."""
    kind = spec.get("type", str)
    if kind is str:
        return "custom"
    return str(kind(spec.get("default") or 0) * 2 + kind(3))


class TestStackFlags:
    def test_parsers_differ_only_in_entry_point_flags(self):
        cli, shard = set(options(serve_parser())), set(options(worker.build_parser()))
        assert cli - shard == CLI_ONLY
        assert shard - cli == WORKER_ONLY
        for flag, _spec in STACK_FLAGS:
            assert flag in cli and flag in shard, flag

    def test_every_stack_flag_has_one_dest_and_default(self):
        cli, shard = options(serve_parser()), options(worker.build_parser())
        for flag, _spec in STACK_FLAGS:
            ours, theirs = cli[flag], shard[flag]
            assert (ours.dest, ours.default, ours.type, ours.required) == (
                theirs.dest, theirs.default, theirs.type, theirs.required
            ), flag
            assert ours.dest == dest(flag)

    def test_fleet_worker_argv_gives_back_the_cli_values(self, tmp_path):
        caches = tmp_path / "caches"
        argv = []
        for flag, spec in STACK_FLAGS:
            if spec.get("action") == "store_true":
                argv.append(flag)
            elif flag == "--cache-file":
                argv += [flag, str(caches)]
            else:
                argv += [flag, non_default(spec)]
        args = build_parser().parse_args(
            ["serve", *argv, "--workers", "3", "--http", "--port", "0"]
        )
        for flag, spec in STACK_FLAGS:
            assert getattr(args, dest(flag)) != spec.get("default", False), flag

        fleet = _fleet_from_args(args)
        try:
            assert sorted(fleet.shards) == ["shard0", "shard1", "shard2"]
            for sid, shard in fleet.shards.items():
                cmd = fleet._worker_cmd(shard)
                assert cmd[1:3] == ["-m", "repro.serve.worker"]
                parsed = worker.build_parser().parse_args(cmd[3:])
                assert parsed.shard_id == sid
                # Each shard journals to its own cache inside the directory.
                assert parsed.cache_file == str(caches / f"{sid}.plans")
                for flag, _spec in STACK_FLAGS:
                    if flag != "--cache-file":
                        assert getattr(parsed, dest(flag)) == getattr(
                            args, dest(flag)
                        ), flag
        finally:
            fleet.stop()


def plan_for(models_fp: str, total: int, ranks: int):
    request = PlanRequest.make(models_fp, total, "geometric")
    sizes = [total // ranks] * ranks
    sizes[0] += total - sum(sizes)
    result = PlanResult(
        key=request.key, total=total, sizes=sizes,
        times=[0.1] * ranks, algorithm="geometric",
    )
    return request, result


class TestSingleNodeRecovery:
    def test_torn_lineage_purges_unverifiable_plans(
        self, points_dir, tmp_path, capsys
    ):
        """The plan WAL outlived the lineage epoch its newest plan needs.

        The same crash ``test_serve_replicate`` recovers a worker from:
        the plan WAL holds a plan computed against epoch 1, the lineage
        journal lost epoch 1 to a torn tail.  ``fupermod serve`` must
        recover to epoch 0 and drop that plan, keeping epoch 0's.
        """
        cache_file = tmp_path / "plans.json"
        lineage_wal = Path(str(cache_file) + ".lineage")
        models = fit_models(load_rank_points(points_dir))
        ranks = len(models)

        lineage = ModelLineage(models, wal_path=lineage_wal)
        root_fp = lineage.fingerprint
        cache = DurablePlanCache(cache_file)
        old_req, old_plan = plan_for(root_fp, 900, ranks)
        cache.put(old_req.key, old_plan, root_fp)
        lineage.commit(lineage.propose([
            points_from_time_fn(lambda d, m=m: 2.0 * m.time(d), (48, 2048))
            for m in models
        ]))
        epoch1_fp = lineage.fingerprint
        new_req, new_plan = plan_for(epoch1_fp, 1800, ranks)
        cache.put(new_req.key, new_plan, epoch1_fp)
        lineage.close()
        cache.wal.close()
        corrupt_wal(lineage_wal, "torn-tail")

        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin = io.StringIO(json.dumps({"cmd": "shutdown"}) + "\n")
        sys.stdout = io.StringIO()
        try:
            code = main(["serve", "--points", str(points_dir),
                         "--cache-file", str(cache_file)])
        finally:
            sys.stdin, sys.stdout = stdin, stdout
        assert code == 0
        purged = [
            line for line in capsys.readouterr().err.splitlines()
            if "purged" in line
        ]
        assert purged == [
            "purged 1 cached plan(s) with unverifiable model fingerprints"
        ]

        recovered = DurablePlanCache(cache_file)
        recovered.recover()
        try:
            assert recovered.export_entry(new_req.key) is None
            kept = recovered.export_entry(old_req.key)
            assert kept is not None
            assert kept[0].to_dict() == old_plan.to_dict()
        finally:
            recovered.wal.close()


def wait_for_url(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """The router URL from the CLI's ``serving plans over URL`` line."""
    found = {}

    def reader() -> None:
        for line in proc.stderr:
            if line.startswith("serving plans over "):
                found["url"] = line.split()[3]
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    assert "url" in found, f"fleet never came up (exit {proc.poll()})"
    return found["url"]


def worker_pids(pid: int) -> list:
    """PIDs of the fleet workers among a process's children (Linux)."""
    children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    return [
        int(child) for child in children
        if b"repro.serve.worker" in Path(f"/proc/{child}/cmdline").read_bytes()
    ]


def running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.fleet
class TestFleetEntryPath:
    def test_serve_workers_runs_shards_with_the_given_flags(
        self, points_dir, tmp_path
    ):
        caches = tmp_path / "caches"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--points", str(points_dir), "--workers", "2", "--http",
             "--port", "0", "--cache-file", str(caches),
             "--cache-size", "2", "--no-feedback"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(REPO_ROOT),
        )
        try:
            client = ShardClient(wait_for_url(proc), timeout=30.0)
            try:
                for total in range(1000, 1800, 100):
                    reply = client.plan({"cmd": "plan", "total": total})
                    assert sum(reply["sizes"]) == total, reply
                # --cache-size 2: every shard evicts (replica pushes are
                # asynchronous, so allow them a moment to land).
                deadline = time.monotonic() + 20.0
                while True:
                    shards = client.metrics()["shards"]
                    evictions = {
                        sid: m["cache"]["evictions"] for sid, m in shards.items()
                    }
                    if all(evictions.values()) or time.monotonic() > deadline:
                        break
                    time.sleep(0.2)
                assert sorted(evictions) == ["shard0", "shard1"]
                assert all(evictions.values()), evictions
                assert all(m["cache"]["entries"] <= 2 for m in shards.values())
                # --no-feedback: the shards have no feedback loop.
                status, body = client._json("POST", "/feedback", {
                    "total": 1000, "sizes": [1, 1, 998],
                    "times": [0.1, 0.1, 0.1],
                })
                assert status == 400, body
            finally:
                client.close()
        finally:
            # SIGTERM even when an assertion failed: a SIGKILLed
            # supervisor cannot stop its workers, which would outlive it.
            proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert code == 0
        for sid in ("shard0", "shard1"):
            snapshot = caches / f"{sid}.plans"
            wal = caches / f"{sid}.plans.wal"
            assert snapshot.exists() and wal.stat().st_size == 0, sid
            compacted = DurablePlanCache(snapshot)
            compacted.recover()
            try:
                assert 1 <= len(compacted) <= 2, sid
            finally:
                compacted.wal.close()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="finds the workers through /proc")
    def test_workers_exit_when_the_supervisor_is_killed(
        self, points_dir, tmp_path
    ):
        caches = tmp_path / "caches"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--points", str(points_dir), "--workers", "2", "--http",
             "--port", "0", "--cache-file", str(caches)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(REPO_ROOT),
        )
        workers: list = []
        try:
            client = ShardClient(wait_for_url(proc), timeout=30.0)
            try:
                for total in range(1000, 1400, 100):
                    reply = client.plan({"cmd": "plan", "total": total})
                    assert sum(reply["sizes"]) == total, reply
            finally:
                client.close()
            workers = worker_pids(proc.pid)
            assert len(workers) == 2, workers
            # No SIGTERM: the supervisor dies without stopping anyone.
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 15.0
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
        # The orphaned shards took the SIGTERM path: WALs compacted.
        for sid in ("shard0", "shard1"):
            snapshot = caches / f"{sid}.plans"
            wal = caches / f"{sid}.plans.wal"
            assert snapshot.exists() and wal.stat().st_size == 0, sid
