"""CLI-level serving tests: `fupermod serve`, corrupt point files, and
registry thread safety.

The stdio transport is driven through :func:`repro.serve.frontend.
serve_stdio` with StringIO pipes -- exactly the objects the CLI wires up
-- and the HTTP transport through a real socket on an ephemeral port.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.core import registry
from repro.errors import FuPerModError

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def points_dir(tmp_path_factory):
    """A small build output shared by the serve CLI tests."""
    out = tmp_path_factory.mktemp("serve-points")
    code = main(
        ["build", "--platform", "fig4", "--sizes", "32,128,512",
         "--out", str(out)]
    )
    assert code == 0
    return out


def run_serve_stdio(points_dir, lines, extra_args=()):
    """Run `fupermod serve` against scripted stdin; return decoded replies."""
    import sys

    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    try:
        code = main(["serve", "--points", str(points_dir), *extra_args])
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    assert code == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestServeStdio:
    """The JSON-lines protocol end to end through the CLI."""

    def test_plan_cache_and_stats(self, points_dir):
        replies = run_serve_stdio(points_dir, [
            json.dumps({"total": 1200, "id": "first"}),
            json.dumps({"total": 1200, "id": "second"}),
            json.dumps({"cmd": "stats"}),
        ])
        first, second, stats = replies
        assert first["id"] == "first" and not first["cached"]
        assert second["cached"] and second["sizes"] == first["sizes"]
        assert sum(first["sizes"]) == 1200
        assert stats["stats"]["serve"]["computations"] == 1
        assert stats["stats"]["cache"]["hits"] == 1

    def test_bad_requests_keep_session_alive(self, points_dir):
        replies = run_serve_stdio(points_dir, [
            "{broken json",
            json.dumps({"total": "many"}),
            json.dumps({"cmd": "unknown-verb"}),
            json.dumps({"partitioner": "geometric"}),  # no total
            json.dumps({"total": 600, "id": "ok"}),
        ])
        assert all("error" in r for r in replies[:4])
        assert replies[4]["id"] == "ok" and sum(replies[4]["sizes"]) == 600

    def test_shutdown_command(self, points_dir):
        replies = run_serve_stdio(points_dir, [
            json.dumps({"cmd": "shutdown"}),
            json.dumps({"total": 100}),  # never reached
        ])
        assert replies == [{"ok": True, "shutdown": True}]

    def test_cache_file_persists_across_sessions(self, points_dir, tmp_path):
        cache_file = tmp_path / "plans.json"
        run_serve_stdio(
            points_dir,
            [json.dumps({"total": 900})],
            extra_args=["--cache-file", str(cache_file)],
        )
        assert cache_file.exists()
        replies = run_serve_stdio(
            points_dir,
            [json.dumps({"total": 900})],
            extra_args=["--cache-file", str(cache_file)],
        )
        # Served from the persisted cache: no computation this session.
        assert replies[0]["cached"]


class TestServeHTTP:
    """The asyncio HTTP front end on an ephemeral port."""

    def test_post_plan_and_get_stats(self, points_dir):
        from repro.core.registry import model_factory
        from repro.io.files import load_points
        from repro.serve import AioFrontend, PlanServer

        models = []
        for path in sorted(points_dir.glob("rank*.points")):
            model = model_factory("piecewise")()
            model.update_many(load_points(path)[0])
            models.append(model)
        with PlanServer(models) as plan_server:
            frontend = AioFrontend(plan_server, port=0)
            frontend.start()
            host, port = frontend.host, frontend.port
            try:
                body = json.dumps({"total": 1500}).encode()
                req = urllib.request.Request(
                    f"http://{host}:{port}/plan", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    plan = json.loads(resp.read())
                assert sum(plan["sizes"]) == 1500
                with urllib.request.urlopen(
                    f"http://{host}:{port}/stats", timeout=30
                ) as resp:
                    stats = json.loads(resp.read())
                assert stats["stats"]["serve"]["computations"] == 1
                bad = urllib.request.Request(
                    f"http://{host}:{port}/plan", data=b"{oops",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(bad, timeout=30)
                assert exc_info.value.code == 400
            finally:
                frontend.stop()


class TestPartitionCorruptFiles:
    """`fupermod partition` fails actionably on bad point files."""

    def test_binary_corrupt_file(self, points_dir, tmp_path, capsys):
        bad = tmp_path / "bad-binary"
        bad.mkdir()
        for path in points_dir.glob("rank*.points"):
            (bad / path.name).write_bytes(path.read_bytes())
        (bad / "rank001.points").write_bytes(b"\x80\x81\xff binary junk")
        code = main(["partition", "--points", str(bad), "--total", "1000"])
        assert code == 1
        err = capsys.readouterr().err
        assert "rank 1" in err and "re-run 'fupermod build'" in err

    def test_truncated_file(self, points_dir, tmp_path, capsys):
        bad = tmp_path / "bad-trunc"
        bad.mkdir()
        for path in points_dir.glob("rank*.points"):
            (bad / path.name).write_bytes(path.read_bytes())
        whole = (bad / "rank000.points").read_text()
        # Cut mid-line: the last data row loses its fields.
        (bad / "rank000.points").write_text(whole[: whole.rfind(" ") - 2])
        code = main(["partition", "--points", str(bad), "--total", "1000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rank 0" in err

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main(["partition", "--points", str(empty), "--total", "10"])
        assert code == 1
        assert "no rank*.points" in capsys.readouterr().err

    def test_serve_shares_the_actionable_error(self, points_dir, tmp_path,
                                               capsys):
        bad = tmp_path / "bad-serve"
        bad.mkdir()
        (bad / "rank000.points").write_bytes(b"\xff\xfe not text")
        code = main(["serve", "--points", str(bad)])
        assert code == 1
        assert "re-run 'fupermod build'" in capsys.readouterr().err


class TestRegistryThreadSafety:
    """Concurrent registration: exactly one winner, no corruption."""

    def test_concurrent_duplicate_registration(self):
        name = "concurrent-scratch-partitioner"
        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def contender(tid):
            def fn(total, models, **kw):  # pragma: no cover - never called
                raise AssertionError

            barrier.wait()
            try:
                registry.register_partitioner(name, fn)
                with lock:
                    outcomes.append(("won", tid))
            except FuPerModError:
                with lock:
                    outcomes.append(("lost", tid))

        threads = [
            threading.Thread(target=contender, args=(t,)) for t in range(8)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wins = [o for o in outcomes if o[0] == "won"]
            assert len(wins) == 1, f"racing registrations: {outcomes}"
            assert name in registry.available_partitioners()
        finally:
            with registry._REGISTRY_LOCK:
                registry._PARTITIONER_REGISTRY.pop(name, None)

    def test_concurrent_register_and_lookup(self):
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    registry.partitioner("geometric")
                    registry.available_partitioners()
                    registry.available_models()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer(tid):
            try:
                for i in range(100):
                    registry.register_partitioner(
                        f"scratch-{tid}-{i}",
                        lambda total, models, **kw: None,
                        overwrite=True,
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join()
            stop.set()
            for t in readers:
                t.join()
            assert not errors
        finally:
            stop.set()
            with registry._REGISTRY_LOCK:
                for key in list(registry._PARTITIONER_REGISTRY):
                    if key.startswith("scratch-"):
                        del registry._PARTITIONER_REGISTRY[key]
