"""Asyncio HTTP front end for the plan service.

The package's only HTTP server: a single-threaded :mod:`asyncio` event
loop.

* connections are coroutines, so thousands of keep-alive clients cost
  file descriptors, not threads;
* the **cache-hit fast lane** serves hits inline on the event loop via
  :meth:`~repro.serve.server.PlanServer.try_cached` -- fingerprint plus
  LRU lookup, no executor round trip, no thread context switch;
* only cache *misses* (and protocol commands that may block) dispatch to
  a thread pool, through the exact same
  :func:`~repro.serve.frontend.handle_request` the stdio transport
  uses, so the protocol and its 400/404/413/500/503/504 error taxonomy
  cannot drift between transports.

The HTTP surface is deliberately minimal (we control both ends):
HTTP/1.1, Content-Length framing only, keep-alive by default,
``Connection: close`` honoured.  Endpoints: ``POST /plan``,
``POST /feedback`` (closed-loop refinement), ``GET /stats``,
``GET /metrics``, ``GET /health``, plus any ``extra_routes`` the fleet
worker mounts (sibling cache peeks, peer wiring).

The connection loop and lifecycle live in :class:`AsyncHTTPBase` so the
fleet router (:mod:`repro.serve.router`) -- which relays raw bytes
rather than serving a local :class:`PlanServer` -- shares them, and
:func:`read_header_block` parses header blocks both for this server's
requests and for the router's worker responses.  Both servers can
either own the process (:meth:`~AsyncHTTPBase.run`, the CLI path) or
run on a background thread (:meth:`~AsyncHTTPBase.start` /
:meth:`~AsyncHTTPBase.stop`, the tests' and supervisor's path).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.serve.frontend import (
    MAX_BODY_BYTES, handle_request, merge_deadline_header, validate_objective,
)
from repro.serve.server import PlanServer

#: Threads of the front end's miss-path executor.
EXECUTOR_THREADS = 8

#: An extra route handler: ``(path, payload) -> (status, response dict)``.
#: Must be fast and non-blocking -- it runs inline on the event loop.
RouteHandler = Callable[[str, Optional[Dict[str, Any]]], Tuple[int, Dict[str, Any]]]

#: A handler's reply: the status, a JSON-able dict *or* pre-encoded raw
#: body bytes (the router's relay path), and optional extra headers.
Reply = Tuple[int, Union[Dict[str, Any], bytes], Optional[Dict[str, str]]]

_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def encode_response(
    status: int,
    payload: Union[Mapping[str, Any], bytes],
    keep_alive: bool,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """One full HTTP/1.1 response with Content-Length framing.

    ``payload`` may be a dict (encoded as JSON) or raw pre-encoded bytes
    (relayed verbatim -- the router's bit-parity guarantee).  A 503 or
    429 dict carrying ``retry_after`` grows the RFC 7231 ``Retry-After``
    header.
    """
    headers: Dict[str, str] = dict(extra_headers or {})
    if isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(payload).encode("utf-8")
        retry_after = payload.get("retry_after")
        if status in (429, 503) and retry_after is not None:
            headers.setdefault(
                "Retry-After", str(max(1, int(round(retry_after))))
            )
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


async def read_header_block(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, str]]:
    """Read header lines up to the blank line ending the block.

    Returns the headers with lower-cased names, or None when the stream
    ends before the block does.  Shared by the server's request parser
    and the router's worker-response parser.
    """
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            return None
        if line in (b"\r\n", b"\n"):
            return headers
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()


class _BodyTooLarge(Exception):
    """Internal: a request advertised a body over the cap."""

    def __init__(self, length: int) -> None:
        super().__init__(f"body of {length} bytes over cap")
        self.length = length


class AsyncHTTPBase:
    """Minimal asyncio HTTP/1.1 server: framing, keep-alive, lifecycle.

    Subclasses implement :meth:`_handle_one` -- everything else
    (request parsing, keep-alive semantics, 400/413 refusals, running
    foreground or on a background thread, ephemeral-port discovery) is
    shared between the plan front end and the fleet router.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = MAX_BODY_BYTES,
        thread_name: str = "fupermod-aio",
    ) -> None:
        self.host = host
        self._requested_port = port
        self.max_body_bytes = max_body_bytes
        self._thread_name = thread_name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aio_server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopping = False
        self.port: Optional[int] = None
        self.requests_served = 0

    async def _handle_one(
        self, method: str, path: str, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Reply:
        """Route one parsed request; subclasses implement.

        ``headers`` carries the parsed request headers (lower-cased
        names) so hop-by-hop metadata -- notably the propagated
        :data:`~repro.serve.shard.DEADLINE_HEADER` budget -- reaches
        the handler.
        """
        raise NotImplementedError

    # -- connection loop ---------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one framed request; None on clean EOF, ValueError on junk."""
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not line:
            return None
        parts = line.decode("ascii", "replace").split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line {line!r}")
        method, path = parts[0].upper(), parts[1]
        headers = await read_header_block(reader)
        if headers is None:
            return None
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
            if length < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad Content-Length {length_text!r}") from None
        if length > self.max_body_bytes:
            raise _BodyTooLarge(length)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive connection: requests until EOF, error or close."""
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _BodyTooLarge as exc:
                    # Refuse before buffering the oversized body; the
                    # connection cannot be reused (the unread body would
                    # desynchronise framing).
                    writer.write(encode_response(413, {
                        "error": (
                            f"request body of {exc.length} bytes exceeds "
                            f"the {self.max_body_bytes}-byte cap"
                        ),
                    }, keep_alive=False))
                    await writer.drain()
                    return
                except ValueError as exc:
                    writer.write(encode_response(
                        400, {"error": str(exc)}, keep_alive=False
                    ))
                    await writer.drain()
                    return
                except asyncio.IncompleteReadError:
                    return
                if parsed is None:
                    return
                method, path, headers, body = parsed
                keep = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, extra = await self._handle_one(
                    method, path, body, headers
                )
                self.requests_served += 1
                writer.write(encode_response(
                    status, payload, keep_alive=keep, extra_headers=extra
                ))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle ---------------------------------------------------------

    async def _on_start(self) -> None:
        """Hook run on the loop after binding, before serving."""

    async def _on_stop(self) -> None:
        """Hook run on the loop as serving winds down."""

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._aio_server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )
        self.port = self._aio_server.sockets[0].getsockname()[1]
        await self._on_start()
        self._ready.set()
        try:
            async with self._aio_server:
                await self._aio_server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self._on_stop()

    def run(self) -> None:
        """Serve until cancelled (blocks; the CLI's foreground path)."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            pass

    def start(self, timeout: float = 10.0) -> "AsyncHTTPBase":
        """Serve on a background thread; returns once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("asyncio server failed to bind in time")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving and join the background thread (idempotent)."""
        if self._stopping:
            return
        self._stopping = True
        loop = self._loop
        if loop is not None and loop.is_running():
            def _shutdown() -> None:
                if self._aio_server is not None:
                    self._aio_server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def url(self) -> str:
        """The bound base URL (valid once started)."""
        if self.port is None:
            raise RuntimeError("server is not bound yet")
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "AsyncHTTPBase":
        """Context-manager entry: start on a background thread."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: stop and join."""
        self.stop()


def try_fast_plan(
    server: PlanServer, payload: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """The response for ``payload`` iff it is a clean cache hit, else None.

    Only well-formed plain plan requests qualify; anything surprising
    (bad field types, unknown commands) falls through to
    :func:`handle_request` on the executor, which owns validation and
    the error taxonomy.
    """
    if payload.get("cmd", "plan") != "plan":
        return None
    total = payload.get("total")
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        return None
    partitioner = payload.get("partitioner")
    if partitioner is not None and not isinstance(partitioner, str):
        return None
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        return None
    try:
        # Bi-objective requests ride the fast lane too: a cached front is
        # exactly as cheap to serve as a cached time plan.  Validation
        # failures fall through so the executor path owns the 400.
        kind, objective = validate_objective(payload, server)
        hit = server.try_cached(total, partitioner, options, kind, objective)
    except Exception:
        # Let the slow path produce the typed error response.
        return None
    if hit is None:
        return None
    out = hit.to_dict()
    # Fast-lane acks carry the same durability honesty as the slow
    # path: a hit served while the cache is memory-only may not
    # survive this node's crash.
    if server.ack_durable() is False:
        out["durable"] = False
    if payload.get("id") is not None:
        out["id"] = payload["id"]
    return out


class AioFrontend(AsyncHTTPBase):
    """Asyncio HTTP transport for a :class:`PlanServer`.

    Args:
        server: the plan server to expose.
        host: bind address.
        port: bind port (0 picks an ephemeral one; read :attr:`port`).
        max_body_bytes: request-body cap; larger bodies get 413 and the
            connection is closed.
        extra_routes: mapping of ``"METHOD /path-prefix"`` to
            :data:`RouteHandler`; matched by longest prefix after the
            built-in routes.  Handlers run inline on the loop.
        plan_hook: optional callable invoked inline before each plan
            request is served.  The fleet uses it to model heterogeneous
            shard service rates (a blocking sleep genuinely consumes this
            worker's serving capacity, exactly like a slower processor).
    """

    def __init__(
        self,
        server: PlanServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = MAX_BODY_BYTES,
        extra_routes: Optional[Mapping[str, RouteHandler]] = None,
        plan_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(host, port, max_body_bytes, "fupermod-aio-frontend")
        self.server = server
        self.extra_routes = dict(extra_routes or {})
        self.plan_hook = plan_hook
        self._pool = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS, thread_name_prefix="fupermod-aio"
        )

    def _route_extra(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Dispatch to the longest-prefix extra route, or None."""
        want = f"{method} "
        best: Optional[Tuple[str, RouteHandler]] = None
        for route, handler in self.extra_routes.items():
            if not route.startswith(want):
                continue
            prefix = route[len(want):]
            if path == prefix or path.startswith(prefix):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, handler)
        if best is None:
            return None
        return best[1](path, payload)

    async def _respond_plan(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Serve one decoded plan-protocol object (fast lane, then pool)."""
        if self.plan_hook is not None and payload.get("cmd", "plan") == "plan":
            self.plan_hook()
        fast = try_fast_plan(self.server, payload)
        if fast is not None:
            return 200, fast
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(
            self._pool, handle_request, self.server, payload
        )
        if "error" in response:
            return response.pop("code", 400), response
        return 200, response

    async def _handle_one(
        self, method: str, path: str, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Reply:
        path = path.split("?", 1)[0]
        norm = path.rstrip("/") or "/"
        if method == "GET":
            if norm == "/stats":
                return 200, {"stats": self.server.stats()}, None
            if norm == "/metrics":
                return 200, {"metrics": self.server.metrics()}, None
            if norm == "/health":
                health: Dict[str, Any] = {"ok": True}
                durable = self.server.ack_durable()
                if durable is not None:
                    health["durable"] = durable
                return 200, health, None
            extra = self._route_extra("GET", path, None)
            if extra is not None:
                return extra[0], extra[1], None
            return 404, {"error": f"no such endpoint {path!r}"}, None
        if method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("request body must be a JSON object")
            except (UnicodeDecodeError, ValueError) as exc:
                return 400, {"error": f"bad JSON: {exc}"}, None
            merge_deadline_header(payload, headers)
            if norm == "/plan":
                status, response = await self._respond_plan(payload)
                return status, response, None
            if norm == "/feedback":
                # Same executor path as plans: handle_request dispatches
                # cmd="feedback" and owns the 400/403/429 taxonomy.  The
                # fast lane and plan hook ignore non-plan commands, so
                # reusing _respond_plan cannot serve feedback from cache.
                payload["cmd"] = "feedback"
                status, response = await self._respond_plan(payload)
                return status, response, None
            extra = self._route_extra("POST", path, payload)
            if extra is not None:
                return extra[0], extra[1], None
            return 404, {"error": f"no such endpoint {path!r}"}, None
        return 404, {"error": f"unsupported method {method}"}, None

    def run(self) -> None:
        """Serve until cancelled (blocks; the CLI's foreground path)."""
        try:
            super().run()
        finally:
            self._pool.shutdown(wait=False)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving, join the thread, shut the executor down."""
        if self._stopping:
            return
        super().stop(timeout)
        self._pool.shutdown(wait=False)
