"""Client for one fleet shard (a worker process's HTTP endpoint).

:class:`ShardClient` is the low-level, shard-aware counterpart of
:class:`~repro.serve.client.PlanClient`: where PlanClient speaks the
abstract plan protocol to *a* service, ShardClient speaks to one known
worker process and exposes the fleet-internal surface too --

* ``plan_raw`` returns the **raw response bytes** alongside the status,
  which is how the router guarantees bit-identical plans through the
  fleet: it relays the worker's bytes verbatim instead of re-encoding;
* ``get_cached`` is the sibling-fill probe (``GET /cache/<key>``): a
  pure cache peek on the peer that never triggers a solve there;
* ``replicate`` / ``digest`` / ``get_entry`` are the replication and
  anti-entropy surface (``POST /replicate``, ``GET /digest``);
* ``set_peers`` delivers the supervisor's peer roster
  (``POST /peers``), re-broadcast whenever the fleet membership changes;
* ``chaos`` installs a transport-fault plan (``POST /chaos``, the
  netsplit suite's seam);
* ``health`` is the liveness probe used for startup waits and
  post-SIGKILL detection.

Connections are persistent (HTTP/1.1 keep-alive).  A request that fails
on a connection is retried on a fresh one with **bounded, jittered
backoff** -- up to ``max_attempts`` tries, sleeping uniform in
``[0, base * 2**k]`` before retry ``k`` -- so a briefly unreachable
peer (restart, transient partition) is ridden out without a fleet of
clients hammering it in lockstep.  A propagated per-hop deadline caps
the whole attempt loop: retries never outlive the caller.
``reconnects`` counts retry attempts (the witness the backoff tests
assert on) alongside ``connections_opened``; instances are thread-safe
via thread-local connections.

It is the package's one synchronous HTTP client (the public
:class:`~repro.serve.client.KeepAliveTransport` adapts it), and
:func:`parse_base_url` is the one base-URL parser of every client.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import FuPerModError
from repro.serve.plan import PlanResult

#: HTTP header carrying the remaining per-request deadline (seconds) to
#: the next hop; see docs/API.md "Deadline propagation".
DEADLINE_HEADER = "X-Fupermod-Deadline"


def parse_base_url(url: str) -> Tuple[str, int, str]:
    """Split an ``http://host[:port][/prefix]`` base URL.

    Returns ``(host, port, prefix)``: the port defaults to 80 and the
    path prefix, prepended to every request path, carries no trailing
    slash.  Raises :class:`~repro.errors.FuPerModError` for any other
    scheme, a missing host or a malformed port.
    """
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme not in ("http", ""):
        raise FuPerModError(f"need an http:// URL, got {url!r}")
    try:
        port = parsed.port
    except ValueError:
        raise FuPerModError(f"bad port in URL {url!r}") from None
    if not parsed.hostname:
        raise FuPerModError(f"no host in URL {url!r}")
    host, prefix = parsed.hostname, parsed.path.rstrip("/")
    return host, 80 if port is None else port, prefix


class ShardClient:
    """Keep-alive HTTP client for one worker shard.

    Args:
        url: the worker's base URL (``http://host:port``, parsed by
            :func:`parse_base_url`).
        shard_id: the worker's fleet identity (for error messages and
            router bookkeeping; not sent on the wire).
        timeout: socket timeout per request, seconds.
        max_attempts: total connection attempts per request (first try
            included); failures between attempts back off with full
            jitter.
        backoff_base: backoff base in seconds; retry ``k`` (0-based)
            sleeps uniform in ``[0, backoff_base * 2**k]``.
        rng: seeded ``random.Random`` for the jitter draw (deterministic
            tests); a fresh unseeded one by default.
    """

    def __init__(
        self,
        url: str,
        shard_id: str = "",
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.02,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host, self.port, self.prefix = parse_base_url(url)
        if max_attempts <= 0:
            raise FuPerModError(
                f"max_attempts must be positive, got {max_attempts}"
            )
        self.url = f"http://{self.host}:{self.port}{self.prefix}"
        self.shard_id = shard_id or self.url
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.rng = rng if rng is not None else random.Random()
        self.connections_opened = 0
        #: Retry attempts after a failed round trip (the backoff
        #: witness: one request against a healthy shard adds zero).
        self.reconnects = 0
        self._count_lock = threading.Lock()
        self._local = threading.local()

    # -- transport ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._count_lock:
                self.connections_opened += 1
        return conn

    def close(self) -> None:
        """Close this thread's persistent connection (if any)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One request with bounded, jittered reconnect backoff.

        ``deadline`` is the remaining per-request budget in seconds: it
        caps the whole attempt loop (no retry starts past it) and rides
        to the shard in the :data:`DEADLINE_HEADER` header so downstream
        work never outlives the caller either.  Returns ``(status,
        response headers, raw body bytes)``; raises ``ConnectionError``
        / ``OSError`` when the shard stays unreachable through every
        allowed attempt (the router's cue to mark it dead).
        """
        start = time.monotonic()
        headers: Dict[str, str] = (
            {"Content-Type": "application/json"} if body else {}
        )
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - (time.monotonic() - start)
                if remaining <= 0.0:
                    break
                headers[DEADLINE_HEADER] = f"{remaining:.6f}"
            if attempt:
                with self._count_lock:
                    self.reconnects += 1
                delay = self.rng.uniform(
                    0.0, self.backoff_base * (2.0 ** (attempt - 1))
                )
                if remaining is not None:
                    delay = min(delay, max(0.0, remaining))
                if delay > 0.0:
                    time.sleep(delay)
            conn = self._connection()
            try:
                conn.request(method, self.prefix + path, body=body,
                             headers=headers)
                reply = conn.getresponse()
                data = reply.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.close()
                last_error = exc
                continue
            if reply.will_close:
                self.close()
            return reply.status, reply.headers, data
        if last_error is not None:
            raise (
                last_error
                if isinstance(last_error, (ConnectionError, OSError))
                else ConnectionError(str(last_error))
            )
        raise ConnectionError(
            f"deadline exhausted before reaching shard {self.shard_id}"
        )

    def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[int, bytes]:
        """:meth:`_exchange` without the headers: ``(status, raw body)``.

        The fleet surface below funnels through here: the seam
        :func:`repro.faults.net.wrap_shard_client` wraps.
        """
        status, _headers, data = self._exchange(method, path, body, deadline)
        return status, data

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        status, data = self._roundtrip(method, path, body, deadline=deadline)
        try:
            decoded = json.loads(data.decode("utf-8"))
            if not isinstance(decoded, dict):
                raise ValueError
        except (UnicodeDecodeError, ValueError):
            decoded = {"error": f"HTTP {status} from shard {self.shard_id}"}
        return status, decoded

    # -- fleet surface -----------------------------------------------------

    def plan_raw(self, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        """``POST /plan`` returning ``(status, raw response bytes)``.

        The router relays these bytes verbatim, so a plan served through
        the fleet is bit-identical to one served by the worker directly.
        A ``deadline`` field in the payload bounds the retry loop and
        propagates as the per-hop header.
        """
        body = json.dumps(payload).encode("utf-8")
        deadline = payload.get("deadline")
        return self._roundtrip(
            "POST", "/plan", body,
            deadline=float(deadline) if deadline is not None else None,
        )

    def plan(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /plan`` decoded (convenience for tests and probes)."""
        deadline = payload.get("deadline")
        status, decoded = self._json(
            "POST", "/plan", payload,
            deadline=float(deadline) if deadline is not None else None,
        )
        if status >= 400:
            decoded.setdefault("error", f"HTTP {status}")
            decoded.setdefault("code", status)
        return decoded

    def get_cached(self, key: str) -> Optional[PlanResult]:
        """The peer's cached plan for ``key``, or None (never solves).

        The plan of :meth:`get_entry`.  Any malformed answer is treated
        as a miss -- the engine's sibling-fill validation is the real
        poisoning guard; this just avoids raising on garbage.
        """
        entry = self.get_entry(key)
        return entry[0] if entry is not None else None

    def get_entry(
        self, key: str
    ) -> Optional[Tuple[PlanResult, str, Optional[Tuple[Any, ...]]]]:
        """The peer's full cache entry: ``(result, models_fp, spec)``.

        A pure cache peek (``GET /cache/<key>``): sibling fill reads its
        plan, and the anti-entropy repair path pulls a divergent entry
        from its authoritative holder before pushing it to the shards
        that lack it.  Returns None on a miss or any malformed answer.
        """
        status, decoded = self._json("GET", f"/cache/{key}")
        if status != 200 or "plan" not in decoded:
            return None
        try:
            result = PlanResult.from_dict(decoded["plan"])
            models_fp = str(decoded["models_fp"])
            spec = decoded.get("spec")
            return result, models_fp, tuple(spec) if spec is not None else None
        except Exception:
            return None

    def replicate(self, entry: Dict[str, Any]) -> bool:
        """Push one cache entry to this peer (``POST /replicate``)."""
        status, _ = self._json("POST", "/replicate", entry)
        return status == 200

    def digest(self) -> Optional[Dict[str, Any]]:
        """The peer's anti-entropy digest (``GET /digest``), or None."""
        try:
            status, decoded = self._json("GET", "/digest")
        except (http.client.HTTPException, ConnectionError, OSError):
            return None
        if status != 200 or "entries" not in decoded:
            return None
        return decoded

    def chaos(self, plan: Dict[str, Any]) -> bool:
        """Install a transport-fault plan on the peer (``POST /chaos``)."""
        status, _ = self._json("POST", "/chaos", plan)
        return status == 200

    def set_peers(self, peers: Sequence[Dict[str, str]]) -> bool:
        """Deliver the peer roster: ``[{"shard_id": ..., "url": ...}]``."""
        status, _ = self._json("POST", "/peers", {"peers": list(peers)})
        return status == 200

    def health(self) -> bool:
        """Whether the shard answers its liveness probe."""
        try:
            status, _ = self._roundtrip("GET", "/health")
        except (http.client.HTTPException, ConnectionError, OSError):
            return False
        return status == 200

    def stats(self) -> Dict[str, Any]:
        """The shard's ``/stats`` snapshot."""
        status, decoded = self._json("GET", "/stats")
        if status != 200:
            raise FuPerModError(
                f"shard {self.shard_id} /stats failed: HTTP {status}"
            )
        return decoded.get("stats", decoded)

    def metrics(self) -> Dict[str, Any]:
        """The shard's ``/metrics`` snapshot."""
        status, decoded = self._json("GET", "/metrics")
        if status != 200:
            raise FuPerModError(
                f"shard {self.shard_id} /metrics failed: HTTP {status}"
            )
        return decoded.get("metrics", decoded)
