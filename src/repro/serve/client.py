"""A retrying client for the plan-service protocol.

:class:`PlanClient` wraps any transport that speaks the front-end
protocol (:mod:`repro.serve.frontend`) -- a callable taking the request
dict and returning the response dict -- and layers the client half of
the overload contract on top:

* **503 (shed / circuit open)** responses are retried with capped
  exponential backoff and *full jitter*: the sleep before attempt ``k``
  is uniform in ``[0, min(max_delay, base * 2**k)]``.  Jitter is the
  point -- a fleet of deterministic clients would all retry at the same
  instant and re-overload the server in lockstep.  When the response
  carries a ``retry_after`` hint the sleep is at least that long.
* **504 (deadline)** responses are retried the same way: the timed-out
  solve keeps running server-side and populates the cache, so the retry
  is usually a cache hit.
* **429 (feedback rate limit)** responses are retried identically, with
  the server's ``Retry-After`` hint as the backoff floor -- the window
  will free a slot, so patience succeeds where insistence is a strike.
* **400/403/404/413/500** responses are not retried -- the request (or
  the source's standing, for 403) is wrong, and resending cannot help.
  They raise immediately.

Retries exhausted, the final error is raised as its typed exception
(:class:`~repro.errors.ServiceOverloadError`,
:class:`~repro.errors.DeadlineExceeded`, ...), so callers keep one
except-clause vocabulary across in-process and remote serving.

The transport seam keeps this testable without sockets: tests drive the
client against :func:`~repro.serve.frontend.handle_request` directly (or
a scripted fake), and the sleep function and RNG are injectable.  An
HTTP transport for a live ``fupermod serve --http`` process is provided
by :func:`http_transport` (standard library only).
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    FeedbackRejected,
    FuPerModError,
    QuarantineError,
    ServiceOverloadError,
)
from repro.serve.plan import PlanResult
from repro.serve.shard import ShardClient

Transport = Callable[[Dict[str, Any]], Dict[str, Any]]

#: Response codes worth retrying: feedback rate limit (429), overload
#: (503) and deadline (504).
RETRYABLE_CODES = (429, 503, 504)


def _error_for(response: Mapping[str, Any]) -> FuPerModError:
    """The typed exception for a protocol error response."""
    code = response.get("code")
    message = str(response.get("error", "unknown service error"))
    retry_after = response.get("retry_after")
    if code == 503 and response.get("circuit_open"):
        return CircuitOpenError(message, retry_after=retry_after)
    if code == 503:
        return ServiceOverloadError(
            message, retry_after=retry_after,
            pending=int(response.get("pending", -1)),
        )
    if code == 504:
        return DeadlineExceeded(message, stage="serve:client")
    if code == 403 and response.get("quarantined"):
        return QuarantineError(message, source=str(response.get("source", "")))
    if code == 429 or "rejected" in response:
        return FeedbackRejected(
            message,
            reasons=tuple(response.get("rejected", ())),
            source=str(response.get("source", "")),
            retry_after=retry_after,
        )
    return FuPerModError(message)


class PlanClient:
    """Protocol client with capped exponential backoff and full jitter.

    Args:
        transport: callable mapping a request dict to a response dict
            (e.g. :func:`http_transport` output, or
            ``lambda p: handle_request(server, p)`` for in-process use).
        max_attempts: total tries per request (first attempt included).
        base_delay: backoff base in seconds; attempt ``k`` (0-based
            retry) sleeps uniform in ``[0, min(max_delay, base * 2**k)]``.
        max_delay: cap on any single sleep.
        rng: seeded generator for the jitter draw (deterministic tests).
        sleep: injectable sleep function (tests pass a recorder).
    """

    def __init__(
        self,
        transport: Transport,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        rng: Optional[np.random.Generator] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        self.transport = transport
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.rng = rng if rng is not None else np.random.default_rng()
        self.sleep = sleep
        self.retries = 0
        # Plans acked with "durable": false -- served correctly, but the
        # server's journal could not persist them (degradation ladder).
        self.non_durable_acks = 0

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        """The sleep before retry ``attempt`` (0-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        delay = float(self.rng.uniform(0.0, ceiling))
        if retry_after is not None:
            # The server's hint is a floor, not a suggestion.
            delay = max(delay, float(retry_after))
        return delay

    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one protocol request, retrying retryable errors.

        Returns the successful response dict; raises the typed exception
        for the final error once retries are exhausted (non-retryable
        errors raise immediately).
        """
        last: Dict[str, Any] = {}
        for attempt in range(self.max_attempts):
            response = self.transport(payload)
            if "error" not in response:
                return response
            last = response
            if response.get("code") not in RETRYABLE_CODES:
                raise _error_for(response)
            if attempt + 1 < self.max_attempts:
                self.retries += 1
                self.sleep(self._backoff(attempt, response.get("retry_after")))
        raise _error_for(last)

    def plan(
        self,
        total: int,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        deadline: Optional[float] = None,
        objective: Optional[str] = None,
        alpha: Optional[float] = None,
        energy_cap: Optional[float] = None,
        npoints: Optional[int] = None,
    ) -> PlanResult:
        """Request one plan, returning it as a :class:`PlanResult`.

        Bi-objective plans: pass ``objective="pareto"`` plus optionally
        ``alpha`` (time weight in ``[0, 1]``), ``energy_cap`` (a joule
        budget) and ``npoints`` (front resolution).  These are validated
        *client-side* -- a malformed objective raises :class:`ValueError`
        naming the field before any bytes hit the wire, so a typo'd sweep
        script fails in microseconds instead of burning a server round
        trip per point.

        Durability: the returned result's ``durable`` attribute is
        ``False`` when the serving shard's cache is running memory-only
        (its disk failure budget is exhausted) -- the plan is correct
        but may not survive a crash of that shard.  Such acks are
        tallied in :attr:`non_durable_acks`.
        """
        if alpha is not None:
            a = float(alpha)
            if math.isnan(a) or not 0.0 <= a <= 1.0:
                raise ValueError(
                    f"alpha must be in [0, 1], got {alpha!r}"
                )
        if energy_cap is not None:
            cap = float(energy_cap)
            if not math.isfinite(cap) or not cap > 0.0:
                raise ValueError(
                    f"energy_cap must be a positive finite number of "
                    f"joules, got {energy_cap!r}"
                )
        if npoints is not None and (
            not isinstance(npoints, int) or isinstance(npoints, bool)
            or npoints < 2
        ):
            raise ValueError(
                f"npoints must be an integer >= 2, got {npoints!r}"
            )
        if objective is None and (
            alpha is not None or energy_cap is not None or npoints is not None
        ):
            raise ValueError(
                "alpha/energy_cap/npoints require objective='pareto'"
            )
        payload: Dict[str, Any] = {"cmd": "plan", "total": int(total)}
        if partitioner is not None:
            payload["partitioner"] = partitioner
        if options:
            payload["options"] = dict(options)
        if deadline is not None:
            payload["deadline"] = deadline
        if objective is not None:
            payload["objective"] = objective
        if alpha is not None:
            payload["alpha"] = float(alpha)
        if energy_cap is not None:
            payload["energy_cap"] = float(energy_cap)
        if npoints is not None:
            payload["npoints"] = npoints
        result = PlanResult.from_dict(self.call(payload))
        if not result.durable:
            self.non_durable_acks += 1
        return result

    def feedback(
        self,
        source: str,
        total: int,
        sizes,
        times,
        partitioner: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Report actual per-rank timings into the closed loop.

        Same retry policy as :meth:`plan`: 429 (rate limit) retries with
        the server's ``Retry-After`` as the backoff floor; content
        rejections (400, :class:`~repro.errors.FeedbackRejected` with
        ``retry_after`` unset) and quarantine (403,
        :class:`~repro.errors.QuarantineError`) raise immediately --
        resending a rejected report is a strike, not a retry.

        Returns the acceptance response
        (``{"status": "accepted", "epoch", "buffered", "refit"}``).
        """
        payload: Dict[str, Any] = {
            "cmd": "feedback",
            "source": str(source),
            "total": int(total),
            "sizes": [int(s) for s in sizes],
            "times": [float(t) for t in times],
        }
        if partitioner is not None:
            payload["partitioner"] = partitioner
        if options:
            payload["options"] = dict(options)
        return self.call(payload)

    def stats(self) -> Dict[str, Any]:
        """The server's consolidated counter snapshot."""
        return self.call({"cmd": "stats"})["stats"]

    def metrics(self) -> Dict[str, Any]:
        """The server's ``/metrics`` snapshot (versioned counter schema)."""
        return self.call({"cmd": "metrics"})["metrics"]


class KeepAliveTransport:
    """HTTP transport reusing one persistent connection per thread.

    A protocol adapter on :class:`~repro.serve.shard.ShardClient`, which
    owns keep-alive, jittered reconnect backoff (``max_attempts``,
    ``backoff_base``) and propagation of a payload ``deadline`` as the
    :data:`~repro.serve.shard.DEADLINE_HEADER` header; a deadline
    already spent answers 504 without touching the network.  This class
    maps protocol commands onto endpoints and decodes HTTP error
    responses (4xx/5xx) back into protocol error dicts -- ``code`` from
    the status, ``retry_after`` from the ``Retry-After`` header when the
    body lacks it -- so the client's retry logic is transport-agnostic.

    ``connections_opened`` counts real TCP connects across all threads
    (one per thread however many requests flow); ``reconnects`` counts
    retry attempts after failures (zero against a healthy server).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.02,
        rng: Optional["random.Random"] = None,
    ) -> None:
        self._shard = ShardClient(
            base_url, timeout=timeout, max_attempts=max_attempts,
            backoff_base=backoff_base, rng=rng,
        )

    @property
    def connections_opened(self) -> int:
        """Real TCP connects so far, across all threads."""
        return self._shard.connections_opened

    @property
    def reconnects(self) -> int:
        """Retry attempts after failed round trips."""
        return self._shard.reconnects

    def close(self) -> None:
        """Close this thread's persistent connection (if any)."""
        self._shard.close()

    def __call__(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        cmd = payload.get("cmd", "plan")
        if cmd in ("stats", "metrics"):
            method, path, body = "GET", f"/{cmd}", None
        else:
            method = "POST"
            path = "/feedback" if cmd == "feedback" else "/plan"
            body = json.dumps(payload).encode("utf-8")
        deadline = payload.get("deadline")
        budget = float(deadline) if deadline is not None else None
        if budget is not None and budget <= 0.0:
            return {
                "error": "deadline exhausted before reaching the server",
                "code": 504,
            }
        status, headers, data = self._shard._exchange(
            method, path, body, deadline=budget
        )
        try:
            decoded = json.loads(data.decode("utf-8"))
            if not isinstance(decoded, dict):
                raise ValueError("expected a JSON object")
        except (UnicodeDecodeError, ValueError):
            decoded = {"error": f"HTTP {status}"}
        if status >= 400:
            decoded.setdefault("error", f"HTTP {status}")
            decoded.setdefault("code", status)
            retry_after = headers.get("Retry-After")
            if retry_after is not None and "retry_after" not in decoded:
                try:
                    decoded["retry_after"] = float(retry_after)
                except ValueError:
                    pass
        return decoded


def http_transport(base_url: str, timeout: float = 30.0) -> Transport:
    """A :class:`PlanClient` transport for a live HTTP front end.

    Returns a :class:`KeepAliveTransport`: requests reuse one persistent
    HTTP/1.1 connection per calling thread instead of paying a TCP
    handshake each (the transport object exposes ``connections_opened``
    and ``close()``).
    """
    return KeepAliveTransport(base_url, timeout=timeout)
