"""The plan-service protocol and its JSON-lines stdio transport.

:func:`handle_request` serves one decoded protocol object; the stdio
transport here and the asyncio HTTP front end
(:class:`~repro.serve.aio.AioFrontend`) both speak it over a
:class:`~repro.serve.server.PlanServer`:

* a **plan** request is an object with ``total`` (required),
  ``partitioner``, ``options`` and ``deadline`` (optional, seconds), and
  a client-chosen ``id`` echoed back in the response; bi-objective
  requests add ``objective: "pareto"`` plus optional ``alpha`` (time
  weight in ``[0, 1]``), ``energy_cap`` (joule budget) and ``npoints``
  (front resolution) -- all validated here with typed 400s naming the
  offending field;
* a **stats** request (``{"cmd": "stats"}`` on stdio, ``GET /stats`` over
  HTTP) returns the consolidated counter snapshot;
* a **metrics** request (``{"cmd": "metrics"}``, ``GET /metrics``) returns
  the same counters under the versioned ``fupermod-metrics/4`` schema
  (cache hits/misses, coalesced, shed, per-fingerprint breaker state,
  served plans by kind under ``plans_by_kind``, feedback counters when
  closed-loop refinement is attached, a ``replication`` section when
  the worker runs with a replica set, and a ``durability`` section --
  mode, trips, heals, append errors -- when the cache is durable);
* a **plan** response answered while the durability layer is degraded
  to memory-only mode carries ``"durable": false`` (omitted otherwise):
  the plan is correct but may not survive the serving node's crash
  until the disk heals and the cache re-syncs;
* a **feedback** request (``{"cmd": "feedback"}`` on stdio,
  ``POST /feedback`` over HTTP) reports actual per-rank timings into the
  closed-loop refinement path (:mod:`repro.serve.feedback`); servers
  without an attached controller answer 400;
* errors come back as ``{"error": ..., "code": ...}`` with the connection
  kept alive -- one bad request must not kill a serving session.

Error responses carry the failure taxonomy so clients can tell *retry
later* from *fix your request*:

====  ===========================================================
code  meaning
====  ===========================================================
400   malformed request (bad JSON, missing/invalid fields), or a
      feedback report rejected on content (``rejected`` reasons named)
403   the feedback source is quarantined; its reports are refused
404   unknown endpoint
413   request body larger than the transport's cap
429   feedback rate limit exceeded (``retry_after`` seconds included;
      HTTP adds ``Retry-After``)
500   the solve failed internally (typed fault, no fallback)
503   shed by admission control, circuit open with no fallback, or --
      at the fleet router -- no live shard could serve the request
      (``retry_after`` seconds included; HTTP adds ``Retry-After``)
504   the request's deadline expired before the plan arrived; at the
      fleet router, the propagated per-hop budget ran out before a
      shard answered (retries never outlive the caller)
====  ===========================================================

Fleet replication failures never surface here: replica pushes are
asynchronous and best-effort, a failed push becomes a durable hint
(hinted handoff), and divergence left over after a partition heals is
repaired by anti-entropy -- all off the request path (see
:mod:`repro.serve.replicate` and docs/API.md "Fleet replication &
partition tolerance").

A request arriving over HTTP may carry the
:data:`~repro.serve.shard.DEADLINE_HEADER` header: the remaining time
budget (seconds) propagated by the previous hop.  It merges into the
payload's ``deadline`` as a minimum -- a hop can shrink, never extend,
the budget it was granted.

The stdio transport (``fupermod serve``) reads one JSON object per line
and writes one JSON object per line, which makes it scriptable from any
language and trivially testable.  The HTTP transport
(``fupermod serve --http``) is :mod:`repro.serve.aio`, standard library
only, honouring the no-new-dependencies rule.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Optional

import math

from repro.core.partition.pareto import MAX_FRONT_POINTS
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    FeedbackRejected,
    FuPerModError,
    QuarantineError,
    ServiceOverloadError,
)
from repro.serve.plan import PLAN_KINDS
from repro.serve.server import PlanServer
from repro.serve.shard import DEADLINE_HEADER

#: Default request-body cap for the HTTP transport (1 MiB).
MAX_BODY_BYTES = 1 << 20


def validate_objective(
    payload: Dict[str, Any], server: PlanServer
) -> "tuple[str, Dict[str, Any]]":
    """Extract ``(kind, objective)`` from a plan payload, or raise a 400.

    Every malformed-objective failure raises *bare*
    :class:`~repro.errors.FuPerModError` naming the offending field, so
    both transports answer 400 (fix your request), never 500.
    """
    kind = payload.get("objective", "time")
    if not isinstance(kind, str) or kind not in PLAN_KINDS:
        raise FuPerModError(
            f"'objective' must be one of {list(PLAN_KINDS)}, got {kind!r}"
        )
    objective: Dict[str, Any] = {}
    alpha = payload.get("alpha")
    if alpha is not None:
        if (
            not isinstance(alpha, (int, float))
            or isinstance(alpha, bool)
            or not 0.0 <= float(alpha) <= 1.0
        ):
            raise FuPerModError(
                f"'alpha' must be a number in [0, 1], got {alpha!r}"
            )
        objective["alpha"] = float(alpha)
    cap = payload.get("energy_cap")
    if cap is not None:
        if (
            not isinstance(cap, (int, float))
            or isinstance(cap, bool)
            or not math.isfinite(float(cap))
            or not float(cap) > 0.0
        ):
            raise FuPerModError(
                f"'energy_cap' must be a positive finite number of joules, "
                f"got {cap!r}"
            )
        objective["energy_cap"] = float(cap)
    npoints = payload.get("npoints")
    if npoints is not None:
        if (
            not isinstance(npoints, int)
            or isinstance(npoints, bool)
            or not 2 <= npoints <= MAX_FRONT_POINTS
        ):
            raise FuPerModError(
                f"'npoints' must be an integer in [2, {MAX_FRONT_POINTS}], "
                f"got {npoints!r}"
            )
        objective["npoints"] = npoints
    if kind == "time" and objective:
        raise FuPerModError(
            f"objective parameters {sorted(objective)} need "
            f"'objective': 'pareto'; a time plan takes none"
        )
    if kind != "time" and server.energy_models is None:
        raise FuPerModError(
            f"this server has no energy models attached; "
            f"{kind!r} plans are unavailable"
        )
    return kind, objective


def merge_deadline_header(
    payload: Dict[str, Any], headers: Optional[Dict[str, Optional[str]]]
) -> None:
    """Fold a propagated :data:`DEADLINE_HEADER` into ``payload``.

    The header carries the *remaining* per-request budget (seconds) from
    the previous hop; the payload may carry its own ``deadline`` field.
    The effective budget is the minimum of the two -- a hop can only
    shrink the time it grants downstream, never extend it.  Malformed
    or non-positive header values are ignored (a damaged header must
    not reject an otherwise valid request).  Header names are expected
    lower-cased.
    """
    if not headers:
        return
    raw = headers.get(DEADLINE_HEADER.lower())
    if raw is None:
        return
    try:
        budget = float(raw)
    except (TypeError, ValueError):
        return
    if budget <= 0.0:
        return
    existing = payload.get("deadline")
    try:
        existing_f = float(existing) if existing is not None else None
    except (TypeError, ValueError):
        existing_f = None
    payload["deadline"] = (
        budget if existing_f is None else min(existing_f, budget)
    )


def handle_request(server: PlanServer, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one decoded protocol object, never raising for bad input.

    Shared by both transports so the protocol cannot drift between them.
    Error responses carry a ``code`` field with the HTTP-status taxonomy
    from the module docstring (the stdio transport passes it through
    verbatim; the HTTP front end promotes it to the response status).
    """
    req_id = payload.get("id")
    try:
        cmd = payload.get("cmd", "plan")
        if cmd == "stats":
            out: Dict[str, Any] = {"stats": server.stats()}
        elif cmd == "metrics":
            out = {"metrics": server.metrics()}
        elif cmd == "plan":
            if "total" not in payload:
                raise FuPerModError("plan request needs a 'total' field")
            total = payload["total"]
            if not isinstance(total, int) or isinstance(total, bool):
                raise FuPerModError(
                    f"'total' must be an integer, got {total!r}"
                )
            if total < 0:
                raise FuPerModError(
                    f"'total' must be non-negative, got {total}"
                )
            options = payload.get("options") or {}
            if not isinstance(options, dict):
                raise FuPerModError("'options' must be an object")
            kind, objective = validate_objective(payload, server)
            deadline = payload.get("deadline")
            if deadline is not None:
                if not isinstance(deadline, (int, float)) or isinstance(
                    deadline, bool
                ) or not deadline > 0:
                    raise FuPerModError(
                        f"'deadline' must be a positive number of seconds, "
                        f"got {deadline!r}"
                    )
            result = server.request(
                total, payload.get("partitioner"), options,
                deadline=deadline, kind=kind, objective=objective,
            )
            out = result.to_dict()
            # The durability degradation ladder: a plan acknowledged
            # while the durable cache is memory-only is correct but may
            # not survive this node's crash -- the ack says so.  The
            # flag lands on the response copy only; cached and
            # journaled results never carry it.
            if server.ack_durable() is False:
                out["durable"] = False
        elif cmd == "feedback":
            if server.feedback is None:
                raise FuPerModError(
                    "this server has no feedback loop attached"
                )
            out = server.feedback.handle(payload)
        else:
            raise FuPerModError(f"unknown command {cmd!r}")
    except ServiceOverloadError as exc:
        out = {"error": str(exc), "code": 503, "shed": True}
        if exc.retry_after is not None:
            out["retry_after"] = exc.retry_after
    except CircuitOpenError as exc:
        out = {"error": str(exc), "code": 503, "circuit_open": True}
        if exc.retry_after is not None:
            out["retry_after"] = exc.retry_after
    except DeadlineExceeded as exc:
        out = {"error": str(exc), "code": 504}
    except QuarantineError as exc:
        out = {
            "error": str(exc),
            "code": 403,
            "quarantined": True,
            "source": exc.source,
        }
    except FeedbackRejected as exc:
        # Rate limiting is worth retrying (429 + Retry-After); content
        # rejections are not (400) -- retrying the same lie cannot help.
        out = {
            "error": str(exc),
            "code": 429 if exc.retry_after is not None else 400,
            "rejected": list(exc.reasons),
            "source": exc.source,
        }
        if exc.retry_after is not None:
            out["retry_after"] = exc.retry_after
    except FuPerModError as exc:
        # Validation errors above raise bare FuPerModError (400); any
        # subclass reaching here escaped the solve path itself (500).
        code = 400 if type(exc) is FuPerModError else 500
        out = {"error": str(exc), "code": code}
    except (TypeError, ValueError) as exc:
        out = {"error": f"bad request: {exc}", "code": 400}
    if req_id is not None:
        out["id"] = req_id
    return out


def serve_stdio(
    server: PlanServer,
    stdin: IO[str],
    stdout: IO[str],
) -> int:
    """Serve JSON-lines requests from ``stdin`` until EOF or shutdown.

    Returns the number of requests served (shutdown line included), so
    the CLI can log a summary.  Undecodable lines produce an ``error``
    response and the loop continues.
    """
    served = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        served += 1
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            print(json.dumps({"error": f"bad JSON: {exc}", "code": 400}),
                  file=stdout, flush=True)
            continue
        if payload.get("cmd") == "shutdown":
            print(json.dumps({"ok": True, "shutdown": True}), file=stdout,
                  flush=True)
            break
        print(json.dumps(handle_request(server, payload)), file=stdout,
              flush=True)
    return served
