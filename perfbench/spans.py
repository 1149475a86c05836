"""In-memory span tracing installed around the serving stack's public functions.

Tracing lives entirely in the benchmark: :meth:`Tracer.install` replaces
each traced function at every name the program calls it by (module
attributes, class attributes, registry entries) with a wrapper that
records a span, and :meth:`Tracer.uninstall` puts the originals back, so
an untraced round runs the program's own code objects.

A span is ``[name, start, end, parent, request, attrs]``.  The open-span
stack is process-wide rather than per thread: the client keeps one
request in flight, so ``handle_request`` on the front end's executor is
still the child of the ``AioFrontend._handle_one`` coroutine awaiting it,
and a solve on the plan server's worker thread the child of the
``PlanServer.request`` span that is blocked waiting for it.  Spans stay
in memory and are written out when the run ends.  A layer's self time is
a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layer of each traced span name, used for self-time attribution.
LAYERS: Dict[str, str] = {
    # The client's root span: its self time is what no traced layer covers.
    "request": "unattributed",
    "AioFrontend._handle_one": "frontend",
    "try_fast_plan": "frontend",
    "handle_request": "frontend",
    "encode_response": "frontend",
    "PlanResult.to_dict": "frontend",
    "PlanServer.request": "server",
    "PlanEngine.request": "engine",
    "PlanEngine.plan_request": "engine",
    "fingerprint_models": "fingerprint",
    "digest": "fingerprint",
    "PlanWAL.append_put": "journal",
    "PlanWAL.append_invalidate": "journal",
    "PlanWAL.append_clear": "journal",
    "LineageWAL.append_epoch": "journal",
    "LineageWAL.append_rollback": "journal",
    "partition_pareto": "partition",
    "allocation_batch": "models",
    "ModelLineage.propose": "models",
    "FeedbackController.handle": "feedback",
    "FeedbackQuarantine.admit": "feedback",
    "ModelLineage.commit": "lineage",
    "build_full_models": "setup",
}
for _cls in ("PlanCache", "DurablePlanCache"):
    for _meth in ("get", "peek", "put", "nearest", "invalidate_models"):
        LAYERS[f"{_cls}.{_meth}"] = "cache"

_FRONT = ("try_fast_plan", "handle_request")
#: The journal appends traced, by class.
JOURNAL_CLASSES = {
    "PlanWAL": ("append_put", "append_invalidate", "append_clear"),
    "LineageWAL": ("append_epoch", "append_rollback"),
}

Span = List[Any]  # [name, start, end, parent index, request id, attrs]


class Tracer:
    """Records spans around the serving stack while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request_id: int = -1
        self._stack: List[int] = []
        # (owner, attribute, original, wrapper), built on first install.
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._registry: List[Tuple[str, Callable, Callable]] = []
        self.installed = False

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        """Start a span under the innermost open one and return it."""
        parent = self._stack[-1] if self._stack else -1
        span: Span = [name, 0.0, 0.0, parent, self.request_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        """End the innermost open span (which must be ``span``)."""
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable,
              after: Optional[Callable[..., Optional[dict]]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                span[5] = after(result, *args, **kwargs)
            return result

        return traced

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        """Span around a coroutine function, from its first step to its return."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def _wrap_append(self, name: str, fn: Callable) -> Callable:
        """Append wrapper that also observes the bytes the journal grew by."""
        tracer = self

        @functools.wraps(fn)
        def traced(journal: Any, *args: Any, **kwargs: Any) -> Any:
            before = _size(journal.path)
            span = tracer.open(name)
            try:
                return fn(journal, *args, **kwargs)
            finally:
                tracer.close(span)
                span[5] = {"bytes": _size(journal.path) - before}

        return traced

    # -- installation ------------------------------------------------------

    def _bind(self, owner: Any, attr: str, wrapped: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapped))

    def _bind_function(self, fn: Callable, wrapped: Callable) -> None:
        """Plan to replace ``fn`` at every ``repro`` module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._bind(module, attr, wrapped)

    def _build(self) -> None:
        """Find every name to patch and build its wrapper (once)."""
        from repro.core import benchmark as core_benchmark
        from repro.core import registry
        from repro.core.models.base import PerformanceModel
        from repro.core.partition import pareto
        from repro.serve import aio, fingerprint, frontend
        from repro.serve.aio import AioFrontend
        from repro.serve.cache import PlanCache
        from repro.serve.engine import PlanEngine
        from repro.serve.feedback import FeedbackController, FeedbackQuarantine
        from repro.serve.lineage import LineageWAL, ModelLineage
        from repro.serve.plan import PlanResult
        from repro.serve.server import PlanServer
        from repro.serve.wal import DurablePlanCache, PlanWAL

        for fn in (aio.try_fast_plan, frontend.handle_request,
                   aio.encode_response, fingerprint.digest,
                   core_benchmark.build_full_models):
            self._bind_function(fn, self._wrap(fn.__name__, fn))
        self._bind_function(
            fingerprint.fingerprint_models,
            self._wrap("fingerprint_models", fingerprint.fingerprint_models,
                       _models_attrs),
        )
        self._bind_function(
            pareto.partition_pareto,
            self._wrap("partition_pareto", pareto.partition_pareto),
        )
        for name in registry.available_partitioners():
            fn = registry.partitioner(name)
            wrapped = self._wrap(f"partition.{name}", fn, _solve_attrs)
            self._registry.append((name, fn, wrapped))
            self._bind_function(fn, wrapped)

        methods = [
            (PlanResult, "to_dict", None),
            (PlanServer, "request", None),
            (PlanEngine, "request", None),
            (PlanEngine, "plan_request", _plan_attrs),
            (FeedbackController, "handle", _feedback_attrs),
            (FeedbackQuarantine, "admit", None),
            (ModelLineage, "propose", None),
            (ModelLineage, "commit", None),
        ]
        for cls in (PlanCache, DurablePlanCache):
            for meth in ("get", "peek", "put", "nearest", "invalidate_models"):
                if meth in vars(cls):
                    methods.append((cls, meth, _found_attrs if meth == "get" else None))
        for cls, meth, after in methods:
            self._bind(cls, meth,
                       self._wrap(f"{cls.__name__}.{meth}", vars(cls)[meth], after))
        self._bind(AioFrontend, "_handle_one", self._wrap_async(
            "AioFrontend._handle_one", vars(AioFrontend)["_handle_one"]))
        for cls in (PlanWAL, LineageWAL):
            for meth in JOURNAL_CLASSES[cls.__name__]:
                self._bind(cls, meth,
                           self._wrap_append(f"{cls.__name__}.{meth}", vars(cls)[meth]))
        # allocation_batch is overridden per model family; wrap each definition.
        for cls in _subclasses(PerformanceModel):
            if "allocation_batch" in vars(cls):
                self._bind(cls, "allocation_batch",
                           self._wrap("allocation_batch", vars(cls)["allocation_batch"]))

    def install(self) -> None:
        """Put every wrapper in place; idempotent."""
        if self.installed:
            return
        if not self._patches:
            self._build()
        from repro.core import registry

        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        for name, _fn, wrapped in self._registry:
            registry.register_partitioner(name, wrapped, overwrite=True)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original function; idempotent."""
        if not self.installed:
            return
        from repro.core import registry

        for owner, attr, original, _wrapped in reversed(self._patches):
            setattr(owner, attr, original)
        for name, fn, _wrapped in self._registry:
            registry.register_partitioner(name, fn, overwrite=True)
        self.installed = False

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, request, attrs in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                    "attrs": _plain(attrs),
                }) + "\n")


def _size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _solve_attrs(dist: Any, *args: Any, **kwargs: Any) -> dict:
    cert = getattr(dist, "convergence", None)
    return {"iterations": cert.iterations if cert is not None else 0}


def _models_attrs(fp: str, models: Any, *args: Any, **kwargs: Any) -> dict:
    # Kept by reference: canonical bytes are computed after the run.
    return {"models": models}


def _plan_attrs(result: Any, *args: Any, **kwargs: Any) -> dict:
    return {"cached": bool(result.cached), "warm": bool(result.warm)}


def _found_attrs(result: Any, *args: Any, **kwargs: Any) -> dict:
    return {"hit": result is not None}


def _feedback_attrs(out: Any, *args: Any, **kwargs: Any) -> dict:
    return {"refit": out.get("refit")}


def _plain(attrs: Any) -> Any:
    """Span attributes as JSON-able values (model lists become counts)."""
    if not attrs:
        return attrs
    return {k: (len(v) if isinstance(v, (list, tuple)) else v)
            for k, v in attrs.items()}


# -- analysis ------------------------------------------------------------------


class Analysis:
    """Self times, layers and per-request groupings of a finished trace."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        n = len(spans)
        self.children: List[List[int]] = [[] for _ in range(n)]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)
        self.self_time = [0.0] * n
        for i, span in enumerate(spans):
            self.self_time[i] = (span[2] - span[1]) - _covered(
                [(spans[c][1], spans[c][2]) for c in self.children[i]],
                span[1], span[2])
        self.layer = [self._layer(i) for i in range(n)]

    def _layer(self, i: int) -> str:
        name, parent = self.spans[i][0], self.spans[i][3]
        if name == "PlanResult.to_dict" and parent >= 0 \
                and self.spans[parent][0] not in _FRONT:
            # Serialising a plan into a journal record is journal work.
            return self._layer(parent)
        if name.startswith("partition."):
            return "partition"  # a registered partitioner
        return LAYERS.get(name, "other")

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def descendants(self, i: int) -> List[int]:
        out, todo = [], list(self.children[i])
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(self.children[c])
        return out

    def named(self, *names: str) -> List[int]:
        wanted = set(names)
        return [i for i, s in enumerate(self.spans) if s[0] in wanted]

    def ancestors(self, i: int) -> List[str]:
        out = []
        parent = self.spans[i][3]
        while parent >= 0:
            out.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return out


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
