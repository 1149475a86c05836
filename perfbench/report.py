"""End-to-end and per-layer metrics of a finished run.

End-to-end metrics come from the client's own clock on untraced runs;
per-layer metrics come from the spans of a traced run (see
:mod:`spans`).  Every metric is a ``(value, unit)`` pair.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.serve.fingerprint import canonical

from spans import JOURNAL_CLASSES, Analysis
from workloads import Run, Sent

Metrics = Dict[str, Tuple[float, str]]

#: Journal append spans (plan WAL and lineage WAL).
JOURNAL_APPENDS = tuple(f"{cls}.{meth}" for cls, meths in JOURNAL_CLASSES.items()
                        for meth in meths)

#: The named layers along the request path, in report order.  Their self
#: times should add up to the request's latency; what they leave over is
#: the root span's self time, reported apart as ``unattributed``.
PATH_LAYERS = ("frontend", "server", "engine", "fingerprint",
               "cache", "journal", "partition", "models")


class NoSamples(RuntimeError):
    """A metric had nothing to measure in this run."""


def _median(xs: List[float], what: str) -> float:
    if not xs:
        raise NoSamples(f"no samples for {what}")
    return statistics.median(xs)


def _mean(xs: List[float], what: str) -> float:
    if not xs:
        raise NoSamples(f"no samples for {what}")
    return statistics.fmean(xs)


def p90(xs: List[float], what: str) -> float:
    """90th percentile (inclusive quantiles; a single sample is its own)."""
    if not xs:
        raise NoSamples(f"no samples for {what}")
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def stream(run: Run, kind: Optional[str] = None) -> List[Sent]:
    return [s for s in run.log if s.phase == "stream" and not s.failed
            and (kind is None or s.kind == kind)]


def latency_lines(run: Run) -> List[str]:
    """Stream latency quartiles and p90 per request kind, with sample counts."""
    lines = []
    groups = [("time", stream(run, "time")), ("pareto", stream(run, "pareto")),
              ("feedback", [s for s in run.log if s.kind == "feedback" and not s.failed
                            and s.refit is None]),
              ("commit", [s for s in run.log if s.refit == "committed"])]
    for kind, sent in groups:
        xs = [1e3 * s.latency for s in sent]
        if len(xs) < 2:
            continue
        q = statistics.quantiles(xs, n=20, method="inclusive")
        lines.append(f"latency ms {kind}: n {len(xs)} p25 {q[4]:.4f} p50 {q[9]:.4f} "
                     f"p75 {q[14]:.4f} p90 {q[17]:.4f}")
    return lines


def end_to_end(run: Run, import_s: float, peak_rss_mb: float) -> Metrics:
    """The user-visible metrics, from the client's clock.

    Latencies are reported at their 90th percentile: on a host that
    alternates between two speeds, a median (or a mean) moves with the
    share of the run spent in the fast mode, while the 90th percentile
    stays in the common one.
    """
    return {
        "latency_p90_ms": (1e3 * p90([s.latency for s in stream(run, "time")],
                                     "time plans"), "ms"),
        "front_p90_ms": (1e3 * p90([s.latency for s in stream(run, "pareto")],
                                   "pareto plans"), "ms"),
        "setup_s": (import_s + _median(run.setup_s, "set-ups"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


class _Layers:
    """Per-request layer sums over one trace."""

    def __init__(self, spans: List[Any]) -> None:
        self.a = Analysis(spans)
        self.by_request: Dict[int, List[int]] = {}
        for i, span in enumerate(spans):
            if span[4] >= 0:
                self.by_request.setdefault(span[4], []).append(i)

    def self_in(self, rid: int, layer: str) -> float:
        return sum(self.a.self_time[i] for i in self.by_request.get(rid, ())
                   if self.a.layer[i] == layer)

    def spans_in(self, rid: int, *names: str) -> List[int]:
        return [i for i in self.by_request.get(rid, ()) if self.a.spans[i][0] in names]


def _canonical_bytes(models: Iterable[Any], cache: Dict[int, int]) -> int:
    """Canonical bytes ``fingerprint_models`` hashes for ``models`` (computed)."""
    total = 0
    for m in models:
        if id(m) not in cache:
            cache[id(m)] = len(canonical(m.fingerprint_state()).encode("utf-8"))
        total += cache[id(m)]
    return total


def per_layer(run: Run, spans: List[Any]) -> Tuple[Metrics, Dict[str, float]]:
    """Per-layer metrics from a traced run, plus the self-time breakdown."""
    L = _Layers(spans)
    a = L.a
    traced_time = [s for s in stream(run, "time") if s.traced]
    untraced_time = [s for s in stream(run, "time") if not s.traced]
    rids = [s.rid for s in traced_time]

    def per_request(layer: str) -> float:
        return _mean([L.self_in(r, layer) for r in rids], f"{layer} per request")

    def mean_dur(*names: str) -> float:
        return _mean([a.duration(i) for i in a.named(*names)], "/".join(names))

    breakdown = {layer: 1e6 * per_request(layer)
                 for layer in PATH_LAYERS + ("unattributed",)}
    # Compared with the median latency, so taken per request and medianed:
    # a request's latency less the time no named layer covers.
    named_sums = [sum(L.self_in(r, layer) for layer in PATH_LAYERS) for r in rids]
    traced_p50 = _median([s.latency for s in traced_time], "traced time plans")
    untraced_p50 = _median([s.latency for s in untraced_time], "untraced time plans")

    # frontend: decode (the dispatch coroutine up to its first callee),
    # response building and encoding.
    decode = []
    for r in rids:
        for i in L.spans_in(r, "AioFrontend._handle_one"):
            first = min((a.spans[c][1] for c in a.children[i]), default=a.spans[i][2])
            decode.append(first - a.spans[i][1])
    encode = [sum(a.self_time[i] for i in L.by_request.get(r, ())
                  if a.layer[i] == "frontend"
                  and a.spans[i][0] in ("encode_response", "PlanResult.to_dict"))
              for r in rids]
    # Traced stream plans the fast lane answered: handle_request never ran.
    plan_rids = [s.rid for s in stream(run) if s.kind != "feedback" and s.traced]
    fast = [not L.spans_in(r, "handle_request") for r in plan_rids]

    # fingerprint: digests hashed and canonical bytes (computed) per request.
    state_bytes: Dict[int, int] = {}
    digests, hashed = [], []
    for r in rids:
        digests.append(len(L.spans_in(r, "digest")))
        hashed.append(sum(_canonical_bytes(a.spans[i][5]["models"], state_bytes)
                          for i in L.spans_in(r, "fingerprint_models")))

    gets = [i for r in rids for i in L.spans_in(r, "PlanCache.get")]
    lookups = [sum(a.duration(i) for i in L.spans_in(r, "PlanCache.get", "PlanCache.peek"))
               for r in rids]

    # engine solves (not cache hits) over the whole traced run.
    solves = [i for i in a.named("PlanEngine.plan_request")
              if not a.spans[i][5]["cached"]]
    warm = sum(1 for i in solves if a.spans[i][5]["warm"])

    # time solves: registered partitioners not nested in a Pareto sweep.
    time_solves = [i for i, span in enumerate(spans)
                   if span[0].startswith("partition.")
                   and "partition_pareto" not in a.ancestors(i)]
    alloc = {i: [c for c in a.descendants(i) if a.spans[c][0] == "allocation_batch"]
             for i in time_solves}

    appends = a.named(*JOURNAL_APPENDS)
    commits = [s.rid for s in run.log if s.kind == "feedback" and s.traced
               and s.refit == "committed"]
    resolves = [L.spans_in(r, "PlanEngine.plan_request") for r in commits]

    metrics: Metrics = {
        "frontend.decode_us": (1e6 * _mean(decode, "decode"), "us"),
        "frontend.fast_lane_share": (_mean(fast, "traced plans"), "ratio"),
        "frontend.encode_us": (1e6 * _mean(encode, "encode"), "us"),
        "frontend.response_bytes": (_mean([s.size for s in traced_time], "bytes"), "bytes"),
        "server.handoff_us": (1e6 * _mean(
            [a.self_time[i] for i in a.named("PlanServer.request")], "handoffs"), "us"),
        "engine.self_us": (1e6 * _mean([L.self_in(r, "engine") for r in rids], "engine"), "us"),
        "engine.warm_share": (warm / len(solves) if solves else 0.0, "ratio"),
        "fingerprint.us_per_request": (breakdown["fingerprint"], "us"),
        "fingerprint.calls_per_request": (_mean(digests, "digests"), "count"),
        "fingerprint.bytes_per_request": (_mean(hashed, "hashed bytes"), "bytes"),
        "cache.lookup_us": (1e6 * _mean(lookups, "lookups"), "us"),
        "cache.hit_ratio": (
            sum(1 for i in gets if a.spans[i][5]["hit"]) / len(gets) if gets else 0.0,
            "ratio"),
        "cache.nearest_us": (1e6 * mean_dur("PlanCache.nearest"), "us"),
        "cache.put_us": (1e6 * mean_dur("DurablePlanCache.put"), "us"),
        "journal.append_us": (1e6 * _mean([a.duration(i) for i in appends], "appends"), "us"),
        "journal.bytes_per_append": (
            _mean([a.spans[i][5]["bytes"] for i in appends], "appends"), "bytes"),
        "journal.appends_per_commit": (_mean(
            [len(L.spans_in(r, *JOURNAL_APPENDS)) for r in commits], "commits"), "count"),
        "partition.solve_ms": (1e3 * _mean([a.duration(i) for i in time_solves], "solves"), "ms"),
        "partition.front_ms": (1e3 * mean_dur("partition_pareto"), "ms"),
        "partition.iterations": (_mean(
            [a.spans[i][5]["iterations"] for i in time_solves], "solves"), "count"),
        "partition.model_calls_per_solve": (_mean(
            [len(c) for c in alloc.values()], "solves"), "count"),
        "models.allocation_us_per_solve": (1e6 * _mean(
            [sum(a.duration(c) for c in cs) for cs in alloc.values()], "solves"), "us"),
        "models.refit_ms": (1e3 * mean_dur("ModelLineage.propose"), "ms"),
        "feedback.admit_us": (1e6 * mean_dur("FeedbackQuarantine.admit"), "us"),
        "feedback.resolves_per_commit": (_mean(
            [len(v) for v in resolves], "commits"), "count"),
        "feedback.resolve_ms_per_commit": (1e3 * _mean(
            [sum(a.duration(i) for i in v) for v in resolves], "commits"), "ms"),
        "lineage.commit_us": (1e6 * mean_dur("ModelLineage.commit"), "us"),
        "setup.measure_s": (_median(run.measure_s, "sweeps"), "s"),
        "setup.measurements": (float(run.measurements), "count"),
        "setup.prime_s": (_median(run.prime_s, "primes"), "s"),
        "trace.latency_p50_ms": (1e3 * traced_p50, "ms"),
        "trace.layer_sum_ms": (1e3 * _median(named_sums, "traced time plans"), "ms"),
        "trace.unattributed_us": (breakdown["unattributed"], "us"),
        "trace.overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
    }
    return metrics, breakdown

