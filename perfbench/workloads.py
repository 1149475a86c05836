"""The three request streams, driven in-process by one closed-loop client.

Every request enters as the bytes of a ``POST /plan`` or ``POST /feedback``
body and goes through the asyncio front end's own per-request dispatch,
``AioFrontend._handle_one`` -- JSON decode,
:func:`~repro.serve.aio.try_fast_plan`, then
:func:`~repro.serve.frontend.handle_request` on the front end's executor
for what the fast lane declines -- run on a private event loop with no
socket, and leaves through :func:`~repro.serve.aio.encode_response`, one
request in flight.  Latency is that span, from body bytes to response
bytes; the client's own encoding, simulation and checks sit outside it.

* ``hot-hits``: 64 devices; set-up primes 32 totals (24 time plans, 8
  Pareto fronts) and the stream draws only those, so every plan is a hit.
* ``cold-solves``: 128 devices; a stream of distinct totals, every third
  one a 16-point Pareto front, so every plan is a warm-started miss.
* ``refit-churn``: 64 devices; plan, run the plan on the simulated
  platform with one rank in eight slowed down, report the observed times;
  every 16 accepted reports the server refits and may commit an epoch.

Traced runs of ``hot-hits`` and ``cold-solves`` add a feedback tail after
the plan stream: the client runs plans it was served and reports them
back to back, four refit windows of 16 reports, so the trace covers the
feedback, lineage and commit layers on every workload.  No plan is read
after a refit, and no end-to-end metric counts the tail.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.platform.perturbation import PerturbationSchedule, SpeedStep
from repro.serve import aio

import checks
import stack as stack_mod
from spans import Tracer

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Points on each requested Pareto front.
FRONT_POINTS = 16
#: Feedback reports per refit (the ``--refit-every`` default).
REFIT_EVERY = 16
#: Feedback source name of the client's application.
SOURCE = "perfbench-app"
#: Refit windows in the feedback tail of traced ``hot-hits`` and
#: ``cold-solves`` runs: enough that at least one refit commits.
EPOCHS = 4
#: Refit windows in one ``refit-churn`` run.
REFIT_ROUNDS = 10
#: The seed ``refit-churn`` draws all its inputs from, whatever ``--seed``
#: says.  Refits sometimes fit a flat time segment, and the geometric
#: partitioner then serves plans that fail the balance certificate; which
#: epochs do so depends on the inputs.  Fixed inputs make that fault
#: repeat identically in every run (counted in ``failed``) instead of
#: appearing on some seeds only.
REFIT_INPUTS = 4

Primed = Dict[Tuple[str, int], Dict[str, Any]]


@dataclass
class Sent:
    """One request as the client saw it."""

    rid: int
    kind: str          # "time", "pareto" or "feedback"
    phase: str         # "prime", "stream" or "epoch"
    traced: bool
    latency: float     # seconds from body bytes to response bytes
    status: int
    size: int          # response bytes
    refit: Optional[str] = None  # a feedback reply's refit outcome
    unbalanced: bool = False     # failed the balance certificate

    @property
    def failed(self) -> bool:
        return self.status != 200 or self.unbalanced


class Client:
    """A closed-loop client feeding request bytes through the front end."""

    def __init__(self, stack: stack_mod.Stack, tracer: Optional[Tracer],
                 log: List[Sent], loop: asyncio.AbstractEventLoop) -> None:
        self.stack = stack
        self.tracer = tracer
        self.log = log
        self.loop = loop
        self.phase = "prime"

    def send(self, path: str, payload: Dict[str, Any], kind: str) -> Tuple[Sent, Dict[str, Any]]:
        """One request; returns its log record and the decoded reply body."""
        body = json.dumps(payload).encode("utf-8")
        tracer = self.tracer if self.tracer is not None and self.tracer.installed else None
        rid = len(self.log)
        if tracer is not None:
            tracer.request_id = rid
            root = tracer.open("request")
        else:
            start = time.perf_counter()
        # What AsyncHTTPBase._serve_connection does with one parsed request.
        status, response, extra = self.loop.run_until_complete(
            self.stack.frontend._handle_one("POST", path, body, {}))
        raw = aio.encode_response(status, response, True, extra)
        if tracer is not None:
            tracer.close(root)
            tracer.request_id = -1
            latency = root[2] - root[1]
        else:
            latency = time.perf_counter() - start
        reply = json.loads(raw.partition(b"\r\n\r\n")[2])
        sent = Sent(rid, kind, self.phase, tracer is not None, latency, status,
                    len(raw), reply.get("refit") if kind == "feedback" else None)
        self.log.append(sent)
        return sent, reply

    def plan(self, total: int, kind: str = "time") -> Tuple[Sent, Dict[str, Any]]:
        payload: Dict[str, Any] = {"total": total}
        if kind == "pareto":
            payload.update(objective="pareto", npoints=FRONT_POINTS)
        return self.send("/plan", payload, kind)

    def feedback(self, total: int, sizes: List[int],
                 times: List[float]) -> Tuple[Sent, Dict[str, Any]]:
        return self.send("/feedback", {
            "source": SOURCE, "total": total, "sizes": sizes, "times": times,
        }, "feedback")


class AppRun:
    """The client's application: runs a plan on the simulated platform.

    One rank in eight, chosen by the seed, is slowed by a persistent
    :class:`~repro.platform.perturbation.SpeedStep` with a seeded factor
    in ``[0.5, 0.8]``; every rank keeps its device's timing noise.
    """

    def __init__(self, model_set: stack_mod.ModelSet, seed: int) -> None:
        rng = random.Random(seed * 7919 + 1)
        ranks = len(model_set.models)
        self.slowed = sorted(rng.sample(range(ranks), ranks // 8))
        self.schedule = PerturbationSchedule([
            SpeedStep(rank=r, start_time=0.0, factor=round(rng.uniform(0.5, 0.8), 3))
            for r in self.slowed
        ])
        self.model_set = model_set
        self.rng = np.random.default_rng(seed + 104729)
        self.clock = 0.0
        self._contention: Dict[Tuple[int, ...], List[float]] = {}

    def run(self, sizes: List[int]) -> List[float]:
        platform, bench = self.model_set.platform, self.model_set.bench
        active = tuple(r for r, d in enumerate(sizes) if d > 0)
        if active not in self._contention:
            self._contention[active] = [
                platform.group_contention(r, active) for r in range(len(sizes))
            ]
        contention = self._contention[active]
        times = []
        for r, d in enumerate(sizes):
            kernel = bench.kernel(r)
            t = kernel.device.execution_time(
                kernel.complexity(d), d, self.rng, contention_factor=contention[r]
            )
            times.append(t / self.schedule.factor(r, self.clock))
        self.clock += max(times)
        return times


class Verifier:
    """Runs the property checks on every response, outside the timed span."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.unbalanced: List[str] = []
        self._seen: Dict[Tuple[str, str, int], Tuple[Dict[str, Any], bool]] = {}

    def same(self, sent: Sent, body: Dict[str, Any], primed: Dict[str, Any]) -> None:
        """Check that a hit equals the plan its priming solve returned."""
        try:
            checks.same_plan(body, primed)
        except checks.CheckFailed as exc:
            self.problems.append(f"{sent.phase} {sent.kind}: {exc}")

    def plan(self, stack: stack_mod.Stack, sent: Sent, body: Dict[str, Any],
             total: int) -> None:
        """Check a plan response against the models served right now."""
        if sent.status != 200:
            return  # counted as failed, not as incorrect
        server = stack.server
        key = (stack.lineage.fingerprint, sent.kind, total)
        seen = self._seen.get(key)
        if seen is not None and seen[0] == body:
            # An identical answer under the same model set: same verdict.
            sent.unbalanced = seen[1]
            if seen[1]:
                self.unbalanced.append(self.unbalanced[-1])
            return
        try:
            if sent.kind == "pareto":
                checks.pareto_plan(body, total, server.models, server.energy_models)
            else:
                checks.time_plan(body, total, server.models)
        except checks.Unbalanced as exc:
            # The known fault (README, "Found"): counted as a failed request.
            sent.unbalanced = True
            self.unbalanced.append(f"{sent.phase} {sent.kind} total={total}: {exc}")
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"{sent.phase} {sent.kind} total={total}: {exc}")
            return
        self._seen[key] = (body, sent.unbalanced)


@dataclass
class Run:
    """Everything a finished workload run reports."""

    log: List[Sent] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    prime_s: List[float] = field(default_factory=list)
    measure_s: List[float] = field(default_factory=list)
    measurements: int = 0
    verifier: Verifier = field(default_factory=Verifier)
    self_test_cases: int = 0
    self_test_missed: List[str] = field(default_factory=list)
    epochs: int = 0
    slowed: List[int] = field(default_factory=list)
    transitions: List[str] = field(default_factory=list)


class Workload:
    """One workload run: set-up, stream, epoch, checks."""

    def __init__(self, devices: int, seed: int, tracer: Optional[Tracer],
                 tmp: Path) -> None:
        self.devices = devices
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.run = Run()
        self.stack: Optional[stack_mod.Stack] = None
        self.client: Optional[Client] = None
        self.primed: Primed = {}
        self.app: Optional[AppRun] = None
        # The client's connection: the front end's coroutines run here.
        self.loop = asyncio.new_event_loop()

    def plan(self, total: int, kind: str = "time") -> Tuple[Sent, Dict[str, Any]]:
        """Request a plan and check the reply."""
        sent, body = self.client.plan(total, kind)
        self.run.verifier.plan(self.stack, sent, body, total)
        return sent, body

    def setup(self, specs: List[Tuple[str, int]]) -> None:
        """Set up ``SETUPS`` times from scratch, priming ``specs``; keep the last."""
        if self.tracer is not None:
            self.tracer.install()
        for k in range(SETUPS):
            if self.stack is not None:
                self.stack.close()
            start = time.perf_counter()
            model_set = stack_mod.measure(self.devices, self.seed)
            self.stack = stack_mod.Stack(model_set, self.tmp / f"setup{k}")
            self.client = Client(self.stack, self.tracer, self.run.log, self.loop)
            primed_at = time.perf_counter()
            replies = [self.client.plan(total, kind) for kind, total in specs]
            end = time.perf_counter()
            self.run.setup_s.append(end - start)
            self.run.prime_s.append(end - primed_at)
            self.run.measure_s.append(model_set.measure_s)
            self.run.measurements = model_set.measurements
        for (kind, total), (sent, body) in zip(specs, replies):
            self.run.verifier.plan(self.stack, sent, body, total)
            self.primed[(kind, total)] = body
        self.client.phase = "stream"
        self.app = AppRun(self.stack.model_set, self.seed)
        self.run.slowed = self.app.slowed

    def rounds(self, one_round: Callable[[int], None], seconds: float,
               count: Optional[int] = None) -> None:
        """Run whole rounds for ``seconds``, or exactly ``count`` rounds.

        In a traced run odd rounds are traced and even rounds run the
        program's own functions, so tracing overhead is measured under
        the same host conditions as the traced figures.
        """
        gc.collect()
        start = time.perf_counter()
        r = 0
        while r < count if count is not None else time.perf_counter() - start < seconds:
            if self.tracer is not None:
                if r % 2:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
            one_round(r)
            r += 1
        if self.tracer is not None:
            self.tracer.uninstall()

    def epochs(self, plans: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Run served plans on the platform and report them back to back.

        ``EPOCHS`` windows of ``REFIT_EVERY`` reports, each ending in a
        refit the server tries; the plans are cycled so each refit sees
        reports on sizes the previous one did not.
        """
        self.client.phase = "epoch"
        if self.tracer is not None:
            self.tracer.install()
        for i in range(EPOCHS * REFIT_EVERY):
            total, body = plans[i % len(plans)]
            self.client.feedback(total, list(body["sizes"]), self.app.run(body["sizes"]))
        if self.tracer is not None:
            self.tracer.uninstall()

    def finish(self) -> Run:
        """Self-test the checks, close the stack, return the run."""
        time_body = next(b for (k, _), b in self.primed.items() if k == "time")
        pareto_body = next(b for (k, _), b in self.primed.items() if k == "pareto")
        model_set = self.stack.model_set  # epoch 0: the primed plans' models
        self.run.self_test_cases, self.run.self_test_missed = checks.self_test(
            time_body, pareto_body, model_set.models, model_set.energy_models)
        self.run.epochs = self.stack.lineage.epoch
        self.run.transitions = list(self.stack.transitions)
        self.stack.close()
        self.loop.close()
        return self.run


def hot_hits(seed: int, seconds: float, tracer: Optional[Tracer], tmp: Path) -> Run:
    rng = random.Random(seed)
    totals = rng.sample(range(50_000, 150_001), 32)
    pareto_totals, time_totals = totals[:8], totals[8:]
    s = Workload(64, seed, tracer, tmp)
    s.setup([("time", t) for t in time_totals] + [("pareto", t) for t in pareto_totals])

    def one_round(r: int) -> None:
        for kind, group in (("time", time_totals), ("time", time_totals),
                            ("time", time_totals), ("pareto", pareto_totals)):
            t = rng.choice(group)
            sent, body = s.plan(t, kind)
            s.run.verifier.same(sent, body, s.primed[(kind, t)])

    s.rounds(one_round, seconds)
    if tracer is not None:
        s.epochs([(t, s.primed[(kind, t)]) for kind, t in s.primed])
    return s.finish()


def cold_solves(seed: int, seconds: float, tracer: Optional[Tracer], tmp: Path) -> Run:
    rng = random.Random(seed)
    # Each round's three totals come from one stratum of the range, the
    # strata in seeded order, so sorting the cache by total keeps rounds
    # together: the 32 plans a refit re-solves (the smallest totals) are
    # always about two time plans to one Pareto front, whatever the seed.
    # The order wraps around after 400 rounds; a stratum's plans from 400
    # rounds before have long left the 128-plan cache, so totals still miss.
    width = 200_000 // 400
    strata = itertools.cycle(rng.sample(range(400), 400))

    def triple() -> List[int]:
        lo = 100_000 + next(strata) * width
        return sorted(rng.sample(range(lo, lo + width), 3))

    kinds = ("time", "time", "pareto")
    s = Workload(128, seed, tracer, tmp)
    # Two rounds' worth of plans give the first misses near neighbours.
    s.setup([(kind, t) for _ in range(2) for kind, t in zip(kinds, triple())])
    solved: List[Tuple[int, Dict[str, Any]]] = []

    def one_round(r: int) -> None:
        for kind, t in zip(kinds, triple()):
            sent, body = s.plan(t, kind)
            if kind == "time" and not sent.failed:
                solved.append((t, body))

    s.rounds(one_round, seconds)
    if tracer is not None:
        s.epochs(solved)
    return s.finish()


def refit_churn(seed: int, seconds: float, tracer: Optional[Tracer], tmp: Path) -> Run:
    # Inputs fixed on purpose: see REFIT_INPUTS.
    rng = random.Random(REFIT_INPUTS)
    totals = rng.sample(range(50_000, 150_001), 4)
    s = Workload(64, REFIT_INPUTS, tracer, tmp)
    s.setup([("time", t) for t in totals] + [("pareto", t) for t in totals])

    def one_round(r: int) -> None:
        # One refit window: four passes over the totals, each plan run on
        # the platform and reported, plus one Pareto plan per pass.
        for p in range(REFIT_EVERY // len(totals)):
            for t in totals:
                sent, body = s.plan(t)
                if sent.status == 200:
                    s.client.feedback(t, list(body["sizes"]), s.app.run(body["sizes"]))
            s.plan(totals[p], "pareto")

    # Sized by count, not time: the fitted state grows with every epoch.
    s.rounds(one_round, seconds, count=REFIT_ROUNDS)
    return s.finish()


WORKLOADS = {
    "hot-hits": hot_hits,
    "cold-solves": cold_solves,
    "refit-churn": refit_churn,
}
