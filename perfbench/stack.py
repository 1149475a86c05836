"""Set-up: measured model sets and the stack ``fupermod serve`` composes.

Model sets come from the paper's measurement workflow: a
:mod:`repro.platform.presets` cluster swept by
:func:`repro.core.benchmark.build_full_models` at the sizes and kernel
``fupermod build`` uses by default, fitted as piecewise models (the
``--model`` default).  Energy models are fitted from per-device power
profiles exactly as ``fupermod serve --power`` fits them.

:class:`Stack` wires the serving stack the way ``fupermod serve
--cache-file FILE`` does with every other flag at its default
(``repro.cli._cmd_serve``): a durable plan cache with its write-ahead
journal and durability budget, circuit breakers, warm starts, the
feedback controller with its lineage journal beside the cache file, and
the asyncio front end ``--http`` puts before it (no socket is bound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List

from repro.core import benchmark as core_benchmark
from repro.core.benchmark import PlatformBenchmark
from repro.core.models import PiecewiseModel
from repro.core.models.energy import energy_model_for
from repro.platform import ConstantPower, DeviceKind, GpuPower, Platform
from repro.platform.power import PowerProfile, energy_points_from_power
from repro.platform.presets import parametric_cluster
from repro.serve import (
    BreakerBoard, DurablePlanCache, FeedbackController, FeedbackQuarantine,
    ModelLineage, PlanEngine, PlanServer,
)
from repro.serve.aio import AioFrontend

#: ``fupermod build`` defaults: swept sizes and one 32x32 block update.
SWEEP_SIZES = (64, 256, 1024, 4096, 16384)
UNIT_FLOPS = 2.0 * 32 ** 3
#: Bytes staged over the host link per unit (one 32x32 block of doubles).
BYTES_PER_UNIT = 8.0 * 32 * 32


def make_platform(devices: int) -> Platform:
    """A ``parametric_cluster`` of ``devices`` ranks, one GPU in eight.

    ``devices / 8`` hybrid nodes (four CPU cores and one GPU each) plus
    uniprocessor nodes for the rest; the preset's own seed fixes the
    uniprocessor speeds, so the platform is the same for every run.
    """
    hybrid = devices // 8
    return parametric_cluster(
        hybrid_nodes=hybrid, cpu_nodes=devices - 5 * hybrid,
        cores_per_hybrid=4, seed=0,
    )


def power_profile(rank: int, kind: DeviceKind) -> PowerProfile:
    """``ConstantPower`` for CPU cores, ``GpuPower`` for GPUs."""
    if kind is DeviceKind.GPU:
        return GpuPower(
            idle_watts=25.0, base_watts=60.0, peak_watts=250.0,
            ramp_units=3000.0, transfer_watts=12.0,
            bytes_per_unit=BYTES_PER_UNIT,
        )
    return ConstantPower(idle_watts=8.0, dynamic_watts=20.0 + 2.0 * (rank % 4))


@dataclass
class ModelSet:
    """One measured platform: benchmark, fitted speed and energy models."""

    platform: Platform
    bench: PlatformBenchmark
    models: List[Any]
    energy_models: List[Any]
    measurements: int
    measure_s: float


def measure(devices: int, seed: int) -> ModelSet:
    """Sweep the platform and fit speed and energy models (lazy fits resolved)."""
    platform = make_platform(devices)
    bench = PlatformBenchmark(platform, unit_flops=UNIT_FLOPS, seed=seed)
    start = time.perf_counter()
    models, _cost = core_benchmark.build_full_models(bench, PiecewiseModel, SWEEP_SIZES)
    measure_s = time.perf_counter() - start
    family = energy_model_for("piecewise")
    energy_models = []
    for rank, (model, device) in enumerate(zip(models, platform.devices)):
        em = family()
        em.update_many(energy_points_from_power(model.points, power_profile(rank, device.kind)))
        energy_models.append(em)
    for m in models + energy_models:
        m.is_ready  # resolve the lazy fit now: it belongs to set-up
    measurements = sum(p.reps for m in models for p in m.points)
    return ModelSet(platform, bench, models, energy_models, measurements, measure_s)


class Stack:
    """The composed serving stack, rooted in one journal directory."""

    def __init__(self, model_set: ModelSet, directory: Path) -> None:
        self.model_set = model_set
        self.transitions: List[str] = []
        cache_file = directory / "plans.cache"
        self.cache = DurablePlanCache(
            cache_file, compact_every=256, capacity=128, ttl=None,
            durability_budget=3, on_transition=self._transition,
        )
        self.cache.recover()
        engine = PlanEngine(
            cache=self.cache, policy=None, partitioner="geometric",
            warm=True, breakers=BreakerBoard(cooldown=30.0),
        )
        self.server = PlanServer(
            model_set.models, engine=engine, max_workers=4,
            max_pending=None, default_deadline=None,
        )
        self.server.attach_energy(model_set.energy_models)
        self.lineage = ModelLineage(
            model_set.models, wal_path=str(cache_file) + ".lineage"
        )
        self.lineage.recover()
        self.server.models = self.lineage.models
        self.server.attach_feedback(FeedbackController(
            self.server, self.lineage,
            quarantine=FeedbackQuarantine(k=8.0, max_strikes=3, rate_limit=None),
            refit_every=16,
        ))
        self.frontend = AioFrontend(self.server)

    def _transition(self, mode: str, reason: str) -> None:
        self.transitions.append(f"{mode}: {reason}")

    def close(self) -> None:
        """Drain and close, in the order ``fupermod serve`` shuts down."""
        self.frontend.stop()
        self.server.drain(timeout=10.0)
        self.server.close()
        self.lineage.close()
        self.cache.close()
