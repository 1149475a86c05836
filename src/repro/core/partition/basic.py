"""The basic partitioning algorithm over constant performance models.

Divides the total problem size in proportion to the (constant) speeds of
the processes.  Fastest and least accurate of the three algorithms; correct
exactly when speeds really do not depend on problem size.

Any performance model can be supplied -- its speed is simply sampled at the
even share ``D / p``, which is how a constant approximation is extracted
from a functional model when a caller insists on the basic algorithm.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.core.partition.batch import ModelBank
from repro.core.partition.cert import ConvergenceCert, certify
from repro.core.partition.dist import Distribution, Part, round_preserving_sum
from repro.core.partition.validate import validate_partition_inputs
from repro.errors import PartitionError


def partition_constant(
    total: int,
    models: Sequence[PerformanceModel],
    strict: bool = False,
    certs: Optional[List[ConvergenceCert]] = None,
) -> Distribution:
    """Partition ``total`` units in proportion to constant speeds.

    Args:
        total: the problem size ``D`` in computation units.
        models: one performance model per process (each must be ready),
            or a :class:`~repro.core.partition.batch.ModelBank` over them.
        strict: accepted for interface uniformity with the iterative
            partitioners; the basic algorithm is closed-form and its cert
            is always converged.
        certs: optional sink for the :class:`ConvergenceCert` (also
            attached to the returned distribution as ``.convergence``).

    Returns:
        A :class:`Distribution` whose parts sum exactly to ``total``, with
        predicted times from the models.
    """
    bank = ModelBank.of(models)
    total = validate_partition_inputs(total, models, bank)
    size = len(models)
    _cert = ConvergenceCert("basic", True, 0, 0, 0.0, 0.0,
                            "closed-form proportional split")
    if total == 0:
        return certify(
            Distribution(Part(0, 0.0) for _ in range(size)),
            _cert, strict, certs,
        )
    probe = max(total / size, 1.0)
    # One batched probe evaluation covers every model's constant speed.
    probe_times = bank.times(np.full(size, probe))
    if np.any(probe_times <= 0.0):
        rank = int(np.argmax(probe_times <= 0.0))
        raise PartitionError(
            f"model {models[rank]!r} predicts non-positive speed at size {probe}"
        )
    speeds = probe / probe_times
    total_speed = float(np.sum(speeds))
    shares = [total * float(s) / total_speed for s in speeds]
    sizes = round_preserving_sum(shares, total)
    times = bank.times(np.asarray(sizes, dtype=float))
    dist = Distribution(
        Part(d, float(times[i]) if d > 0 else 0.0) for i, d in enumerate(sizes)
    )
    return certify(dist, _cert, strict, certs)
