"""Boundary validation shared by all partitioners.

Every partitioning entry point (`basic`, `geometric`, `numerical`, the
dynamic and distributed loops) funnels its inputs through
:func:`validate_partition_inputs` before iterating, so malformed input
fails fast with one actionable :class:`~repro.errors.PartitionError`
instead of surfacing deep inside a solver as a NaN bracket, an index
error, or -- worst -- a silently wrong partition.

Checks, in order:

1. the model list is non-empty;
2. the problem size is a non-negative finite integral number (NaN,
   infinities, negatives and fractional totals are rejected);
3. each model has enough measured points to fit (``min_points``);
4. each model's fitted time function actually covers the requested
   total: it must evaluate to a finite non-negative time at ``total``.
   A model that raises or yields NaN there has a domain that excludes
   the partition range -- a benchmark/partition mismatch.

Check 3 depends on the models alone, so it runs once per
:class:`~repro.core.partition.batch.ModelBank`; check 4 runs per total.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.partition.batch import ModelBank
from repro.errors import PartitionError


def validate_total(total) -> int:
    """Validate a problem size and return it as an ``int``.

    Rejects NaN/inf, negatives and non-integral values with a
    :class:`~repro.errors.PartitionError` naming the offending value.
    """
    if isinstance(total, bool):
        raise PartitionError(f"problem size must be a number, got {total!r}")
    try:
        as_float = float(total)
    except (TypeError, ValueError):
        raise PartitionError(
            f"problem size must be a number, got {total!r}"
        ) from None
    if math.isnan(as_float) or math.isinf(as_float):
        raise PartitionError(
            f"problem size must be finite, got {as_float!r}; check the "
            "benchmark configuration that produced it"
        )
    if as_float < 0:
        raise PartitionError(
            f"problem size must be non-negative, got {as_float!r}"
        )
    if as_float != int(as_float):
        raise PartitionError(
            f"problem size must be integral, got {as_float!r}; round it to "
            "a whole number of computation units before partitioning"
        )
    return int(as_float)


def validate_partition_inputs(total, models: Sequence, bank=None) -> int:
    """Validate ``(total, models)`` for any partitioner; return ``int(total)``.

    Raises :class:`~repro.errors.PartitionError` with an actionable
    message on empty model lists, bad problem sizes, models with too few
    measured points, and models whose time function cannot cover the
    requested size (see module docstring).  A ``total`` of 0 skips the
    per-model checks -- the trivial all-zero partition is always valid.

    The times at ``total`` are evaluated in one call of ``bank`` (a
    :class:`~repro.core.partition.batch.ModelBank` over ``models``; one
    is built when none is given), which keeps them for the solve that
    follows on the same bank.  A bank whose models passed the
    point-count check before is not checked again.
    """
    if not models:
        raise PartitionError(
            "cannot partition: the model list is empty; build at least one "
            "performance model (e.g. via build_full_models) first"
        )
    n = validate_total(total)
    if n == 0:
        return n
    if bank is None:
        bank = ModelBank(models)
    if not bank.checked:
        for rank, model in enumerate(models):
            count = len(getattr(model, "points", ()))
            needed = getattr(model, "min_points", 1)
            if count < needed:
                raise PartitionError(
                    f"model for rank {rank} has {count} measured point(s) but "
                    f"needs at least {needed} to fit; benchmark more problem "
                    "sizes for this device or fall back to a simpler model "
                    "(e.g. 'constant')"
                )
        bank.checked = True
    try:
        times = bank._at_total(n)
    except Exception:
        # Name the rank: re-evaluate one model at a time up to the culprit.
        for rank, model in enumerate(models):
            try:
                model.time(n)
            except Exception as exc:
                size_range = getattr(model, "size_range", None)
                raise PartitionError(
                    f"model for rank {rank} cannot evaluate the requested "
                    f"total {n} ({type(exc).__name__}: {exc}); its measured "
                    f"domain is {size_range}; benchmark sizes covering the "
                    "partition range or fall back to a simpler model"
                ) from exc
        raise
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        rank = int(np.argmax(bad))
        raise PartitionError(
            f"model for rank {rank} predicts time {float(times[rank])!r} at "
            f"the requested total {n}; its domain excludes the partition "
            "range -- re-benchmark this device or fall back to a simpler "
            "model"
        )
    return n
