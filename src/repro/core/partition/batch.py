"""The model bank: every model of a model set, evaluated in one numpy call.

The partitioning algorithms repeatedly evaluate *p* per-process time
functions and, in the geometrical algorithm, invert all of them at every
probed time level.  A :class:`ModelBank` stacks one model list and does
both for every device at once:

* :meth:`ModelBank.allocations` -- every model's allocation at every time
  level, a ``(p, m)`` array (the inner operation of the geometrical
  algorithm);
* :meth:`ModelBank.times` -- every model's time at its own size(s).

Rows whose class evaluates with the piecewise family's closed forms
(:class:`~repro.core.models.piecewise.PiecewiseModel` and
:class:`~repro.core.models.constant.ConstantModel`, with their energy
twins) are stacked into one
:class:`~repro.core.models.piecewise.LevelTable`.  A subclass that
overrides any method those closed forms stand in for keeps its own, as
does every other model (Akima, PCHIP, segmented, linear, blends,
duck-typed models): those rows call the model's own ``allocation_batch``,
``time`` and ``time_batch``.  Either way a row's answer is bit-identical
to the per-model call.

A bank is itself a sequence of its models, and every partitioner takes
one in place of the model list, so a caller that solves the same models
again (the plan engine, between refits) stacks and validates them once.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.core.models.constant import ConstantModel
from repro.core.models.piecewise import LevelTable, PiecewiseModel

#: The methods a stacked row's closed forms stand in for.
_CLOSED_FORM = ("time", "speed", "_time_batch_impl", "allocation_batch")


def _stackable(cls: type) -> bool:
    """Whether ``cls`` evaluates with an unmodified stackable family's methods."""
    return any(
        issubclass(cls, family)
        and all(getattr(cls, name) is getattr(family, name) for name in _CLOSED_FORM)
        for family in (PiecewiseModel, ConstantModel)
    )


class ModelBank(SequenceABC):
    """A model list, stacked for vectorised evaluation.

    The stacking is built on first use, so a bank can be handed to input
    validation before the models are known to be fitted.  It snapshots
    the stacked rows' fits, so it answers for the models as they were
    then: a caller reusing a bank must drop it once a model changes.
    Once built it is only read, so threads may share it.
    """

    def __init__(self, models: Sequence[PerformanceModel]) -> None:
        self.models = tuple(models)
        #: Set by :func:`~repro.core.partition.validate.validate_partition_inputs`
        #: once the models have passed its per-model checks, which a
        #: reused bank then skips.
        self.checked = False
        self._table: Optional[LevelTable] = None
        self._rows = np.zeros(0, dtype=np.intp)
        self._fallback: List[int] = []
        self._built = False

    @classmethod
    def of(cls, models: Sequence[PerformanceModel]) -> "ModelBank":
        """``models`` itself when it is a bank already, else a new bank."""
        return models if isinstance(models, ModelBank) else cls(models)

    def __len__(self) -> int:
        return len(self.models)

    def __getitem__(self, index):
        return self.models[index]

    def __iter__(self):
        return iter(self.models)

    @property
    def size(self) -> int:
        """Number of rows (models)."""
        return len(self.models)

    def _build(self) -> None:
        if self._built:
            return
        verdicts: Dict[type, bool] = {}
        rows: List[int] = []
        fallback: List[int] = []
        for i, model in enumerate(self.models):
            cls = type(model)
            if cls not in verdicts:
                verdicts[cls] = _stackable(cls)
            (rows if verdicts[cls] else fallback).append(i)
        if rows:
            # A fit that raises leaves the bank unbuilt, to try again.
            self._table = LevelTable([self.models[i].level_knots() for i in rows])
            self._rows = np.asarray(rows, dtype=np.intp)
        self._fallback = fallback
        self._built = True

    def allocations(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Allocation of every model at every time level, as a (p, m) array.

        ``allocations[i, j]`` is the size at which ``models[i]``'s time
        function reaches ``levels[j]``, clamped to ``[0, cap]``.  ``lo``
        and ``hi`` (per-model scalars, shape ``(p,)``) optionally bound
        the search bracket of rows that search (closed forms need none);
        the geometrical partitioner feeds back the allocations found at
        the bracketing levels of the previous step, which bound every
        interior allocation by monotonicity.
        """
        self._build()
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if not self._fallback:
            return self._table.allocations(levels, cap)
        out = np.empty((self.size, levels.size))
        if self._table is not None:
            out[self._rows] = self._table.allocations(levels, cap)
        for i in self._fallback:
            out[i] = self.models[i].allocation_batch(
                levels,
                cap,
                lo=None if lo is None else lo[i],
                hi=None if hi is None else hi[i],
            )
        return out

    def times(self, sizes) -> np.ndarray:
        """Each model's time at its own size(s).

        ``sizes`` is ``(p,)`` -- one size per model, as ``models[i].time``
        -- or ``(p, m)`` -- a row of sizes per model, as
        ``models[i].time_batch``.  With one size per model, rows that
        share one model instance (hierarchical setups share an aggregate
        model across ranks) make a single ``time_batch`` call.
        """
        self._build()
        xs = np.asarray(sizes, dtype=float)
        if len(xs) != self.size:
            raise ValueError(f"{self.size} models for {len(xs)} sizes")
        if not self._fallback:
            return self._table.times(xs)
        out = np.empty(xs.shape)
        if self._table is not None:
            out[self._rows] = self._table.times(xs[self._rows])
        if xs.ndim > 1:
            for i in self._fallback:
                out[i] = self.models[i].time_batch(xs[i])
            return out
        groups: Dict[int, tuple] = {}
        for i in self._fallback:
            model = self.models[i]
            groups.setdefault(id(model), (model, []))[1].append(i)
        for model, indices in groups.values():
            if len(indices) == 1:
                out[indices[0]] = model.time(float(xs[indices[0]]))
            else:
                idx = np.asarray(indices)
                out[idx] = model.time_batch(xs[idx])
        return out


__all__ = ["ModelBank"]
