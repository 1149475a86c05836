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
        self._last_total: tuple = (None, None)

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
        return self._bracketed(levels, cap, (lo, None), (hi, None))[0]

    def _bracketed(self, levels, cap: float, lo: tuple, hi: tuple):
        """:meth:`allocations` between two bracket ends, with knot intervals.

        ``lo`` and ``hi`` are ``(allocations, intervals)`` at two levels
        that bracket every one of ``levels``, as this method returned
        them (either part may be ``None``: no bound).  The allocations
        bound the searching rows, as in :meth:`allocations`; the
        intervals bound the stacked rows' knot-interval lookup.  Returns
        ``(allocations, intervals)``: ``(p, m)`` sizes and the stacked
        rows' ``(len(rows), m)`` knot intervals, for the caller to carry
        to its next, narrower bracket.
        """
        self._build()
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        (alloc_lo, knots_lo), (alloc_hi, knots_hi) = lo, hi
        if self._table is None:
            knots = np.zeros((0, levels.size), dtype=np.intp)
        else:
            stacked, knots = self._table._bracketed(levels, cap, knots_lo, knots_hi)
            if not self._fallback:
                return stacked, knots
        out = np.empty((self.size, levels.size))
        if self._table is not None:
            out[self._rows] = stacked
        for i in self._fallback:
            out[i] = self.models[i].allocation_batch(
                levels,
                cap,
                lo=None if alloc_lo is None else alloc_lo[i],
                hi=None if alloc_hi is None else alloc_hi[i],
            )
        return out, knots

    def _at_total(self, total: int) -> np.ndarray:
        """Every model's time at ``total`` (read-only), kept for the last total.

        Validation, the solve and the Pareto blend scales each need this
        vector for one request's total; the bank evaluates it once.
        """
        held_total, held = self._last_total
        if held_total != total:
            held = self.times(np.full(self.size, float(total)))
            held.flags.writeable = False
            self._last_total = (total, held)
        return held

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


def _part_values(bank: ModelBank, sizes: Sequence[int]) -> List[float]:
    """Each rank's predicted value at its share, 0.0 where the share is 0."""
    d = np.asarray(sizes, dtype=float)
    return np.where(d > 0, bank.times(d), 0.0).tolist()


__all__ = ["ModelBank"]
