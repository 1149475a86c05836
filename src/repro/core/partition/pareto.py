"""Bi-objective (time, energy) partitioning -- the Pareto front sweep.

On a heterogeneous platform the energy-optimal workload distribution is
generally *not* the time-optimal one (Khaleghzadeh et al., arXiv:
1907.04080): shifting units from a fast, power-hungry GPU to efficient
CPU cores raises the makespan but lowers the joule bill.  The interesting
answer is therefore a *front* of trade-offs, not a single distribution.

:func:`partition_pareto` sweeps a weighted scalarization of the two
objectives over the existing equal-level machinery.  For weight
``alpha`` in ``[0, 1]`` each device gets the blended cost function ::

    f_i(x) = alpha * t_i(x) / t_scale  +  (1 - alpha) * e_i(x) / e_scale

(``t_scale``/``e_scale`` are the single-device minima at the full
problem size, making the blend dimensionless), and the solver balances
``f_1(x_1) = ... = f_p(x_p)`` subject to ``sum x_i = D`` -- exactly the
geometric algorithm's bisection on the common level, which is well
defined because non-negative blends of increasing functions are
increasing.

The endpoints and the interior are solved differently:

* **endpoints are exact**: ``alpha = 1`` *is* ``partition_geometric``
  over the time models (bit-identical, same cert) and ``alpha = 0`` is
  ``partition_geometric`` over the energy models, so the front's
  time-endpoint always matches the time-only partitioner's output;
* **interior points are batched**: all interior alphas run through one
  shared bisection whose per-step inversion is one numpy call across
  ``(device, alpha, probe level)`` on a piecewise-linear sampling of
  each blended function (exact model evaluations at 96 geometric knots
  plus the measured sizes, linear in between).  One sweep therefore
  costs a small multiple of a single solve instead of ``npoints``
  multiples -- the property the ``bench_energy_pareto`` gate pins.

Every returned :class:`ParetoPoint` carries its *exact* objective values
(the integer distribution re-evaluated on the real models -- never the
surrogate) and a :class:`~repro.core.partition.cert.ConvergenceCert`.
The front is deduplicated, dominance-filtered and sorted by time;
:meth:`ParetoFront.select` picks a point by objective weight ``alpha``
or energy cap ``max_joules``.

Warm starts follow the serving layer's contract: hints only narrow the
initial bracket of a bisection after validating the bracketing
invariant, so warm-started front points are bit-identical to cold ones.
Interior points are seeded from the already-solved endpoints (and an
optional external :class:`~repro.core.partition.warm.WarmStart`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.core.partition.batch import ModelBank
from repro.core.partition.cert import ConvergenceCert
from repro.core.partition.dist import round_preserving_sum
from repro.core.partition.geometric import solve_geometric
from repro.core.partition.validate import validate_partition_inputs
from repro.core.partition.warm import WarmStart
from repro.errors import ConvergenceError, ConvergenceWarning, PartitionError
from repro.interp.piecewise_linear import upper_bound

#: Default number of front points (including both endpoints).
DEFAULT_FRONT_POINTS = 9

#: Hard ceiling on requested front points (protocol validation reuses it).
MAX_FRONT_POINTS = 64

#: Geometric knots per device of the interior sweep's piecewise-linear
#: surrogate, before the models' measured sizes are added.
_SURROGATE_GRID = 96

#: Entries (devices x weights x knots) of the blended table the interior
#: sweep holds at once (128 kB); more weights are swept in chunks, so the
#: sweep's memory grows with devices x knots, not with the front's points
#: too (at 1,024 devices and 64 points one table would take 76 MB).
_BLEND_TABLE_ENTRIES = 1 << 14


@dataclass(frozen=True)
class ParetoPoint:
    """One trade-off on the (time, energy) front.

    Attributes:
        sizes: integer per-rank shares (sum to the front's total).
        times: model-predicted per-rank seconds for those shares.
        time: predicted makespan ``max_i t_i(d_i)`` in seconds.
        energy: predicted total energy ``sum_i e_i(d_i)`` in joules.
        alpha: the scalarization weight that produced the point
            (1.0 = pure time, 0.0 = pure energy).
        cert: convergence certificate of the solve behind the point.
    """

    sizes: Tuple[int, ...]
    times: Tuple[float, ...]
    time: float
    energy: float
    alpha: float
    cert: Optional[ConvergenceCert] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (floats via ``repr`` for fidelity)."""
        return self._dict([repr(t) for t in self.times])

    def _dict(self, times: List[str]) -> Dict[str, Any]:
        """:meth:`to_dict` with the per-rank ``times`` already rendered."""
        out: Dict[str, Any] = {
            "sizes": list(self.sizes),
            "times": times,
            "time": repr(self.time),
            "energy": repr(self.energy),
            "alpha": repr(self.alpha),
        }
        if self.cert is not None:
            out["cert"] = self.cert.to_dict()
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ParetoPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        try:
            cert = None
            if "cert" in data:
                c = data["cert"]
                cert = ConvergenceCert(
                    algorithm=str(c["algorithm"]),
                    converged=bool(c["converged"]),
                    iterations=int(c["iterations"]),
                    max_iter=int(c["max_iter"]),
                    residual=float(c["residual"]),
                    tolerance=float(c["tolerance"]),
                    detail=str(c.get("detail", "")),
                )
            return ParetoPoint(
                sizes=tuple(int(d) for d in data["sizes"]),
                times=tuple(float(t) for t in data["times"]),
                time=float(data["time"]),
                energy=float(data["energy"]),
                alpha=float(data["alpha"]),
                cert=cert,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PartitionError(f"malformed pareto point: {exc}") from exc


@dataclass(frozen=True)
class ParetoFront:
    """A deduplicated, dominance-filtered front, sorted by time.

    ``points[0]`` is the time-endpoint (smallest makespan),
    ``points[-1]`` the energy-endpoint (smallest joule bill).
    """

    total: int
    points: Tuple[ParetoPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def times(self) -> List[float]:
        """Makespans along the front (non-decreasing)."""
        return [p.time for p in self.points]

    @property
    def energies(self) -> List[float]:
        """Total joules along the front (non-increasing)."""
        return [p.energy for p in self.points]

    def select(
        self,
        alpha: Optional[float] = None,
        max_joules: Optional[float] = None,
    ) -> ParetoPoint:
        """Pick one point: by energy cap, by weight, or the time-endpoint.

        ``max_joules`` wins when both are given: the fastest point whose
        energy fits under the cap (:class:`~repro.errors.PartitionError`
        when even the thriftiest point exceeds it).  ``alpha`` selects
        the point solved at the nearest scalarization weight.  With
        neither, the time-endpoint is returned.
        """
        if not self.points:
            raise PartitionError("empty pareto front")
        if max_joules is not None:
            if not (math.isfinite(max_joules) and max_joules > 0.0):
                raise PartitionError(
                    f"max_joules must be positive and finite, got {max_joules!r}"
                )
            feasible = [p for p in self.points if p.energy <= max_joules]
            if not feasible:
                cheapest = min(p.energy for p in self.points)
                raise PartitionError(
                    f"energy cap {max_joules} J is infeasible: the "
                    f"thriftiest front point needs {cheapest} J"
                )
            return min(feasible, key=lambda p: (p.time, p.energy))
        if alpha is not None:
            if not (math.isfinite(alpha) and 0.0 <= alpha <= 1.0):
                raise PartitionError(
                    f"alpha must be within [0, 1], got {alpha!r}"
                )
            return min(self.points, key=lambda p: (abs(p.alpha - alpha), -p.alpha))
        return self.points[0]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation."""
        return {
            "total": self.total,
            "points": [p.to_dict() for p in self.points],
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ParetoFront":
        """Rebuild a front from :meth:`to_dict` output."""
        try:
            return ParetoFront(
                total=int(data["total"]),
                points=tuple(
                    ParetoPoint.from_dict(p) for p in data["points"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise PartitionError(f"malformed pareto front: {exc}") from exc


class BlendedModel(PerformanceModel):
    """Exact weighted blend of a time model and an energy model.

    ``time(x) = wt * t(x) + we * e(x)`` -- a valid
    :class:`PerformanceModel` (non-negative blends of increasing
    functions are increasing), so the existing partitioners invert it
    unchanged.  Tests use it as the ground truth for the batched
    surrogate.
    """

    min_points = 0

    def __init__(
        self,
        time_model: PerformanceModel,
        energy_model: PerformanceModel,
        wt: float,
        we: float,
    ) -> None:
        super().__init__()
        self._tm = time_model
        self._em = energy_model
        self._wt = float(wt)
        self._we = float(we)

    @property
    def is_ready(self) -> bool:
        return self._tm.is_ready and self._em.is_ready

    @property
    def version(self) -> Any:
        """Follows both components' counters: the blend owns no points.

        ``None`` when a component has no counter, so the blend is then
        re-fingerprinted on every call, like its component.
        """
        tm = getattr(self._tm, "version", None)
        em = getattr(self._em, "version", None)
        if tm is None or em is None:
            return None
        return (self._version, tm, em)

    def _rebuild(self) -> None:  # components own their fits
        pass

    def time(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return self._wt * self._tm.time(x) + self._we * self._em.time(x)

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        return self._wt * self._tm.time_batch(xs) + self._we * self._em.time_batch(xs)

    def fingerprint_state(self) -> tuple:
        return (
            "BlendedModel",
            repr(self._wt),
            repr(self._we),
            self._tm.fingerprint_state(),
            self._em.fingerprint_state(),
        )


def _objective_scales(
    total: int, time_bank: ModelBank, energy_bank: ModelBank
) -> Tuple[float, float]:
    """Dimensionless-blend normalisers: single-device minima at ``total``."""
    at_total = np.full(time_bank.size, float(total))
    t_scale = float(time_bank.times(at_total).min())
    e_scale = float(energy_bank.times(at_total).min())
    if not (t_scale > 0.0 and e_scale > 0.0):
        raise PartitionError(
            "models predict non-positive time/energy for the total size"
        )
    return t_scale, e_scale


def _part_values(bank: ModelBank, sizes: Sequence[int]) -> List[float]:
    """Each rank's predicted value at its share, 0.0 where the share is 0."""
    d = np.asarray(sizes, dtype=float)
    return np.where(d > 0, bank.times(d), 0.0).tolist()


def _evaluate_point(
    sizes: Sequence[int], time_bank: ModelBank, energy_bank: ModelBank
) -> Tuple[Tuple[float, ...], float, float]:
    """Exact per-rank times, makespan and total joules of a distribution."""
    times = tuple(_part_values(time_bank, sizes))
    energy = sum(_part_values(energy_bank, sizes))
    return times, max(times), float(energy)


class _Surrogate:
    """Piecewise-linear samplings of every device's blended cost, stacked.

    Each device gets a grid geometric from 1 unit to the cap, augmented
    with both its models' measured sizes (so the interpolation reproduces
    kinks the models were actually fitted with) and anchored at
    ``x = 0``; the time and energy models are evaluated exactly at the
    knots.  Grids are padded to one width with the cap.

    :meth:`weigh` then builds the table the inversion searches:
    ``values[i, k]`` is device ``i``'s blended cost
    ``wt[k] * t_i + we[k] * e_i`` at its knots, made non-decreasing, and
    ``+inf`` past its last knot.
    """

    def __init__(
        self, time_bank: ModelBank, energy_bank: ModelBank, cap: float
    ) -> None:
        grid = _SURROGATE_GRID
        measured = [
            [pt.d for m in pair for pt in getattr(m, "points", ())]
            for pair in zip(time_bank.models, energy_bank.models)
        ]
        p = len(measured)
        grid_xs = np.full((p, grid + 1 + max(map(len, measured))), np.inf)
        grid_xs[:, :grid] = np.geomspace(1.0, cap, num=grid)
        grid_xs[:, grid] = cap
        for row, sizes in zip(grid_xs, measured):
            if sizes:
                row[grid + 1:grid + 1 + len(sizes)] = np.clip(sizes, 1.0, cap)
        # np.unique per row: sort, blank out repeats, sort them to the end.
        grid_xs.sort(axis=1)
        grid_xs[:, 1:][grid_xs[:, 1:] == grid_xs[:, :-1]] = np.inf
        grid_xs.sort(axis=1)
        #: Knots per device, the ``x = 0`` anchor included.
        self.count = 1 + np.isfinite(grid_xs).sum(axis=1)
        width = int(self.count.max())
        knots = np.zeros((p, width))
        knots[:, 1:] = np.where(np.isfinite(grid_xs[:, :width - 1]),
                                grid_xs[:, :width - 1], cap)
        self.tv = time_bank.times(knots)
        self.ev = energy_bank.times(knots)
        self.tv[:, 0] = 0.0
        self.ev[:, 0] = 0.0
        self.knots = knots
        self._past = (np.arange(width) >= self.count[:, None])[:, None, :]

    def weigh(self, wt: np.ndarray, we: np.ndarray) -> None:
        """Build the blended table for the weights ``(wt[k], we[k])``."""
        p, width = self.knots.shape
        values = np.empty((p, wt.size, width))
        for k in range(wt.size):
            np.maximum.accumulate(wt[k] * self.tv + we[k] * self.ev, axis=1,
                                  out=values[:, k])
        np.copyto(values, np.inf, where=self._past)
        self.values = values
        #: Each device's cost at its last knot (the cap), per weight.
        self.last = values[np.arange(p), :, self.count - 1]

    def allocations(self, levels: np.ndarray, cap: float) -> np.ndarray:
        """Allocation per (device, weight, level): ``levels`` is ``(K, m)``.

        Linear interpolation between the bracketing knots with the
        :meth:`~repro.core.models.base.PerformanceModel.allocation_batch`
        clamping contract (levels <= 0 -> 0, levels at or above the cap
        value -> cap).
        """
        p = self.knots.shape[0]
        idx = upper_bound(self.values, levels)
        idx = np.minimum(np.maximum(idx, 1), (self.count - 1)[:, None, None])
        dev = np.arange(p)[:, None, None]
        xlo = self.knots[dev, idx - 1]
        xhi = self.knots[dev, idx]
        vlo = np.take_along_axis(self.values, idx - 1, axis=2)
        vhi = np.take_along_axis(self.values, idx, axis=2)
        denom = np.maximum(vhi - vlo, 1e-300)
        out = xlo + (levels - vlo) * (xhi - xlo) / denom
        out = np.clip(out, 0.0, cap)
        out[levels >= self.last[:, :, None]] = cap
        out[np.broadcast_to(levels <= 0.0, out.shape)] = 0.0
        return out

    def residuals(self, levels: np.ndarray, cap: float) -> np.ndarray:
        """Summed allocation minus the cap per (weight, level).

        Devices are added in rank order (``add.accumulate`` is
        sequential), so the sum is the same float whatever the shape.
        """
        return np.add.accumulate(self.allocations(levels, cap), axis=0)[-1] - cap


def _blended_level(
    sizes: Sequence[int],
    alphas: np.ndarray,
    tcol: np.ndarray,
    ecol: np.ndarray,
) -> np.ndarray:
    """Exact blended level of a known distribution, per alpha row.

    ``tcol``/``ecol`` are the normalised per-rank times/energies of the
    distribution; the balanced level of a nearby alpha is close to the
    max blended cost, which is what seeds the interior brackets.
    """
    blend = alphas[:, None] * tcol[None, :] + (1.0 - alphas)[:, None] * ecol[None, :]
    return blend.max(axis=1)


def partition_pareto(
    total: int,
    models: Sequence[PerformanceModel],
    energy_models: Sequence[PerformanceModel],
    npoints: int = DEFAULT_FRONT_POINTS,
    tol: float = 1e-10,
    max_iter: int = 200,
    probes: int = 8,
    warm: bool = True,
    strict: bool = False,
    certs: Optional[List[ConvergenceCert]] = None,
    warm_start: Optional[WarmStart] = None,
) -> ParetoFront:
    """Sweep the (time, energy) trade-off into a :class:`ParetoFront`.

    Args:
        total: problem size ``D`` in computation units.
        models: per-rank time models (seconds).
        energy_models: per-rank energy models (joules), same length.
            Either list may be a
            :class:`~repro.core.partition.batch.ModelBank` over them.
        npoints: scalarization weights swept, endpoints included.
        tol, max_iter, probes: bisection parameters, as in
            :func:`~repro.core.partition.geometric.partition_geometric`.
        warm: seed interior brackets from the solved endpoints.
            Disabling only costs iterations -- results are bit-identical.
        strict: raise :class:`~repro.errors.ConvergenceError` if any
            front point fails to converge (default: warn).
        certs: optional sink collecting every point's cert.
        warm_start: optional external seed (e.g. a cached front point at
            a nearby total) for the time-endpoint solve.

    Returns:
        A :class:`ParetoFront`; its time-endpoint is bit-identical to
        ``partition_geometric(total, models)``.
    """
    time_bank = ModelBank.of(models)
    energy_bank = ModelBank.of(energy_models)
    total = validate_partition_inputs(total, models, time_bank)
    validate_partition_inputs(total, energy_models, energy_bank)
    if len(models) != len(energy_models):
        raise PartitionError(
            f"{len(models)} time models for {len(energy_models)} energy models"
        )
    if not 2 <= npoints <= MAX_FRONT_POINTS:
        raise PartitionError(
            f"npoints must be within [2, {MAX_FRONT_POINTS}], got {npoints}"
        )
    size = len(models)

    if total == 0:
        cert = ConvergenceCert("pareto", True, 0, max_iter, 0.0, tol,
                               "trivial: total is 0")
        point = ParetoPoint(
            sizes=(0,) * size, times=(0.0,) * size,
            time=0.0, energy=0.0, alpha=1.0, cert=cert,
        )
        if certs is not None:
            certs.append(cert)
        return ParetoFront(total=0, points=(point,))

    # --- exact endpoints -------------------------------------------------
    point_certs: List[ConvergenceCert] = []
    time_dist = solve_geometric(
        total, time_bank, tol=tol, max_iter=max_iter, probes=probes,
        strict=strict, certs=point_certs,
        warm_start=warm_start if warm else None,
    )
    energy_dist = solve_geometric(
        total, energy_bank, tol=tol, max_iter=max_iter, probes=probes,
        strict=strict, certs=point_certs,
    )

    def endpoint(dist, alpha: float, cert: ConvergenceCert) -> ParetoPoint:
        times, t, e = _evaluate_point(dist.sizes, time_bank, energy_bank)
        return ParetoPoint(
            sizes=tuple(dist.sizes), times=times, time=t, energy=e,
            alpha=alpha,
            cert=dataclass_replace(cert, algorithm="pareto",
                                   detail=(cert.detail + "; " if cert.detail
                                           else "") + f"alpha={alpha:g}"),
        )

    points: List[ParetoPoint] = [
        endpoint(time_dist, 1.0, point_certs[0]),
        endpoint(energy_dist, 0.0, point_certs[1]),
    ]

    # --- interior alphas -------------------------------------------------
    # A single process has one distribution, so it has no interior.
    alphas = np.linspace(0.0, 1.0, npoints)[1:-1]
    if alphas.size and size > 1:
        t_scale, e_scale = _objective_scales(total, time_bank, energy_bank)
        points.extend(_interior(
            total, time_bank, energy_bank, alphas, t_scale, e_scale,
            tol, max_iter, probes, warm, strict, points[0], points[1],
        ))

    if certs is not None:
        certs.extend(p.cert for p in points if p.cert is not None)

    # Integer rounding at an interior alpha can land on a distribution
    # that beats an *exact* endpoint solve by one unit's worth of noise;
    # honouring it would evict the endpoint from the front and break the
    # contract that ``points[0]`` is bit-identical to the time-only
    # partitioner.  Interior points are therefore confined to the open
    # band between the two exact endpoints.
    t_end, e_end = points[0], points[1]
    points = [t_end, e_end] + [
        p for p in points[2:]
        if p.time > t_end.time and p.energy > e_end.energy
    ]

    # --- dedup, dominance filter, sort -----------------------------------
    seen: Dict[Tuple[int, ...], ParetoPoint] = {}
    for p in points:  # endpoints first, so they win duplicates
        seen.setdefault(p.sizes, p)
    unique = list(seen.values())
    front = [
        p for p in unique
        if not any(
            (q.time <= p.time and q.energy <= p.energy
             and (q.time < p.time or q.energy < p.energy))
            for q in unique
        )
    ]
    front.sort(key=lambda p: (p.time, p.energy, -p.alpha))
    # Symmetric devices can yield distinct distributions with identical
    # objective values (mirror-image shares); keep one per value pair so
    # the front is strictly ordered in both objectives.
    pruned: List[ParetoPoint] = []
    for p in front:
        if pruned and pruned[-1].time == p.time and pruned[-1].energy == p.energy:
            continue
        pruned.append(p)
    return ParetoFront(total=total, points=tuple(pruned))


def _sweep(
    surrogate: _Surrogate,
    cap: float,
    hints: Optional[Tuple[np.ndarray, np.ndarray]],
    tol: float,
    max_iter: int,
    probes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One batched bisection over the surrogate's current weights.

    Returns the final brackets, their tolerances and the step count.
    Warm ``hints`` (low and high blended-level estimates per weight)
    narrow the initial brackets; candidates violating the bracketing
    invariant are discarded, exactly like WarmStart hints.
    """
    K = surrogate.last.shape[1]
    lo = np.zeros(K)
    hi = surrogate.last.min(axis=0)
    if hints is not None:
        lo_hint, hi_hint = hints
        cand = np.stack([
            0.9 * lo_hint, 0.995 * lo_hint, 1.005 * hi_hint, 1.2 * hi_hint,
        ], axis=1)
        cand = np.clip(cand, 0.0, hi[:, None])
        res = surrogate.residuals(cand, cap)
        neg = (res < 0.0) & (cand > lo[:, None])
        pos = (res >= 0.0) & (cand < hi[:, None]) & (cand > 0.0)
        j = neg.shape[1] - 1 - np.argmax(neg[:, ::-1], axis=1)
        has_neg = neg.any(axis=1)
        lo = np.where(has_neg, np.take_along_axis(cand, j[:, None], 1)[:, 0], lo)
        j = np.argmax(pos, axis=1)
        has_pos = pos.any(axis=1)
        hi = np.where(has_pos, np.take_along_axis(cand, j[:, None], 1)[:, 0], hi)

    fractions = np.arange(1, probes + 1) / (probes + 1.0)
    iterations = 0
    tol_k = tol * np.maximum.reduce([np.ones(K), np.abs(lo), np.abs(hi)])
    for _ in range(max_iter):
        tol_k = tol * np.maximum.reduce([np.ones(K), np.abs(lo), np.abs(hi)])
        open_k = (hi - lo) > tol_k
        if not open_k.any():
            break
        iterations += 1
        levels = lo[:, None] + (hi - lo)[:, None] * fractions[None, :]
        res = surrogate.residuals(levels, cap)
        ge = res >= 0.0
        has = ge.any(axis=1)
        j = np.where(has, ge.argmax(axis=1), probes)
        jc = np.clip(j, 0, probes - 1)
        new_hi = np.take_along_axis(levels, jc[:, None], 1)[:, 0]
        hi = np.where(open_k & (j < probes), new_hi, hi)
        jl = np.clip(j - 1, 0, probes - 1)
        new_lo = np.take_along_axis(levels, jl[:, None], 1)[:, 0]
        lo = np.where(open_k & (j > 0), new_lo, lo)
    return lo, hi, tol_k, iterations


def _interior(
    total: int,
    time_bank: ModelBank,
    energy_bank: ModelBank,
    alphas: np.ndarray,
    t_scale: float,
    e_scale: float,
    tol: float,
    max_iter: int,
    probes: int,
    warm: bool,
    strict: bool,
    time_point: ParetoPoint,
    energy_point: ParetoPoint,
) -> List[ParetoPoint]:
    """All interior alphas through one batched bisection.

    Per-step inversion runs on piecewise-linear samplings of the blended
    cost functions (exact values at the knots), every (device, alpha,
    probe level) of a chunk of alphas in one call; the integer result of
    each alpha is then re-evaluated on the *real* models, so reported
    objectives carry no surrogate error.
    """
    cap = float(total)
    K = alphas.size
    p = time_bank.size
    wt = alphas / t_scale
    we = (1.0 - alphas) / e_scale
    surrogate = _Surrogate(time_bank, energy_bank, cap)
    hints = None
    if warm:
        # Seed brackets from the exact endpoint solutions: the balanced
        # level of alpha_k sits near the blended cost of its neighbors'
        # distributions.
        def norm_cols(point: ParetoPoint) -> Tuple[np.ndarray, np.ndarray]:
            tcol = np.asarray(point.times) / t_scale
            ecol = np.asarray(_part_values(energy_bank, point.sizes)) / e_scale
            return tcol, ecol
        lt = _blended_level(time_point.sizes, alphas, *norm_cols(time_point))
        le = _blended_level(energy_point.sizes, alphas, *norm_cols(energy_point))
        hints = (np.minimum(lt, le), np.maximum(lt, le))

    # Every weight's bisection is independent, so the weights are swept
    # in chunks that keep the blended table near _BLEND_TABLE_ENTRIES.
    lo = np.zeros(K)
    hi = np.zeros(K)
    tol_k = np.zeros(K)
    shares = np.zeros((p, K))
    iterations = 0
    chunk = max(1, _BLEND_TABLE_ENTRIES // surrogate.knots.size)
    for ks in (slice(s, s + chunk) for s in range(0, K, chunk)):
        surrogate.weigh(wt[ks], we[ks])
        lo[ks], hi[ks], tol_k[ks], steps = _sweep(
            surrogate, cap, None if hints is None else (hints[0][ks], hints[1][ks]),
            tol, max_iter, probes,
        )
        iterations = max(iterations, steps)
        level = 0.5 * (lo[ks] + hi[ks])
        shares[:, ks] = surrogate.allocations(level[:, None], cap)[:, :, 0]
    converged = (hi - lo) <= tol_k

    out: List[ParetoPoint] = []
    sizes_mat = np.zeros((K, p), dtype=int)
    for k in range(K):
        sizes_mat[k] = round_preserving_sum(
            [float(s) for s in shares[:, k]], total
        )
    # Exact objective evaluation on the real models, one call per bank.
    cols = sizes_mat.T.astype(float)
    times_mat = np.ascontiguousarray(time_bank.times(cols).T)
    energy_mat = np.ascontiguousarray(energy_bank.times(cols).T)
    for k in range(K):
        cert = ConvergenceCert(
            algorithm="pareto",
            converged=bool(converged[k]),
            iterations=iterations,
            max_iter=max_iter,
            residual=float(hi[k] - lo[k]),
            tolerance=float(tol_k[k]),
            detail=f"alpha={float(alphas[k]):g} batched sweep",
        )
        if not cert.converged:
            if strict:
                raise ConvergenceError(cert.summary(), cert=cert)
            warnings.warn(cert.summary(), ConvergenceWarning, stacklevel=3)
        out.append(ParetoPoint(
            sizes=tuple(int(d) for d in sizes_mat[k]),
            times=tuple(float(t) for t in times_mat[k]),
            time=float(times_mat[k].max()),
            energy=float(energy_mat[k].sum()),
            alpha=float(alphas[k]),
            cert=cert,
        ))
    return out
