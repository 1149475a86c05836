"""Golden digests of the cubic Hermite evaluators (Akima and PCHIP).

The batch-versus-scalar parity tests and the fitted-state fingerprints
pin *how* the splines and their models agree with each other; these
digests pin the evaluated *numbers*.  About fifty seeded point sets --
two to fourteen knots, monotone and non-monotone, some with repeated
sizes -- are fitted by :class:`AkimaSpline`/:class:`PchipSpline` and by
:class:`AkimaModel`/:class:`PchipModel`, evaluated at fixed abscissae,
and the ``repr`` of every value is hashed with sha256.

The point sets come from a fixed integer generator; sizes are integers
and times multiples of 1/256, so the data are exact binary fractions.
The evaluators use only IEEE-754 arithmetic and ``searchsorted``, so
the digests do not depend on the host.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.models import AkimaModel, PchipModel
from repro.core.point import MeasurementPoint
from repro.interp import AkimaSpline, PchipSpline

SETS = 50


class _Draws:
    """A 64-bit LCG: the same integers on every host and numpy version."""

    def __init__(self, seed: int) -> None:
        self.state = seed

    def ints(self, lo: int, hi: int, n: int) -> List[int]:
        """``n`` integers in ``[lo, hi)``."""
        out = []
        for _ in range(n):
            self.state = (6364136223846793005 * self.state
                          + 1442695040888963407) % 2**64
            out.append(lo + (self.state >> 33) % (hi - lo))
        return out


def _point_sets() -> List[List[Tuple[int, float, int]]]:
    """``(size, time, reps)`` triples.

    Every third set carries noise that makes its times fall somewhere;
    every fifth repeats its largest size with a different time.
    """
    draws = _Draws(20)
    out = []
    for k in range(SETS):
        n = 2 + k % 13
        sizes = sorted(draws.ints(1, 4096, n))
        if k % 5 == 4 and n > 2:
            sizes[-1] = sizes[-2]
        ticks = list(itertools.accumulate(draws.ints(1, 512, n)))
        if k % 3 == 2:
            ticks = [t + e for t, e in zip(ticks, draws.ints(0, 1024, n))]
        reps = draws.ints(1, 6, n)
        out.append([(d, t / 256.0, r) for d, t, r in zip(sizes, ticks, reps)])
    return out


def _abscissae(sizes) -> np.ndarray:
    """Points left of, between, on and right of the knots."""
    lo, hi = float(min(sizes)), float(max(sizes))
    inner = [lo + (hi - lo) * i / 22 for i in range(23)]
    return np.asarray([0.0, 0.5 * lo, lo, *inner, hi, 1.25 * hi, 3.0 * hi])


def _digest(values: list) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _spline_digests(cls) -> Dict[str, str]:
    values, derivs = [], []
    for pts in _point_sets():
        spline = cls([(d, t) for d, t, _r in pts])
        xs = _abscissae([d for d, _t, _r in pts]) - 7.0
        values.append([spline(float(x)) for x in xs])
        values.append(spline.evaluate_batch(xs).tolist())
        derivs.append([spline.derivative(float(x)) for x in xs])
        derivs.append(spline.derivative_batch(xs).tolist())
    return {"values": _digest(values), "derivatives": _digest(derivs)}


def _model_digests(cls) -> Dict[str, str]:
    times, batch, derivs, allocs = [], [], [], []
    for k, pts in enumerate(_point_sets()):
        model = cls(include_origin=k % 10 != 9)
        model.update_many(
            [MeasurementPoint(d=d, t=t, reps=r) for d, t, r in pts])
        xs = _abscissae([d for d, _t, _r in pts])
        times.append([model.time(float(x)) for x in xs])
        batch.append(model.time_batch(xs).tolist())
        derivs.append([model.time_derivative(float(x)) for x in xs])
        cap = 1.5 * float(max(d for d, _t, _r in pts))
        top = model.time(cap)
        levels = np.asarray([-1.0, 0.0, top / 7.0, top / 3.0, 0.5 * top,
                             0.9 * top, top, 2.0 * top])
        allocs.append(model.allocation_batch(levels, cap).tolist())
    return {
        "time": _digest(times),
        "time_batch": _digest(batch),
        "time_derivative": _digest(derivs),
        "allocation_batch": _digest(allocs),
    }


GOLDEN = {
    "AkimaSpline": {
        "values":
            "7e6a576d9b416701441ebf4490005bca2b462058c59340ac82a384ade463cdeb",
        "derivatives":
            "50839b9ec4b4d9eb22f0f81ed8fdab6611ac5917c5b3f4d0b1e27520b30c60f5",
    },
    "PchipSpline": {
        "values":
            "37692fc547eecc554df6f04243173748c8a8387f374e47b8d10359550786f2a4",
        "derivatives":
            "1b406d5ce2432ad453f0f6ea0d9d633fd24a3c2230b5ff528a543b342fc46c17",
    },
    "AkimaModel": {
        "time":
            "4802968609727774e3e60d2ee6e67eb98d7c68c3e9ad1841096d7ad553cf14f5",
        "time_batch":
            "4802968609727774e3e60d2ee6e67eb98d7c68c3e9ad1841096d7ad553cf14f5",
        "time_derivative":
            "9e28dc0e92d56b6f74a89dc6104df409ff89a8e66e22243609bc35a38b723635",
        "allocation_batch":
            "4880eadb926b83e9b85fdea385f6983c14d654daecdcf3ffcbe62e300398ddf3",
    },
    "PchipModel": {
        "time":
            "15ebce0102bcf9d86f658170b75a6b49f9b76d7febc094e5a4eb8869cb54bed4",
        "time_batch":
            "15ebce0102bcf9d86f658170b75a6b49f9b76d7febc094e5a4eb8869cb54bed4",
        "time_derivative":
            "4215db1134f6cfbe633208f28a1f6c22cb8d81a057f24bba3a9739c610aecdbf",
        "allocation_batch":
            "dcc51aa27c0d45d497c893cab727accadbb097fb124514db103d1816129629fd",
    },
}


def test_point_sets_cover_every_shape():
    sets = _point_sets()
    assert len(sets) == SETS
    assert {len(pts) for pts in sets} == set(range(2, 15))
    rising = [all(a[1] <= b[1] for a, b in zip(pts, pts[1:])) for pts in sets]
    assert 10 <= rising.count(False) <= 40
    assert sum(len({d for d, _t, _r in pts}) < len(pts) for pts in sets) >= 5


@pytest.mark.parametrize("cls", [AkimaSpline, PchipSpline], ids=lambda c: c.__name__)
def test_spline_digests(cls):
    assert _spline_digests(cls) == GOLDEN[cls.__name__]


@pytest.mark.parametrize("cls", [AkimaModel, PchipModel], ids=lambda c: c.__name__)
def test_model_digests(cls):
    assert _model_digests(cls) == GOLDEN[cls.__name__]
