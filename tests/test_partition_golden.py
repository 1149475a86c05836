"""Golden digests of the bank partitioners' plans (geometric and basic).

The parity suites pin that a warm solve equals a cold one and that the
stacked kernel equals the per-model calls; these digests pin the plans
themselves.  Model sets from a fixed integer generator -- piecewise,
constant, and piecewise with one Akima row the bank cannot stack -- are
solved at 1, 2, 7, 64 and 128 devices and at totals from 0 up, cold,
warm-started from a nearby plan, and by the basic algorithm, and the
sizes, the ``repr`` of the times and the cert of every plan are hashed
with sha256.

Sizes are integers and times multiples of 1/256, so the data are exact
binary fractions, and the partitioners use only IEEE-754 arithmetic,
clipping and comparisons on them, so the digests do not depend on the
host.  A change that moves any share, any predicted time or any
iteration count fails them; a change meant to alter plans updates them
and says so.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List

import pytest

from repro.core.models import AkimaModel, ConstantModel, PiecewiseModel
from repro.core.partition import (
    partition_constant,
    partition_geometric,
    warm_start_from,
)
from repro.core.point import MeasurementPoint
from tests.test_hermite_golden import _Draws

DEVICES = (1, 2, 7, 64, 128)
TOTALS = (0, 1, 7, 1_000, 99_991, 4_000_037)
KINDS = ("piecewise", "constant", "mixed")


def _points(draws: _Draws, n: int) -> List[MeasurementPoint]:
    """``n`` points at distinct-ish sizes with rising, noisy times."""
    sizes = sorted(draws.ints(1, 1 << 17, n))
    ticks = list(itertools.accumulate(draws.ints(1, 4096, n)))
    noise = draws.ints(0, 2048, n)
    return [MeasurementPoint(d=d, t=(t + e) / 256.0)
            for d, t, e in zip(sizes, ticks, noise)]


def _model_set(kind: str, p: int) -> list:
    """One model set; ``"mixed"`` puts an Akima row among piecewise ones."""
    draws = _Draws(1_000 * p + KINDS.index(kind))
    models = []
    for i in range(p):
        if kind == "constant":
            model = ConstantModel()
        elif kind == "mixed" and i == p // 2:
            model = AkimaModel()
        else:
            model = PiecewiseModel()
        n = 1 + draws.ints(0, 9, 1)[0]
        if isinstance(model, AkimaModel):
            n = max(n, 3)
        model.update_many(_points(draws, n))
        models.append(model)
    return models


def _plan(dist) -> list:
    return [dist.sizes, [repr(t) for t in dist.times],
            sorted(dist.convergence.to_dict().items())]


def _digests(kind: str) -> Dict[str, str]:
    plans: Dict[str, list] = {"cold": [], "warm": [], "basic": []}
    for p in DEVICES:
        models = _model_set(kind, p)
        for total in TOTALS:
            plans["cold"].append(_plan(partition_geometric(total, models)))
            source = partition_geometric(total + total // 16 + 3, models)
            plans["warm"].append(_plan(partition_geometric(
                total, models, warm_start=warm_start_from(source))))
            plans["basic"].append(_plan(partition_constant(total, models)))
    return {name: hashlib.sha256(repr(rows).encode()).hexdigest()
            for name, rows in plans.items()}


GOLDEN = {
    "piecewise": {
        "cold":
            "7164956f4f49df0e521b556afa3b4eb39a946c51edaacb6e0f2a0ef98ccb9655",
        "warm":
            "02eb20b828e99358272e29b9ba841644271a99363a968be1fa9f1b70b87e92a8",
        "basic":
            "f0b493ea49aa81e737eb14f510605171e47ace0bc1bd5bf2dcb7a50670af5ec9",
    },
    "constant": {
        "cold":
            "23c74aa878790a47936ffb6848566c2e80bed90cae250fca9f4495d028d0a79b",
        "warm":
            "2d9377f53995185f4de17e3b5b7e4a6ce019cc33c06e5ad5582e532cc52f779b",
        "basic":
            "c765a22cfdb01b8329fc56805a9a1855806114a051bfae01e5f1d41adbea5f98",
    },
    "mixed": {
        "cold":
            "51e0cfd8f4ee50dbd192d455bc3b00ad9a8a8e44428bcf0ffbf45ff1a39d41ac",
        "warm":
            "e46066c9450cc42b2924889eec534df1733f7e283ef05071d1914fdc9def395f",
        "basic":
            "197c41ed2c1203edcd20ebb5b2f72cecd2191c6ba72ffd181db45016e8aaaf92",
    },
}


def test_model_sets_cover_every_shape():
    for kind in KINDS:
        models = _model_set(kind, 128)
        assert len(models) == 128
        kinds = {type(m) for m in models}
        assert kinds == {"piecewise": {PiecewiseModel},
                         "constant": {ConstantModel},
                         "mixed": {PiecewiseModel, AkimaModel}}[kind]
    knots = {len(m.points) for m in _model_set("piecewise", 128)}
    assert {1, 9} <= knots


@pytest.mark.parametrize("kind", KINDS)
def test_plan_digests(kind):
    assert _digests(kind) == GOLDEN[kind]
