"""The bench gate table in ``benchmarks/harness.py``.

Every committed ``BENCH_*.json`` must pass every gate on it; every gate
must fire when its value sits just past its bound, naming the file and
the metric; and a value exactly at the bound must pass (gates fail only
when strictly past).  The harness is loaded by path because
``benchmarks/`` is not a package.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", ROOT / "benchmarks" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


def _committed(file):
    return json.loads((ROOT / file).read_text(encoding="utf-8"))


def _with_value(tree, path, value):
    """A deep copy of ``tree`` with the dotted ``path`` set to ``value``."""
    out = copy.deepcopy(tree)
    node = out
    *parents, leaf = path.split(".")
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def _concrete_paths(gate):
    """The committed file's concrete metric paths for ``gate``'s row."""
    values = harness._metric_values(_committed(gate.file), gate.path.split("."))
    paths = [path for path, _ in values]
    assert paths, f"{gate.file} has no value for {gate.path}"
    return paths


def _past(gate):
    """The closest float strictly past ``gate``'s bound."""
    toward = math.inf if gate.direction == "max" else -math.inf
    return math.nextafter(gate.bound, toward)


gate_rows = pytest.mark.parametrize(
    "gate", harness.GATES, ids=[f"{g.file}:{g.path}" for g in harness.GATES]
)


@pytest.mark.parametrize(
    "file", sorted({gate.file for gate in harness.GATES})
)
def test_committed_results_pass(file):
    assert harness.check_gates(_committed(file), file) == []


@gate_rows
def test_value_past_the_bound_fails_and_names_the_row(gate):
    for path in _concrete_paths(gate):
        tree = _with_value(_committed(gate.file), path, _past(gate))
        failures = harness.check_gates(tree, gate.file)
        assert len(failures) == 1, failures
        assert gate.file in failures[0] and path in failures[0]


@gate_rows
def test_value_at_the_bound_passes(gate):
    for path in _concrete_paths(gate):
        tree = _with_value(_committed(gate.file), path, gate.bound)
        assert harness.check_gates(tree, gate.file) == []


@gate_rows
def test_override_replaces_the_bound(gate):
    path = _concrete_paths(gate)[0]
    tree = _with_value(_committed(gate.file), path, _past(gate))
    assert harness.check_gates(tree, gate.file, {gate.path: _past(gate)}) == []


def test_missing_section_is_not_a_failure():
    for file in {gate.file for gate in harness.GATES}:
        assert harness.check_gates({}, file) == []
