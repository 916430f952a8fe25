"""Self-tests of the benchmark harness: span arithmetic, seeding, metric names.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from spans import RunSummary, Tracer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # e belongs to another run and must not count
    spans = [
        ("a", 0.0, 10.0, -1, "0/p"),
        ("b", 1.0, 4.0, 0, "0/p"),
        ("c", 2.0, 3.0, 1, "0/p"),
        ("e", 3.5, 3.6, -1, "1/p"),
        ("d", 5.0, 9.0, 0, "0/p"),
        ("c", 6.0, 8.5, 4, "0/p"),
    ]
    s = RunSummary(spans, "0/p")
    assert s.self_total("a") == pytest.approx(3.0)
    assert s.self_total("b") == pytest.approx(2.0)
    assert s.self_total("d") == pytest.approx(1.5)
    assert s.total("c") == pytest.approx(3.5)
    assert s.total("c", within="b") == pytest.approx(1.0)
    assert s.total("c", outside="b") == pytest.approx(2.5)
    assert s.calls("c") == 2 and s.calls("e") == 0


def test_tracer_records_parents_and_restores_patches():
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.run = "0/p"
    patches = [(module, name, lambda f, name=name: tracer.wrap(name, f))
               for name in ("outer", "inner")]
    original_inner = module.inner
    with pytest.raises(RuntimeError):
        with tracer.installed(patches):
            assert module.outer(1) == 4
            raise RuntimeError("restore on error")
    assert module.inner is original_inner
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, "0/p"), ("inner", 0, "0/p")]


def _inputs(cls, seed):
    return cls(Path("unused")).inputs(seed)


def test_seed_changes_random_inputs_only():
    assert _inputs(workloads.SwePulse, 0) == _inputs(workloads.SwePulse, 1)
    assert _inputs(workloads.SweEnsemble, 0) != _inputs(workloads.SweEnsemble, 1)
    assert _inputs(workloads.SweEnsemble, 3) == _inputs(workloads.SweEnsemble, 3)
    a, b = _inputs(workloads.NlsRom, 0), _inputs(workloads.NlsRom, 1)
    assert a["rom_seeds"] != b["rom_seeds"]
    assert not np.array_equal(a["training"][0].coefficients, b["training"][0].coefficients)


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
