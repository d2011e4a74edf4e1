"""Checks on the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced tests run every workload's traced pass twice (a few minutes).
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

LAYER_ONLY_ON_ORACLE = [
    name
    for name, _, _ in run.PER_LAYER
    if name.split(".")[0] in ("oracle", "linalg", "specht")
]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]


def test_report_check_ignores_params_only():
    case = run.WORKLOADS["engine"][0]
    report = json.loads(case.reference.read_bytes())
    report["params"]["q"] = [2]
    assert run.output_mismatch(case, json.dumps(report).encode()) is None
    report["tilting"]["multiplicities"][0] += 1
    assert run.output_mismatch(case, json.dumps(report).encode()) is not None


def test_text_outputs_compare_byte_for_byte():
    case = run.WORKLOADS["oracle"][0]
    expected = case.reference.read_bytes()
    assert run.output_mismatch(case, expected) is None
    assert run.output_mismatch(case, expected + b"\n") is not None


_traced: dict[str, list[dict]] = {}


def traced_twice(workload: str) -> list[dict]:
    """Per-layer metrics of two traced passes, with different case orders."""
    if workload not in _traced:
        runs = []
        for seed in (1, 2):
            deadline = time.perf_counter() + 3600
            outcomes = run.run_pass(run.WORKLOADS[workload], random.Random(seed), deadline, traced=True)
            assert [o.status for o in outcomes] == ["ok"] * len(outcomes)
            metrics = run.per_layer_metrics([], outcomes)
            runs.append({name: m["value"] for name, m in metrics.items()})
        _traced[workload] = runs
    return _traced[workload]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_exact_counters_repeat(workload):
    first, second = traced_twice(workload)
    for name in run.EXACT_COUNTERS:
        assert first[name] == second[name], name


def test_kl_dominates_the_engine_workload():
    for metrics in traced_twice("engine"):
        assert metrics["kl.self_share"] >= 0.9


def test_generic_builds_no_engine():
    for metrics in traced_twice("generic"):
        assert metrics["kl.engines_built"] == 0
        assert metrics["kl.engine_s"] == 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_oracle_layers_only_on_oracle(workload):
    for metrics in traced_twice(workload):
        nonzero = [name for name in LAYER_ONLY_ON_ORACLE if metrics[name]]
        if workload == "oracle":
            assert nonzero == LAYER_ONLY_ON_ORACLE
        else:
            assert nonzero == []
