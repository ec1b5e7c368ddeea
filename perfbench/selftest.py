"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/selftest.py``.

Each workload runs for a few ops.  The tests assert that every metric named
in ``BENCHMARK.json`` is printed with its unit, that a deliberately corrupted
output is counted as a failed op, and that two traced runs with the same seed
give identical counts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes", "MB"}


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _printed_units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_with_units(name):
    context, result = run.run_workload(name, 5, 0.0, False, setup_samples=1, min_samples=3)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == context["samples"] == 3
    assert _printed_units(result) == _units(SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for key in ("cpu_count", "python", "numpy", "threads", "shape", "seed", "confirm_seed"):
        assert key in context


def _corrupt(name, result):
    """Perturb one output of an op's result by the smallest visible amount."""
    if name == "faulted_ensemble":
        outputs = result.execution.recorded_outputs
        outputs[-1, 0, 0, 0] = np.nextafter(outputs[-1, 0, 0, 0], np.inf)
    elif name == "table1_certify":
        result[-1]["output_rate"] = float(np.nextafter(result[-1]["output_rate"], 1.0))
    elif name == "service_journal":
        outputs = result["merged"].execution.recorded_outputs
        outputs[-1, 0, 0, 0] = np.nextafter(outputs[-1, 0, 0, 0], np.inf)
    elif name == "async_crashes":
        execution, _agreed = result[0]
        execution.final_outputs[execution.correct_agents()[0]] = 2.0
    return result


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failed(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    original = cls.op

    def corrupted(self, k):
        result = original(self, k)
        return _corrupt(name, result) if k == 1 else result

    monkeypatch.setattr(cls, "op", corrupted)
    context, result = run.run_workload(name, 5, 0.0, False, setup_samples=1, min_samples=3)
    assert result["attempted"] == 4  # ops k = 0, 1, 2, 3; k = 1 fails
    assert result["failed"] == 1
    assert result["correct"] is False
    assert context["error_rate"] == 0.25


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_seed(name):
    first = run.run_workload(name, 7, 0.0, True)[1]
    second = run.run_workload(name, 7, 0.0, True)[1]
    assert first["correct"] and second["correct"]
    assert _printed_units(first) == _units(SPEC["per_layer"])
    counts = [m for m, unit in run.PER_LAYER.items() if unit in COUNT_UNITS]
    assert {m: first["metrics"][m]["value"] for m in counts} == {
        m: second["metrics"][m]["value"] for m in counts
    }


def test_counts_per_op_do_not_depend_on_the_number_of_passes():
    totals = {"algorithms.base": {"busy": 0.3, "self": 0.3, "calls": 2360}}
    counters = {"algorithms.base.computed_bytes": 40487089.0, "service.checkpoint.bytes": 194334.0}

    def counts(passes):
        metrics = run.layer_metrics(
            {name: {field: value * passes for field, value in entry.items()}
             for name, entry in totals.items()},
            {name: value * passes for name, value in counters.items()},
            4 * passes, 1, 0.0,
        )
        return {m: metrics[m] for m, unit in run.PER_LAYER.items() if unit in COUNT_UNITS}

    assert counts(1) == counts(3) == counts(7)


def test_known_inverted_interval_stays_visible():
    _context, result = run.run_workload("table1_certify", 7, 0.0, True)
    assert result["metrics"]["core.contraction.inverted_intervals"]["value"] > 0


def test_tracer_restores_the_program():
    from repro.algorithms import base, midpoint

    original = midpoint.masked_min_max
    spans = tracer.Tracer()
    spans.install()
    try:
        assert midpoint.masked_min_max is not original
        assert base.masked_min_max is midpoint.masked_min_max
    finally:
        spans.uninstall()
    assert midpoint.masked_min_max is original is base.masked_min_max


def test_self_time_subtracts_child_coverage():
    spans = [
        ("api:Study.run", 0.0, 10.0, -1, 0),
        ("execution.batch:run_ensemble", 1.0, 9.0, 0, 0),
        ("execution.batch:run_ensemble", 2.0, 4.0, 1, 0),
        ("algorithms.base:masked_min_max", 5.0, 8.0, 1, 0),
    ]
    totals = tracer.aggregate(spans)
    assert totals["api"]["self"] == pytest.approx(2.0)
    assert totals["execution.batch"]["self"] == pytest.approx(3.0 + 2.0)
    assert totals["execution.batch"]["busy"] == pytest.approx(8.0)
    assert totals["execution.batch"]["calls"] == 1
    assert totals["algorithms.base"]["busy"] == pytest.approx(3.0)


def _command(directory, *extra, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "async_crashes",
         "--seed", "1", "--seconds", "1", "--trace", "0", *extra],
        cwd=directory, capture_output=True, text=True, timeout=60, env=env,
    )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _command(tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_refuses_repro_threads():
    completed = _command(HERE.parent, env={**os.environ, "REPRO_THREADS": "2"})
    assert completed.returncode != 0
    assert "REPRO_THREADS" in completed.stderr
