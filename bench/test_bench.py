"""Self-test of the benchmark.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess

import pytest

import run
import tracing
import workloads as wl

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_printed_metrics_are_the_declared_ones(workload, trace):
    proc = subprocess.run(
        [*DECLARED["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_mutated_program_labelled_pass_counts_as_failed():
    workload = run.LibraryWorkload(k=1, pool=10, named=True, warmup=0)
    workload.setup(seed=5)
    mutated = workload.items[4]
    assert mutated.mutation is not None
    workload.items[4] = dataclasses.replace(mutated, verdict="pass", census=wl.FULL_CENSUS)
    stats = run.Stats()
    for i in range(10):
        workload.step(i, stats)
    assert (stats.attempted, stats.failed) == (10, 1)
    assert "verdict 'fail', expected 'pass'" in stats.problems[0]
    stats.cal = [1e-3] * len(stats.samples)
    assert run.end_to_end(stats, 1.0, 1024)["ok_share"] == 0.9


def test_missing_span_target_is_absent_with_zero_calls(monkeypatch):
    workload = run.LibraryWorkload(k=1, pool=5, named=True, warmup=0)
    workload.setup(seed=5)
    monkeypatch.setattr(
        tracing, "TARGETS",
        tuple(t for t in tracing.TARGETS if t[2] != "executor.run_branches")
        + (("telegate.verifier", "run_branches_removed", "executor.run_branches"),),
    )
    tracer = tracing.Tracer()
    stats = run.Stats()
    for i in range(4):
        workload.traced_step(i, stats, tracer)
    assert tracer.absent == ["telegate.verifier:run_branches_removed"]
    metrics = run.per_layer(stats, tracer)
    assert metrics["executor.run_branches.calls"] == 0
    assert metrics["protocol.validate_locality.calls"] == 17
    assert stats.failed == 0
