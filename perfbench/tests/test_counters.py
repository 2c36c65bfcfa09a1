"""Traced runs repeat their work counters exactly, and the harness refuses
to run without the program's sources."""

import os
import shutil
import subprocess
import sys

import pytest

import harness
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_METRICS = (
    "signals.evaluate.calls",
    "signals.evaluate.calls_per_event",
    "signals.evaluate.search_calls_per_event",
    "signals.next_window_exit.calls",
    "signals.next_window_exit.evals_per_call",
    "signals.next_window_entry.calls",
    "engine.ack_time.calls",
    "engine.events",
    "engine.catchup_per_event",
    "engine.saturation_intervals",
    "engine.Trace.to_json.bytes",
    "cli.output.bytes",
)


def _traced_counts(name, seed, workdir):
    workload = WORKLOADS[name]()
    inputs, _ = harness.setup(workload, seed, workdir, 1)
    workload.start()
    try:
        run = harness.run_traced(workload, inputs, workdir, 0.0)
    finally:
        workload.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = harness.per_layer(run, workload.prefix_ops)
    return run.prefix, {k: metrics[k][0] for k in COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat(name, tmp_path):
    first = _traced_counts(name, 5, str(tmp_path / "a"))
    second = _traced_counts(name, 5, str(tmp_path / "b"))
    assert first == second
    assert first[1]["engine.events"] > 0
    assert first[1]["signals.evaluate.calls"] > 0


def test_tail_leaves_ten_ops_beyond():
    times = [float(i) for i in range(100)]
    value, percentile, beyond = harness.tail(times)
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(t > value for t in times) == 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_export", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
