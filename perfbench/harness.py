"""Set-up, the closed measurement loop, and the metrics computed from it.

One client issues one op at a time.  Only the op itself is timed: output
checks run between ops (or after the loop, for workloads whose checks would
otherwise set the process's peak memory).  A check that must see data inside
an op runs under ``Workload.untimed``, and its time is taken off the op's.
Every op is timed in process CPU time, calibrated against the reference
kernel timed just before and just after it (see calibration.py).  The
metrics use the calibrated times; raw wall times are reported beside them
and bound the length of the loop.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import lcadc

import calibration
import tracing

# ops must leave at least this many slower ops beyond the tail percentile
TAIL_OPS_BEYOND = 10


@dataclass
class Failure:
    index: int
    problems: list[str]


@dataclass
class Loop:
    """Timings and outcomes of one mode (traced or untraced) of a run."""

    times: list[float] = field(default_factory=list)  # calibrated
    wall_times: list[float] = field(default_factory=list)
    wall_busy_s: float = 0.0
    events: int = 0
    failures: list[Failure] = field(default_factory=list)
    _kernel_s: float | None = None  # reference kernel time after the last op

    @property
    def attempted(self) -> int:
        return len(self.times)

    def events_per_s(self) -> float:
        busy = sum(self.times)
        return self.events / busy if busy > 0 else 0.0

    def record(self, wall_s: float, cpu_s: float, kernel_before_s: float) -> None:
        self._kernel_s = calibration.kernel_seconds()
        self.wall_times.append(wall_s)
        self.wall_busy_s += wall_s
        self.times.append(calibration.calibrated(cpu_s, kernel_before_s, self._kernel_s))

    def kernel_before(self) -> float:
        if self._kernel_s is None:
            self._kernel_s = calibration.kernel_seconds()
        return self._kernel_s


def setup(workload, seed: int, workdir: str, repeats: int):
    """Generate inputs, write their files and run one warm-up op, ``repeats``
    times; returns the inputs and each repeat's calibrated duration."""
    durations = []
    inputs = None
    for r in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        before = calibration.kernel_seconds()
        t0 = process_time()
        os.makedirs(workdir)
        inputs = workload.generate(seed)
        inputs.write_files(workdir)
        workload.run(inputs.warmup, workdir, os.path.join(workdir, f"warmup{r}"))
        cpu = process_time() - t0
        durations.append(calibration.calibrated(cpu, before, calibration.kernel_seconds()))
    return inputs, durations


def _execute(
    workload, op, index: int, workdir: str, outdir: str, loop: Loop, pending: list,
    tracer: tracing.Tracer | None = None,
) -> None:
    before = loop.kernel_before()
    if tracer is not None:
        tracer.op = index
        frame = tracer.enter("op")
    workload.untimed_wall_s = workload.untimed_cpu_s = 0.0
    t0, c0 = perf_counter(), process_time()
    try:
        outcome = workload.run(op, workdir, outdir)
    except Exception:
        outcome = None
        error = traceback.format_exc(limit=3)
    cpu = process_time() - c0 - workload.untimed_cpu_s
    wall = perf_counter() - t0 - workload.untimed_wall_s
    if tracer is not None:
        tracer.exit(frame)
    loop.record(wall, cpu, before)
    if outcome is None:
        loop.failures.append(Failure(index, [error]))
        return
    loop.events += outcome.events
    if workload.deferred_checks:
        pending.append((loop, index, op, outcome))
    else:
        _check(workload, loop, index, op, outcome)


def _check(workload, loop: Loop, index: int, op, outcome) -> None:
    try:
        problems = workload.check(op, outcome)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    if problems:
        loop.failures.append(Failure(index, problems))


def _outdir(workload, workdir: str, name: str) -> str:
    # deferred checks need every op's files; inline checks reuse one directory
    return os.path.join(workdir, "out", name if workload.deferred_checks else "op")


def _output_bytes(outdir: str) -> int:
    if not os.path.isdir(outdir):
        return 0
    return sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))


def run_untraced(workload, inputs, workdir: str, seconds: float) -> tuple[Loop, float]:
    """Ops until ``seconds`` of op time have passed; returns the loop and the
    peak resident memory in MB, read before any deferred check."""
    loop = Loop()
    pending: list = []
    i = 0
    while loop.wall_busy_s < seconds:
        _execute(workload, inputs.op(i), i, workdir, _outdir(workload, workdir, f"op{i}"), loop, pending)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for args in pending:
        _check(workload, *args)
    return loop, peak_rss_mb


@dataclass
class TracedRun:
    untraced: Loop
    traced: Loop
    tracer: tracing.Tracer
    prefix: dict
    peak_rss_mb: float


def run_traced(workload, inputs, workdir: str, seconds: float) -> TracedRun:
    """Untraced ops for half of ``seconds`` of op time (and at least
    ``workload.prefix_ops`` of them), then the same inputs again with the
    tracer installed.  Work counters are taken over the first ``prefix_ops``
    traced ops, so they repeat exactly for a seed; timings cover every
    traced op."""
    untraced, traced = Loop(), Loop()
    pending: list = []
    n = 0
    while untraced.wall_busy_s < seconds / 2 or n < workload.prefix_ops:
        _execute(workload, inputs.op(n), n, workdir, _outdir(workload, workdir, f"u{n}"), untraced, pending)
        n += 1
    tracer = tracing.Tracer()
    prefix: dict = {}
    output_bytes = 0
    patches = tracing.install(tracer)
    workload.tracer = tracer
    try:
        for i in range(n):
            outdir = _outdir(workload, workdir, f"t{i}")
            _execute(workload, inputs.op(i), i, workdir, outdir, traced, pending, tracer)
            if i < workload.prefix_ops:
                output_bytes += _output_bytes(outdir)
            if i + 1 == workload.prefix_ops:
                prefix = _snapshot(tracer, output_bytes)
    finally:
        workload.tracer = None
        patches.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for args in pending:
        _check(workload, *args)
    return TracedRun(untraced, traced, tracer, prefix, peak_rss_mb)


def _snapshot(tracer: tracing.Tracer, output_bytes: int) -> dict:
    c = tracer.counters
    layers = {
        name: {"calls": st.calls, "evaluate_calls": st.evaluate_calls}
        for name, st in tracer.stats.items()
    }
    return {"counters": dict(vars(c)), "layers": layers, "output_bytes": output_bytes}


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest percentile that
    leaves TAIL_OPS_BEYOND ops beyond it; the maximum if there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_OPS_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_OPS_BEYOND - 1], 100.0 * (n - TAIL_OPS_BEYOND) / n, TAIL_OPS_BEYOND


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the figures reported beside them."""
    tail_s, tail_pct, beyond = tail(loop.times)
    wall_busy = loop.wall_busy_s
    metrics = {
        "events_per_s": (loop.events_per_s(), "1/s"),
        "op_p50_s": (statistics.median(loop.times), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "error_rate": len(loop.failures) / loop.attempted,
        "ops": loop.attempted,
        "events": loop.events,
        "op_tail_percentile": tail_pct,
        "ops_beyond_tail": beyond,
        "wall_events_per_s": loop.events / wall_busy if wall_busy > 0 else 0.0,
        "wall_op_p50_s": statistics.median(loop.wall_times),
        "wall_op_tail_s": tail(loop.wall_times)[0],
        "wall_per_calibrated_s": wall_busy / sum(loop.times),
    }
    return metrics, extra


def per_layer(run: TracedRun, prefix_ops: int) -> dict:
    """Per-layer metrics: exact work counters per op over the prefix, busy
    time per op over every traced run, and the tracing overhead."""
    counters = run.prefix["counters"]
    layers = run.prefix["layers"]
    events = counters["events"]

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def per_op(value: float) -> float:
        return value / prefix_ops

    n_traced = max(run.traced.attempted, 1)
    # spans hold wall time; rescale them by the traced ops' calibration
    scale = sum(run.traced.times) / run.traced.wall_busy_s if run.traced.wall_busy_s else 1.0

    def busy(name: str, own: bool = False) -> float:
        st = run.tracer.stats.get(name)
        if st is None:
            return 0.0
        return (st.self_s if own else st.total_s) * scale / n_traced

    def evals(name: str) -> int:
        return layers.get(name, {}).get("evaluate_calls", 0)

    exit_calls = calls("signals.next_window_exit")
    exit_evals = evals("signals.next_window_exit")
    search_evals = exit_evals + evals("signals.next_window_entry")
    untraced_eps = run.untraced.events_per_s()
    traced_eps = run.traced.events_per_s()
    metrics = {
        "signals.evaluate.calls": (per_op(counters["evaluate_calls"]), "count"),
        "signals.evaluate.calls_per_event": (counters["evaluate_calls"] / events if events else 0.0, "ratio"),
        "signals.evaluate.search_calls_per_event": (search_evals / events if events else 0.0, "ratio"),
        "signals.next_window_exit.calls": (per_op(exit_calls), "count"),
        "signals.next_window_exit.evals_per_call": (exit_evals / exit_calls if exit_calls else 0.0, "ratio"),
        "signals.next_window_exit.self_s": (busy("signals.next_window_exit", True), "s"),
        "signals.next_window_entry.calls": (per_op(calls("signals.next_window_entry")), "count"),
        "signals.next_window_entry.self_s": (busy("signals.next_window_entry", True), "s"),
        "engine.simulate.self_s": (busy("engine.simulate", True), "s"),
        "engine.ack_time.calls": (per_op(calls("engine.ack_time")), "count"),
        "engine.ack_time.self_s": (busy("engine.ack_time", True), "s"),
        "engine.events": (per_op(events), "count"),
        "engine.catchup_per_event": (counters["immediate_events"] / events if events else 0.0, "ratio"),
        "engine.saturation_intervals": (per_op(counters["saturation_intervals"]), "count"),
        "engine.Trace.to_json.s": (busy("engine.Trace.to_json"), "s"),
        "engine.Trace.to_json.bytes": (per_op(counters["to_json_bytes"]), "B"),
        "engine.tracking_error.s": (busy("engine.tracking_error"), "s"),
        "power.measure.s": (busy("power.measure"), "s"),
        "analysis.monte_carlo_off_time.self_s": (busy("analysis.monte_carlo_off_time", True), "s"),
        "runconfig.load_run_config.s": (busy("runconfig.load_run_config"), "s"),
        "cli.main.self_s": (busy("cli.main", True), "s"),
        "cli.output.bytes": (per_op(run.prefix["output_bytes"]), "B"),
        "trace.untraced_events_per_s": (untraced_eps, "1/s"),
        "trace.traced_events_per_s": (traced_eps, "1/s"),
        "trace.overhead": (untraced_eps / traced_eps - 1.0 if traced_eps else 0.0, "ratio"),
    }
    return metrics


def anchor() -> dict:
    """Work counters of one stock ``simulate`` at clock phase 0 over 200 ms,
    to set beside the first recorded baseline (266,527 evaluate calls for
    12,400 events)."""
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        cfg = lcadc.AdcConfig(delta=1.0, level_count=32, v_min=-16.0, clock_freq=201e3)
        lcadc.simulate(cfg, lcadc.Sine(amplitude=16.0, frequency=1e3), 0.2)
    finally:
        patches.restore()
    c = tracer.counters
    return {
        "evaluate_calls": c.evaluate_calls,
        "events": c.events,
        "calls_per_event": c.evaluate_calls / c.events,
        "matches_first_baseline": (c.evaluate_calls, c.events) == (266_527, 12_400),
    }
