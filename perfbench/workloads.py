"""The benchmark's three workloads: input generation, one op, and its checks.

Every input is drawn from the workload seed with numpy's default generator,
so the same seed gives byte-identical inputs (``Inputs.to_bytes``).  lcadc
is always called through module attributes at call time, so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

import lcadc
import lcadc.cli

from checks import (
    columns_from_events,
    interior_traversals,
    protocol_problems,
    trace_file_problems,
)
from tracing import Patches

# Stock operating point: 5-bit converter, 1 V step, full-scale sine, 201 kHz.
DELTA = 1.0
LEVELS = 32
V_MIN = -16.0
CLOCK_FREQ = 201e3
T_CLK = 1.0 / CLOCK_FREQ
AMPLITUDE = 16.0
# Fastest full-scale sine the converter tracks: delta / (4*pi*t_clk*A).
F_MAX = DELTA / (4.0 * math.pi * T_CLK * AMPLITUDE)
# Largest input slew the window update keeps up with: delta / (2*t_clk).
SLEW_LIMIT = DELTA / (2.0 * T_CLK)
# Reconstruction error bound inside the tracking limit (acceptance criterion 9).
TRACKING_ERROR_BOUND = 2.0 * DELTA

STOCK_CONFIG = (
    "signal.type = sine\n"
    "signal.amplitude = 16\n"
    "adc.delta = 1\n"
    "adc.levels = 32\n"
    "adc.v_min = -16\n"
    "adc.clock_freq = 201k\n"
)


@dataclass
class Inputs:
    """A workload's generated inputs: the warm-up op, the op pool (cycled if
    a run outlasts it) and the config files the ops read."""

    warmup: object
    ops: list
    files: dict[str, str] = field(default_factory=dict)

    def op(self, index: int):
        return self.ops[index % len(self.ops)]

    def to_bytes(self) -> bytes:
        body = {"warmup": self.warmup, "ops": self.ops, "files": self.files}
        return json.dumps(body, sort_keys=True).encode()

    def write_files(self, directory: str) -> None:
        for name, text in self.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


@dataclass
class Outcome:
    """What one op returned: the crossings it reports serving and what its
    check needs."""

    events: int
    payload: object


def _cli(argv: list[str]) -> tuple[int, int]:
    """Run one lcadc command in-process; its exit code and the event count
    it printed (0 if none)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lcadc.cli.main(argv)
    match = re.search(r"events=(\d+)", out.getvalue())
    return code, int(match.group(1)) if match else 0


class Workload:
    """What every workload shares: observations for the results file, and
    no hooks to install unless a workload's checks need them."""

    deferred_checks = False

    def __init__(self) -> None:
        self.notes: Counter = Counter()
        # check work done inside the current op, taken off its time
        self.untimed_wall_s = 0.0
        self.untimed_cpu_s = 0.0
        # the tracer while a traced loop runs, so checks leave span self times
        self.tracer = None

    def start(self) -> None:
        """Install what the checks need for the run; undone by stop()."""

    def stop(self) -> None:
        pass

    def _count_missed_grazes(self, missed: int) -> None:
        """Record the crossings of grazes an op stepped over; the check lets
        them pass, so these counts are where the scan defect shows."""
        self.notes["grazing_traversals_missed"] += missed
        self.notes["ops_missing_grazes"] += missed > 0

    @contextlib.contextmanager
    def untimed(self):
        """Run check work inside an op without counting it as the op's time
        or as the self time of the traced span it runs in."""
        wall0, cpu0 = perf_counter(), process_time()
        try:
            yield
        finally:
            wall = perf_counter() - wall0
            self.untimed_wall_s += wall
            self.untimed_cpu_s += process_time() - cpu0
            if self.tracer is not None:
                self.tracer.exclude(wall)


@dataclass
class TrialCheck:
    """What the per-event checks of one Monte Carlo trial leave behind, so
    the trial's trace need not be kept."""

    problems: list[str]
    events: int
    off_sum: float
    offs_in_range: int


class StockMonteCarlo(Workload):
    """``lcadc montecarlo`` at the stock operating point, one seed per op.

    An op runs the configuration's default 20 trials.  The span is 10 input
    periods plus the rising quarter period, so it ends on the top rail and
    every trial serves exactly 62*10 + 15 crossings whatever the clock phase.
    """

    name = "stock_montecarlo"
    prefix_ops = 4
    trials = 20
    periods = 10
    frequency = 1e3
    pool = 500

    def __init__(self) -> None:
        super().__init__()
        self.t_end = (self.periods + 0.25) / self.frequency
        self.expected_per_trial = 62 * self.periods + 15
        self.trial_checks: list[TrialCheck] = []
        self._patches = Patches()

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.pool + 1)]
        text = STOCK_CONFIG + f"signal.frequency = {self.frequency!r}\nrun.t_end = {self.t_end!r}\n"
        return Inputs(warmup=seeds[0], ops=seeds[1:], files={"stock.cfg": text})

    def start(self) -> None:
        """Check each trace ``simulate`` returns inside an op as it comes,
        untimed, and keep only the summary."""

        def capture(fn):
            def captured(*args, **kwargs):
                trace = fn(*args, **kwargs)
                with self.untimed():
                    self.trial_checks.append(self._check_trial(trace))
                return trace

            captured.__wrapped__ = fn
            return captured

        self._patches.wrap_everywhere("lcadc.engine", "simulate", capture)

    def stop(self) -> None:
        self._patches.restore()

    def _check_trial(self, trace) -> TrialCheck:
        cfg = trace.config
        ev = columns_from_events(trace.events)
        problems = protocol_problems(ev, trace.initial_code, cfg.clock_freq, cfg.clock_phase, cfg.settle_time)
        if len(ev) != self.expected_per_trial:
            problems.append(f"trial served {len(ev)} crossings")
        offs = ev.t_on - ev.t_req
        in_range = int(np.count_nonzero((offs >= T_CLK) & (offs <= 2.0 * T_CLK)))
        return TrialCheck(problems, len(ev), float(offs.sum()), in_range)

    def run(self, seed: int, workdir: str, outdir: str) -> Outcome:
        self.trial_checks = []
        argv = [
            "montecarlo",
            "--config", os.path.join(workdir, "stock.cfg"),
            "--seed", str(seed),
            "--trials", str(self.trials),
            "--out", outdir,
        ]
        code, events = _cli(argv)
        return Outcome(events, (code, outdir, self.trial_checks))

    def check(self, seed: int, outcome: Outcome) -> list[str]:
        code, outdir, trials = outcome.payload
        if code != 0:
            return [f"exit code {code}"]
        with open(os.path.join(outdir, "offtime.json"), "r", encoding="utf-8") as fh:
            stats = json.load(fh)
        expected = self.trials * self.expected_per_trial
        problems = []
        if stats["trials"] != self.trials:
            problems.append(f"offtime.json trials {stats['trials']}")
        if stats["n_events"] != expected or outcome.events != expected:
            problems.append(f"{stats['n_events']} events ({outcome.events} printed), expected {expected}")
        binned = sum(stats["counts"])
        if binned > stats["n_events"]:
            problems.append(f"histogram holds {binned} of {stats['n_events']} events")
        if not T_CLK < stats["mean"] <= 2.0 * T_CLK:
            problems.append(f"mean off time {stats['mean']} outside (T, 2T]")
        # Every event is checked on the trace of its trial.  An op whose
        # trials did not each pass through simulate fails, so the per-event
        # check cannot silently drop out.
        self.notes["ops_checked_per_event" if len(trials) == self.trials else "ops_not_checked_per_event"] += 1
        if len(trials) != self.trials:
            problems.append(f"{len(trials)} traces seen for {self.trials} trials; events not checked one by one")
        for trial in trials:
            problems.extend(trial.problems)
        if trials:
            n = sum(t.events for t in trials)
            if n != stats["n_events"]:
                problems.append(f"traces hold {n} events, offtime.json {stats['n_events']}")
            elif n and not math.isclose(sum(t.off_sum for t in trials) / n, stats["mean"], rel_tol=1e-9):
                problems.append("offtime.json mean differs from the traces")
            in_range = sum(t.offs_in_range for t in trials)
            if binned != in_range:
                problems.append(f"histogram holds {binned} events, {in_range} lie in [T, 2T]")
        # A request within the simultaneity tolerance before an edge waits
        # 2T plus under 1e-12 s, which the protocol allows but offtime.json's
        # [T, 2T] histogram leaves out; count them so the result shows it.
        self.notes["histogram_omitted_events"] += stats["n_events"] - binned
        return problems


class MultitoneRails(Workload):
    """Library ``simulate`` -> ``measure`` -> ``tracking_error`` on a sum of
    sines, with tones, offset and clock phase drawn per op.

    Ops cycle through ten kinds: seven stay inside the slew limit and the
    range, two drive one rail (saturation and the entry search), one exceeds
    the slew limit (catch-up requests and the overload flag).
    """

    name = "multitone_rails"
    prefix_ops = 50
    kinds = ("inside",) * 7 + ("rails",) * 2 + ("slew",)
    span = 20e-3
    pool = 2000

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        ops = [self._draw(rng, self.kinds[i % len(self.kinds)]) for i in range(self.pool + 1)]
        return Inputs(warmup=ops[0], ops=ops[1:])

    def _draw(self, rng: np.random.Generator, kind: str) -> dict:
        k = int(rng.integers(2, 4))
        offset = float(rng.uniform(-4.0, 4.0))
        headroom = AMPLITUDE - abs(offset) - 0.5
        if kind == "inside":
            freqs = np.exp(rng.uniform(math.log(100.0), math.log(3000.0), k))
            weights = rng.uniform(0.2, 1.0, k)
            slew = rng.uniform(0.3, 0.95) * SLEW_LIMIT
            scale = min(headroom / weights.sum(), slew / (2.0 * math.pi * (freqs * weights).sum()))
            amps = weights * scale
        elif kind == "rails":
            freqs = np.exp(rng.uniform(math.log(100.0), math.log(2000.0), k))
            freqs[0] = math.exp(rng.uniform(math.log(100.0), math.log(600.0)))
            amps = rng.uniform(0.05, 0.2, k)
            amps[0] = 1.0
            amps *= (AMPLITUDE - abs(offset)) * rng.uniform(1.05, 1.3)
            slew_cap = rng.uniform(0.3, 0.95) * SLEW_LIMIT
            freqs *= min(1.0, slew_cap / (2.0 * math.pi * (freqs * amps).sum()))
        else:  # slew
            freqs = np.exp(rng.uniform(math.log(200.0), math.log(3000.0), k))
            freqs[0] = math.exp(rng.uniform(math.log(1000.0), math.log(4000.0)))
            weights = rng.uniform(0.2, 1.0, k)
            slew = rng.uniform(1.1, 1.8) * SLEW_LIMIT
            amps = weights * slew / (2.0 * math.pi * (freqs * weights).sum())
            stretch = max(1.0, amps.sum() / headroom)
            freqs *= stretch
            amps /= stretch
        phases = rng.uniform(0.0, 2.0 * math.pi, k)
        # the converter must start inside its range
        while abs(offset + float((amps * np.sin(phases)).sum())) > AMPLITUDE - 0.5:
            phases = rng.uniform(0.0, 2.0 * math.pi, k)
        return {
            "kind": kind,
            "tones": [[float(a), float(f), float(p)] for a, f, p in zip(amps, freqs, phases)],
            "offset": offset,
            "clock_phase": float(rng.uniform(0.0, T_CLK)),
        }

    def run(self, op: dict, workdir: str, outdir: str) -> Outcome:
        cfg = lcadc.AdcConfig(
            delta=DELTA, level_count=LEVELS, v_min=V_MIN,
            clock_freq=CLOCK_FREQ, clock_phase=op["clock_phase"],
        )
        spec = lcadc.SumOfSines(tones=tuple(tuple(t) for t in op["tones"]), offset=op["offset"])
        trace = lcadc.simulate(cfg, spec, self.span)
        report = lcadc.measure(trace, lcadc.PowerParams())
        err = lcadc.tracking_error(trace, spec)
        return Outcome(len(trace.events), (trace, report, err))

    def check(self, op: dict, outcome: Outcome) -> list[str]:
        trace, report, (max_err, _rms) = outcome.payload
        cfg = trace.config
        problems = protocol_problems(
            columns_from_events(trace.events),
            trace.initial_code,
            cfg.clock_freq,
            cfg.clock_phase,
            cfg.settle_time,
        )
        if report.n_cross != len(trace.events):
            problems.append(f"measure counted {report.n_cross} of {len(trace.events)} crossings")
        if op["kind"] != "slew":
            tones = tuple(tuple(t) for t in op["tones"])
            expected = interior_traversals(tones, op["offset"], self.span, V_MIN, DELTA, LEVELS)
            problems.extend(expected.problems(len(trace.events)))
            self._count_missed_grazes(expected.missed(len(trace.events)))
        self.notes[f"{op['kind']}_ops"] += 1
        self.notes[f"{op['kind']}_ops_saturated"] += bool(trace.saturation)
        self.notes[f"{op['kind']}_ops_overloaded"] += trace.overload
        if op["kind"] == "inside":
            if trace.overload:
                problems.append("overload flag set inside the tracking limit")
            if max_err > TRACKING_ERROR_BOUND:
                problems.append(f"tracking error {max_err} above {TRACKING_ERROR_BOUND}")
        return problems


class TraceExport(Workload):
    """``lcadc simulate`` over the stock 200 ms span on a config file whose
    sine frequency (0.8 to 1.0 of the tracking limit) and phase are drawn per
    op; each op writes trace.json and power.json."""

    name = "trace_export"
    prefix_ops = 4
    deferred_checks = True
    t_end = 0.2
    pool = 200

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        ops, files = [], {}
        for i in range(self.pool + 1):
            op = {
                "config": f"sine_{i}.cfg",
                "frequency": float(rng.uniform(0.8, 1.0) * F_MAX),
                "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
            }
            files[op["config"]] = STOCK_CONFIG + (
                f"signal.frequency = {op['frequency']!r}\n"
                f"signal.phase = {op['phase']!r}\n"
                "run.t_end = 200m\n"
                f"run.seed = {int(rng.integers(0, 2**31 - 1))}\n"
            )
            ops.append(op)
        return Inputs(warmup=ops[0], ops=ops[1:], files=files)

    def run(self, op: dict, workdir: str, outdir: str) -> Outcome:
        argv = ["simulate", "--config", os.path.join(workdir, op["config"]), "--out", outdir]
        code, events = _cli(argv)
        return Outcome(events, (code, outdir))

    def check(self, op: dict, outcome: Outcome) -> list[str]:
        code, outdir = outcome.payload
        try:
            if code != 0:
                return [f"exit code {code}"]
            tones = ((AMPLITUDE, op["frequency"], op["phase"]),)
            expected = interior_traversals(tones, 0.0, self.t_end, V_MIN, DELTA, LEVELS)
            self._count_missed_grazes(expected.missed(outcome.events))
            return trace_file_problems(
                os.path.join(outdir, "trace.json"),
                os.path.join(outdir, "power.json"),
                expected,
                outcome.events,
            )
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (StockMonteCarlo, MultitoneRails, TraceExport)}
