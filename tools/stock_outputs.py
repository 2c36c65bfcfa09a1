"""Run the five CLI commands at the stock config and hash what they write.

Usage::

    python tools/stock_outputs.py OUT_DIR [--src SRC_DIR]

Runs ``simulate``, ``sweep frequency --grid 100:1k:20:log``, ``boundary
--clocks 100k,201k,402k``, ``table1`` (JSON and markdown) and ``montecarlo
--trials 5`` in-process, with no config file (the built-in stock operating
point), into OUT_DIR.  Two more ``simulate`` runs read config files that
this script writes into OUT_DIR, and put their outputs in a directory of the
same name: ``sum_of_sines`` exercises the generic crossing search that the
all-sine stock runs never reach, and ``sine_past_limit``, a full-scale sine
at 1.5 kHz, past the tracking limit, exercises the event loop that takes
over from a sine's shared request list.  ``montecarlo --trials 20`` reads
a third file, a full-scale sine at 1,010 Hz, just past the limit, where
each trial leaves the shared list at a different request.  Last, for each waveform
kind (sine, sum_of_sines, ramp, sampled) it makes 50 seeded random
``simulate`` calls through the library and hashes their ``Trace.to_json``
texts as ``random/<kind>``: 1, 0.1 and 1/3 V grids, settle times, inputs
past the tracking limit and into the rails, none of which the stock runs
reach.  Each random sine runs at three clock phases, which share one
request list.  Prints one ``sha256 name`` line per written
file (path relative to OUT_DIR), per captured stdout and per random kind,
sorted by name.  OUT_DIR is replaced by a fixed token in the captured
stdout, so two listings made into different directories, say from two
checkouts, can be compared with ``diff``.  SRC_DIR (default: the
``src`` next to this script) is the package tree to import ``lcadc`` from.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import random
import sys

# Two tones whose peak passes the 14 V level by 50 uV once per period; over
# 10 ms that makes 460 level crossings, every one of which must be served.
SUM_OF_SINES_CONFIG = """\
signal.type = sum_of_sines
signal.tones = 9:1k:0, 4:2k:0.5
signal.offset = 3.965439903
run.t_end = 10m
"""

# Full scale at 1.5 kHz, 1.5 times the tracking limit at the 201 kHz clock:
# catch-up requests from the first crossings on, and the overload flag.
SINE_PAST_LIMIT_CONFIG = """\
signal.type = sine
signal.amplitude = 16
signal.frequency = 1.5k
run.t_end = 10m
"""

# Full scale at 1,010 Hz, 1.01 times the tracking limit: each clock phase
# meets its first catch-up request after a different number of crossings.
MONTECARLO_PAST_LIMIT_CONFIG = """\
signal.type = sine
signal.amplitude = 16
signal.frequency = 1010
run.t_end = 20m
"""

CONFIGS = {
    "sum_of_sines.cfg": SUM_OF_SINES_CONFIG,
    "sine_past_limit.cfg": SINE_PAST_LIMIT_CONFIG,
    "montecarlo_past_limit.cfg": MONTECARLO_PAST_LIMIT_CONFIG,
}

# {out} stands for OUT_DIR
COMMANDS = (
    ("simulate", ["simulate", "--out", "{out}"]),
    ("sweep", ["sweep", "frequency", "--grid", "100:1k:20:log", "--out", "{out}"]),
    ("boundary", ["boundary", "--clocks", "100k,201k,402k", "--out", "{out}"]),
    ("table1", ["table1", "--out", "{out}"]),
    ("table1_markdown", ["table1", "--format", "markdown", "--out", "{out}"]),
    ("montecarlo", ["montecarlo", "--trials", "5", "--out", "{out}"]),
    (
        "simulate_sum_of_sines",
        ["simulate", "--config", "{out}/sum_of_sines.cfg", "--out", "{out}/sum_of_sines"],
    ),
    (
        "simulate_sine_past_limit",
        ["simulate", "--config", "{out}/sine_past_limit.cfg", "--out", "{out}/sine_past_limit"],
    ),
    (
        "montecarlo_past_limit",
        [
            "montecarlo",
            "--config",
            "{out}/montecarlo_past_limit.cfg",
            "--trials",
            "20",
            "--out",
            "{out}/montecarlo_past_limit",
        ],
    ),
)

OUT_TOKEN = "<out>"

# Seeded random simulate runs per waveform kind, hashed as one line each.
RANDOM_KINDS = ("sine", "sum_of_sines", "ramp", "sampled")
RANDOM_RUNS = 50
# level steps in volts: binary, and two that no binary fraction represents
RANDOM_GRIDS = (1.0, 0.1, 1.0 / 3.0)
# a sine's request list is shared across clock phases: run each input at
# this many phases, in one block, so later runs read the cached list
SINE_PHASES = 3


def random_runs(kind: str, runs: int):
    """Yield ``runs`` seeded random (config, spec, t_end) triples of one
    waveform kind on a 32-level grid.  Steps are 1, 0.1 or 1/3 V, clocks
    100 to 402 kHz at a random phase, settle times zero or up to 3 us.
    Sines run at up to twice the tracking limit and sums of sines and ramps
    at up to twice a comparable rate; amplitudes, slopes and sample values
    reach past the range, into the rails.  Sampled values lie on eighths of
    the step, so samples often land on a level.  Every input starts inside
    the range."""
    from lcadc import AdcConfig, Ramp, Sampled, Sine, SumOfSines, evaluate, max_frequency

    rng = random.Random(kind)
    made = 0
    while made < runs:
        delta = rng.choice(RANDOM_GRIDS)
        top = 16 * delta
        clock_freq = rng.choice((100e3, 201e3, 402e3))
        t_clk = 1.0 / clock_freq
        settle = rng.choice((0.0, rng.uniform(0.0, 3e-6)))
        rate = rng.uniform(0.1, 2.0)
        if kind == "sine":
            amplitude = delta * rng.uniform(0.5, 24.0)
            frequency = rate * max_frequency(amplitude, delta, t_clk)
            phase = rng.uniform(0, 2 * math.pi)
            spec = Sine(amplitude, frequency, phase, delta * rng.uniform(-14, 14))
            t_end = rng.uniform(0.5, 5.0) / frequency
        elif kind == "sum_of_sines":
            amplitudes = [delta * rng.uniform(0.5, 12.0) for _ in range(rng.choice((2, 3)))]
            f_max = rate * max_frequency(sum(amplitudes), delta, t_clk)
            tones = [
                (a, f_max * rng.uniform(0.2, 1.0), rng.uniform(0, 2 * math.pi)) for a in amplitudes
            ]
            spec = SumOfSines(tuple(tones), delta * rng.uniform(-10, 10))
            t_end = rng.uniform(0.5, 4.0) / f_max
        elif kind == "ramp":
            # one level per two clock periods is the tracking limit
            slope = rng.choice((-1, 1)) * rate * delta / (2 * t_clk)
            spec = Ramp(delta * rng.uniform(-16, 16), slope)
            t_end = rng.uniform(0.2, 1.5) * 2 * top / abs(slope)
        else:
            period = rng.choice(RANDOM_GRIDS) * 1e-5 * rng.randint(1, 4)
            # a random walk in eighths of a step, at up to ``rate`` levels
            # per two clock periods
            stride = 8 * rate * period / (2 * t_clk)
            values, v = [], rng.randint(-128, 128)
            for _ in range(rng.randint(3, 80)):
                values.append(delta * v / 8)
                v = max(-200, min(200, v + round(stride * rng.uniform(-1, 1))))
            spec = Sampled(period, tuple(values))
            t_end = spec.span * rng.choice((1.0, rng.uniform(0.3, 1.0)))
        if not -top <= evaluate(spec, 0.0) <= top:
            continue
        for _ in range(min(SINE_PHASES if kind == "sine" else 1, runs - made)):
            clock_phase = rng.randrange(100) / 100 * t_clk
            config = AdcConfig(delta, 32, -top, clock_freq, clock_phase, settle)
            yield config, spec, t_end
            made += 1


def random_digests() -> dict[str, str]:
    """name -> sha256 of the ``to_json`` texts of each kind's random runs."""
    from lcadc import simulate

    digests = {}
    for kind in RANDOM_KINDS:
        texts = [simulate(*run).to_json() for run in random_runs(kind, RANDOM_RUNS)]
        digests[f"random/{kind}"] = _sha256("\n".join(texts).encode("utf-8"))
    return digests


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(out: str) -> dict[str, str]:
    """Run every command into ``out``; return name -> sha256 of each output."""
    from lcadc.cli import main

    os.makedirs(out, exist_ok=True)
    for name, text in CONFIGS.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    digests = {}
    for name, argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([arg.format(out=out) for arg in argv])
        if code != 0:
            raise SystemExit(f"{name} exited with status {code}")
        text = buf.getvalue().replace(out, OUT_TOKEN)
        digests[f"stdout/{name}"] = _sha256(text.encode("utf-8"))
    for root, _, files in os.walk(out):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = _sha256(fh.read())
    digests.update(random_digests())
    return digests


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", help="output directory; must be empty or absent")
    parser.add_argument(
        "--src", default=os.path.join(here, os.pardir, "src"), help="tree holding lcadc"
    )
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    if os.path.isdir(out) and os.listdir(out):
        parser.error(f"{out} is not empty")
    sys.path.insert(0, os.path.abspath(args.src))
    for name, digest in sorted(run_all(out).items()):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
