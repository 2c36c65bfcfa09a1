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
over from a sine's shared request sequence.  ``montecarlo --trials 20``
reads a third file, a full-scale sine at 1,010 Hz, just past the limit,
where the trials leave the shared sequence at different requests and a
later trial can replace the run it is read from.  Prints one ``sha256
name`` line per written file (path relative to OUT_DIR) and per captured
stdout, sorted by name.  OUT_DIR is replaced by a fixed token in
the captured stdout, so two listings made into different directories, say
from two checkouts, can be compared with ``diff``.  SRC_DIR (default: the
``src`` next to this script) is the package tree to import ``lcadc`` from.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
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
