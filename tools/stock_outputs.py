"""Run the five CLI commands at the stock config and hash what they write.

Usage::

    python tools/stock_outputs.py OUT_DIR [--src SRC_DIR]

Runs ``simulate``, ``sweep frequency --grid 100:1k:20:log``, ``boundary
--clocks 100k,201k,402k``, ``table1`` (JSON and markdown) and ``montecarlo
--trials 5`` in-process, with no config file (the built-in stock operating
point), into OUT_DIR.  Prints one ``sha256  name`` line per written file and
per captured stdout, sorted by name.  OUT_DIR is replaced by a fixed token in
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

COMMANDS = (
    ("simulate", ["simulate"]),
    ("sweep", ["sweep", "frequency", "--grid", "100:1k:20:log"]),
    ("boundary", ["boundary", "--clocks", "100k,201k,402k"]),
    ("table1", ["table1"]),
    ("table1_markdown", ["table1", "--format", "markdown"]),
    ("montecarlo", ["montecarlo", "--trials", "5"]),
)

OUT_TOKEN = "<out>"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(out: str) -> dict[str, str]:
    """Run every command into ``out``; return name -> sha256 of each output."""
    from lcadc.cli import main

    digests = {}
    for name, argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + ["--out", out])
        if code != 0:
            raise SystemExit(f"{name} exited with status {code}")
        text = buf.getvalue().replace(out, OUT_TOKEN)
        digests[f"stdout/{name}"] = _sha256(text.encode("utf-8"))
    for fname in os.listdir(out):
        with open(os.path.join(out, fname), "rb") as fh:
            digests[fname] = _sha256(fh.read())
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
