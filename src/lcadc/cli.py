"""Command-line front end.

Commands: simulate, sweep, boundary, table1, montecarlo.  Each command is a
function ``(run, args) -> (files, summary, overload)`` that computes its
output files' texts by name, the lines it prints, and whether a simulation
set the overload flag; it neither writes nor prints.  ``main`` alone loads
the run configuration, runs the command, writes its files into ``run.out``,
prints the summary and one ``wrote <paths>`` line, and maps the outcome to an
exit code: 0 ok, 2 configuration error, 3 overload with --fail-on-overload,
4 internal numeric failure.  All randomized commands are reproducible from
--seed: identical invocations write byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .analysis import (
    SWEEP_KINDS,
    boundary_curve,
    max_frequency,
    monte_carlo_off_time,
    sweep,
    trial_traces,
)
from .engine import ConfigError, simulate
from .power import ModelDomainError, measure
from .runconfig import ConfigFileError, RunConfig, load_run_config, parse_number
from .signals import Sine

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERLOAD = 3
EXIT_NUMERIC = 4


def _parse_grid(spec: str) -> list[float]:
    """Grid spec 'start:stop:count[:log]' -> list of floats."""
    fields = spec.split(":")
    if len(fields) not in (3, 4):
        raise ConfigFileError(f"bad grid spec {spec!r}: expected start:stop:count[:log]")
    try:
        start = parse_number(fields[0])
        stop = parse_number(fields[1])
        count = int(fields[2])
    except ValueError as exc:
        raise ConfigFileError(f"bad grid spec {spec!r}: {exc}") from exc
    log = fields[3:] == ["log"]
    if len(fields) == 4 and not log:
        raise ConfigFileError(f"bad grid spec {spec!r}: trailing field must be 'log'")
    if count < 1:
        raise ConfigFileError(f"bad grid spec {spec!r}: count must be >= 1")
    if log and count > 1 and (start <= 0 or stop <= 0):
        raise ConfigFileError(f"bad grid spec {spec!r}: log grids need positive bounds")
    return _grid(start, stop, count, log)


def _grid(start: float, stop: float, count: int, log: bool) -> list[float]:
    if count == 1:
        return [start]
    if log:
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio**i for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


# What a command computes: each output file's text by name under run.out,
# the lines printed before "wrote", and whether a simulation overloaded.
_Output = tuple[dict[str, str], str, bool]


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_simulate(run: RunConfig, args: argparse.Namespace) -> _Output:
    trace = simulate(run.adc, run.signal, run.t_end)
    report = measure(trace, run.power)
    files = {"trace.json": trace.to_json() + "\n", "power.json": report.to_json() + "\n"}
    summary = (
        f"events={report.n_cross} off_fraction={report.off_fraction:.6f} "
        f"p_avg={report.p_avg:.6e} W overload={str(trace.overload).lower()}\n"
    )
    return files, summary, trace.overload


def _cmd_sweep(run: RunConfig, args: argparse.Namespace) -> _Output:
    if not isinstance(run.signal, Sine):
        raise ConfigFileError("sweeps require signal.type = sine", key="signal.type")
    if not 0 < args.periods < math.inf:
        raise ConfigFileError("--periods must be a positive number")
    grid = _parse_grid(args.grid)
    if not all(x > 0 for x in grid):
        raise ConfigFileError(f"bad grid spec {args.grid!r}: values must be positive")
    result = sweep(
        args.kind,
        grid,
        config=run.adc,
        signal=run.signal,
        params=run.power,
        seed=run.seed,
        periods=args.periods,
    )
    files = {
        f"sweep_{args.kind}.csv": result.to_csv(),
        f"sweep_{args.kind}.meta.json": _json_text(result.meta),
    }
    n_over = sum(1 for r in result.rows if r.overload)
    return files, f"{len(result.rows)} points, {n_over} overloaded\n", n_over > 0


def _format_clock(value: float) -> str:
    return f"{value:g}".replace("+", "").replace(".", "_")


def _cmd_boundary(run: RunConfig, args: argparse.Namespace) -> _Output:
    clocks = {}  # file name -> (clock as given, clock in Hz)
    for part in args.clocks.split(","):
        if part.strip():
            try:
                clk = parse_number(part)
            except ValueError as exc:
                raise ConfigFileError(f"bad clock list: {exc}") from exc
            if clk <= 0:
                raise ConfigFileError(f"bad clock list: {part.strip()!r} must be positive")
            name = f"boundary_{_format_clock(clk)}.csv"
            if name in clocks:
                raise ConfigFileError(
                    f"bad clock list: {clocks[name][0]!r} and {part.strip()!r} both name {name}"
                )
            clocks[name] = (part.strip(), clk)
    if not clocks:
        raise ConfigFileError("at least one clock frequency is required")
    a_limit = run.adc.level_count * run.adc.delta / 2.0
    fixed_grid = _parse_grid(args.grid) if args.grid else None
    if fixed_grid and not (
        fixed_grid[0] > 0 and all(a < b for a, b in zip(fixed_grid, fixed_grid[1:]))
    ):
        raise ConfigFileError(
            f"bad grid spec {args.grid!r}: frequencies must be > 0 and ascending"
        )
    files = {}
    meta_curves = []
    for name, (_, clk) in clocks.items():
        grid = fixed_grid
        if grid is None:
            knee = max_frequency(a_limit, run.adc.delta, 1.0 / clk)
            grid = _grid(knee / 100.0, knee * 100.0, 61, True)
        curve = boundary_curve(clk, run.adc.delta, a_limit, grid)
        files[name] = "f_hz,a_max\n" + "".join(f"{f!r},{a!r}\n" for f, a in curve.points)
        meta_curves.append({"clock_freq": clk, "points": len(curve.points), "file": name})
    meta = {
        "a_limit": a_limit,
        "delta": run.adc.delta,
        "curves": meta_curves,
        "version": f"lcadc {__version__}",
    }
    files["boundary.meta.json"] = _json_text(meta)
    return files, "", False


def _cmd_table1(run: RunConfig, args: argparse.Namespace) -> _Output:
    if not isinstance(run.signal, Sine):
        raise ConfigFileError("table1 requires signal.type = sine", key="signal.type")
    # measure() pooled over the trials: every trial spans the same t_end
    t_off = energy = 0.0
    for trace in trial_traces(run.adc, run.signal, run.t_end, run.trials, run.seed):
        report = measure(trace, run.power)
        t_off += report.t_off
        energy += report.energy
    total_span = run.t_end * run.trials
    off_fraction = t_off / total_span
    p_avg = energy / total_span
    p_on = run.power.p_on
    p_off = run.power.p_off
    reduction = 1.0 - p_avg / p_on
    bandwidth = max_frequency(run.signal.amplitude, run.adc.delta, run.adc.t_clk)
    rows = {
        "p_on_watts": p_on,
        "p_off_watts": p_off,
        "p_avg_watts": p_avg,
        "reduction": reduction,
        "bandwidth_hz": bandwidth,
        "off_fraction": off_fraction,
        "clock_freq_hz": run.adc.clock_freq,
        "trials": run.trials,
        "seed": run.seed,
    }
    if (args.format or run.out_format) == "markdown":
        lines = ["| parameter | value |", "| --- | --- |"]
        lines.append(f"| on power (W) | {p_on:.4g} |")
        lines.append(f"| gated power (W) | {p_off:.4g} |")
        lines.append(f"| average power (W) | {p_avg:.4g} |")
        lines.append(f"| power reduction | {reduction * 100:.1f}% |")
        lines.append(f"| bandwidth at full input (Hz) | {bandwidth:.4g} |")
        lines.append(f"| measured off fraction | {off_fraction:.4f} |")
        text = "\n".join(lines) + "\n"
        name = "table1.md"
    else:
        text = _json_text(rows)
        name = "table1.json"
    return {name: text}, text, False


def _cmd_montecarlo(run: RunConfig, args: argparse.Namespace) -> _Output:
    trials = args.trials if args.trials is not None else run.trials
    if trials < 1:
        raise ConfigFileError("--trials must be >= 1")
    stats = monte_carlo_off_time(
        run.adc, run.signal, run.t_end, trials=trials, seed=run.seed
    )
    mean_str = "nan" if math.isnan(stats.mean) else f"{stats.mean:.6e}"
    summary = (
        f"trials={stats.trials} events={stats.n_events} mean_off={mean_str} s "
        f"(t_clk={stats.t_clk:.6e} s)\n"
    )
    return {"offtime.json": _json_text(stats.to_json_dict())}, summary, False


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration file")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--out", help="output directory (default from run.out)")
    overload = argparse.ArgumentParser(add_help=False)
    overload.add_argument(
        "--fail-on-overload",
        action="store_true",
        help="exit 3 if the simulation sets the overload flag",
    )

    parser = argparse.ArgumentParser(
        prog="lcadc",
        description="Behavioral simulator for a power-gated level-crossing ADC",
    )
    parser.add_argument("--version", action="version", version=f"lcadc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common, overload], help="run one conversion and report power")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[common, overload], help="sweep one parameter, emit CSV")
    p.add_argument("kind", choices=SWEEP_KINDS)
    p.add_argument("--grid", required=True, help="start:stop:count[:log]")
    p.add_argument("--periods", type=float, default=100.0, help="input periods per point")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("boundary", parents=[common], help="amplitude/frequency tracking limit per clock")
    p.add_argument("--clocks", required=True, help="comma-separated clock frequencies")
    p.add_argument("--grid", help="frequency grid start:stop:count[:log]")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("table1", parents=[common], help="operating-point power summary")
    p.add_argument("--format", choices=("json", "markdown"), help="override run.format")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("montecarlo", parents=[common], help="off-time statistics over random clock phases")
    p.add_argument("--trials", type=int, help="override run.trials")
    p.set_defaults(func=_cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_run_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigFileError("--seed must be >= 0")
            run = replace(run, seed=args.seed)
        if args.out is not None:
            run = replace(run, out=args.out)
        files, summary, overload = args.func(run, args)
        paths = [os.path.join(run.out, name) for name in files]
        os.makedirs(run.out or ".", exist_ok=True)
        for path, text in zip(paths, files.values()):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        print(summary, end="")
        print("wrote", *paths)
    except (ConfigFileError, ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelDomainError, FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if overload and getattr(args, "fail_on_overload", False):
        print("overload flag set", file=sys.stderr)
        return EXIT_OVERLOAD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
