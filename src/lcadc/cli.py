"""Command-line front end.

Commands: simulate, sweep, boundary, table1, montecarlo.  Exit codes: 0 ok,
2 configuration error, 3 overload with --fail-on-overload, 4 internal numeric
failure.  All randomized commands are reproducible from --seed: identical
invocations write byte-identical files.
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
    trial_phase,
)
from .engine import ConfigError, simulate
from .power import ModelDomainError, measure
from .runconfig import ConfigFileError, RunConfig, load_run_config, parse_number
from .signals import Sine

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERLOAD = 3
EXIT_NUMERIC = 4


class _OverloadFailure(Exception):
    pass


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
    log = False
    if len(fields) == 4:
        if fields[3] != "log":
            raise ConfigFileError(f"bad grid spec {spec!r}: trailing field must be 'log'")
        log = True
    if count < 1:
        raise ConfigFileError(f"bad grid spec {spec!r}: count must be >= 1")
    if count == 1:
        return [start]
    if log:
        if start <= 0 or stop <= 0:
            raise ConfigFileError(f"bad grid spec {spec!r}: log grids need positive bounds")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio**i for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load(args: argparse.Namespace) -> RunConfig:
    run = load_run_config(args.config)
    if args.seed is not None:
        run = replace(run, seed=args.seed)
    if args.out is not None:
        run = replace(run, out=args.out)
    return run


def _cmd_simulate(args: argparse.Namespace) -> int:
    run = _load(args)
    trace = simulate(run.adc, run.signal, run.t_end)
    report = measure(trace, run.power)
    trace_path = os.path.join(run.out, "trace.json")
    power_path = os.path.join(run.out, "power.json")
    _write(trace_path, trace.to_json() + "\n")
    _write(power_path, report.to_json() + "\n")
    print(
        f"events={report.n_cross} off_fraction={report.off_fraction:.6f} "
        f"p_avg={report.p_avg:.6e} W overload={str(trace.overload).lower()}"
    )
    print(f"wrote {trace_path} {power_path}")
    if trace.overload and args.fail_on_overload:
        raise _OverloadFailure
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    run = _load(args)
    if not isinstance(run.signal, Sine):
        raise ConfigFileError("sweeps require signal.type = sine", key="signal.type")
    grid = _parse_grid(args.grid)
    result = sweep(
        args.kind,
        grid,
        config=run.adc,
        signal=run.signal,
        params=run.power,
        seed=run.seed,
        periods=args.periods,
    )
    csv_path = os.path.join(run.out, f"sweep_{args.kind}.csv")
    meta_path = os.path.join(run.out, f"sweep_{args.kind}.meta.json")
    _write(csv_path, result.to_csv())
    _write(meta_path, _json_text(result.meta))
    n_over = sum(1 for r in result.rows if r.overload)
    print(f"{len(result.rows)} points, {n_over} overloaded")
    print(f"wrote {csv_path} {meta_path}")
    if n_over and args.fail_on_overload:
        raise _OverloadFailure
    return EXIT_OK


def _format_clock(value: float) -> str:
    return f"{value:g}".replace("+", "").replace(".", "_")


def _cmd_boundary(args: argparse.Namespace) -> int:
    run = _load(args)
    clocks = []
    for part in args.clocks.split(","):
        if part.strip():
            try:
                clocks.append(parse_number(part))
            except ValueError as exc:
                raise ConfigFileError(f"bad clock list: {exc}") from exc
    if not clocks:
        raise ConfigFileError("at least one clock frequency is required")
    a_limit = run.adc.level_count * run.adc.delta / 2.0
    fixed_grid = _parse_grid(args.grid) if args.grid else None
    written = []
    meta_curves = []
    for clk in clocks:
        grid = fixed_grid
        if grid is None:
            knee = max_frequency(a_limit, run.adc.delta, 1.0 / clk)
            grid = _parse_grid(f"{knee / 100.0}:{knee * 100.0}:61:log")
        curve = boundary_curve(clk, run.adc.delta, a_limit, grid)
        lines = ["f_hz,a_max"]
        lines.extend(f"{f!r},{a!r}" for f, a in curve.points)
        path = os.path.join(run.out, f"boundary_{_format_clock(clk)}.csv")
        _write(path, "\n".join(lines) + "\n")
        written.append(path)
        meta_curves.append({"clock_freq": clk, "points": len(curve.points), "file": os.path.basename(path)})
    meta = {
        "a_limit": a_limit,
        "delta": run.adc.delta,
        "curves": meta_curves,
        "version": f"lcadc {__version__}",
    }
    meta_path = os.path.join(run.out, "boundary.meta.json")
    _write(meta_path, _json_text(meta))
    print(f"wrote {' '.join(written)} {meta_path}")
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    run = _load(args)
    if not isinstance(run.signal, Sine):
        raise ConfigFileError("table1 requires signal.type = sine", key="signal.type")
    # measure() pooled over the trials: every trial spans the same t_end
    t_off = energy = 0.0
    for i in range(run.trials):
        phase = trial_phase(run.seed, i, run.adc.t_clk)
        trace = simulate(replace(run.adc, clock_phase=phase), run.signal, run.t_end)
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
        path = os.path.join(run.out, "table1.md")
    else:
        text = _json_text(rows)
        path = os.path.join(run.out, "table1.json")
    _write(path, text)
    print(text, end="")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    run = _load(args)
    trials = args.trials if args.trials is not None else run.trials
    stats = monte_carlo_off_time(
        run.adc, run.signal, run.t_end, trials=trials, seed=run.seed
    )
    path = os.path.join(run.out, "offtime.json")
    _write(path, _json_text(stats.to_json_dict()))
    mean_str = "nan" if math.isnan(stats.mean) else f"{stats.mean:.6e}"
    print(
        f"trials={stats.trials} events={stats.n_events} mean_off={mean_str} s "
        f"(t_clk={stats.t_clk:.6e} s)"
    )
    print(f"wrote {path}")
    return EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _OverloadFailure:
        print("overload flag set", file=sys.stderr)
        return EXIT_OVERLOAD
    except (ConfigFileError, ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelDomainError, FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
