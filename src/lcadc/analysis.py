"""Closed-form design curves and Monte Carlo / sweep studies.

The tracking constraint for a sine input is A * f <= delta / (4*pi*t_clk):
the input's peak slew must not outrun a window update that can take up to two
clock periods.  Everything here is either a rearrangement of that constraint
or a seeded batch of simulations against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import AdcConfig, Trace, simulate
from .power import (
    ModelDomainError,
    PowerParams,
    analytic_power,
    crossing_rate_sine,
    measure,
    mean_off_time,
)
from .signals import SignalSpec, Sine

SWEEP_KINDS = ("clock", "frequency", "amplitude")

# histogram bins of the off-duration support [T, 2T) in OffTimeStats
OFF_TIME_BINS = 10

SWEEP_COLUMNS = (
    "x",
    "off_fraction_sim",
    "off_fraction_analytic",
    "p_avg_sim",
    "p_avg_analytic",
    "overload",
)


def max_frequency(amplitude: float, delta: float, t_clk: float) -> float:
    """Highest sine frequency a given amplitude can track: delta/(4*pi*t_clk*A).

    The worst-case update loop spans two clock periods, so the peak slew
    2*pi*f*A must stay below delta / (2*t_clk).
    """
    if amplitude <= 0 or delta <= 0 or t_clk <= 0:
        raise ValueError("amplitude, delta and t_clk must be > 0")
    return delta / (4.0 * math.pi * t_clk * amplitude)


def optimal_clock(amplitude: float, f_in: float, delta: float) -> float:
    """Slowest clock that still tracks a sine, maximizing comparator off time:
    4*pi*f_in*A/delta."""
    if amplitude <= 0 or f_in <= 0 or delta <= 0:
        raise ValueError("amplitude, f_in and delta must be > 0")
    return 4.0 * math.pi * f_in * amplitude / delta


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled (frequency, max trackable amplitude) curve for one clock.

    Flat at a_limit below the knee, then the hyperbola A*f = delta/(4*pi*t_clk).
    """

    clock_freq: float
    points: tuple[tuple[float, float], ...]
    a_limit: float


def boundary_curve(
    clock_freq: float,
    delta: float,
    a_limit: float,
    f_grid: list[float] | tuple[float, ...],
) -> BoundaryCurve:
    """Evaluate min(a_limit, delta/(4*pi*t_clk*f)) over an ascending grid."""
    if clock_freq <= 0 or delta <= 0 or a_limit <= 0:
        raise ValueError("clock_freq, delta and a_limit must be > 0")
    grid = tuple(float(f) for f in f_grid)
    if not grid:
        raise ValueError("f_grid must be non-empty")
    if any(f <= 0 for f in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("f_grid must be positive and strictly ascending")
    t_clk = 1.0 / clock_freq
    points = tuple((f, min(a_limit, max_frequency(f, delta, t_clk))) for f in grid)
    return BoundaryCurve(clock_freq=clock_freq, points=points, a_limit=a_limit)


def off_fraction_analytic(
    amplitude: float, f_in: float, delta: float, t_clk: float
) -> float:
    """Predicted gated-off fraction: (4*A*f/delta) * (1.5*t_clk).

    Linear in f_in at fixed clock.  At the tracking limit it evaluates to
    3/(2*pi) ~ 0.477; beyond it the prediction exceeds 1 eventually, and any
    operating point past the limit raises ModelDomainError.
    """
    if f_in > max_frequency(amplitude, delta, t_clk) * (1.0 + 1e-12):
        raise ModelDomainError(
            f"f_in={f_in} beyond the tracking limit for amplitude {amplitude}"
        )
    return crossing_rate_sine(amplitude, f_in, delta) * mean_off_time(t_clk)


@dataclass(frozen=True)
class OffTimeStats:
    """Aggregated per-event off durations across Monte Carlo trials.

    The histogram spans [t_clk, 2*t_clk) shifted by the settle time, which is
    the support of the off duration for isolated events.
    """

    trials: int
    n_events: int
    mean: float
    std: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    t_clk: float

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n_events": self.n_events,
            "mean": self.mean,
            "std": self.std,
            "bin_edges": list(self.bin_edges),
            "counts": list(self.counts),
            "t_clk": self.t_clk,
        }


def trial_phase(seed: int, index: int, t_clk: float) -> float:
    """Clock phase of trial ``index``, uniform on [0, t_clk).

    Each trial draws from its own stream seeded with (seed, index), so a
    trial's phase does not depend on how many trials run or in what order.
    """
    return float(np.random.default_rng([seed, index]).uniform(0.0, t_clk))


def monte_carlo_off_time(
    config: AdcConfig,
    spec: SignalSpec,
    t_end: float,
    trials: int,
    seed: int,
) -> OffTimeStats:
    """Simulate ``trials`` times at each trial's ``trial_phase`` and aggregate
    every event's off duration into an OFF_TIME_BINS-bin histogram."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t_clk = config.t_clk
    offs: list[float] = []
    for i in range(trials):
        phase = trial_phase(seed, i, t_clk)
        trace = simulate(replace(config, clock_phase=phase), spec, t_end)
        offs.extend(ev.off_duration for ev in trace.events)
    lo = t_clk + config.settle_time
    hi = 2.0 * t_clk + config.settle_time
    if offs:
        arr = np.asarray(offs)
        mean = float(arr.mean())
        std = float(arr.std())
        counts, edges = np.histogram(arr, bins=OFF_TIME_BINS, range=(lo, hi))
    else:
        mean = math.nan
        std = math.nan
        counts = np.zeros(OFF_TIME_BINS, dtype=int)
        edges = np.linspace(lo, hi, OFF_TIME_BINS + 1)
    return OffTimeStats(
        trials=trials,
        n_events=len(offs),
        mean=mean,
        std=std,
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        t_clk=t_clk,
    )


@dataclass(frozen=True)
class SweepRow:
    x: float
    off_fraction_sim: float
    off_fraction_analytic: float | None
    p_avg_sim: float
    p_avg_analytic: float | None
    overload: bool


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows plus ``meta``: the kind, seed, grid and inputs that made them."""

    rows: tuple[SweepRow, ...]
    meta: dict

    def to_csv(self) -> str:
        lines = [",".join(SWEEP_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        repr(r.x),
                        repr(r.off_fraction_sim),
                        "" if r.off_fraction_analytic is None else repr(r.off_fraction_analytic),
                        repr(r.p_avg_sim),
                        "" if r.p_avg_analytic is None else repr(r.p_avg_analytic),
                        "true" if r.overload else "false",
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def sweep(
    kind: str,
    grid: list[float] | tuple[float, ...],
    *,
    config: AdcConfig,
    signal: Sine,
    params: PowerParams,
    seed: int,
    periods: float = 100.0,
) -> SweepResult:
    """One simulate+measure per grid point at that point's ``trial_phase``.

    kind selects the swept quantity: the clock frequency, the sine frequency
    or the sine amplitude; the other two stay at their configured values.
    The span per point is ``periods`` input periods.  Points outside the
    analytic model's domain (past the tracking limit) carry empty analytic
    columns.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"kind must be one of {SWEEP_KINDS}")
    if not isinstance(signal, Sine):
        raise TypeError("sweeps operate on a sine input")
    grid = tuple(float(x) for x in grid)
    if not grid:
        raise ValueError("grid must be non-empty")

    rows: list[SweepRow] = []
    for i, x in enumerate(grid):
        cfg = config
        sine = signal
        if kind == "clock":
            cfg = replace(config, clock_freq=x, clock_phase=0.0)
        elif kind == "frequency":
            sine = replace(signal, frequency=x)
        else:
            sine = replace(signal, amplitude=x)
        cfg = replace(cfg, clock_phase=trial_phase(seed, i, cfg.t_clk))
        trace = simulate(cfg, sine, periods / sine.frequency)
        report = measure(trace, params)
        try:
            off_an = off_fraction_analytic(
                sine.amplitude, sine.frequency, cfg.delta, cfg.t_clk
            )
            p_an = analytic_power(
                params,
                crossing_rate_sine(sine.amplitude, sine.frequency, cfg.delta),
                cfg.t_clk,
            )
        except ModelDomainError:
            off_an = None
            p_an = None
        rows.append(
            SweepRow(
                x=x,
                off_fraction_sim=report.off_fraction,
                off_fraction_analytic=off_an,
                p_avg_sim=report.p_avg,
                p_avg_analytic=p_an,
                overload=trace.overload,
            )
        )

    from . import __version__

    meta = {
        "kind": kind,
        "seed": seed,
        "grid": list(grid),
        "periods": periods,
        "config": config.to_json_dict(),
        "signal": {
            "type": "sine",
            "amplitude": signal.amplitude,
            "frequency": signal.frequency,
            "phase": signal.phase,
            "offset": signal.offset,
        },
        "power": {
            "p_on": params.p_on,
            "p_off": params.p_off,
            "e_event": params.e_event,
        },
        "version": f"lcadc {__version__}",
    }
    return SweepResult(rows=tuple(rows), meta=meta)
