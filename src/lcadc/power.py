"""Energy bookkeeping over traces and the analytic average-power model.

With the comparators drawing p_on while active and p_off while gated, the
average power over a span follows directly from the fraction of time spent
gated off.  The analytic model replaces the measured off time with
crossing_rate * mean_off_time, where the mean off time per served crossing
is 1.5 clock periods (requests land uniformly within a period and complete
on the second following edge).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .engine import Trace

# Per-event gating overhead that puts the mean-savings breakeven at ~201 kHz
# for the default on/off powers; available as a preset for breakeven studies.
EVENT_ENERGY_BREAKEVEN_201K = 17.91e-12


class ModelDomainError(ValueError):
    """Inputs outside the validity domain of the analytic model."""


@dataclass(frozen=True)
class PowerParams:
    """p_on: comparators powered; p_off: gated (leakage); e_event: lumped
    per-event overhead of gating off/on and propagating the request."""

    p_on: float = 2.6e-6
    p_off: float = 0.2e-6
    e_event: float = 0.0

    def __post_init__(self) -> None:
        # each bound is checked as a range, which a NaN fails too
        if not 0 <= self.p_off < self.p_on < math.inf:
            raise ValueError("require finite p_on > p_off >= 0")
        if not 0 <= self.e_event < math.inf:
            raise ValueError("e_event must be finite and >= 0")


@dataclass(frozen=True)
class PowerReport:
    """Integrated on/off times and the resulting average power.

    p_avg_analytic applies the analytic model at this trace's own crossing
    rate; it is None when that rate is outside the model's validity domain.
    reduction is relative to running the comparators continuously.
    """

    t_total: float
    t_on: float
    t_off: float
    n_cross: int
    off_fraction: float
    energy: float
    p_avg: float
    p_avg_analytic: float | None
    reduction: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def mean_off_time(t_clk: float) -> float:
    """Mean gated-off duration per served crossing: 1.5 clock periods."""
    return 1.5 * t_clk


def measure(trace: Trace, params: PowerParams) -> PowerReport:
    """Integrate a trace's gating intervals into a PowerReport.

    Off intervals are clipped to the simulated span.  Energy is
    p_on*t_on + p_off*t_off + n_cross*e_event.
    """
    if trace.t_end <= 0:
        raise ValueError("trace span must be positive")
    t_total = trace.t_end
    off = np.minimum(trace.t_on, t_total) - np.minimum(trace.t_req, t_total)
    # accumulate adds left to right like a += loop; a pairwise sum would
    # round differently
    t_off = float(np.add.accumulate(off)[-1]) if len(off) else 0.0
    t_on = t_total - t_off
    n_cross = len(off)
    energy = params.p_on * t_on + params.p_off * t_off + n_cross * params.e_event
    p_avg = energy / t_total
    rate = n_cross / t_total
    try:
        analytic = analytic_power(params, rate, trace.config.t_clk)
    except ModelDomainError:
        analytic = None
    return PowerReport(
        t_total=t_total,
        t_on=t_on,
        t_off=t_off,
        n_cross=n_cross,
        off_fraction=t_off / t_total,
        energy=energy,
        p_avg=p_avg,
        p_avg_analytic=analytic,
        reduction=1.0 - p_avg / params.p_on,
    )


def analytic_power(params: PowerParams, crossing_rate: float, t_clk: float) -> float:
    """Average power predicted from a crossing rate (events/second).

    Each crossing gates the comparators off for 1.5*t_clk on average, so the
    off duty is crossing_rate * 1.5 * t_clk; a duty above 1 means the off
    windows no longer fit in the span and raises ModelDomainError.
    """
    if crossing_rate < 0:
        raise ValueError("crossing_rate must be >= 0")
    duty_off = crossing_rate * mean_off_time(t_clk)
    if duty_off > 1.0:
        raise ModelDomainError(
            f"off duty {duty_off:.4f} > 1: crossing rate beyond the model's domain"
        )
    return (
        params.p_on * (1.0 - duty_off)
        + params.p_off * duty_off
        + crossing_rate * params.e_event
    )


def crossing_rate_sine(amplitude: float, frequency: float, delta: float) -> float:
    """Continuous approximation of a sine's level-crossing rate: 4*A*f/delta.

    Per period the sine sweeps 2*A/delta levels up and the same down.  The
    exact count depends on how the level grid aligns with the waveform (e.g.
    62/period instead of 64 when the peaks graze the outermost levels), so
    simulation is the reference for exact counts.
    """
    if amplitude <= 0 or frequency <= 0 or delta <= 0:
        raise ValueError("amplitude, frequency and delta must be > 0")
    return 4.0 * amplitude * frequency / delta


def breakeven_clock(params: PowerParams, off_time: str = "mean") -> float:
    """Clock frequency above which per-event overhead cancels gating savings.

    With the mean off time 1.5/f_clk, savings per event are
    (p_on - p_off) * 1.5 / f_clk; equating to e_event gives
    f_clk = 1.5 * (p_on - p_off) / e_event.  off_time="min" uses the
    guaranteed one-period off window instead of the mean.
    """
    if off_time not in ("mean", "min"):
        raise ValueError('off_time must be "mean" or "min"')
    if params.e_event == 0:
        raise ModelDomainError(
            "no breakeven: with zero per-event overhead gating always saves power"
        )
    factor = 1.5 if off_time == "mean" else 1.0
    return factor * (params.p_on - params.p_off) / params.e_event
