"""Event-driven behavioral model of a power-gated level-crossing ADC.

The converter holds a one-step analog window around the current code.  When
the input traverses a window boundary it raises a request (REQ), the
comparators are gated off, and the acknowledge (ACK) arrives on the second
rising clock edge strictly after the request.  At ACK the code moves one step
toward the crossing, the window shifts with it, and the comparators power
back up after the configured settle time.  If the input has already left the
shifted window by power-up, a catch-up request fires immediately.

All times are double-precision seconds.  The model is deterministic: the same
configuration, waveform and span always produce the same trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .signals import (
    Direction,
    SignalSpec,
    evaluate,
    next_window_entry,
    next_window_exit,
)

# Clock edges landing within this of a request count as simultaneous and are
# skipped by the strictly-after rule; doubles amply resolve it for the
# microsecond-scale periods this model targets.
EDGE_TOLERANCE = 1e-12


class ConfigError(ValueError):
    """Converter configuration rejected."""


@dataclass(frozen=True)
class AdcConfig:
    """Static converter parameters.

    delta        quantization step (volts per level)
    level_count  number of quantization intervals
    v_min        bottom of the conversion range (volts)
    clock_freq   synchronizer clock (hertz)
    clock_phase  time of the first rising edge, in [0, 1/clock_freq)
    settle_time  delay from ACK to comparators active (seconds)
    """

    delta: float
    level_count: int
    v_min: float
    clock_freq: float
    clock_phase: float = 0.0
    settle_time: float = 0.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigError("delta must be > 0")
        if self.level_count < 2:
            raise ConfigError("level_count must be >= 2")
        if self.clock_freq <= 0:
            raise ConfigError("clock_freq must be > 0")
        if not 0 <= self.clock_phase < 1.0 / self.clock_freq:
            raise ConfigError("clock_phase must lie in [0, 1/clock_freq)")
        if self.settle_time < 0:
            raise ConfigError("settle_time must be >= 0")

    @property
    def t_clk(self) -> float:
        return 1.0 / self.clock_freq

    @property
    def input_limit(self) -> float:
        """Comparator input ceiling: top of the conversion range."""
        return self.v_min + self.level_count * self.delta

    def window(self, code: int) -> tuple[float, float]:
        lo = self.v_min + code * self.delta
        return lo, lo + self.delta

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "level_count": self.level_count,
            "v_min": self.v_min,
            "clock_freq": self.clock_freq,
            "clock_phase": self.clock_phase,
            "settle_time": self.settle_time,
        }


@dataclass(frozen=True)
class CrossingEvent:
    """One served level crossing.

    The comparators are off during [t_req, t_on); the code moves from
    code_before to code_after at t_ack.  ``immediate`` marks catch-up
    requests raised at power-up because the input was already outside the
    freshly shifted window.
    """

    t_req: float
    direction: Direction
    code_before: int
    code_after: int
    t_ack: float
    t_on: float
    immediate: bool = False

    @property
    def off_duration(self) -> float:
        return self.t_on - self.t_req

    def to_json_dict(self) -> dict:
        return {
            "t_req": self.t_req,
            "dir": self.direction.value,
            "code_before": self.code_before,
            "code_after": self.code_after,
            "t_ack": self.t_ack,
            "t_on": self.t_on,
            "immediate": self.immediate,
        }


@dataclass(frozen=True)
class Trace:
    """Simulation result: served crossings plus range/overrun annotations.

    saturation lists [start, end] intervals spent pinned at the bottom or top
    code with the comparators on.  overload is set the first time a power-up
    finds the input a full level past the boundary it crossed, i.e. the
    catch-up continues in the crossing direction and tracking has fallen more
    than one level behind.
    """

    config: AdcConfig
    initial_code: int
    events: tuple[CrossingEvent, ...]
    saturation: tuple[tuple[float, float], ...]
    overload: bool
    overload_time: float | None
    t_end: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "initial_code": self.initial_code,
            "events": [ev.to_json_dict() for ev in self.events],
            "saturation": [list(iv) for iv in self.saturation],
            "overload": self.overload,
            "overload_time": self.overload_time,
            "t_end": self.t_end,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def ack_time(t_req: float, clock_freq: float, clock_phase: float = 0.0) -> float:
    """Time of the second rising clock edge strictly after ``t_req``.

    Edges occur at clock_phase + k/clock_freq for k = 0, 1, ...; an edge
    within EDGE_TOLERANCE of the request counts as simultaneous and does not
    qualify, so a request landing exactly on an edge waits the full two
    periods.  Consequently ack_time - t_req lies in (T, 2T] with 2T attained
    only for on-edge requests.
    """
    if t_req < 0:
        raise ValueError("t_req must be >= 0")
    t_clk = 1.0 / clock_freq
    k = math.floor((t_req - clock_phase) / t_clk) - 1
    while clock_phase + (k + 1) * t_clk <= t_req + EDGE_TOLERANCE:
        k += 1
    first_after = max(k + 1, 0)
    return clock_phase + (first_after + 1) * t_clk


def initial_code(config: AdcConfig, spec: SignalSpec) -> int:
    """Code at t=0, floor-quantized from the input value.

    The input must start inside [v_min, input_limit]; values exactly at the
    ceiling land in the top code.
    """
    v0 = evaluate(spec, 0.0)
    if not config.v_min <= v0 <= config.input_limit:
        raise ConfigError(
            f"input {v0} V at t=0 outside conversion range "
            f"[{config.v_min}, {config.input_limit}] V"
        )
    code = int(math.floor((v0 - config.v_min) / config.delta))
    return min(max(code, 0), config.level_count - 1)


def simulate(config: AdcConfig, spec: SignalSpec, t_end: float) -> Trace:
    """Run the conversion loop over [0, t_end] and record every event.

    Loop per crossing: locate the next window exit, gate the comparators off
    at the request, shift the code and window at the ACK edge, power back up
    after settle_time, then either resume tracking or serve a pending
    catch-up crossing.  A code step that would leave the range instead pins
    the window at the rail with the comparators on until the signal returns
    (recorded as a saturation interval).
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    code = start_code = initial_code(config, spec)
    lo, hi = config.window(code)
    top = config.level_count - 1

    events: list[CrossingEvent] = []
    saturation: list[tuple[float, float]] = []
    overload = False
    overload_time: float | None = None
    now = 0.0

    while now < t_end:
        found = next_window_exit(spec, now, lo, hi, t_end)
        if found is None:
            break
        t_req, direction = found
        immediate = False
        while True:
            step = 1 if direction is Direction.UP else -1
            if not 0 <= code + step <= top:
                # range rail: window pinned, comparators stay on; a rail
                # crossing at t_end itself leaves nothing to search
                t_back = None
                if t_req < t_end:
                    t_back = next_window_entry(spec, t_req, lo, hi, t_end)
                now = t_end if t_back is None else t_back
                saturation.append((t_req, now))
                break
            t_ack = ack_time(t_req, config.clock_freq, config.clock_phase)
            t_on = t_ack + config.settle_time
            events.append(
                CrossingEvent(
                    t_req=t_req,
                    direction=direction,
                    code_before=code,
                    code_after=code + step,
                    t_ack=t_ack,
                    t_on=t_on,
                    immediate=immediate,
                )
            )
            code += step
            lo, hi = config.window(code)
            if t_on >= t_end:
                now = t_on
                break
            v = evaluate(spec, t_on)
            if lo <= v <= hi:
                now = t_on
                break
            pending = Direction.UP if v > hi else Direction.DOWN
            if pending is direction and overload_time is None:
                # the input cleared the shifted window in the crossing
                # direction: more than one level lost during one loop
                overload = True
                overload_time = t_on
            t_req = t_on
            direction = pending
            immediate = True

    return Trace(
        config=config,
        initial_code=start_code,
        events=tuple(events),
        saturation=tuple(saturation),
        overload=overload,
        overload_time=overload_time,
        t_end=t_end,
    )


def reconstruct(trace: Trace) -> list[tuple[float, float]]:
    """Piecewise-constant output at the mid-level of each held code.

    Returns (time, volts) pairs; the value switches at each event's ACK.
    """
    cfg = trace.config
    mid = cfg.v_min + (trace.initial_code + 0.5) * cfg.delta
    steps = [(0.0, mid)]
    for ev in trace.events:
        steps.append((ev.t_ack, cfg.v_min + (ev.code_after + 0.5) * cfg.delta))
    return steps


def tracking_error(
    trace: Trace, spec: SignalSpec, grid_points: int = 10_000
) -> tuple[float, float]:
    """(max absolute, rms) error between the reconstruction and the input,
    sampled on a uniform grid over the simulated span."""
    steps = reconstruct(trace)
    times = [t for t, _ in steps]
    values = [v for _, v in steps]
    n = max(grid_points, 2)
    dt = trace.t_end / (n - 1)
    j = 0
    max_err = 0.0
    sq_sum = 0.0
    for i in range(n):
        t = i * dt
        while j + 1 < len(times) and times[j + 1] <= t:
            j += 1
        err = evaluate(spec, t) - values[j]
        if abs(err) > max_err:
            max_err = abs(err)
        sq_sum += err * err
    return max_err, math.sqrt(sq_sum / n)
