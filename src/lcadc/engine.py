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

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, make_dataclass, replace
from typing import NamedTuple

import numpy as np

from .signals import (
    Direction,
    SignalSpec,
    Sine,
    _evaluate_array,
    _inside,
    _sine_chain,
    evaluate,
    next_window_entry,
    next_window_exit,
)

# Clock edges landing within this of a request count as simultaneous and are
# skipped by the strictly-after rule; doubles amply resolve it for the
# microsecond-scale periods this model targets.
EDGE_TOLERANCE = 1e-12
_SEPARATORS = (",", ":")
_DIRECTIONS = {1: Direction.UP, -1: Direction.DOWN}
# dtypes of the t_req, t_ack and code_after columns
_COLUMN_TYPES = (np.float64, np.float64, np.int64)


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
        # each bound is checked as a range, which a NaN fails too
        if not 0 < self.delta < math.inf:
            raise ConfigError("delta must be finite and > 0")
        # the range first, so int() never sees an infinity or a NaN
        if not 2 <= self.level_count < math.inf or self.level_count != int(self.level_count):
            raise ConfigError("level_count must be a finite integer >= 2")
        # an integral float such as 32.0 is kept as the int it stands for
        object.__setattr__(self, "level_count", int(self.level_count))
        if not math.isfinite(self.v_min):
            raise ConfigError("v_min must be finite")
        if not 0 < self.clock_freq < math.inf:
            raise ConfigError("clock_freq must be finite and > 0")
        if not 0 <= self.clock_phase < 1.0 / self.clock_freq:
            raise ConfigError("clock_phase must lie in [0, 1/clock_freq)")
        if not 0 <= self.settle_time < math.inf:
            raise ConfigError("settle_time must be finite and >= 0")

    @property
    def t_clk(self) -> float:
        return 1.0 / self.clock_freq

    @property
    def input_limit(self) -> float:
        """Comparator input ceiling: top of the conversion range."""
        return self.level(self.level_count)

    def level(self, code):
        """Level ``code``, the bottom of its window; elementwise on arrays."""
        return self.v_min + code * self.delta

    def window(self, code: int) -> tuple[float, float]:
        # both bounds from the grid, so adjacent windows share a boundary
        return self.level(code), self.level(code + 1)

    def to_json_dict(self) -> dict:
        return asdict(self)


class CrossingEvent(NamedTuple):
    """One served level crossing, as a read-only row of a Trace.

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
        doc = self._asdict()
        doc["dir"] = doc.pop("direction").value
        return doc


# the same fields declared as dataclass fields, so dataclasses.fields, asdict
# and replace still work on an event
CrossingEvent.__dataclass_fields__ = make_dataclass(
    "CrossingEvent",
    [
        (name, kind, field(default=CrossingEvent._field_defaults.get(name, MISSING)))
        for name, kind in CrossingEvent.__annotations__.items()
    ],
).__dataclass_fields__


@dataclass(frozen=True, eq=False)
class Trace:
    """Simulation result: served crossings as columns, plus range/overrun
    annotations.

    Served crossings are rows of three equal-length numpy columns, in the
    order they were served, read-only once the trace is built:

    ==========  =======  ===================================================
    t_req       float64  request: the comparators gate off
    t_ack       float64  ACK edge: the code steps
    code_after  int64    code held from t_ack on
    ==========  =======  ===================================================

    ``t_on`` (the power-up, t_ack + settle_time), ``dir`` (the code step,
    +1 up or -1 down) and ``immediate`` (a catch-up request, raised at the
    previous t_on exactly; a searched request lies strictly after the
    power-up its search started from) are read-only columns derived from
    them on first use.  ``events`` shows the rows as CrossingEvent tuples.

    saturation lists [start, end] intervals spent pinned at the bottom or top
    code with the comparators on.  overload_time is the first power-up that
    finds the input a full level past the boundary it crossed, i.e. the
    catch-up continues in the crossing direction and tracking has fallen more
    than one level behind; it is None, and ``overload`` False, if none does.
    """

    config: AdcConfig
    initial_code: int
    t_req: np.ndarray
    t_ack: np.ndarray
    code_after: np.ndarray
    saturation: tuple[tuple[float, float], ...]
    overload_time: float | None
    t_end: float

    def __post_init__(self) -> None:
        for column in (self.t_req, self.t_ack, self.code_after):
            column.flags.writeable = False

    @property
    def overload(self) -> bool:
        return self.overload_time is not None

    @functools.cached_property
    def t_on(self) -> np.ndarray:
        return _read_only(self.t_ack + self.config.settle_time)

    @functools.cached_property
    def dir(self) -> np.ndarray:
        return _read_only(np.diff(self.code_after, prepend=self.initial_code).astype(np.int8))

    @functools.cached_property
    def immediate(self) -> np.ndarray:
        immediate = np.zeros(len(self.t_req), dtype=bool)
        immediate[1:] = self.t_req[1:] == self.t_on[:-1]
        return _read_only(immediate)

    @functools.cached_property
    def events(self) -> tuple[CrossingEvent, ...]:
        rows = zip(
            self.t_req.tolist(),
            map(_DIRECTIONS.__getitem__, self.dir.tolist()),
            (self.code_after - self.dir).tolist(),
            self.code_after.tolist(),
            self.t_ack.tolist(),
            self.t_on.tolist(),
            self.immediate.tolist(),
        )
        # tuple.__new__ takes each row as it is, without a call into Python
        return tuple(map(functools.partial(tuple.__new__, CrossingEvent), rows))

    def to_json_dict(self) -> dict:
        return self._document([ev.to_json_dict() for ev in self.events])

    def _document(self, events: list) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "initial_code": self.initial_code,
            "events": events,
            "saturation": [list(iv) for iv in self.saturation],
            "overload": self.overload,
            "overload_time": self.overload_time,
            "t_end": self.t_end,
        }

    def to_json(self) -> str:
        """``to_json_dict`` as compact JSON with sorted keys, rendering the
        events straight from the columns.  Floats print as ``repr``, as in
        ``json.dumps``.  The rest is dumped with an empty events list; only
        "config" sorts before "events", and it holds no such text, so the
        first '"events":[]' is the slot the events go in."""
        t_ack = list(map(repr, self.t_ack.tolist()))
        # with no settle time t_on is t_ack, and so is its text
        t_on = t_ack if self.config.settle_time == 0 else list(map(repr, self.t_on.tolist()))
        events = ",".join(
            f'{{"code_after":{code},"code_before":{code - step},"dir":"{_DIRECTIONS[step].value}",'
            f'"immediate":{"true" if immediate else "false"},"t_ack":{ack},"t_on":{on},"t_req":{req}}}'
            for code, step, immediate, ack, on, req in zip(
                self.code_after.tolist(),
                self.dir.tolist(),
                self.immediate.tolist(),
                t_ack,
                t_on,
                map(repr, self.t_req.tolist()),
            )
        )
        text = json.dumps(self._document([]), sort_keys=True, separators=_SEPARATORS)
        return text.replace('"events":[]', f'"events":[{events}]', 1)


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


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


def _ack_times(t_req: np.ndarray, clock_freq: float, clock_phase: float) -> np.ndarray:
    """``ack_time`` of every request in ``t_req``, by the same float
    operations, so each element equals the scalar result bit for bit."""
    t_clk = 1.0 / clock_freq
    k = np.floor((t_req - clock_phase) / t_clk) - 1.0
    limit = t_req + EDGE_TOLERANCE
    early = clock_phase + (k + 1.0) * t_clk <= limit
    while early.any():
        k += early
        early = clock_phase + (k + 1.0) * t_clk <= limit
    return clock_phase + (np.maximum(k + 1.0, 0.0) + 1.0) * t_clk


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
    top = config.level_count - 1
    code = min(max(code, 0), top)
    # the division can round an input a hair off a level across it; the
    # input must lie inside the window the loop starts from
    lo, hi = config.window(code)
    if v0 < lo and code > 0:
        code -= 1
    elif v0 > hi and code < top:
        code += 1
    return code


def simulate(config: AdcConfig, spec: SignalSpec, t_end: float) -> Trace:
    """Run the conversion loop over [0, t_end] and record every event.

    The returned trace holds what the loop decides per served crossing, the
    request, ACK and new code, as read-only columns; the power-up time,
    direction and catch-up flag are derived from them.

    Loop per crossing: locate the next window exit, gate the comparators off
    at the request, shift the code and window at the ACK edge, power back up
    after settle_time, then either resume tracking or serve a pending
    catch-up crossing.  A code step that would leave the range instead pins
    the window at the rail with the comparators on until the signal returns
    (recorded as a saturation interval).

    A sine input first takes the lockstep path.  Its window exits do not
    depend on the clock as long as each power-up finds the input inside the
    shifted window before its next exit.  So one request list, solved in
    closed form from t=0 with each search started at the previous request
    (``signals._sine_chain``), serves every run on the same input, level
    grid and span.  It ends at the first request whose next root comes
    within a clock period, which no run at that clock frequency serves
    past; the last list is cached per clock frequency, and a Monte Carlo
    run over clock phases solves it once.  A run computes the ACK times of the
    listed requests at once with a vectorized ``ack_time`` and certifies
    each served request: its power-up must lie before the request's
    ``limit``, the earliest root the search from the request tries, less a
    time tolerance, and must find the input inside the shifted window;
    values within 1e-9 of full scale of a boundary are rechecked with the
    scalar ``evaluate``.  The loop's own search from such a power-up returns
    exactly the next listed request, so the certified prefix is the loop's
    trace bit for bit, whichever runs came before.  The loop takes over
    after the first request that fails, from its code, power-up time and
    direction, and after the end of a list the arrays could not finish.
    Past the tracking limit a catch-up comes within a few events, so those
    runs fall back early.  Other waveforms run the loop from t=0.
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be finite and > 0")
    code = initial_code(config, spec)
    record = _Record()
    resume = (code, 0.0, None)
    if isinstance(spec, Sine):
        grid = replace(config, clock_phase=0.0, settle_time=0.0)
        resume = _lockstep(config, spec, record, code, _sine_requests(spec, grid, t_end))
    if resume is not None:
        _serve(config, spec, t_end, record, *resume)
    return record.trace(config, code, t_end)


class _Record:
    """A trace under construction: the certified prefix of a shared request
    sequence as columns, then event rows and annotations from the loop."""

    def __init__(self) -> None:
        # t_req, t_ack and code_after as arrays
        self.prefix: tuple[np.ndarray, ...] = ()
        # the same columns as lists, one entry per loop event; lists of
        # numbers, unlike a tuple per event, give the garbage collector
        # nothing to track
        self.columns: tuple[list, ...] = tuple([] for _ in _COLUMN_TYPES)
        self.saturation: list[tuple[float, float]] = []
        self.overload_time: float | None = None

    def trace(self, config: AdcConfig, start_code: int, t_end: float) -> Trace:
        parts = [np.asarray(c, dtype=d) for c, d in zip(self.columns, _COLUMN_TYPES)]
        if self.prefix:
            parts = [np.concatenate(pair) for pair in zip(self.prefix, parts)]
        return Trace(config, start_code, *parts, tuple(self.saturation), self.overload_time, t_end)


def _serve(
    config: AdcConfig,
    spec: SignalSpec,
    t_end: float,
    record: _Record,
    code: int,
    now: float,
    served: Direction | None,
) -> None:
    """The conversion loop from ``now`` to t_end, into ``record``.

    With ``served`` set, the comparators power up at ``now`` after a
    crossing served in that direction, and the loop first checks for a
    catch-up request; otherwise they are on at ``now`` with the input inside
    the window of ``code``.
    """
    top = config.level_count - 1
    # window bounds as ``config.window`` takes them, one call fewer per event
    level = config.level
    lo, hi = level(code), level(code + 1)
    t_reqs, t_acks, codes = record.columns
    while now < t_end:
        if served is None:
            found = next_window_exit(spec, now, lo, hi, t_end)
            if found is None:
                break
            t_req, direction = found
        else:
            v = evaluate(spec, now)
            if lo <= v <= hi:
                served = None
                continue
            direction = Direction.UP if v > hi else Direction.DOWN
            if direction is served and record.overload_time is None:
                # the input cleared the shifted window in the crossing
                # direction: more than one level lost during one loop
                record.overload_time = now
            t_req = now
        step = 1 if direction is Direction.UP else -1
        if not 0 <= code + step <= top:
            # range rail: window pinned, comparators stay on; a rail
            # crossing at t_end itself leaves nothing to search
            t_back = None
            if t_req < t_end:
                t_back = next_window_entry(spec, t_req, lo, hi, t_end)
            now = t_end if t_back is None else t_back
            record.saturation.append((t_req, now))
            served = None
            continue
        t_ack = ack_time(t_req, config.clock_freq, config.clock_phase)
        now = t_ack + config.settle_time
        code += step
        t_reqs.append(t_req)
        t_acks.append(t_ack)
        codes.append(code)
        lo, hi = level(code), level(code + 1)
        served = direction


@functools.lru_cache(maxsize=1)
def _sine_requests(spec: Sine, grid: AdcConfig, t_end: float) -> tuple | None:
    """``_sine_chain`` of one input on a level grid and clock frequency (a
    config whose clock phase and settle time are set to fixed values) over
    one span, from the grid's initial code; runs that share all three, such
    as a Monte Carlo over clock phases, share the one list."""
    code = initial_code(grid, spec)
    return _sine_chain(spec, grid.level, grid.level_count, code, t_end, grid.t_clk)


def _lockstep(
    config: AdcConfig, spec: Sine, record: _Record, code: int, requests: tuple | None
) -> tuple[int, float, Direction | None] | None:
    """Serve the certified prefix of a sine's shared requests at this
    config's clock, into ``record``.  Returns the arguments ``_serve`` takes
    over with, or None when the whole span was served (see ``simulate``)."""
    if requests is None:
        return code, 0.0, None
    t_req, step, code_after, limit, rails = requests
    t_ack = _ack_times(t_req, config.clock_freq, config.clock_phase)
    t_on = t_ack + config.settle_time
    lo, hi = config.level(code_after), config.level(code_after + 1)
    failed = np.flatnonzero(~((t_on < limit) & _inside(spec, t_on, lo, hi)))
    end = int(failed[0]) + 1 if len(failed) else len(t_req)
    record.prefix = (t_req[:end], t_ack[:end], code_after[:end])
    if not len(failed):
        record.saturation.extend(rails)
        return None
    # the loop takes over after request j, before the rail crossings after it
    j = end - 1
    record.saturation.extend(iv for iv in rails if iv[0] < t_req[j])
    return int(code_after[j]), float(t_on[j]), _DIRECTIONS[int(step[j])]


def reconstruct(trace: Trace) -> list[tuple[float, float]]:
    """Piecewise-constant output at the mid-level of each held code.

    Returns (time, volts) pairs; the value switches at each event's ACK.
    """
    mid = trace.config.level(trace.initial_code + 0.5)
    levels = trace.config.level(trace.code_after + 0.5)
    return [(0.0, mid), *zip(trace.t_ack.tolist(), levels.tolist())]


def tracking_error(
    trace: Trace, spec: SignalSpec, grid_points: int = 10_000
) -> tuple[float, float]:
    """(max absolute, rms) error between the reconstruction and the input,
    sampled on a uniform grid over the simulated span."""
    n = max(grid_points, 2)
    t = np.arange(n) * (trace.t_end / (n - 1))
    codes = np.concatenate(([trace.initial_code], trace.code_after))
    levels = trace.config.level(codes + 0.5)
    # the code held at t is the one after the last ACK at or before t
    err = _evaluate_array(spec, t) - levels[np.searchsorted(trace.t_ack, t, side="right")]
    return float(np.abs(err).max()), math.sqrt(float(err @ err) / n)
