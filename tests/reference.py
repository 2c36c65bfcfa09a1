"""Independent brute-force oracles for the event-driven engine.

Everything here recomputes behavior from first principles on a dense time
grid: waveform values are re-derived from the waveform parameters with
numpy, window exits are detected by scanning consecutive grid samples, and
the clock-edge arithmetic is a straight rescan of edge times.  None of it
calls the engine's crossing search or event loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lcadc.signals import Constant, Ramp, Sampled, Sine, SumOfSines

_EDGE_TOL = 1e-12
_CHUNK = 1 << 16


def eval_grid(spec, t):
    """Vectorized waveform evaluation on a numpy time array."""
    t = np.asarray(t, dtype=float)
    if isinstance(spec, Sine):
        return spec.offset + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency * t + spec.phase
        )
    if isinstance(spec, Constant):
        return np.full_like(t, spec.value)
    if isinstance(spec, Ramp):
        return spec.start + spec.slope * t
    if isinstance(spec, SumOfSines):
        acc = np.full_like(t, spec.offset)
        for a, f, p in spec.tones:
            acc += a * np.sin(2.0 * np.pi * f * t + p)
        return acc
    if isinstance(spec, Sampled):
        nodes = spec.sample_period * np.arange(len(spec.values))
        return np.interp(t, nodes, np.asarray(spec.values))
    raise TypeError(type(spec).__name__)


def eval_scalar(spec, t):
    return float(eval_grid(spec, np.array([t]))[0])


def count_level_crossings(spec, level, t0, t1, n_steps):
    """Strict traversals of one level on a dense grid: (ups, downs).

    Samples landing exactly on the level are dropped so touches without a
    side change are not counted.
    """
    t = np.linspace(t0, t1, n_steps + 1)
    s = np.sign(eval_grid(spec, t) - level)
    s = s[s != 0]
    changes = s[:-1] != s[1:]
    ups = int(np.count_nonzero(changes & (s[1:] > 0)))
    downs = int(np.count_nonzero(changes & (s[1:] < 0)))
    return ups, downs


def count_all_crossings(spec, levels, t0, t1, n_steps):
    """Total strict traversals across a list of levels (one waveform pass)."""
    t = np.linspace(t0, t1, n_steps + 1)
    v = eval_grid(spec, t)
    total = 0
    for level in levels:
        s = np.sign(v - level)
        s = s[s != 0]
        total += int(np.count_nonzero(s[:-1] != s[1:]))
    return total


def second_edge_after(t, clock_freq, clock_phase):
    """Second rising edge strictly after t; edges within 1e-12 s of t count
    as simultaneous and are skipped."""
    t_clk = 1.0 / clock_freq
    k = math.floor((t - clock_phase) / t_clk) - 2
    while clock_phase + (k + 1) * t_clk <= t + _EDGE_TOL:
        k += 1
    first_after = max(k + 1, 0)
    return clock_phase + (first_after + 1) * t_clk


@dataclass
class RefEvent:
    t_req: float
    direction: str  # "up" | "down"
    code_before: int
    code_after: int
    t_ack: float
    t_on: float
    immediate: bool


@dataclass
class RefResult:
    events: list[RefEvent]
    saturation: list[tuple[float, float]]
    overload: bool


def _first_index(flags_fn, n, start):
    """Smallest i in (start, n] with flags_fn(i0, i1) true on [i0, i1)."""
    i = start + 1
    while i <= n:
        j = min(i + _CHUNK, n + 1)
        flags = flags_fn(i, j)
        hits = np.nonzero(flags)[0]
        if hits.size:
            return i + int(hits[0])
        i = j
    return None


def reference_simulate(config, spec, t_end, step):
    """Time-stepped replica of the conversion protocol.

    Window exits are detected at the first grid sample strictly beyond a
    boundary; everything downstream (acknowledge edges, settle, catch-up
    requests, rail pinning, overload marking) follows the same protocol as
    the engine but is written against the grid.
    """
    n = int(math.ceil(t_end / step))
    t_grid = np.minimum(np.arange(n + 1) * step, t_end)
    v = eval_grid(spec, t_grid)

    top = config.level_count - 1

    def window(c):
        # both bounds from the grid, as the engine takes them
        return config.v_min + c * config.delta, config.v_min + (c + 1) * config.delta

    v0 = float(v[0])
    code = int(math.floor((v0 - config.v_min) / config.delta))
    code = min(max(code, 0), top)
    # the division can round v0 a hair off a level across it; step one code
    # so that the starting window holds v0
    lo, hi = window(code)
    if v0 < lo and code > 0:
        code -= 1
    elif v0 > hi and code < top:
        code += 1
    lo, hi = window(code)
    events: list[RefEvent] = []
    saturation: list[tuple[float, float]] = []
    overload = False
    i = 0

    while i < n:
        j = _first_index(lambda a, b: (v[a:b] > hi) | (v[a:b] < lo), n, i)
        if j is None:
            break
        t_req = float(t_grid[j])
        direction = "up" if v[j] > hi else "down"
        immediate = False
        while True:
            step_sign = 1 if direction == "up" else -1
            if not 0 <= code + step_sign <= top:
                k = _first_index(lambda a, b: (v[a:b] > lo) & (v[a:b] < hi), n, j)
                if k is None:
                    saturation.append((t_req, t_end))
                    i = n
                else:
                    saturation.append((t_req, float(t_grid[k])))
                    i = k
                break
            t_ack = second_edge_after(t_req, config.clock_freq, config.clock_phase)
            t_on = t_ack + config.settle_time
            events.append(
                RefEvent(t_req, direction, code, code + step_sign, t_ack, t_on, immediate)
            )
            code += step_sign
            lo, hi = window(code)
            if t_on >= t_end:
                i = n
                break
            vv = eval_scalar(spec, t_on)
            if lo <= vv <= hi:
                i = int(math.floor(t_on / step))
                j = i  # saturation rescans start from here
                break
            pending = "up" if vv > hi else "down"
            if pending == direction:
                overload = True
            t_req = t_on
            direction = pending
            immediate = True
            j = int(math.floor(t_on / step))

    return RefResult(events=events, saturation=saturation, overload=overload)
