"""Analog input waveforms: exact evaluation and crossing search.

Waveforms are small frozen dataclasses.  One search serves every waveform
kind and both directions of travel: it finds the earliest traversal out of
an interval.  A window exit leaves the window; a re-entry after range
saturation is the exit from the half-line past the boundary the signal is
on.  Sines, ramps and sampled (piecewise-linear) waveforms are solved in
closed form, each root from the waveform piece and the level alone, never
from where the search started, and every closed-form root goes through one
confirm step, so all kinds follow one rule: the returned time is strictly
beyond the level, and a root at the horizon counts only if the signal is
already beyond there.  Sums of sines step forward by a certified curvature
envelope (the second-derivative form of Lipschitz root isolation, Shubert
1972): with K = sum(a*w**2) bounding |v''|, the signal stays between
v + v'*s -/+ K*s**2/2 over the next s seconds, so each step is the longest
one that envelope keeps inside the interval, but at least a floor far below
the time tolerance.  Only an excursion briefer than that floor could be
stepped over.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

TIME_ABS_TOL = 1e-12  # absolute time resolution, seconds
TIME_REL_TOL = 1e-9   # relative time resolution

_TWO_PI = 2.0 * math.pi
# Step past a closed-form root, and the floor of a curvature-envelope step,
# as a fraction of the time tolerance.
_ROOT_STEP_FRACTION = 1.0 / 64.0
# Share of a sine's full scale within which a vectorized comparison with a
# level defers to the scalar evaluate.
_VALUE_GUARD = 1e-9
# Level crossings and periods, at most, in the first block of time of a
# sine's request list, at the sine's steepest slope, and in any later block.
_CHAIN_FIRST = 1024
_CHAIN_BLOCK = 16384


class Direction(Enum):
    """Which window boundary a crossing traverses."""

    UP = "up"
    DOWN = "down"


class OutOfSpanError(ValueError):
    """Query outside the time span covered by a sampled waveform."""


class WindowStartError(ValueError):
    """Crossing search started with the signal already outside the window."""


@dataclass(frozen=True)
class Sine:
    """offset + amplitude * sin(2*pi*frequency*t + phase).

    ``amplitude`` is the peak deviation from ``offset`` (not peak-to-peak).
    """

    amplitude: float
    frequency: float
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        # each bound is checked as a range, which a NaN fails too
        if not 0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be finite and >= 0")
        if not 0 < self.frequency < math.inf:
            raise ValueError("frequency must be finite and > 0")
        if not -math.inf < self.phase < math.inf:
            raise ValueError("phase must be finite")
        if not -math.inf < self.offset < math.inf:
            raise ValueError("offset must be finite")


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self) -> None:
        if not -math.inf < self.value < math.inf:
            raise ValueError("value must be finite")


@dataclass(frozen=True)
class Ramp:
    """start + slope * t."""

    start: float
    slope: float

    def __post_init__(self) -> None:
        if not -math.inf < self.start < math.inf:
            raise ValueError("start must be finite")
        if not -math.inf < self.slope < math.inf:
            raise ValueError("slope must be finite")


@dataclass(frozen=True)
class SumOfSines:
    """Sum of (amplitude, frequency, phase) tones above a shared offset.

    The curvature envelope's constants are computed once per spec, outside
    the dataclass fields: ``_envelope`` holds each tone as (amplitude,
    angular frequency w = 2*pi*frequency, phase, amplitude*w), and
    ``_curvature`` is K = sum(amplitude*w**2), which bounds |v''|.
    """

    tones: tuple[tuple[float, float, float], ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tones", tuple((float(a), float(f), float(p)) for a, f, p in self.tones)
        )
        if not self.tones:
            raise ValueError("at least one tone is required")
        for a, f, p in self.tones:
            if not 0 <= a < math.inf:
                raise ValueError("tone amplitude must be finite and >= 0")
            if not 0 < f < math.inf:
                raise ValueError("tone frequency must be finite and > 0")
            if not -math.inf < p < math.inf:
                raise ValueError("tone phase must be finite")
        if not -math.inf < self.offset < math.inf:
            raise ValueError("offset must be finite")
        envelope = tuple((a, _TWO_PI * f, p, a * (_TWO_PI * f)) for a, f, p in self.tones)
        object.__setattr__(self, "_envelope", envelope)
        object.__setattr__(self, "_curvature", sum(a * w * w for a, w, _, _ in envelope))


@dataclass(frozen=True)
class Sampled:
    """Uniformly sampled values with linear interpolation between samples."""

    sample_period: float
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not 0 < self.sample_period < math.inf:
            raise ValueError("sample_period must be finite and > 0")
        if len(self.values) < 2:
            raise ValueError("at least two samples are required")
        if not all(-math.inf < v < math.inf for v in self.values):
            raise ValueError("values must be finite")

    @property
    def span(self) -> float:
        """End of the time span covered by the samples (start is t=0)."""
        return self.sample_period * (len(self.values) - 1)


SignalSpec = Sine | Constant | Ramp | SumOfSines | Sampled


def evaluate(spec: SignalSpec, t: float) -> float:
    """Waveform value at time ``t`` (seconds), in volts.

    Sampled waveforms only cover [0, span]; queries outside raise
    OutOfSpanError.
    """
    if isinstance(spec, Sine):
        return spec.offset + spec.amplitude * math.sin(
            2.0 * math.pi * spec.frequency * t + spec.phase
        )
    if isinstance(spec, Constant):
        return spec.value
    if isinstance(spec, Ramp):
        return spec.start + spec.slope * t
    if isinstance(spec, SumOfSines):
        acc = spec.offset
        for a, f, p in spec.tones:
            acc += a * math.sin(2.0 * math.pi * f * t + p)
        return acc
    if isinstance(spec, Sampled):
        span = spec.span
        if t < -TIME_ABS_TOL or t > span + TIME_ABS_TOL:
            raise OutOfSpanError(f"t={t} outside sampled span [0, {span}]")
        clipped = min(max(t, 0.0), span)
        x = clipped / spec.sample_period
        # the span end is the last sample itself: interpolating to it can
        # miss by an ulp, and span / sample_period can round to either side
        # of its index
        if t >= span or x >= len(spec.values) - 1:
            return spec.values[-1]
        # x can round down past a sample index, so a sample time
        # i*sample_period lands on sample i only by stepping up to it
        i = int(x)
        if (i + 1) * spec.sample_period <= clipped:
            i += 1
        fraction = (clipped - i * spec.sample_period) / spec.sample_period
        return spec.values[i] + (spec.values[i + 1] - spec.values[i]) * fraction
    raise TypeError(f"unknown signal spec {type(spec).__name__}")


def _evaluate_array(spec: SignalSpec, t: np.ndarray) -> np.ndarray:
    """``evaluate`` at every element of the float array ``t``.

    Constants, ramps and sampled waveforms repeat the scalar float
    operations, so each element equals ``evaluate`` bit for bit, and a
    sampled waveform raises OutOfSpanError for the same times.  Sines and
    sums of sines repeat them too, but numpy's sine may differ from
    ``math.sin`` in the last bits.
    """
    if isinstance(spec, Sine):
        return spec.offset + spec.amplitude * np.sin(
            2.0 * math.pi * spec.frequency * t + spec.phase
        )
    if isinstance(spec, Constant):
        return np.full(t.shape, float(spec.value))
    if isinstance(spec, Ramp):
        return spec.start + spec.slope * t
    if isinstance(spec, SumOfSines):
        acc = np.full(t.shape, float(spec.offset))
        for a, f, p in spec.tones:
            acc += a * np.sin(2.0 * math.pi * f * t + p)
        return acc
    if isinstance(spec, Sampled):
        span = spec.span
        outside = (t < -TIME_ABS_TOL) | (t > span + TIME_ABS_TOL)
        if outside.any():
            bad = float(t[np.flatnonzero(outside)[0]])
            raise OutOfSpanError(f"t={bad} outside sampled span [0, {span}]")
        # min and max as the builtins pick, signed zeros included
        clipped = np.where(0.0 > t, 0.0, t)
        clipped = np.where(span < clipped, span, clipped)
        x = clipped / spec.sample_period
        last = len(spec.values) - 1
        i = x.astype(np.int64)
        i = np.minimum(i + ((i + 1) * spec.sample_period <= clipped), last - 1)
        fraction = (clipped - i * spec.sample_period) / spec.sample_period
        values = np.asarray(spec.values)
        at_end = (t >= span) | (x >= last)
        return np.where(at_end, values[-1], values[i] + (values[i + 1] - values[i]) * fraction)
    raise TypeError(f"unknown signal spec {type(spec).__name__}")


def _time_tol(t: float) -> float:
    return max(TIME_ABS_TOL, TIME_REL_TOL * abs(t))


def _bisect_beyond(
    spec: SignalSpec, a: float, b: float, boundary: float, above: bool
) -> float:
    """Shrink (a, b] where v(b) is strictly beyond ``boundary`` and v(a) is
    not; return the beyond endpoint."""
    while b - a > _time_tol(b):
        m = 0.5 * (a + b)
        v = evaluate(spec, m)
        if (v > boundary) if above else (v < boundary):
            b = m
        else:
            a = m
    return b


def next_window_exit(
    spec: SignalSpec, t_from: float, lo: float, hi: float, horizon: float
) -> tuple[float, Direction] | None:
    """Earliest t in (t_from, horizon] where the signal traverses ``hi``
    (Direction.UP) or ``lo`` (Direction.DOWN), or None if it stays inside.

    The horizon must be finite and lie after ``t_from``.  The signal must
    start inside the window (boundary contact allowed); starting strictly
    outside raises WindowStartError, which is distinct from the no-exit
    result.  Grazing a boundary without traversal does not count as an
    exit.  For every waveform kind the returned time lies just past the true
    crossing, within max(1e-12 s, 1e-9 relative), and the signal evaluates
    strictly beyond the boundary there; a crossing at the horizon counts
    only if the signal is already beyond at the horizon.

    Sines, ramps and sampled waveforms are solved in closed form.  Sums of
    sines step by a curvature envelope that certifies each step stays inside
    the window, so an excursion that passes a boundary only briefly is found
    too.
    """
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if not t_from < horizon < math.inf:
        raise ValueError("horizon must be finite and lie after t_from")
    v0 = evaluate(spec, t_from)
    if v0 > hi or v0 < lo:
        raise WindowStartError(
            f"signal is at {v0} V, outside [{lo}, {hi}] V, at t={t_from}"
        )
    return _exit(spec, t_from, v0, lo, hi, horizon)


def next_window_entry(
    spec: SignalSpec, t_from: float, lo: float, hi: float, horizon: float
) -> float | None:
    """Earliest t in (t_from, horizon] where the signal is strictly inside
    (lo, hi), or None.

    Counterpart of next_window_exit used to recover from range saturation:
    the signal starts on or beyond one boundary, and its re-entry is the
    exit from the half-line past that boundary, found by the same search
    and under the same rule.  The returned time lies just past the traversal
    back across the boundary.  A signal already strictly inside is returned
    immediately as ``t_from``.  Sines, ramps and sampled waveforms are
    solved in closed form; sums of sines step by the same curvature envelope
    as an exit, whose reach toward the infinite side is unbounded.
    """
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if not t_from < horizon < math.inf:
        raise ValueError("horizon must be finite and lie after t_from")
    v0 = evaluate(spec, t_from)
    if lo < v0 < hi:
        return t_from
    beyond_lo, beyond_hi = (hi, math.inf) if v0 >= hi else (-math.inf, lo)
    found = _exit(spec, t_from, v0, beyond_lo, beyond_hi, horizon)
    return None if found is None else found[0]


def _exit(
    spec: SignalSpec,
    t_from: float,
    v0: float,
    lo: float,
    hi: float,
    horizon: float,
) -> tuple[float, Direction] | None:
    """Earliest traversal out of [lo, hi] in (t_from, horizon] of a signal
    that is at ``v0`` in that interval at ``t_from``, as (t, direction), or
    None.  Either end may be infinite."""
    if isinstance(spec, Constant):
        return None
    if isinstance(spec, Sine):
        return _sine_exit(spec, t_from, lo, hi, horizon)
    if isinstance(spec, Ramp):
        if spec.slope == 0.0:
            return None
        rising = spec.slope > 0.0
        level = hi if rising else lo
        t_root = (level - spec.start) / spec.slope
        return _confirm(spec, t_from, t_root, horizon, level, rising)
    if isinstance(spec, Sampled):
        return _sampled_exit(spec, t_from, lo, hi, horizon)

    envelope = spec._envelope
    curvature = spec._curvature
    if curvature == 0.0:
        return None
    offset = spec.offset
    t = t_from
    v = v0
    slope = sum(aw * math.cos(w * t + p) for _, w, p, aw in envelope)
    while True:
        # how far the signal, ``gap`` short of each level and moving toward
        # it at ``rate``, can go without reaching it: the largest s with
        # rate*s + curvature*s**2/2 <= gap, unbounded toward an infinite
        # level.  Toward lo the rate is -slope, negated by hand, which
        # rounds the same
        step = math.inf
        gap = hi - v
        if gap != math.inf:
            root = math.sqrt(slope * slope + 2.0 * curvature * gap)
            step = 2.0 * gap / (slope + root) if slope > 0.0 else (root - slope) / curvature
        gap = v - lo
        if gap != math.inf:
            root = math.sqrt(slope * slope + 2.0 * curvature * gap)
            reach = 2.0 * gap / (root - slope) if slope < 0.0 else (root + slope) / curvature
            if reach < step:
                step = reach
        # at least the floor, a fraction of the time tolerance at t
        floor = TIME_REL_TOL * abs(t)
        if not floor > TIME_ABS_TOL:
            floor = TIME_ABS_TOL
        floor *= _ROOT_STEP_FRACTION
        t_next = t + (floor if floor > step else step)
        if horizon < t_next:
            t_next = horizon
        v, slope = _envelope_step(offset, envelope, t_next)
        if v > hi:
            return _bisect_beyond(spec, t, t_next, hi, True), Direction.UP
        if v < lo:
            return _bisect_beyond(spec, t, t_next, lo, False), Direction.DOWN
        if t_next >= horizon:
            return None
        t = t_next


def _envelope_step(
    offset: float, envelope: tuple[tuple[float, float, float, float], ...], t: float
) -> tuple[float, float]:
    """Value and slope at ``t`` of a sum of sines given as its ``_envelope``
    tones (amplitude, angular frequency, phase, amplitude times angular
    frequency), in one pass.  w*t rounds as ``evaluate``'s 2*pi*f*t, and the
    tones are added in its order, so the value is ``evaluate``'s bit for
    bit."""
    v = offset
    slope = 0.0
    for a, w, p, aw in envelope:
        x = w * t + p
        v += a * math.sin(x)
        slope += aw * math.cos(x)
    return v, slope


def _sine_exit(
    spec: Sine, t_from: float, lo: float, hi: float, horizon: float
) -> tuple[float, Direction] | None:
    """Earliest upward traversal of ``hi`` or downward traversal of ``lo``
    by a sine in (t_from, horizon], solved in closed form: the first of
    ``_sine_excursions`` that ``_confirm`` shows beyond its level."""
    for t_root, t_peak, level, rising, _ in _sine_excursions(spec, t_from, lo, hi):
        found = _confirm(spec, t_from, t_root, min(t_peak, horizon), level, rising)
        if found is not None:
            return found
    return None


def _sine_excursions(
    spec: Sine, t_from: float, lo: float, hi: float
) -> list[tuple[float, float, float, bool, bool]]:
    """The excursions beyond ``hi`` (upward) and ``lo`` (downward) that a
    sine search from ``t_from`` tries, earliest root first.

    With sign +1 for ``hi`` (upward) and -1 for ``lo`` (downward), and
    s = sign*(level - offset)/amplitude, the signal lies strictly beyond the
    level on phase intervals of half-width pi/2 - asin(s) around sign*pi/2,
    plus 2*pi*k.  A level the extremum only touches (s >= 1), or an infinite
    one, is never traversed.  For each other level the excursion is
    the first whose extremum lies after t_from, as (t_root, t_peak, level,
    rising, shifted); ``shifted`` marks an extremum moved one period on
    because rounding put t_from on it.  A root at or before t_from is a start
    on the boundary moving outward.
    """
    if spec.amplitude == 0.0:
        return []
    omega = 2.0 * math.pi * spec.frequency
    theta0 = omega * t_from + spec.phase
    excursions = []
    for level, sign in ((hi, 1.0), (lo, -1.0)):
        s = sign * ((level - spec.offset) / spec.amplitude)
        if s >= 1.0:
            continue
        center, half = sign * 0.5 * math.pi, 0.5 * math.pi - math.asin(max(s, -1.0))
        k = math.floor((theta0 - center) / _TWO_PI) + 1
        t_peak = (center + _TWO_PI * k - spec.phase) / omega
        shifted = t_peak <= t_from
        if shifted:
            t_peak += _TWO_PI / omega
        excursions.append((t_peak - half / omega, t_peak, level, sign > 0.0, shifted))
    excursions.sort(key=lambda r: r[0])
    return excursions


def _sine_chain(
    spec: Sine, level: Callable, level_count: int, code: int, t_end: float, t_clk: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple] | None:
    """The requests a sine raises in (0, t_end] from the window of ``code``
    when every search starts at the previous request, solved in closed form
    with arrays.  ``level`` maps codes 0 to ``level_count``, elementwise, to
    the levels of an evenly spaced grid; window c is [level(c), level(c+1)].

    Request 1 is ``_sine_exit`` from t=0 and request i+1 is ``_sine_exit``
    from request i in the window after it.  A crossing out of the range is
    followed by its re-entry, ``next_window_entry`` from the crossing, and
    the next search starts there in the same window.  Returns t_req, dir
    (+1 or -1), code_after and limit as read-only arrays, and the rail
    crossings among the requests as (start, end) pairs.

    ``limit`` bounds the starts that find the next listed entry:
    ``_sine_exit`` reads its start only through each level's period index
    and through ``max(t_root, t_from)`` in ``_confirm``, and both stay put
    up to the earliest root the search from the request tries, less a time
    tolerance that dwarfs the rounding of the index.  It is +inf if that
    search tries no level and -inf if rounding put the request on an
    extremum.  The list ends early, with limit -inf on its last request and
    no rail crossing after it, at the last request before the first search
    that ``_sine_block`` cannot decide (None if there is none), and at the
    first request whose limit lies within ``t_clk`` of it: a converter
    clocked at 1/t_clk powers up more than t_clk after each request, so no
    run at that clock serves the list past it.

    The list is solved one block of time after another, up to its end.  In
    the first block the sine, at its steepest, crosses at most
    ``_CHAIN_FIRST`` levels and periods, and in each later one four times
    as many as in the one before, up to ``_CHAIN_BLOCK``.  So the work and
    memory spent before the list ends do not grow with the number of
    levels, a list that ends early, as past the tracking limit, costs
    little, and a list that runs on costs in proportion to its length.
    """
    empty = np.empty(0)
    if spec.amplitude == 0.0:
        return empty, empty.astype(np.int8), empty.astype(np.int64), empty, ()
    spacing = (level(level_count) - level(0)) / level_count
    rate = _TWO_PI * spec.frequency * spec.amplitude / spacing + spec.frequency
    # the entry each block's first search starts from, as (t, window)
    blocks, t_a, carry, size = [], 0.0, (0.0, code), _CHAIN_FIRST
    while True:
        t_b = min(max(t_a + size / rate, math.nextafter(t_a, math.inf)), t_end)
        size = min(4 * size, _CHAIN_BLOCK)
        t, codes, sign, bound, cut = _sine_block(spec, level, level_count, carry, t_a, t_b, t_end)
        window = codes - (sign < 0)
        inner = (0 < codes) & (codes < level_count)
        ahead = np.flatnonzero(inner[:cut] & (bound[1 : cut + 1] <= t[:cut] + t_clk))
        if len(ahead):
            cut = int(ahead[0]) + 1
        blocks.append((t[:cut], inner[:cut], sign[:cut], window[:cut], bound[1 : cut + 1]))
        if cut:
            carry = (float(t[cut - 1]), int(window[cut - 1]))
        if len(ahead) or cut < len(t) or t_b == t_end:
            break
        t_a = t_b
    # the list is whole if the search after its last entry finds nothing
    whole = False
    if not len(ahead):
        t_from, w = carry
        lo = level(w) if w >= 0 else -math.inf
        hi = level(w + 1) if w < level_count else math.inf
        whole = _sine_exit(spec, t_from, lo, hi, t_end) is None
    t, inner, sign, window, bound = (np.concatenate(column) for column in zip(*blocks))
    requests = np.flatnonzero(inner)
    limit = bound[requests]
    rails = np.flatnonzero((window < 0) | (window >= level_count))
    if not whole:
        if not len(requests):
            return None
        rails = rails[rails < requests[-1]]
        limit[-1] = -math.inf
    back = np.append(t, t_end)[rails + 1]
    columns = (t[requests], sign[requests], window[requests], limit)
    for column in columns:
        column.flags.writeable = False
    return (*columns, tuple(zip(t[rails].tolist(), back.tolist())))


def _sine_block(
    spec: Sine,
    level: Callable,
    level_count: int,
    carry: tuple[float, int],
    t_a: float,
    t_b: float,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The entries of ``_sine_chain`` whose roots lie in [t_a, t_b), or in
    (0, t_b) for the first block, requests and both halves of each rail
    crossing, in time order: t, level code and sign (+1 up through the
    level, -1 down); the limit bound of the search from ``carry``, the entry
    before them as (t, window), and from each entry, one longer; and
    ``cut``, the number of leading entries decided.

    Every excursion past a level the sine crosses is listed in time order,
    its root and extremum by the float operations of ``_sine_excursions``
    and its first candidate by ``_confirm``'s.  Only levels within the
    sine's steepest slope of its value at t_a, and the window of ``carry``,
    are taken, with a margin for rounding.  An entry is decided if the
    search from the entry before it puts it first, at the same time: both
    excursions of that window, with the period index computed from the
    start, and the signal beyond the level there (values within a guard of
    the level are rechecked with the scalar ``evaluate``).  The first entry
    that is not is a candidate that ``_confirm`` would bisect, a period
    index or extremum that rounding moved, a step off the window's
    boundary, or a crossing at t_end.
    """
    omega = _TWO_PI * spec.frequency
    amplitude, offset = spec.amplitude, spec.offset
    v, reach = offset, amplitude
    if spec.frequency * (t_b - t_a) < 1.0:
        v = offset + amplitude * math.sin(omega * t_a + spec.phase)
        reach = omega * amplitude * (t_b - t_a)
    base = level(0)
    spacing = (level(level_count) - base) / level_count
    below = math.floor((max(v - reach, offset - amplitude) - base) / spacing) - 2
    above = math.ceil((min(v + reach, offset + amplitude) - base) / spacing) + 2
    t_from, w = carry
    bottom = max(min(below, w), 0)
    codes = np.arange(bottom, min(max(above, w + 1), level_count) + 1)
    levels = level(codes)
    x = (levels - offset) / amplitude
    # up through a level, where s = x, and down, where s = -x
    half_up, half_down = _half_widths(x)
    kinds = ((1, 0.5 * math.pi, half_up), (-1, -0.5 * math.pi, half_down))
    # t=0 starts on the first excursion past each boundary of its window
    boundaries = (w + 1 - bottom, w - bottom) if t_a == 0.0 else (-1, -1)
    t, index, sign = _sine_excursion_list(spec, kinds, np.abs(x) < 1.0, boundaries, t_a, t_b, t_end)
    # the window after each entry, one past either end outside the range
    window = index - (sign < 0)

    # the search from ``carry`` and from each entry: both excursions of its
    # window
    t_from = np.concatenate(([t_from], t))
    start_window = np.concatenate(([w - bottom], window))
    (up, up_peak, up_root), (down, down_peak, down_root) = (
        _sine_tried(spec, t_from, center, half, target)
        for (_, center, half), target in zip(kinds, (start_window + 1, start_window))
    )
    shifted = (up & (up_peak <= t_from)) | (down & (down_peak <= t_from))
    # the earliest root first, the upper level's on a tie
    first_up = up_root <= down_root
    earliest = np.where(first_up, up_root, down_root)
    begin = np.maximum(earliest, t_from)
    candidate = np.minimum(
        begin + _time_tols(begin) * _ROOT_STEP_FRACTION,
        np.minimum(np.where(first_up, up_peak, down_peak), t_end),
    )
    # no excursion: no bound; an infinite root keeps a finite tolerance
    bound = earliest - _time_tols(np.where(up | down, earliest, 0.0))
    bound[shifted] = -math.inf

    m = len(t)
    rising = sign > 0
    at = levels[index]
    beyond = ~_inside(spec, t, np.where(rising, -math.inf, at), np.where(rising, at, math.inf))
    decided = (
        ~shifted[:m]
        & (up | down)[:m]
        & (first_up[:m] == rising)
        & (np.where(first_up, start_window + 1, start_window)[:m] == index)
        & (candidate[:m] == t)
        & (t < t_end)
        & beyond
    )
    cut = int(np.argmin(decided)) if not decided.all() else m
    return t, index + bottom, sign, bound, cut


def _sine_excursion_list(
    spec: Sine,
    kinds: tuple,
    crossed: np.ndarray,
    boundaries: tuple[int, int],
    t_a: float,
    t_b: float,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every excursion with its root in [t_a, t_b), or in (0, t_b) from
    t_a = 0, past a level the sine crosses (where ``crossed`` is true), in
    the order of the roots, as the first candidate past its root, level
    index and sign.  From t=0 the first excursion past each of
    ``boundaries``, the upper and lower level of the start window, counts
    even if rounding puts its root at or before t=0: the search starts on
    it."""
    omega = 2.0 * math.pi * spec.frequency
    phase = spec.phase
    crossed = np.flatnonzero(crossed)
    parts = []
    for (sign, center, half), boundary in zip(kinds, boundaries):
        # the first extremum after t=0, or one before t_a
        k0 = math.floor((omega * t_a + phase - center) / _TWO_PI) + (1 if t_a == 0.0 else -1)
        k1 = math.floor((omega * t_b + math.pi + phase - center) / _TWO_PI) + 2
        peak = (center + _TWO_PI * np.arange(k0, k1, dtype=float) - phase) / omega
        root = peak - (half[crossed] / omega)[:, None]
        keep = (root >= t_a if t_a > 0.0 else root > 0.0) & (root < t_b)
        keep[crossed == boundary, 0] |= root[crossed == boundary, 0] < t_b
        rows, cols = np.nonzero(keep)
        parts.append((root[keep], peak[cols], crossed[rows], np.full(len(rows), sign, np.int8)))
    order = np.argsort(np.concatenate([p[0] for p in parts]), kind="stable")
    root, peak, level, sign = (np.concatenate(column)[order] for column in zip(*parts))
    begin = np.maximum(root, 0.0)
    t = np.minimum(begin + _time_tols(begin) * _ROOT_STEP_FRACTION, np.minimum(peak, t_end))
    return t, level, sign


def _sine_tried(
    spec: Sine, t_from: np.ndarray, center: float, half: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a search from each element of ``t_from``, the excursion past
    level ``target`` around phase ``center`` that ``_sine_excursions``
    tries: whether there is one, its extremum, and its root (inf if
    none).  ``half`` holds each level's half-width."""
    omega = 2.0 * math.pi * spec.frequency
    index = np.clip(target, 0, len(half) - 1)
    present = (target == index) & ~np.isnan(half[index])
    k = np.floor((omega * t_from + spec.phase - center) / _TWO_PI) + 1.0
    ext = (center + _TWO_PI * k - spec.phase) / omega
    return present, ext, np.where(present, ext - half[index] / omega, math.inf)


def _half_widths(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sine_excursions``' half-width pi/2 - asin(s) per level, up
    through it, where s = x, and down, where s = -x; s is clamped to -1, and
    the width is nan where s >= 1 and the level is never traversed.  asin
    is odd, so one call per level serves both."""
    asin = np.where(x < 0.0, math.asin(-1.0), math.asin(1.0))
    crossed = np.flatnonzero(np.abs(x) < 1.0)
    asin[crossed] = [math.asin(v) for v in x[crossed].tolist()]
    up = 0.5 * math.pi - asin
    down = 0.5 * math.pi - -asin
    up[x >= 1.0] = math.nan
    down[x <= -1.0] = math.nan
    return up, down


def _time_tols(t: np.ndarray) -> np.ndarray:
    """``_time_tol`` of each element."""
    return np.maximum(TIME_ABS_TOL, TIME_REL_TOL * np.abs(t))


def _inside(spec: Sine, t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo <= evaluate(spec, t) <= hi for each element; either bound may be
    infinite.  Values within a guard of a bound, where the last bits of
    ``_evaluate_array``'s sine could decide, are rechecked with the scalar
    ``evaluate``."""
    v = _evaluate_array(spec, t)
    inside = (lo <= v) & (v <= hi)
    guard = _VALUE_GUARD * max(1.0, abs(spec.offset) + spec.amplitude)
    near = np.flatnonzero((np.abs(v - lo) <= guard) | (np.abs(v - hi) <= guard))
    rows = zip(lo[near].tolist(), t[near].tolist(), hi[near].tolist())
    inside[near] = [a <= evaluate(spec, x) <= b for a, x, b in rows]
    return inside


def _sampled_exit(
    spec: Sampled, t_from: float, lo: float, hi: float, horizon: float
) -> tuple[float, Direction] | None:
    """Walk the linear segments up to ``horizon``; the first segment that
    ends beyond a level holds the root, interpolated between its own two
    samples, with the segment end as its bound."""
    if horizon > spec.span + TIME_ABS_TOL:
        raise OutOfSpanError(
            f"horizon {horizon} beyond sampled span [0, {spec.span}]"
        )
    dt, values = spec.sample_period, spec.values
    n_seg = len(values) - 1
    for j in range(min(int(t_from / dt), n_seg - 1), n_seg):
        t_b = min((j + 1) * dt, horizon)
        if t_b <= t_from:
            continue
        v_b = evaluate(spec, t_b)
        if v_b > hi or v_b < lo:
            rising = v_b > hi
            level = hi if rising else lo
            t_a, t_z = j * dt, (j + 1) * dt
            t_root = t_a + (level - values[j]) / ((values[j + 1] - values[j]) / (t_z - t_a))
            return _confirm(spec, t_from, t_root, t_b, level, rising)
        if t_b >= horizon:
            return None
    return None


def _confirm(
    spec: SignalSpec,
    t_from: float,
    t_root: float,
    t_last: float,
    level: float,
    rising: bool,
) -> tuple[float, Direction] | None:
    """Time just past the closed-form root ``t_root`` where the signal
    evaluates strictly beyond ``level``, with the traversal's direction;
    None if the signal does not show beyond the level by ``t_last``.

    ``t_last`` is the horizon, or the end of the piece the root belongs to
    if that comes first: a sine's extremum or a sampled segment's end.  The
    root is accurate to a few ulps unless the crossing is nearly tangent, so
    the first candidate is a small fraction of ``_time_tol`` past it (past
    ``t_from`` for a start on the boundary moving outward), clipped to
    ``t_last``.  A root at or past the horizon therefore counts only if the
    signal is already beyond at the horizon.  A crossing too shallow to show
    that soon is bisected against ``t_last``; if even ``t_last`` is not
    beyond, the excursion is a tangent in floating point.
    """

    def beyond(t: float) -> bool:
        v = evaluate(spec, t)
        return v > level if rising else v < level

    direction = Direction.UP if rising else Direction.DOWN
    t = max(t_root, t_from)
    t = min(t + _time_tol(t) * _ROOT_STEP_FRACTION, t_last)
    if beyond(t):
        return t, direction
    if t < t_last and beyond(t_last):
        return _bisect_beyond(spec, t, t_last, level, rising), direction
    return None
