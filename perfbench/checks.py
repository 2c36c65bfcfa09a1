"""Output checks for the benchmark's ops.

Everything here is independent of the simulator's own search code: the
protocol checks read only the recorded event columns, and the crossing
oracle counts level traversals of a sum of sines from its exact extrema
(located on the derivative with numpy), never calling lcadc.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Requests landing within this of a clock edge count as simultaneous with it,
# so the acknowledge wait may reach 2*t_clk by this much (engine contract).
EDGE_TOLERANCE = 1e-12
# Largest misalignment of an acknowledge time from the clock grid, in periods.
EDGE_ALIGNMENT = 1e-6
# Derivative samples per period of the fastest tone when locating extrema.
_ORACLE_SAMPLES_PER_PERIOD = 512
_ORACLE_BISECTIONS = 60
# Grid intervals evaluated at once when locating extrema.
_ORACLE_CHUNK = 2048
# An extremum that passes a level by less than this share of delta grazes it.
# The engine's fixed-pitch scan guarantees only excursions wider than a
# fraction of its window and can step over a graze, and the acceptance test
# of oracle equivalence keeps sine peaks this far off the level grid.
GRAZE_MARGIN = 0.05


@dataclass(frozen=True)
class EventColumns:
    """One trace's served crossings as parallel numpy arrays."""

    t_req: np.ndarray
    up: np.ndarray
    code_before: np.ndarray
    code_after: np.ndarray
    t_ack: np.ndarray
    t_on: np.ndarray

    def __len__(self) -> int:
        return len(self.t_req)


def columns_from_events(events) -> EventColumns:
    """Columns from an iterable of lcadc CrossingEvent objects."""
    rows = [
        (e.t_req, e.direction.value == "up", e.code_before, e.code_after, e.t_ack, e.t_on)
        for e in events
    ]
    return _columns(rows)


def columns_from_json(events: list[dict]) -> EventColumns:
    """Columns from the ``events`` list of a parsed trace.json."""
    rows = [
        (e["t_req"], e["dir"] == "up", e["code_before"], e["code_after"], e["t_ack"], e["t_on"])
        for e in events
    ]
    return _columns(rows)


def _columns(rows: list[tuple]) -> EventColumns:
    if not rows:
        empty_f = np.zeros(0)
        empty_i = np.zeros(0, dtype=np.int64)
        empty_b = np.zeros(0, dtype=bool)
        return EventColumns(empty_f, empty_b, empty_i, empty_i, empty_f, empty_f)
    t_req, up, before, after, t_ack, t_on = zip(*rows)
    return EventColumns(
        t_req=np.asarray(t_req, dtype=float),
        up=np.asarray(up, dtype=bool),
        code_before=np.asarray(before, dtype=np.int64),
        code_after=np.asarray(after, dtype=np.int64),
        t_ack=np.asarray(t_ack, dtype=float),
        t_on=np.asarray(t_on, dtype=float),
    )


def protocol_problems(
    ev: EventColumns,
    initial_code: int,
    clock_freq: float,
    clock_phase: float,
    settle_time: float,
) -> list[str]:
    """Violations of the second-edge-ACK protocol in one trace.

    Each event moves the code one step in its direction, the codes chain from
    the initial code, the acknowledge lands on a clock edge with
    ``t_ack - t_req`` in (T, 2T] (2T widened by the simultaneity tolerance),
    ``t_on = t_ack + settle``, and times never decrease.
    """
    problems: list[str] = []
    if len(ev) == 0:
        return problems
    t_clk = 1.0 / clock_freq
    step = np.where(ev.up, 1, -1)
    if np.any(ev.code_after - ev.code_before != step):
        problems.append(f"code step differs from direction at event {_first(ev.code_after - ev.code_before != step)}")
    chained = np.concatenate(([initial_code], ev.code_after[:-1]))
    if np.any(ev.code_before != chained):
        problems.append(f"code chain broken at event {_first(ev.code_before != chained)}")
    wait = ev.t_ack - ev.t_req
    bad_wait = (wait <= t_clk) | (wait > 2.0 * t_clk + EDGE_TOLERANCE)
    if np.any(bad_wait):
        problems.append(f"t_ack - t_req outside (T, 2T] at event {_first(bad_wait)}")
    edges = (ev.t_ack - clock_phase) / t_clk
    off_grid = np.abs(edges - np.round(edges)) > EDGE_ALIGNMENT
    if np.any(off_grid):
        problems.append(f"t_ack off the clock grid at event {_first(off_grid)}")
    bad_on = np.abs(ev.t_on - (ev.t_ack + settle_time)) > EDGE_TOLERANCE
    if np.any(bad_on):
        problems.append(f"t_on != t_ack + settle at event {_first(bad_on)}")
    backwards = np.concatenate(([ev.t_req[0] < 0.0], ev.t_req[1:] < ev.t_on[:-1]))
    if np.any(backwards):
        problems.append(f"time decreases at event {_first(backwards)}")
    return problems


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


@dataclass(frozen=True)
class Traversals:
    """The oracle's count of level traversals; ``grazing`` of them run into
    or out of an extremum that passes its level by under the graze margin."""

    total: int
    grazing: int

    def problems(self, served: int) -> list[str]:
        """Every traversal that is not a graze must be served; a graze may be
        stepped over, which ``missed`` counts."""
        if self.total - self.grazing <= served <= self.total:
            return []
        return [f"{served} events, oracle counts {self.total} traversals, {self.grazing} of them grazing"]

    def missed(self, served: int) -> int:
        return max(self.total - served, 0)


def interior_traversals(
    tones: tuple[tuple[float, float, float], ...],
    offset: float,
    t_end: float,
    v_min: float,
    delta: float,
    level_count: int,
) -> Traversals:
    """Strict traversals of the interior levels v_min + k*delta, k=1..n-1,
    by offset + sum(a*sin(2*pi*f*t + p)) over [0, t_end].

    Between consecutive extrema the signal is monotone, so each segment
    traverses exactly the levels lying strictly between its end values.
    Extrema are the sign changes of the derivative on a grid of 512 points
    per period of the fastest tone, refined by bisection.  A segment's top
    (bottom) level is grazing when the segment's upper (lower) end is an
    extremum less than ``GRAZE_MARGIN * delta`` beyond it.
    """
    amp = np.array([a for a, _, _ in tones], dtype=float)
    omega = np.array([2.0 * math.pi * f for _, f, _ in tones], dtype=float)
    phase = np.array([p for _, _, p in tones], dtype=float)

    def value(t: np.ndarray) -> np.ndarray:
        return offset + (amp * np.sin(np.multiply.outer(t, omega) + phase)).sum(axis=-1)

    def slope(t: np.ndarray) -> np.ndarray:
        return (amp * omega * np.cos(np.multiply.outer(t, omega) + phase)).sum(axis=-1)

    pitch = 2.0 * math.pi / omega.max() / _ORACLE_SAMPLES_PER_PERIOD
    intervals = int(math.ceil(t_end / pitch))
    step = t_end / intervals
    # the grid is scanned in chunks sharing their end points, so the checker's
    # temporaries stay small beside the simulator's own memory
    lefts, signs = [], []
    for first in range(0, intervals, _ORACLE_CHUNK):
        t = np.arange(first, min(first + _ORACLE_CHUNK, intervals) + 1) * step
        sign = np.sign(slope(t))
        idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        lefts.append(t[idx])
        signs.append(sign[idx])
    a, sign_a = np.concatenate(lefts), np.concatenate(signs)
    b = a + step
    for _ in range(_ORACLE_BISECTIONS):
        mid = 0.5 * (a + b)
        left = np.sign(slope(mid)) == sign_a
        a = np.where(left, mid, a)
        b = np.where(left, b, mid)
    points = np.concatenate(([0.0], 0.5 * (a + b), [t_end]))
    v = value(points)
    lo = np.minimum(v[:-1], v[1:])
    hi = np.maximum(v[:-1], v[1:])
    k_lo = np.maximum(np.floor((lo - v_min) / delta) + 1, 1)
    k_hi = np.minimum(np.ceil((hi - v_min) / delta) - 1, level_count - 1)
    counts = np.maximum(k_hi - k_lo + 1, 0)
    extremum = np.zeros(len(points), dtype=bool)
    extremum[1:-1] = True
    rising = v[1:] >= v[:-1]
    top_is_extremum = np.where(rising, extremum[1:], extremum[:-1])
    bottom_is_extremum = np.where(rising, extremum[:-1], extremum[1:])
    margin = GRAZE_MARGIN * delta
    top = (counts > 0) & top_is_extremum & (hi - (v_min + k_hi * delta) < margin)
    bottom = (counts > 0) & bottom_is_extremum & ((v_min + k_lo * delta) - lo < margin)
    grazing = top.astype(int) + bottom - (top & bottom & (k_lo == k_hi))
    return Traversals(int(counts.sum()), int(grazing.sum()))


def trace_file_problems(
    trace_path: str,
    power_path: str,
    expected: Traversals,
    reported_events: int,
) -> list[str]:
    """Check a written trace.json/power.json pair.

    Both files must parse back to the event count the command reported, the
    events must pass the protocol checks, and the count must agree with the
    oracle's ``expected`` traversals.
    """
    with open(trace_path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    with open(power_path, "r", encoding="utf-8") as fh:
        power = json.load(fh)
    problems: list[str] = []
    events = trace["events"]
    if len(events) != reported_events:
        problems.append(f"trace.json holds {len(events)} events, command reported {reported_events}")
    if power["n_cross"] != reported_events:
        problems.append(f"power.json n_cross {power['n_cross']}, command reported {reported_events}")
    cfg = trace["config"]
    problems.extend(
        protocol_problems(
            columns_from_json(events),
            trace["initial_code"],
            cfg["clock_freq"],
            cfg["clock_phase"],
            cfg["settle_time"],
        )
    )
    problems.extend(expected.problems(len(events)))
    return problems
