import hashlib
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcadc import engine, signals
from lcadc.analysis import monte_carlo_off_time
from lcadc.engine import (
    AdcConfig,
    ConfigError,
    ack_time,
    initial_code,
    reconstruct,
    simulate,
    tracking_error,
)
from lcadc.analysis import max_frequency
from lcadc.signals import Constant, Direction, Ramp, Sampled, Sine, SumOfSines
from tests.reference import count_all_crossings, eval_grid, reference_simulate


def default_config(**kw) -> AdcConfig:
    base = dict(delta=1.0, level_count=32, v_min=-16.0, clock_freq=201000.0)
    base.update(kw)
    return AdcConfig(**base)


FULL_SCALE = Sine(amplitude=16.0, frequency=999.0, offset=0.0)


def test_ack_time_mid_period():
    assert ack_time(0.25, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_ack_time_on_edge_waits_two_full_periods():
    assert ack_time(1.0, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_ack_time_microsecond_scale():
    t_ack = ack_time(7e-6, 200000.0)
    assert t_ack == pytest.approx(15e-6, abs=1e-15)
    assert 5e-6 <= t_ack - 7e-6 < 10e-6


def test_ack_time_on_edge_float_grid():
    # 0.5 sits on the edge grid of a 0.1 s period despite float rounding
    assert ack_time(0.5, 10.0) == pytest.approx(0.7, abs=1e-9)


def test_ack_time_before_first_edge():
    # first edges at 0.3, 1.3 for phase 0.3
    assert ack_time(0.1, 1.0, clock_phase=0.3) == pytest.approx(1.3, abs=1e-12)


def test_ack_interval_bounds_random():
    rng = random.Random(3)
    for _ in range(500):
        f = rng.uniform(1e3, 1e6)
        t_clk = 1.0 / f
        phase = rng.uniform(0.0, t_clk * 0.999)
        t_req = rng.uniform(0, 1e-2)
        d = ack_time(t_req, f, phase) - t_req
        assert t_clk - 1e-9 * t_clk < d <= 2 * t_clk + 1e-9 * t_clk


def test_vectorized_ack_matches_scalar():
    # requests on edges, within +-1e-12 s of them (the simultaneity
    # tolerance), between them, and on a float grid far from t=0
    offsets = [0.0, 1e-12, -1e-12, 0.5e-12, -0.5e-12, 1.5e-12, -1.5e-12, 1e-13, -1e-13]
    for clock_freq, phase in ((201e3, 0.0), (201e3, 2.3e-6), (10.0, 0.0), (1.0, 0.3), (3.0, 0.0)):
        t_clk = 1.0 / clock_freq
        edges = [phase + k * t_clk for k in range(40)] + [k * t_clk for k in range(10**6, 10**6 + 40)]
        t_req = [e + d for e in edges for d in offsets]
        t_req += [e + f * t_clk for e in edges for f in (0.25, 0.5, 0.999)]
        t_req = [t for t in t_req if t >= 0.0]
        vector = engine._ack_times(np.asarray(t_req), clock_freq, phase)
        assert vector.tolist() == [ack_time(t, clock_freq, phase) for t in t_req]


def test_initial_state_floor_rule():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    code = initial_code(cfg, Constant(5.3))
    assert code == 5
    assert cfg.window(code) == (5.0, 6.0)


def test_initial_state_edges():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    assert initial_code(cfg, Constant(0.0)) == 0
    assert initial_code(cfg, Constant(31.999)) == 31
    assert initial_code(cfg, Constant(32.0)) == 31  # ceiling lands on top


@pytest.mark.parametrize(
    "v_min, delta, v0",
    [
        (-16.0, 1.0, -1e-17),  # (v0 - v_min) / delta rounds up to 16
        (-11.478909064550884, 0.7, 8.821090935449115),  # rounds down past a level
    ],
)
def test_initial_window_holds_the_input(v_min, delta, v0):
    cfg = AdcConfig(delta=delta, level_count=64, v_min=v_min, clock_freq=201e3)
    lo, hi = cfg.window(initial_code(cfg, Constant(v0)))
    assert lo <= v0 <= hi
    # the loop starts its first search from that window
    simulate(cfg, Constant(v0), 1e-3)
    simulate(cfg, Sine(1.0, 1000.0, offset=v0), 1e-3)


def test_adjacent_windows_share_a_boundary():
    # on the 0.1 V grid from -1.6 V, level 18 plus delta rounds to
    # 0.29999999999999993 and level 19 to 0.30000000000000004; each window
    # takes both bounds from the grid, so no input lies between two windows.
    # A sine rising from 0.3 V starts in window 18 and crosses into 19 at
    # once, in the engine as in the oracle
    cfg = AdcConfig(delta=0.1, level_count=32, v_min=-1.6, clock_freq=201e3)
    for code in range(31):
        assert cfg.window(code)[1] == cfg.window(code + 1)[0]
    spec = Sine(0.25, 1000.0, offset=0.3)
    trace = simulate(cfg, spec, 3e-3)
    ref = reference_simulate(cfg, spec, 3e-3, step=1e-8)
    first = trace.events[0]
    assert trace.initial_code == 18 and first.code_after == 19 and first.t_req < 1e-12
    assert len(trace.events) == len(ref.events) > 20
    for a, b in zip(trace.events, ref.events):
        assert abs(a.t_req - b.t_req) <= 2e-8
        assert (a.code_before, a.code_after) == (b.code_before, b.code_after)


def test_initial_state_out_of_range():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    with pytest.raises(ConfigError):
        initial_code(cfg, Constant(33.0))


def test_config_validation():
    with pytest.raises(ConfigError):
        AdcConfig(delta=0.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    with pytest.raises(ConfigError):
        AdcConfig(delta=1.0, level_count=1, v_min=0.0, clock_freq=1000.0)
    with pytest.raises(ConfigError):
        AdcConfig(delta=1.0, level_count=4, v_min=0.0, clock_freq=1000.0, clock_phase=2e-3)


@pytest.mark.parametrize("levels", [32.5, 2.000001])
def test_config_rejects_a_fractional_level_count(levels):
    # 32.5 levels would put input_limit at 16.5 V, past the top window's
    # 16 V, and quantize a 16.2 V input to the float code 31.5
    with pytest.raises(ConfigError, match="finite integer >= 2"):
        AdcConfig(delta=1.0, level_count=levels, v_min=-16.0, clock_freq=201e3)


def test_config_keeps_an_integral_float_level_count_as_an_int():
    # 32.0 levels is the 32-level converter: the same trace bytes, and a
    # top-clamped input starts in the int code 31
    as_float = AdcConfig(delta=1.0, level_count=32.0, v_min=-16.0, clock_freq=201e3)
    assert type(as_float.level_count) is int and as_float == default_config()
    spec = Sine(16.0, 1000.0)
    expected = simulate(default_config(), spec, 2e-3).to_json()
    assert simulate(as_float, spec, 2e-3).to_json() == expected
    assert '"level_count":32,' in expected
    code = initial_code(as_float, Constant(16.0))
    assert type(code) is int and code == 31


@pytest.mark.parametrize("levels", [math.inf, math.nan])
def test_config_rejects_a_non_finite_level_count_by_its_range(levels):
    # int() of these would raise OverflowError or a bare ValueError
    with pytest.raises(ConfigError, match="finite integer >= 2"):
        AdcConfig(delta=1.0, level_count=levels, v_min=-16.0, clock_freq=201e3)


def test_input_limit_identity():
    cfg = default_config()
    assert cfg.input_limit - cfg.v_min == pytest.approx(32 * cfg.delta, rel=1e-15)


def test_simulate_constant_no_events():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    tr = simulate(cfg, Constant(5.3), 1.0)
    assert tr.events == ()
    assert tr.saturation == ()
    assert not tr.overload


def test_simulate_rejects_bad_span():
    cfg = default_config()
    with pytest.raises(ValueError):
        simulate(cfg, Constant(0.0), 0.0)


_EVERY_KIND = [
    Constant(0.5),
    Ramp(start=0.0, slope=1e3),
    Sine(amplitude=16.0, frequency=1e3),
    SumOfSines(tones=((8.0, 1e3, 0.0), (4.0, 3e3, 0.5))),
    Sampled(sample_period=1e-3, values=(0.0, 3.0, -2.0)),
]


# NaN on every kind, where it gave an empty trace and a NaN average power;
# inf on the kinds where it returns (on a sine it never did)
@pytest.mark.parametrize(
    "spec, t_end",
    [(spec, math.nan) for spec in _EVERY_KIND] + [(spec, math.inf) for spec in _EVERY_KIND[:2]],
    ids=lambda x: type(x).__name__ if not isinstance(x, float) else repr(x),
)
def test_simulate_rejects_a_non_finite_span(spec, t_end):
    with pytest.raises(ValueError, match="t_end"):
        simulate(default_config(), spec, t_end)


def test_simulate_ramp_hand_example():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=10.0)
    tr = simulate(cfg, Ramp(start=0.5, slope=1.0), 3.05)
    assert len(tr.events) == 3
    assert [e.direction for e in tr.events] == [Direction.UP] * 3
    for ev, (t_req, t_ack) in zip(tr.events, [(0.5, 0.7), (1.5, 1.7), (2.5, 2.7)]):
        assert ev.t_req == pytest.approx(t_req, abs=1e-9)
        assert ev.t_ack == pytest.approx(t_ack, abs=1e-9)
        assert not ev.immediate
    assert [e.code_after for e in tr.events] == [1, 2, 3]


def test_simulate_ramp_matches_reference():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=10.0)
    spec = Ramp(start=0.5, slope=1.0)
    tr = simulate(cfg, spec, 3.05)
    ref = reference_simulate(cfg, spec, 3.05, step=1e-6)
    assert len(ref.events) == len(tr.events)
    for a, b in zip(tr.events, ref.events):
        assert abs(a.t_req - b.t_req) <= 2e-6
        assert a.t_ack == pytest.approx(b.t_ack, abs=1e-12)
        assert (a.code_before, a.code_after) == (b.code_before, b.code_after)


def test_simulate_full_scale_sine_one_period():
    cfg = default_config()
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    sine = Sine(amplitude=16.0, frequency=f_max, offset=0.0)
    tr = simulate(cfg, sine, 1.0 / f_max)
    # interior levels are traversed twice per period; the grazed extremes and
    # the period-end boundary contact do not count
    assert 61 <= len(tr.events) <= 64
    assert not tr.overload
    assert tr.saturation == ()
    levels = [cfg.v_min + k * cfg.delta for k in range(33)]
    oracle = count_all_crossings(sine, levels, 0.0, 1.0 / f_max, 2_000_000)
    assert len(tr.events) == oracle


def test_event_invariants_full_scale():
    cfg = default_config()
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    sine = Sine(amplitude=16.0, frequency=f_max, offset=0.0)
    tr = simulate(cfg, sine, 20.0 / f_max)
    t_clk = cfg.t_clk
    prev = None
    for ev in tr.events:
        assert abs(ev.code_after - ev.code_before) == 1
        assert 0 <= ev.code_after <= 31
        lo = cfg.v_min + ev.code_after * cfg.delta
        assert (lo + cfg.delta) - lo == pytest.approx(cfg.delta, rel=1e-15)
        if not ev.immediate:
            assert t_clk < ev.off_duration <= 2 * t_clk
        if prev is not None:
            assert ev.t_req > prev.t_req
            assert ev.t_req >= prev.t_on - 1e-15
        prev = ev


def test_mean_off_duration_uniform_phase():
    # incommensurate crossing spacing keeps requests spread over the period
    cfg = AdcConfig(delta=1.0, level_count=64, v_min=0.0, clock_freq=200000.0)
    t_clk = cfg.t_clk
    spacing = (1 + math.sqrt(5)) / 2 + 1.0  # 2.618 clock periods per level
    spec = Ramp(start=0.0, slope=1.0 / (spacing * t_clk))
    tr = simulate(cfg, spec, 60 * spacing * t_clk)
    offs = [e.off_duration for e in tr.events]
    assert len(offs) >= 55
    assert all(t_clk < d <= 2 * t_clk for d in offs)


def test_saturation_pins_window_and_records_interval():
    cfg = AdcConfig(delta=1.0, level_count=8, v_min=-4.0, clock_freq=100000.0)
    sine = Sine(amplitude=5.0, frequency=50.0, offset=0.0)  # exceeds the range
    tr = simulate(cfg, sine, 0.04)  # two periods
    assert len(tr.saturation) == 4  # two top, two bottom excursions
    for t0, t1 in tr.saturation:
        assert 0.0 <= t0 < t1 <= 0.04
    assert all(0 <= e.code_after <= 7 for e in tr.events)
    # saturation matches the time the input spends beyond the range within
    # loop-latency slack
    import numpy as np

    from tests.reference import eval_grid

    tt = np.linspace(0, 0.04, 400_000)
    vv = eval_grid(sine, tt)
    beyond = float(np.mean((vv > 4.0) | (vv < -4.0)) * 0.04)
    pinned = sum(t1 - t0 for t0, t1 in tr.saturation)
    assert pinned == pytest.approx(beyond, rel=0.05)


def test_saturation_matches_reference():
    cfg = AdcConfig(delta=1.0, level_count=8, v_min=-4.0, clock_freq=100000.0)
    sine = Sine(amplitude=5.0, frequency=50.0, offset=0.0)
    tr = simulate(cfg, sine, 0.04)
    step = 1e-3 / 100000.0
    ref = reference_simulate(cfg, sine, 0.04, step=step)
    assert len(ref.events) == len(tr.events)
    assert len(ref.saturation) == len(tr.saturation)
    for a, b in zip(tr.events, ref.events):
        assert abs(a.t_req - b.t_req) <= 2 * step


@pytest.mark.parametrize(
    "settle, spec, t_end, served, catch_ups",
    [
        # full scale at 1.5 kHz, past the tracking limit
        (0.0, Sine(16.0, 1500.0), 2e-3, 183, 140),
        # a catch-up into the top rail
        (0.0, Sine(16.0, 1500.0, phase=0.5, offset=6.0), 1 / 1500.0, 45, 36),
        # past the limit with a settle time
        (1e-6, Sine(16.0, 1200.0, phase=0.3), 2e-3, 145, 89),
    ],
)
def test_every_event_field_matches_reference(settle, spec, t_end, served, catch_ups):
    # the time-stepped oracle requests at the first grid sample beyond a
    # boundary, at most one step after the engine; a catch-up at the
    # power-up in both.  At this step no clock edge falls between the two
    # requests, so every ACK and power-up agrees
    cfg = default_config(settle_time=settle)
    step = cfg.t_clk / 1000
    trace = simulate(cfg, spec, t_end)
    ref = reference_simulate(cfg, spec, t_end, step)
    assert len(trace.events) == len(ref.events) == served
    assert sum(ev.immediate for ev in trace.events) == catch_ups
    for ev, want in zip(trace.events, ref.events):
        assert (ev.direction.value, ev.code_before, ev.code_after, ev.immediate) == (
            want.direction, want.code_before, want.code_after, want.immediate
        )
        assert ev.t_req <= want.t_req <= ev.t_req + step
        assert ev.t_ack == pytest.approx(want.t_ack, abs=1e-12)
        assert ev.t_on == pytest.approx(want.t_on, abs=1e-12)
    assert len(trace.saturation) == len(ref.saturation)
    for got, want in zip(trace.saturation, ref.saturation):
        assert all(t <= w <= t + step for t, w in zip(got, want))
    assert trace.overload == ref.overload


def test_overload_flag_thresholds():
    cfg = default_config()
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    below = simulate(cfg, Sine(amplitude=16.0, frequency=0.9 * f_max, offset=0.0), 50 / f_max)
    assert not below.overload
    above = simulate(cfg, Sine(amplitude=16.0, frequency=1.5 * f_max, offset=0.0), 50 / f_max)
    assert above.overload
    assert above.overload_time is not None
    assert any(e.immediate for e in above.events)


def test_reconstruct_empty_trace():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    tr = simulate(cfg, Constant(5.3), 0.5)
    assert reconstruct(tr) == [(0.0, 5.5)]


def test_reconstruct_steps_at_ack():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=10.0)
    tr = simulate(cfg, Ramp(start=0.5, slope=1.0), 3.05)
    steps = reconstruct(tr)
    assert steps[0] == (0.0, 0.5)
    times = [t for t, _ in steps[1:]]
    values = [v for _, v in steps[1:]]
    assert times == pytest.approx([0.7, 1.7, 2.7], abs=1e-9)
    assert values == pytest.approx([1.5, 2.5, 3.5])


def test_tracking_error_constant_is_quantization_only():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    spec = Constant(5.3)
    tr = simulate(cfg, spec, 0.5)
    max_err, rms = tracking_error(tr, spec)
    assert max_err <= 0.5 * cfg.delta + 1e-12
    assert rms <= max_err + 1e-12


def test_tracking_error_half_speed_sine():
    cfg = default_config()
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    spec = Sine(amplitude=16.0, frequency=0.5 * f_max, offset=0.0)
    tr = simulate(cfg, spec, 20 / spec.frequency)
    max_err, _ = tracking_error(tr, spec)
    assert max_err <= 2.0 * cfg.delta
    assert not tr.overload


def test_tracking_error_past_limit_blows_the_bound():
    cfg = default_config()
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    spec = Sine(amplitude=16.0, frequency=1.5 * f_max, offset=0.0)
    tr = simulate(cfg, spec, 30 / spec.frequency)
    max_err, _ = tracking_error(tr, spec)
    assert tr.overload
    assert max_err > 2.0 * cfg.delta


def _reference_tracking_error(trace, spec, grid_points):
    """tracking_error from the oracle's waveform values and a walk over the
    events for the code held at each grid time."""
    cfg = trace.config
    dt = trace.t_end / (grid_points - 1)
    times = [i * dt for i in range(grid_points)]
    held = []
    code, j = trace.initial_code, 0
    for t in times:
        while j < len(trace.events) and trace.events[j].t_ack <= t:
            code = trace.events[j].code_after
            j += 1
        held.append(cfg.v_min + (code + 0.5) * cfg.delta)
    err = eval_grid(spec, np.array(times)) - np.array(held)
    return float(np.abs(err).max()), math.sqrt(float(np.mean(err * err)))


@pytest.mark.parametrize(
    "spec, t_end",
    [
        (Sine(15.0, 900.0, phase=0.2, offset=0.5), 0.01),
        (SumOfSines(((5.0, 700.0, 0.3), (3.0, 1500.0, 1.1), (2.0, 2500.0, 2.0)), offset=1.0), 0.01),
        (Ramp(start=-10.0, slope=2000.0), 0.015),  # into the top rail at 13 ms
        (Sampled(1e-4, tuple(12.0 * math.sin(0.37 * k * k) for k in range(101))), 0.01),
    ],
)
def test_tracking_error_matches_reference(spec, t_end):
    cfg = default_config(clock_phase=1.7e-6)
    trace = simulate(cfg, spec, t_end)
    assert len(trace.events) > 20
    for grid_points in (2, 777, 10_000):
        got = tracking_error(trace, spec, grid_points)
        want = _reference_tracking_error(trace, spec, grid_points)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)


def test_simulate_deterministic():
    cfg = default_config(clock_phase=1.23e-6)
    tr1 = simulate(cfg, FULL_SCALE, 0.01)
    tr2 = simulate(cfg, FULL_SCALE, 0.01)
    assert tr1.to_json() == tr2.to_json()


def test_trace_json_schema():
    import json

    cfg = default_config()
    tr = simulate(cfg, FULL_SCALE, 0.002)
    doc = json.loads(tr.to_json())
    assert set(doc) == {
        "config",
        "initial_code",
        "events",
        "saturation",
        "overload",
        "overload_time",
        "t_end",
    }
    assert doc["t_end"] == 0.002
    ev = doc["events"][0]
    assert set(ev) == {"t_req", "dir", "code_before", "code_after", "t_ack", "t_on", "immediate"}
    assert ev["dir"] in ("up", "down")


def test_to_json_renders_the_columns_as_json_dumps_does():
    # catch-up events, a settle time (t_on != t_ack) and rail intervals
    cfg = default_config(clock_phase=1.7e-6, settle_time=0.3e-6)
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    for spec in (Sine(16.0, 1.5 * f_max), Sine(10.0, 300.0, offset=9.0), Constant(0.5)):
        tr = simulate(cfg, spec, 0.01)
        assert tr.to_json() == json.dumps(tr.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert tr.to_json_dict()["events"] == []


def test_simulate_sampled_waveform_matches_reference():
    cfg = AdcConfig(delta=1.0, level_count=16, v_min=-8.0, clock_freq=50000.0)
    rng = random.Random(19)
    values = [0.0]
    for _ in range(60):
        values.append(max(-7.5, min(7.5, values[-1] + rng.uniform(-2.5, 2.5))))
    spec = __import__("lcadc").Sampled(sample_period=2e-4, values=tuple(values))
    t_end = 60 * 2e-4
    tr = simulate(cfg, spec, t_end)
    assert len(tr.events) >= 10
    step = 1e-3 * cfg.t_clk
    ref = reference_simulate(cfg, spec, t_end, step)
    assert len(ref.events) == len(tr.events)
    for a, b in zip(tr.events, ref.events):
        assert abs(a.t_req - b.t_req) <= 2 * step
        assert (a.code_before, a.code_after) == (b.code_before, b.code_after)


def test_sampled_span_end_on_a_level_is_no_crossing():
    # the last sample lies on the 3 V level: interpolating to it gave
    # 3.0000000000000004, and a crossing from code 18 into 19 at the span
    # end that the input never makes
    cfg = default_config()
    spec = Sampled(0.1, (-4.201, 2.421, -2.82, 3.0))
    tr = simulate(cfg, spec, spec.span)
    step = 1e-6
    ref = reference_simulate(cfg, spec, spec.span, step)
    assert len(tr.events) == len(ref.events) == 17
    assert tr.events[-1].code_after == 18
    for a, b in zip(tr.events, ref.events):
        assert abs(a.t_req - b.t_req) <= 2 * step
        assert (a.code_before, a.code_after) == (b.code_before, b.code_after)


def test_simulate_sum_of_sines_matches_reference():
    from lcadc.signals import SumOfSines

    cfg = AdcConfig(delta=1.0, level_count=32, v_min=-16.0, clock_freq=100000.0)
    spec = SumOfSines(tones=((6.0, 110.0, 0.3), (2.5, 290.0, 1.1)), offset=0.5)
    t_end = 3 / 110.0
    tr = simulate(cfg, spec, t_end)
    assert len(tr.events) >= 20
    step = 1e-3 * min(cfg.t_clk, 1 / 290.0)
    ref = reference_simulate(cfg, spec, t_end, step)
    assert len(ref.events) == len(tr.events)
    for a, b in zip(tr.events, ref.events):
        assert abs(a.t_req - b.t_req) <= 2 * step


def test_settle_time_delays_power_up():
    cfg = AdcConfig(
        delta=1.0, level_count=32, v_min=0.0, clock_freq=10.0, settle_time=0.05
    )
    tr = simulate(cfg, Ramp(start=0.5, slope=1.0), 1.0)
    ev = tr.events[0]
    assert ev.t_on == pytest.approx(ev.t_ack + 0.05, abs=1e-12)
    assert ev.off_duration == pytest.approx(0.2 + 0.05, abs=1e-9)


@pytest.mark.parametrize(
    "spec, n_cross",
    [
        # the peak passes the 14 V level by 0.5 mV and lasts about 2.7 us
        # above it; the trough passes -13 V.  Each period traverses 28
        # levels twice.
        (Sine(amplitude=13.7005, frequency=1000.0, offset=0.3), 560),
        # its peak passes the 14 V level by 50 uV once per period
        (
            SumOfSines(((9.0, 1000.0, 0.0), (4.0, 2000.0, 0.5)), offset=3.965439903),
            460,
        ),
    ],
    ids=["sine", "sum_of_sines"],
)
def test_shallow_peak_served_at_every_clock_phase(spec, n_cross):
    base = default_config()
    assert count_all_crossings(spec, range(-15, 16), 0.0, 0.01, 2_000_000) == n_cross
    short = []
    for i in range(50):
        trace = simulate(replace(base, clock_phase=i / 50 * base.t_clk), spec, 0.01)
        if len(trace.events) != n_cross:
            short.append((i, len(trace.events)))
    assert short == []


@pytest.mark.parametrize(
    "spec, t_end, step",
    [
        # reaches the 4 V rail at 2.43 s and never returns
        (Ramp(start=2.171474608930848, slope=0.7519956499210796), 10.0, 1e-5),
        # pinned at the bottom rail from 0.193 s, at the top from 0.396 s
        (Sampled(sample_period=0.1, values=(0.5, 2.7, -0.2, -1.0, 4.2)), 0.4, 1e-6),
    ],
)
def test_piecewise_linear_saturation_matches_reference(spec, t_end, step):
    # an exit time on the boundary rather than beyond it would re-enter at
    # once and record a zero-length interval the reference never sees
    cfg = AdcConfig(delta=1.0, level_count=4, v_min=0.0, clock_freq=1e3)
    tr = simulate(cfg, spec, t_end)
    ref = reference_simulate(cfg, spec, t_end, step)
    assert len(tr.events) == len(ref.events)
    assert len(tr.saturation) == len(ref.saturation)
    for (a0, a1), (b0, b1) in zip(tr.saturation, ref.saturation):
        assert a0 < a1
        assert abs(a0 - b0) <= 2 * step and abs(a1 - b1) <= 2 * step


def test_rail_crossing_at_span_end_is_recorded():
    # the input crosses into the top rail on the last instant of the span:
    # the saturation interval is (t_end, t_end), not a search past t_end
    cfg = AdcConfig(delta=1.0, level_count=4, v_min=0.0, clock_freq=201e3)
    at_end = 0
    for k in range(1, 400):
        t_end = k / 1000
        tr = simulate(cfg, Sine(amplitude=0.5, frequency=1000.0, offset=4.0), t_end)
        assert len(tr.saturation) in (k, k + 1)
        assert all(0.0 < t0 <= t1 <= t_end for t0, t1 in tr.saturation)
        if len(tr.saturation) == k + 1:
            assert tr.saturation[-1] == (t_end, t_end)
            at_end += 1
    assert at_end > 0
    for k in range(1, 400):
        t_end = 3.5 / k
        tr = simulate(cfg, Ramp(start=0.5, slope=float(k)), t_end)
        assert [e.code_after for e in tr.events] == [1, 2, 3]
        assert tr.saturation in ((), ((t_end, t_end),))


def _search_work(monkeypatch, spec, t_end):
    """A trace with the evaluate calls and the curvature-envelope steps made
    inside its crossing searches."""
    engine._sine_requests.cache_clear()  # a sine's list is solved afresh
    calls = {"evaluate": 0, "_envelope_step": 0}

    def counting(name):
        real = getattr(signals, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(signals, name, counting(name))
        trace = simulate(default_config(), spec, t_end)
    return trace, calls["evaluate"], calls["_envelope_step"]


def test_search_work_is_pinned(monkeypatch):
    # exact work counts inside the crossing search at the stock converter; a
    # search that does different work changes them.  A sum of sines
    # evaluates at each search's start and in bisection; each envelope step
    # takes value and slope in its own pass over the tones
    spec = SumOfSines(tones=((10.0, 1000.0, 0.0), (7.0, 2300.0, 0.4)))
    trace, calls, steps = _search_work(monkeypatch, spec, 0.01)
    assert (len(trace.events), len(trace.saturation), calls, steps) == (686, 7, 328, 1471)
    # a sine's requests come from the list, whose arrays recheck each entry
    # near its level (all of them this early), and whose one last scalar
    # search finds nothing before t_end: 619 + 2 calls
    trace, calls, _ = _search_work(monkeypatch, Sine(16.0, 1000.0), 0.01)
    assert (len(trace.events), len(trace.saturation), calls) == (619, 0, 621)


def _seeded_tones(seed, amplitude, top_frequency):
    """Three tones drawn from ``seed``: amplitudes summing to ``amplitude``,
    frequencies up to ``top_frequency`` hertz, any phase."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.2, 1.0) for _ in range(3)]
    return tuple(
        (amplitude * w / sum(weights), rng.uniform(0.1, 1.0) * top_frequency, rng.uniform(0.0, 6.28))
        for w in weights
    )


@pytest.mark.parametrize(
    "seed, amplitude, top_frequency, shape, digest",
    [
        # inside the range and below the tracking limit
        (1, 12.0, 600.0, (110, 0, False), "d32432c2d108191ee3c1db5a78637f04916711e0b9e9ecdbec9555e05bbffb3b"),
        # into both rails: entry searches on half-lines
        (6, 22.0, 300.0, (104, 2, False), "b6a88ce582880a9e6dbbd57063e335b8226b98a9957dfe41a700d313c5bdae73"),
        # past the slew limit: catch-up requests and overload
        (3, 12.0, 3000.0, (440, 0, True), "3c475b930731a5cd655dc622b004c985639ee85eb16a2be2610aaa4734180641"),
    ],
)
def test_sum_of_sines_trace_bytes_are_pinned(seed, amplitude, top_frequency, shape, digest):
    # the curvature-envelope search decides every request of a sum of
    # sines, so a change to its float operations moves these bytes
    trace = simulate(default_config(), SumOfSines(_seeded_tones(seed, amplitude, top_frequency)), 0.01)
    assert (len(trace.t_req), len(trace.saturation), trace.overload) == shape
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest


def test_event_rows_match_the_columns():
    # a trace with a settle time, catch-up requests and rail crossings:
    # every row of ``events`` reads its fields from the columns
    config = default_config(clock_phase=1e-6, settle_time=1e-6)
    trace = simulate(config, SumOfSines(_seeded_tones(3, 20.0, 3000.0)), 0.005)
    assert trace.immediate.any() and trace.saturation and config.settle_time > 0
    events = trace.events
    assert len(events) == len(trace.t_req)
    for j, ev in enumerate(events):
        step = int(trace.dir[j])
        assert ev.t_req == trace.t_req[j] and ev.t_ack == trace.t_ack[j]
        assert ev.t_on == trace.t_on[j] == ev.t_ack + 1e-6
        assert ev.direction is (Direction.UP if step == 1 else Direction.DOWN)
        assert ev.code_after == trace.code_after[j]
        assert ev.code_before == ev.code_after - step
        assert ev.immediate is bool(trace.immediate[j])
        assert ev.off_duration == ev.t_on - ev.t_req
        assert [type(v) for v in ev] == [float, Direction, int, int, float, float, bool]
    # a row is a read-only tuple; dataclasses.replace makes a changed copy
    ev = events[0]
    with pytest.raises(AttributeError):
        ev.t_req = 0.0
    with pytest.raises(TypeError):
        ev[0] = 0.0
    assert ev == tuple(ev) and replace(ev, immediate=not ev.immediate)[:6] == ev[:6]


def _loop_trace(config, spec, t_end):
    """The conversion loop alone from t=0, without the shared request
    sequence a sine input otherwise takes."""
    record = engine._Record()
    code = initial_code(config, spec)
    engine._serve(config, spec, t_end, record, code, 0.0, None)
    return record.trace(config, code, t_end)


@settings(max_examples=120, deadline=None)
@given(
    amplitude=st.floats(1.0, 18.0),
    offset=st.floats(-6.0, 6.0) | st.none(),
    speed=st.floats(0.05, 2.0),
    sine_phase=st.floats(0.0, 6.28),
    delta=st.sampled_from([1.0, 0.1, 1 / 3]),
    clocks=st.lists(
        st.tuples(st.sampled_from([100e3, 150e3, 201e3, 402e3]), st.floats(0.0, 0.999)),
        min_size=1,
        max_size=4,
    ),
    settle=st.sampled_from([0.0, 0.0, 1e-6, 2e-6]) | st.floats(0.0, 2e-6),
    periods=st.floats(0.3, 5.0),
)
def test_lockstep_matches_event_loop(
    amplitude, offset, speed, sine_phase, delta, clocks, settle, periods
):
    # frequency up to twice the tracking limit at 201 kHz, offsets that
    # drive some runs into a rail, on integer and non-dyadic level grids;
    # runs at a few clock frequencies and phases read the solved request
    # list, cached per clock frequency, and each must give the loop's trace
    # byte for byte, as must a rerun on the cached list.  Amplitude and
    # offset count levels; no offset means 0.3 V, just below level 19 of
    # the 0.1 V grid (0.30000000000000004)
    base = default_config()
    volts = 0.3 if offset is None else offset * delta
    assume(abs(volts + amplitude * delta * math.sin(sine_phase)) < 15.9 * delta)
    frequency = speed * max_frequency(amplitude, base.delta, base.t_clk)
    spec = Sine(amplitude * delta, frequency, phase=sine_phase, offset=volts)
    t_end = periods / frequency
    engine._sine_requests.cache_clear()
    for clock_freq, clock in clocks:
        cfg = replace(
            base,
            delta=delta,
            v_min=-16 * delta,
            clock_freq=clock_freq,
            clock_phase=clock / clock_freq,
            settle_time=settle,
        )
        assert simulate(cfg, spec, t_end).to_json() == _loop_trace(cfg, spec, t_end).to_json()
    again = simulate(cfg, spec, t_end).to_json()
    engine._sine_requests.cache_clear()
    assert simulate(cfg, spec, t_end).to_json() == again


def test_lockstep_skips_excursions_inside_the_off_time():
    # a 0.1 V sine at 150 kHz, inside the tracking limit, crosses the 0 V
    # level 80 times in 40 periods.  A power-up often finds the input back
    # inside the shifted window after it crossed out and in again while the
    # comparators were off: the loop never sees those two crossings.  Which
    # ones it misses depends on the clock phase, so the one request list,
    # which holds every crossing (a run at this phase, without catch-ups,
    # serves them all), serves another phase only as far as the
    # certificate allows
    base = default_config()
    spec = Sine(0.1, 150e3, offset=0.03)
    t_end = 40 / spec.frequency
    recorder = replace(base, clock_phase=0.5 * base.t_clk)
    assert not _loop_trace(recorder, spec, t_end).immediate.any()
    quiet = 0
    for i in range(20):
        cfg = replace(base, clock_phase=i / 20 * base.t_clk)
        expected = _loop_trace(cfg, spec, t_end)
        engine._sine_requests.cache_clear()
        simulate(recorder, spec, t_end)
        assert simulate(cfg, spec, t_end).to_json() == expected.to_json()
        assert len(expected.t_req) < 80
        quiet += not expected.immediate.any()
    assert quiet >= 5


def _cached_list(spec, config, t_end):
    """The cached request list of ``spec`` at ``config``'s grid and clock
    frequency over ``t_end``, as simulate reads it."""
    return engine._sine_requests(spec, replace(config, clock_phase=0.0, settle_time=0.0), t_end)


def _same_list(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a[:4], b[:4])) and a[4] == b[4]


def test_a_run_does_not_depend_on_the_runs_before_it():
    # just past the tracking limit each clock phase meets its first catch-up
    # request at a different point, and lockstep serves each phase exactly
    # the listed requests before it.  A run's trace, and the cached list,
    # are the same on a fresh cache, after a run at another phase and after
    # a run over another span
    base = default_config()
    spec = Sine(16.0, 1.01 * max_frequency(16.0, base.delta, base.t_clk))
    t_end = 20 / spec.frequency
    engine._sine_requests.cache_clear()
    fresh = _cached_list(spec, base, t_end)
    assert len(fresh[0]) == 1239 and fresh[4] == ()
    before = (None, replace(base, clock_phase=0.3 * base.t_clk), base)
    for i, served in ((0, 867), (11, 30), (17, 744), (5, 650), (12, 93), (14, 153)):
        cfg = replace(base, clock_phase=i / 20 * base.t_clk)
        expected = _loop_trace(cfg, spec, t_end)
        assert int(np.argmax(expected.immediate)) == served
        record = engine._Record()
        assert engine._lockstep(cfg, spec, record, 16, fresh) == (
            int(expected.code_after[served - 1]),
            float(expected.t_on[served - 1]),
            Direction.UP if expected.dir[served - 1] > 0 else Direction.DOWN,
        )
        assert len(record.prefix[0]) == served
        for other, span in zip(before, (t_end, t_end, t_end / 2)):
            engine._sine_requests.cache_clear()
            if other is not None:
                simulate(other, spec, span)
            assert simulate(cfg, spec, t_end).to_json() == expected.to_json()
            assert _same_list(_cached_list(spec, cfg, t_end), fresh)


def test_a_catch_up_into_a_rail_hands_over_before_it():
    # the input rises through the top levels faster than the converter
    # follows.  The list holds the clock-free crossing into the top rail,
    # which a run meets only if its search after the crossing into code 31
    # finds it; at most phases that power-up already finds the input past
    # the rail, so the saturation interval starts at a clock-dependent time
    # and lockstep hands over before it
    base = default_config()
    spec = Sine(16.0, 1500.0, phase=0.5, offset=6.0)
    t_end = 1 / spec.frequency
    engine._sine_requests.cache_clear()
    requests = _cached_list(spec, base, t_end)
    assert len(requests[0]) == 50
    assert requests[4] == ((1.858203278775145e-05, 0.000208648005182235),)
    at_power_up = 0
    for i in range(10):
        cfg = replace(base, clock_phase=i / 10 * base.t_clk)
        trace = simulate(cfg, spec, t_end)
        assert trace.to_json() == _loop_trace(cfg, spec, t_end).to_json()
        record = engine._Record()
        engine._lockstep(cfg, spec, record, initial_code(cfg, spec), requests)
        if trace.saturation[0] == requests[4][0]:
            assert record.prefix[0][-1] > trace.saturation[0][1]
        else:
            start = trace.saturation[0][0]
            assert start in trace.t_on.tolist() and record.prefix[0][-1] < start
            at_power_up += 1
    assert at_power_up == 8


def test_a_returned_trace_is_read_only_and_apart_from_the_shared_list():
    # the trace's columns are read-only copies; the cached list's arrays
    # are read-only too, so no caller can change what later runs read
    spec, t_end = Sine(16.0, 1000.0), 2e-3
    other = default_config(clock_phase=1e-6)
    expected = _loop_trace(other, spec, t_end).to_json()
    engine._sine_requests.cache_clear()
    trace = simulate(default_config(), spec, t_end)
    shared = _cached_list(spec, default_config(), t_end)
    names = ("t_req", "t_ack", "code_after", "t_on", "dir", "immediate")
    for column in (*(getattr(trace, name) for name in names), *shared[:4]):
        with pytest.raises(ValueError):
            column[:] = 0
        others = (array for array in shared[:4] if array is not column)
        assert not any(np.shares_memory(column, array) for array in others)
    assert simulate(other, spec, t_end).to_json() == expected


def test_monte_carlo_solves_the_shared_list_once(monkeypatch):
    # 20 clock phases at the stock point share one request list: it is
    # solved once, with no loop search, and serves every trial whole.  The
    # scalar work left is one last search after the list and the evaluate
    # calls that recheck values near a level
    calls = {"_sine_chain": 0, "_sine_block": 0, "_exit": 0, "_sine_exit": 0, "evaluate": 0}

    def counting(name):
        real = getattr(signals, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(signals, name, counting(name))
    monkeypatch.setattr(engine, "_sine_chain", signals._sine_chain)
    spec = Sine(16.0, 1000.0)
    t_end = 10.25e-3
    engine._sine_requests.cache_clear()
    stats = monte_carlo_off_time(default_config(), spec, t_end, trials=20, seed=1)
    assert stats.n_events == 20 * 635
    # the list is solved in two blocks, the first of about 1024 crossings at
    # the steepest slope (10.09 ms); each of its 635 entries comes too early
    # for the candidate to clear the guard and is rechecked, and the last
    # scalar search, which finds nothing before t_end, evaluates once
    work = {"_sine_chain": 1, "_sine_block": 2, "_exit": 0, "_sine_exit": 1, "evaluate": 636}
    assert calls == work
    # the same list serves another run at the same point
    simulate(default_config(clock_phase=1e-6), spec, t_end)
    assert calls == work


@pytest.mark.parametrize(
    ("bits", "speed", "t_end", "work"),
    [
        (22, 64e3, 2e-3, (1, 1, 2_053, 1_023)),
        (16, 0.5, 0.2, (9_892, 3, 20_117, 9_894)),
        (22, 0.5, 0.2, (10_049, 3, 20_116, 10_051)),
    ],
)
def test_the_list_work_does_not_grow_with_the_level_count(monkeypatch, bits, speed, t_end, work):
    # a full-scale sine far past the tracking limit outruns the clock at
    # once: its list ends at the first request, inside a first block of
    # about 1024 crossings at the steepest slope.  At half the limit the
    # list runs on, block by block.  The requests listed, the blocks, the
    # levels whose half-widths are solved and the evaluate calls are
    # pinned; none grows with the level count, and the runs are the loop's
    config = AdcConfig(delta=2.0 / 2**bits, level_count=2**bits, v_min=-1.0, clock_freq=201e3)
    spec = Sine(0.999, speed * max_frequency(0.999, config.delta, config.t_clk))
    counts = {"_sine_block": 0, "levels": 0, "evaluate": 0}

    def counting(name, size=lambda *args: 1):
        real = getattr(signals, name)

        def counted(*args):
            counts["levels" if name == "_half_widths" else name] += size(*args)
            return real(*args)

        return counted

    engine._sine_requests.cache_clear()
    with monkeypatch.context() as patch:
        for name in ("_sine_block", "evaluate"):
            patch.setattr(signals, name, counting(name))
        patch.setattr(signals, "_half_widths", counting("_half_widths", len))
        requests = _cached_list(spec, config, t_end)
    assert (len(requests[0]), *counts.values()) == work
    assert simulate(config, spec, t_end).to_json() == _loop_trace(config, spec, t_end).to_json()


def _sine_stable_until(spec, t_from, lo, hi):
    """The scalar bound a listed limit equals: a time such that
    ``_sine_exit`` from any start in [t_from, that time) returns what it
    returns from ``t_from``.  The search reads its start only through each
    level's period index and through ``max(t_root, t_from)`` in
    ``_confirm``; both stay put before every root, less a time tolerance
    that dwarfs the rounding of the index.  -inf if rounding put t_from on
    an extremum; +inf if no level is traversed."""
    excursions = signals._sine_excursions(spec, t_from, lo, hi)
    if not excursions:
        return math.inf
    if any(shifted for *_, shifted in excursions):
        return -math.inf
    first = excursions[0][0]
    return first - signals._time_tol(first)


def _scalar_rails(spec, config, t, code, t_end):
    """The scalar searches from ``t`` in the window of ``code`` as the loop
    runs them while every power-up comes at once: the rail crossings met
    before the next request, as (start, end) pairs, and that request as
    (t_req, step), or None if the span ends first."""
    rails = []
    while True:
        lo, hi = config.window(code)
        found = signals._sine_exit(spec, t, lo, hi, t_end)
        if found is None:
            return rails, None
        step = 1 if found[1] is Direction.UP else -1
        if 0 <= code + step < config.level_count:
            return rails, (found[0], step)
        back = None
        if found[0] < t_end:
            back = signals.next_window_entry(spec, found[0], lo, hi, t_end)
        rails.append((found[0], t_end if back is None else back))
        if back is None:
            return rails, None
        t = back


@settings(max_examples=120, deadline=None)
@given(
    amplitude=st.floats(1.0, 18.0),
    offset=st.floats(-6.0, 6.0) | st.none(),
    speed=st.floats(0.05, 2.0),
    sine_phase=st.floats(0.0, 6.28),
    delta=st.sampled_from([1.0, 0.1, 1 / 3]),
    clock_freq=st.sampled_from([100e3, 150e3, 201e3, 402e3]),
    periods=st.floats(0.3, 5.0),
)
def test_sine_chain_is_the_chained_scalar_search(
    amplitude, offset, speed, sine_phase, delta, clock_freq, periods
):
    # the inputs of test_lockstep_matches_event_loop: each listed request is
    # the scalar search from the one before it, in the window after it,
    # with the rail crossings between them, and its limit is the scalar
    # bound from it, bit for bit.  Only the last limit may instead be -inf,
    # where the list ends before the span does: at a search the arrays
    # cannot decide, or at the first request whose bound comes within a
    # clock period
    base = default_config()
    volts = 0.3 if offset is None else offset * delta
    assume(abs(volts + amplitude * delta * math.sin(sine_phase)) < 15.9 * delta)
    frequency = speed * max_frequency(amplitude, base.delta, base.t_clk)
    spec = Sine(amplitude * delta, frequency, phase=sine_phase, offset=volts)
    t_end = periods / frequency
    config = replace(base, delta=delta, v_min=-16 * delta, clock_freq=clock_freq)
    code = initial_code(config, spec)
    chain = signals._sine_chain(spec, config.level, config.level_count, code, t_end, config.t_clk)
    if chain is None:
        return
    t_req, step, code_after, limit, rails = chain
    t, seen = 0.0, []
    for i in range(len(t_req)):
        before, found = _scalar_rails(spec, config, t, code, t_end)
        seen += before
        assert found == (t_req[i], step[i])
        t, code = found[0], code + found[1]
        assert code == code_after[i]
        bound = _sine_stable_until(spec, t, *config.window(code))
        if i < len(t_req) - 1:
            assert limit[i] == bound and bound > t + config.t_clk
    after, found = _scalar_rails(spec, config, t, code, t_end)
    if len(t_req) and limit[-1] == -math.inf:
        assert rails in (tuple(seen), tuple(seen + after))
    else:
        # a whole list: the scalar searches end with it
        assert found is None and rails == tuple(seen + after)
        assert not len(t_req) or limit[-1] == bound
