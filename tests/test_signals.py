import dataclasses
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lcadc.signals import (
    TIME_ABS_TOL,
    TIME_REL_TOL,
    Constant,
    Direction,
    OutOfSpanError,
    Ramp,
    Sampled,
    Sine,
    SumOfSines,
    WindowStartError,
    _evaluate_array,
    evaluate,
    next_window_entry,
    next_window_exit,
)
from tests.reference import count_level_crossings, eval_grid, eval_scalar


def test_evaluate_sine_quarter_period():
    assert evaluate(Sine(amplitude=1.0, frequency=1.0), 0.25) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_constant():
    assert evaluate(Constant(0.5), 123.4) == 0.5


def test_evaluate_ramp():
    assert evaluate(Ramp(start=0.0, slope=2.0), 0.75) == pytest.approx(1.5)


def test_evaluate_sum_of_sines():
    spec = SumOfSines(tones=((1.0, 1.0, 0.0), (0.5, 3.0, 0.0)), offset=0.25)
    want = 0.25 + math.sin(2 * math.pi * 0.2) + 0.5 * math.sin(6 * math.pi * 0.2)
    assert evaluate(spec, 0.2) == pytest.approx(want, rel=1e-12)


def test_evaluate_sampled_interpolates():
    spec = Sampled(sample_period=1.0, values=(0.0, 2.0, 1.0))
    assert evaluate(spec, 0.5) == pytest.approx(1.0)
    assert evaluate(spec, 1.5) == pytest.approx(1.5)
    assert evaluate(spec, 2.0) == pytest.approx(1.0)


def test_evaluate_sampled_out_of_span():
    spec = Sampled(sample_period=1.0, values=(0.0, 1.0))
    with pytest.raises(OutOfSpanError):
        evaluate(spec, 1.5)
    with pytest.raises(OutOfSpanError):
        evaluate(spec, -0.5)


_VOLTS = st.floats(-20.0, 20.0)
_TONES = st.tuples(st.floats(0.0, 16.0), st.floats(1.0, 1e5), st.floats(0.0, 6.3))


@st.composite
def _specs(draw):
    kind = draw(st.sampled_from((Sine, Constant, Ramp, SumOfSines, Sampled)))
    if kind is Sine:
        amplitude, frequency, phase = draw(_TONES)
        return Sine(amplitude, frequency, phase, offset=draw(_VOLTS))
    if kind is Constant:
        return Constant(draw(_VOLTS))
    if kind is Ramp:
        return Ramp(draw(_VOLTS), draw(st.floats(-1e6, 1e6)))
    if kind is SumOfSines:
        return SumOfSines(draw(st.lists(_TONES, min_size=1, max_size=4)), offset=draw(_VOLTS))
    period = draw(st.floats(1e-6, 1e-2))
    return Sampled(period, draw(st.lists(_VOLTS, min_size=2, max_size=40)))


def _raises_out_of_span(f) -> bool:
    try:
        f()
    except OutOfSpanError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(spec=_specs(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
@example(spec=Sampled(1e-3, (-0.0, 1.0)), fractions=[0.0])  # -0.0 + 1.0 * -0.0 at t = -0.0
@example(spec=Sampled(0.1, (-4.201, 2.421, -2.82, 3.0)), fractions=[1.0])  # 3.0000000000000004
def test_evaluate_array_matches_scalar(spec, fractions):
    # bit for bit on constants, ramps and sampled waveforms, sample nodes and
    # signed zeros included; within 1e-12 V on sines, whose numpy sine may
    # round differently from math.sin
    if isinstance(spec, Sampled):
        span = spec.span
        nodes = [j * spec.sample_period for j in range(len(spec.values))]
        times = [u * span for u in fractions] + nodes + [-0.0, span]
    else:
        times = [u * 0.05 for u in fractions] + [-0.0]
    got = _evaluate_array(spec, np.array(times))
    want = [evaluate(spec, t) for t in times]
    assert got.shape == (len(times),)
    if isinstance(spec, (Sine, SumOfSines)):
        assert np.abs(got - want).max() <= 1e-12
    else:
        assert [float(v).hex() for v in got] == [v.hex() for v in want]
    if isinstance(spec, Sampled):
        # each sample time, the span end included, gives the sample's value
        # (a -0.0 sample may read as 0.0)
        assert [evaluate(spec, t) for t in nodes] == list(spec.values)
        assert evaluate(spec, span).hex() == spec.values[-1].hex()
        # raises for the same times as evaluate, just inside and just
        # outside either end of the span
        end, start = span + TIME_ABS_TOL, -TIME_ABS_TOL
        for t in (end, start, math.nextafter(end, math.inf), math.nextafter(start, -math.inf),
                  span + 2 * TIME_ABS_TOL, -2 * TIME_ABS_TOL):
            assert _raises_out_of_span(lambda: _evaluate_array(spec, np.array([0.0, t]))) == (
                _raises_out_of_span(lambda: evaluate(spec, t))
            )


def test_spec_validation():
    with pytest.raises(ValueError):
        Sine(amplitude=-1.0, frequency=1.0)
    with pytest.raises(ValueError):
        Sine(amplitude=1.0, frequency=0.0)
    with pytest.raises(ValueError):
        Sampled(sample_period=0.0, values=(0.0, 1.0))
    with pytest.raises(ValueError):
        Sampled(sample_period=1.0, values=(0.0,))
    with pytest.raises(ValueError):
        SumOfSines(tones=())


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Sine(16.0, _INF), "frequency"),
        (lambda: Sine(_NAN, 1e3), "amplitude"),
        (lambda: Sine(_INF, 1e3), "amplitude"),
        (lambda: Sine(1.0, 1e3, phase=_INF), "phase"),
        (lambda: Sine(1.0, 1e3, offset=_NAN), "offset"),
        (lambda: Constant(_NAN), "value"),
        (lambda: Constant(-_INF), "value"),
        (lambda: Ramp(0.0, _NAN), "slope"),
        (lambda: Ramp(_INF, 1.0), "start"),
        (lambda: SumOfSines(((1.0, _INF, 0.0),)), "frequency"),
        (lambda: SumOfSines(((_NAN, 1e3, 0.0),)), "amplitude"),
        (lambda: SumOfSines(((1.0, 1e3, -_INF),)), "phase"),
        (lambda: SumOfSines(((1.0, 1e3, 0.0),), offset=_NAN), "offset"),
        (lambda: Sampled(_NAN, (0.0, 1.0)), "sample_period"),
        (lambda: Sampled(_INF, (0.0, 1.0)), "sample_period"),
        (lambda: Sampled(1e-3, (0.0, _NAN, 1.0)), "values"),
        (lambda: Sampled(1e-3, (_INF, 0.0)), "values"),
    ],
)
def test_spec_rejects_non_finite_fields(make, name):
    # each spec checks every number it holds when it is built, and names
    # the field, rather than failing later in a search or a conversion
    with pytest.raises(ValueError, match=name):
        make()


def test_sum_of_sines_envelope_constants_are_not_fields():
    # the curvature envelope's constants are computed once per spec and kept
    # outside the dataclass fields, so none of the dataclass behaviour sees
    # them
    spec = SumOfSines(((1, 1e3, 0.5), (2.5, 3e3, 0)), offset=0.25)
    twin = SumOfSines(((1.0, 1000.0, 0.5), (2.5, 3000.0, 0.0)), offset=0.25)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != SumOfSines(((1.0, 1000.0, 0.5),), offset=0.25)
    assert repr(spec) == "SumOfSines(tones=((1.0, 1000.0, 0.5), (2.5, 3000.0, 0.0)), offset=0.25)"
    assert [f.name for f in dataclasses.fields(spec)] == ["tones", "offset"]
    assert dataclasses.asdict(spec) == {
        "tones": ((1.0, 1000.0, 0.5), (2.5, 3000.0, 0.0)),
        "offset": 0.25,
    }
    w = (2.0 * math.pi * 1e3, 2.0 * math.pi * 3e3)
    assert spec._envelope == ((1.0, w[0], 0.5, 1.0 * w[0]), (2.5, w[1], 0.0, 2.5 * w[1]))
    assert spec._curvature == 1.0 * w[0] * w[0] + 2.5 * w[1] * w[1]
    # a replaced or unpickled spec carries the constants of its own tones
    moved = dataclasses.replace(spec, tones=((4.0, 2e3, 0.1),))
    assert moved._envelope == SumOfSines(((4.0, 2e3, 0.1),), offset=0.25)._envelope
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    assert (copy._envelope, copy._curvature) == (spec._envelope, spec._curvature)


def test_exit_ramp_linear():
    got = next_window_exit(Ramp(start=0.0, slope=1.0), 0.0, -0.5, 1.0, 10.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.UP
    assert t == pytest.approx(1.0, abs=1e-9)


def test_exit_constant_never():
    assert next_window_exit(Constant(0.0), 0.0, -1.0, 1.0, 100.0) is None


def test_exit_sine_against_dense_scan():
    # first exit of sin(2*pi*t) from [-0.5, 0.5]: analytically t = 1/12
    spec = Sine(amplitude=1.0, frequency=1.0)
    got = next_window_exit(spec, 0.0, -0.5, 0.5, 1.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.UP
    assert t == pytest.approx(1.0 / 12.0, abs=1e-9)
    # dense scan confirms there is no earlier exit
    tt = np.linspace(0.0, t - 1e-7, 200_000)
    vv = eval_grid(spec, tt)
    assert np.all((vv >= -0.5) & (vv <= 0.5))


def test_exit_start_outside_is_contract_error():
    with pytest.raises(WindowStartError):
        next_window_exit(Constant(2.0), 0.0, -1.0, 1.0, 10.0)


def test_exit_bad_window_args():
    with pytest.raises(ValueError):
        next_window_exit(Constant(0.0), 0.0, 1.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        next_window_exit(Constant(0.0), 5.0, -1.0, 1.0, 5.0)


def test_exit_sampled_closed_form():
    spec = Sampled(sample_period=1.0, values=(0.0, 2.0, -2.0))
    got = next_window_exit(spec, 0.0, -1.0, 1.0, 2.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.UP
    assert 0.5 < t <= 0.5 + max(1e-12, 1e-9 * 0.5)
    assert evaluate(spec, t) > 1.0
    # starting past the first crossing finds the downward one; the second
    # segment falls from 1.0 at t=1.25 with slope -4, reaching -1.5 at 1.875
    got = next_window_exit(spec, 1.25, -1.5, 2.5, 2.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.DOWN
    assert 1.875 < t <= 1.875 + max(1e-12, 1e-9 * 1.875)
    assert evaluate(spec, t) < -1.5


def test_exit_sampled_horizon_beyond_span():
    spec = Sampled(sample_period=1.0, values=(0.0, 0.5, 0.0))
    with pytest.raises(OutOfSpanError):
        next_window_exit(spec, 0.0, -1.0, 1.0, 5.0)


def test_exit_returned_point_is_just_beyond():
    spec = Sine(amplitude=2.0, frequency=3.0, phase=0.7, offset=0.1)
    t, direction = next_window_exit(spec, 0.0, -1.0, 1.9, 2.0)
    boundary = 1.9 if direction is Direction.UP else -1.0
    v = evaluate(spec, t)
    tol = 2 * math.pi * spec.frequency * spec.amplitude * max(1e-12, 1e-9 * t) * 4.0
    assert abs(v - boundary) <= tol
    if direction is Direction.UP:
        assert v > boundary
        assert evaluate(spec, t - 1e-6) < boundary
    else:
        assert v < boundary
        assert evaluate(spec, t - 1e-6) > boundary


def test_exit_tangent_peak_is_not_a_crossing():
    # peak touches the boundary exactly: grazing must not count
    spec = Sine(amplitude=1.0, frequency=1.0)
    assert next_window_exit(spec, 0.4, -1.0, 1.0, 3.0) is None
    ups, downs = count_level_crossings(spec, 1.0, 0.4, 3.0, 2_000_000)
    assert ups == 0 and downs == 0


def test_exit_boundary_start_moving_inward():
    # starts exactly on the top boundary heading down: exits through the bottom
    spec = Sine(amplitude=0.5, frequency=1.0, phase=math.pi / 2, offset=0.5)
    got = next_window_exit(spec, 0.0, 0.2, 1.0, 2.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.DOWN
    # 0.5 + 0.5*cos(2*pi*t) = 0.2
    assert t == pytest.approx(math.acos(-0.6) / (2 * math.pi), abs=1e-9)


def test_exit_tangent_bottom_is_not_a_crossing():
    # the same sine grazes 0.0 exactly at t=0.5 without traversing it
    spec = Sine(amplitude=0.5, frequency=1.0, phase=math.pi / 2, offset=0.5)
    assert next_window_exit(spec, 0.0, 0.0, 1.0, 2.0) is None


def test_exit_sine_boundary_start_moving_outward():
    # sin(2*pi*t) starts on the top boundary heading up: it exits at once
    got = next_window_exit(Sine(amplitude=1.0, frequency=1.0), 0.0, -1.0, 0.0, 2.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.UP
    assert 0.0 < t <= TIME_ABS_TOL


def test_exit_sine_zero_amplitude_never():
    inside = Sine(amplitude=0.0, frequency=1.0, offset=0.5)
    assert next_window_exit(inside, 0.0, 0.5, 1.0, 10.0) is None
    above = Sine(amplitude=0.0, frequency=1.0, offset=2.0)
    assert next_window_entry(above, 0.0, 0.0, 1.0, 10.0) is None
    silent = SumOfSines(((0.0, 1.0, 0.0), (0.0, 3.0, 1.0)), offset=1.0)
    assert next_window_exit(silent, 0.0, 0.5, 1.0, 10.0) is None
    assert next_window_entry(silent, 0.0, 0.0, 1.0, 10.0) is None


def test_exit_sine_root_at_the_horizon():
    # 200 periods end on an upward zero crossing; the crossing counts only
    # when the signal already evaluates beyond the level at the horizon
    spec = Sine(amplitude=16.0, frequency=1000.0)
    assert evaluate(spec, 0.2) > 0.0
    assert next_window_exit(spec, 0.2 - 1e-6, -1.0, 0.0, 0.2) == (0.2, Direction.UP)
    unit = Sine(amplitude=1.0, frequency=1.0)
    assert evaluate(unit, 1.0) < 0.0
    assert next_window_exit(unit, 0.95, -0.5, 0.0, 1.0) is None


def test_exit_monotone_under_window_shrink():
    rng = random.Random(7)
    for _ in range(40):
        spec = Sine(
            amplitude=rng.uniform(0.5, 3.0),
            frequency=rng.uniform(0.2, 5.0),
            phase=rng.uniform(0, 2 * math.pi),
            offset=rng.uniform(-1, 1),
        )
        v0 = evaluate(spec, 0.0)
        half = rng.uniform(0.05, 0.5)
        lo, hi = v0 - half, v0 + half
        wide = next_window_exit(spec, 0.0, lo - 0.2, hi + 0.2, 20.0)
        narrow = next_window_exit(spec, 0.0, lo, hi, 20.0)
        if wide is None:
            continue
        assert narrow is not None
        assert narrow[0] <= wide[0] + 1e-9


def test_entry_from_above():
    spec = Sine(amplitude=1.0, frequency=1.0)  # starts at 0 going up
    # at t=0.25 the sine sits at its peak 1.0, above a [0, 0.5] window
    t = next_window_entry(spec, 0.25, 0.0, 0.5, 2.0)
    # sin(2*pi*t) = 0.5 going down at t = 5/12
    assert t == pytest.approx(5.0 / 12.0, abs=1e-9)
    assert 0.0 < evaluate(spec, t) < 0.5


def test_entry_ramp_never_returns():
    assert next_window_entry(Ramp(start=2.0, slope=1.0), 0.0, 0.0, 1.0, 50.0) is None


def test_entry_already_inside_returns_start():
    assert next_window_entry(Constant(0.2), 1.0, 0.0, 1.0, 2.0) == 1.0


def _tol(t):
    return max(TIME_ABS_TOL, TIME_REL_TOL * abs(t))


@settings(max_examples=200, deadline=None)
@given(
    amplitude=st.floats(0.5, 20.0),
    frequency=st.floats(1.0, 1e4),
    phase=st.floats(0.0, 2 * math.pi, exclude_max=True),
    offset=st.floats(-5.0, 5.0),
    width=st.floats(0.01, 0.5),
    eps=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
    period=st.integers(2, 50),
    upward=st.booleans(),
)
def test_sine_shallow_excursion_exit_and_entry(
    amplitude, frequency, phase, offset, width, eps, period, upward
):
    # a peak (or trough) passes one window boundary by eps*delta; the search
    # starts half a window inside, heading for it, and the horizon is the
    # mirror point on the far side of the extremum
    spec = Sine(amplitude=amplitude, frequency=frequency, phase=phase, offset=offset)
    delta = width * amplitude
    omega = 2 * math.pi * frequency
    turn = 2 * math.pi * period
    sign = 1.0 if upward else -1.0
    boundary = offset + sign * (amplitude - eps * delta)
    lo, hi = (boundary - delta, boundary) if upward else (boundary, boundary + delta)
    s_from = (boundary - sign * delta / 2 - offset) / amplitude
    theta_from = (math.asin(s_from) if upward else math.pi - math.asin(s_from)) + turn
    theta_ext = (0.5 if upward else 1.5) * math.pi + turn
    t_from = (theta_from - phase) / omega
    horizon = 2 * (theta_ext - phase) / omega - t_from

    got = next_window_exit(spec, t_from, lo, hi, horizon)
    if eps == 0.0:
        assert got is None  # tangent: the extremum only touches the boundary
        return
    s = (boundary - offset) / amplitude
    t_out = ((math.asin(s) if upward else math.pi - math.asin(s)) + turn - phase) / omega
    theta_back = math.pi - math.asin(s) if upward else 2 * math.pi + math.asin(s)
    t_back = (theta_back + turn - phase) / omega
    assert got is not None
    t, direction = got
    assert direction is (Direction.UP if upward else Direction.DOWN)
    v = evaluate(spec, t)
    assert (v > hi) if upward else (v < lo)
    assert abs(t - t_out) <= _tol(t_out)

    t_in = next_window_entry(spec, t, lo, hi, horizon)
    assert t_in is not None
    assert lo < evaluate(spec, t_in) < hi
    assert abs(t_in - t_back) <= _tol(t_back)

    n_steps = 200_000
    if t_back - t_out > 8 * (horizon - t_from) / n_steps:
        assert count_level_crossings(spec, boundary, t_from, horizon, n_steps) == (1, 1)


@settings(max_examples=200, deadline=None)
@given(
    tones=st.lists(
        st.tuples(st.floats(0.1, 10.0), st.floats(100.0, 1e4)), min_size=2, max_size=3
    ),
    t_ext=st.floats(1e-3, 2e-2),
    offset=st.floats(-5.0, 5.0),
    width=st.floats(0.01, 0.5),
    eps=st.floats(1e-7, 1e-2),
    peak=st.booleans(),
    entry=st.booleans(),
)
def test_sum_of_sines_graze_exit_and_entry(tones, t_ext, offset, width, eps, peak, entry):
    # every tone is phased to peak (or trough) at t_ext, so within half the
    # shortest period on either side the sum moves monotonically toward that
    # extremum, which passes a level by eps*delta.  For an exit the window
    # lies on the near side of the level; for an entry the signal starts
    # beyond it and dips just inside.  Either way the search starts on the
    # approach, and the only traversal before t_ext is the one root.
    sign = 1.0 if peak else -1.0
    spec = SumOfSines(
        tuple(
            (a, f, math.fmod(sign * math.pi / 2 - 2 * math.pi * f * t_ext, 2 * math.pi))
            for a, f in tones
        ),
        offset=offset,
    )
    delta = width * sum(a for a, _ in tones)
    level = evaluate(spec, t_ext) - sign * eps * delta
    window_below = peak != entry
    lo, hi = (level - delta, level) if window_below else (level, level + delta)
    half = 0.5 / max(f for _, f in tones)
    t_from, horizon = t_ext - half, t_ext + half

    def past(t):  # how far the reference sum is past the level, toward the extremum
        return sign * (eval_scalar(spec, t) - level)

    assert past(t_from) < 0.0  # the highest tone alone falls by 2*a >= 0.2 V
    if not entry and past(t_from) < -delta / 2:
        t_from = brentq(lambda t: past(t) + delta / 2, t_from, t_ext)
    root = brentq(past, t_from, t_ext, xtol=1e-18, rtol=4 * np.finfo(float).eps)

    if entry:
        t = next_window_entry(spec, t_from, lo, hi, horizon)
        assert t is not None
        assert lo < evaluate(spec, t) < hi
    else:
        got = next_window_exit(spec, t_from, lo, hi, horizon)
        assert got is not None
        t, direction = got
        assert direction is (Direction.UP if peak else Direction.DOWN)
    assert sign * (evaluate(spec, t) - level) > 0.0
    # near a shallow extremum the root is defined only to the resolution of
    # the evaluated sum: a few ulps of it over the slope there
    slope = sum(
        a * 2 * math.pi * f * math.cos(2 * math.pi * f * root + p) for a, f, p in spec.tones
    )
    res = 8 * math.ulp(abs(offset) + 2 * sum(a for a, _ in tones)) / abs(slope)
    res += 4 * math.ulp(t)
    assert root - res <= t <= root + _tol(root) + res


def _beyond(v, level, rising):
    return v > level if rising else v < level


def _check_linear_exit(spec, t_from, lo, hi, horizon, root, rising, slope):
    """One rule for every closed-form root: the exit is strictly beyond the
    level, not before the exact root ``root`` and within _tol past it; it is
    None when the root lies past the horizon and the signal is not yet
    beyond there.  ``res`` is the time the signal needs to move a few ulps
    at the level, within which evaluate cannot tell it from the level."""
    level = hi if rising else lo
    got = next_window_exit(spec, t_from, lo, hi, horizon)
    if root > horizon and not _beyond(evaluate(spec, horizon), level, rising):
        assert got is None
    if got is None:
        assert root > horizon - _tol(horizon)
        return
    t, direction = got
    assert direction is (Direction.UP if rising else Direction.DOWN)
    assert t_from < t <= horizon
    assert _beyond(evaluate(spec, t), level, rising)
    res = Fraction(4 * (math.ulp(max(abs(level), 1.0)) / abs(slope) + math.ulp(t)))
    assert root - res <= Fraction(t) <= root + Fraction(_tol(t)) + res


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(-4.0, 4.0),
    slope=st.floats(1.0, 1e4),
    rising=st.booleans(),
    t_from=st.floats(0.0, 2.0),
    gaps=st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
    stretch=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
)
def test_ramp_exit_single_rule(start, slope, rising, t_from, gaps, stretch):
    # stretch 1.0 puts the horizon on the root itself
    spec = Ramp(start=start, slope=slope if rising else -slope)
    v0 = evaluate(spec, t_from)
    lo, hi = v0 - gaps[0], v0 + gaps[1]
    level = hi if rising else lo
    root = (Fraction(level) - Fraction(start)) / Fraction(spec.slope)
    horizon = t_from + (float(root) - t_from) * stretch
    _check_linear_exit(spec, t_from, lo, hi, horizon, root, rising, slope)


def _first_linear_root(spec, t_from, lo, hi):
    """Exact first traversal of lo or hi by the interpolated samples after
    t_from, as (root, rising, segment slope), or None."""
    dt = Fraction(spec.sample_period)
    vals = [Fraction(v) for v in spec.values]

    def value(t):
        j = min(int(t / dt), len(vals) - 2)
        return vals[j] + (vals[j + 1] - vals[j]) * (t / dt - j)

    t_a = Fraction(t_from)
    for j in range(int(t_a / dt), len(vals) - 1):
        t_b = (j + 1) * dt
        if t_b <= t_a:
            continue
        v_a, v_b = value(t_a), value(t_b)
        for level, rising in ((Fraction(hi), True), (Fraction(lo), False)):
            if (v_b > level) if rising else (v_b < level):
                slope = (v_b - v_a) / (t_b - t_a)
                return t_a + (level - v_a) / slope, rising, float(slope)
        t_a = t_b
    return None


@settings(max_examples=300, deadline=None)
@given(
    period=st.sampled_from([1e-3, 0.1, 0.25, 1.0]),
    eighths=st.lists(st.integers(-32, 32), min_size=3, max_size=8),
    start=st.floats(0.0, 1.0, exclude_max=True),
    gaps=st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
    stretch=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
)
# the span, 0.30000000000000004, divided by the period rounds past the last
# sample index; the value there must be the last sample, not a hair beyond
@example(period=0.1, eighths=[-22, -6, -8, -6], start=0.0, gaps=(1.0, 2.0), stretch=1.0)
# the trough reaches -1.125, 1.3e-16 V past lo, at sample 3; 3 * 0.1 divided
# by the period rounds to either side of 3, and neither interpolates to the
# sample itself
@example(
    period=0.1, eighths=[23, 0, 0, -9, 0], start=0.0, gaps=(3.9999999999999996, 1.0), stretch=2.0
)
def test_sampled_exit_single_rule(period, eighths, start, gaps, stretch):
    spec = Sampled(sample_period=period, values=tuple(v / 8 for v in eighths))
    t_from = start * spec.span
    v0 = evaluate(spec, t_from)
    lo, hi = v0 - gaps[0], v0 + gaps[1]
    found = _first_linear_root(spec, t_from, lo, hi)
    if found is None:
        assert next_window_exit(spec, t_from, lo, hi, spec.span) is None
        return
    root, rising, slope = found
    horizon = min(t_from + (float(root) - t_from) * stretch, spec.span)
    if horizon > t_from:
        _check_linear_exit(spec, t_from, lo, hi, horizon, root, rising, slope)


def test_sampled_exit_where_the_crossing_segment_starts_at_the_horizon():
    # 1 - ulp divided by the period rounds to 3, so the start takes segment
    # 3, whose first sample, beyond hi, lies an ulp later on the horizon: a
    # root interpolated to the horizon would divide by zero
    spec = Sampled(sample_period=1 / 3, values=(0.0, 0.0, 0.0, 1.0, 1e6))
    t_from, hi = math.nextafter(1.0, 0.0), 1.0 - 1e-12
    assert evaluate(spec, t_from) < hi < evaluate(spec, 1.0)
    assert next_window_exit(spec, t_from, -1.0, hi, 1.0) == (1.0, Direction.UP)


def test_exit_ramp_boundary_start_moving_outward():
    spec = Ramp(start=1.0, slope=2.0)
    got = next_window_exit(spec, 0.0, 0.0, 1.0, 5.0)
    assert got is not None
    t, direction = got
    assert direction is Direction.UP
    assert 0.0 < t <= TIME_ABS_TOL
    assert evaluate(spec, t) > 1.0


def test_entry_sampled_closed_form():
    # from above: 4.2 at t=0.2 falls to 3.0 at t=0.3, crossing 4 at 0.2 + 1/60
    above = Sampled(sample_period=0.1, values=(5.0, 5.5, 4.2, 3.0, 2.0))
    t = next_window_entry(above, 0.0, 3.0, 4.0, 0.4)
    root = 0.2 + 0.1 / 6.0
    assert t is not None and root < t <= root + _tol(root)
    assert 3.0 < evaluate(above, t) < 4.0
    # from below: 2.5 at t=0.1 rises to 3.5 at t=0.2, crossing 3 at 0.15
    below = Sampled(sample_period=0.1, values=(1.0, 2.5, 3.5))
    t = next_window_entry(below, 0.0, 3.0, 4.0, 0.2)
    assert t is not None and 0.15 < t <= 0.15 + _tol(0.15)
    assert 3.0 < evaluate(below, t) < 4.0
    # the return lies past the horizon, and a span overrun is still an error
    assert next_window_entry(above, 0.0, 3.0, 4.0, 0.2) is None
    with pytest.raises(OutOfSpanError):
        next_window_entry(above, 0.0, 3.0, 4.0, 1.0)


@pytest.mark.parametrize("lo, hi, from_above", [(6.0, 7.0, True), (-6.0, -5.0, False)])
def test_entry_sum_of_sines_against_dense_grid(lo, hi, from_above):
    spec = SumOfSines(tones=((6.0, 110.0, 0.3), (2.5, 290.0, 1.1)), offset=0.5)
    t_end = 3 / 110.0
    tt = np.linspace(0.0, t_end, 200_001)
    vv = eval_grid(spec, tt)
    t_from = float(tt[np.argmax(vv > hi if from_above else vv < lo)])
    t_in = next_window_entry(spec, t_from, lo, hi, t_end)
    assert t_in is not None
    assert lo < evaluate(spec, t_in) < hi
    # up to t_in the signal traverses its boundary once, back inside; just
    # before t_in it is still on the far side
    boundary = hi if from_above else lo
    crossings = count_level_crossings(spec, boundary, t_from, t_in, 200_000)
    assert crossings == ((0, 1) if from_above else (1, 0))
    back = evaluate(spec, t_in - 2 * _tol(t_in))
    assert back >= hi if from_above else back <= lo


_EVERY_KIND = [
    Constant(0.5),
    Ramp(start=0.0, slope=1e3),
    Sine(amplitude=16.0, frequency=1e3),
    SumOfSines(tones=((8.0, 1e3, 0.0), (4.0, 3e3, 0.5))),
    Sampled(sample_period=1e-3, values=(0.0, 3.0, -2.0)),
]


# inf on every kind but a sum of sines, which searched it forever if the
# signal stayed inside
@pytest.mark.parametrize(
    "spec, horizon",
    [(spec, math.nan) for spec in _EVERY_KIND] + [(spec, math.inf) for spec in _EVERY_KIND[:3]],
    ids=lambda x: type(x).__name__ if not isinstance(x, float) else repr(x),
)
@pytest.mark.parametrize("search", [next_window_exit, next_window_entry])
def test_search_rejects_a_non_finite_horizon(search, spec, horizon):
    with pytest.raises(ValueError, match="horizon"):
        search(spec, 0.0, -1.0, 1.0, horizon)


def _grid_window(delta, v):
    """The window of the 32-level grid of step ``delta`` centred on 0 V, as
    ``AdcConfig.window`` builds it, that holds ``v``; None if rounding puts
    ``v`` outside the window its quotient names."""
    v_min = -16 * delta
    code = math.floor((v - v_min) / delta)
    lo, hi = v_min + code * delta, v_min + (code + 1) * delta
    return (lo, hi) if lo <= v <= hi else None


# where a start falls in (t1, t_x - 2 * _tol(t_x)), often close to its end
_LATE = st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.0), st.floats(1 - 1e-6, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    delta=st.sampled_from([1.0, 0.1, 1.0 / 3.0]),
    start=st.floats(-16.0, 16.0),
    slope=st.floats(-6.0, 6.0).filter(lambda e: abs(e) >= 1.0),
    t1=st.floats(0.0, 1e-2),
    late=_LATE,
)
def test_ramp_exit_does_not_depend_on_the_start(delta, start, slope, t1, late):
    # slopes of 10 to 1e6 grid steps per second
    spec = Ramp(start=delta * start, slope=math.copysign(delta * 10 ** abs(slope), slope))
    window = _grid_window(delta, evaluate(spec, t1))
    assume(window is not None)
    found = next_window_exit(spec, t1, *window, 1e3)
    t_x = found[0]
    t2 = t1 + late * (t_x - 2 * _tol(t_x) - t1)
    assume(t1 < t2 < t_x - 2 * _tol(t_x))
    assert next_window_exit(spec, t2, *window, 1e3) == found


@settings(max_examples=300, deadline=None)
@given(
    delta=st.sampled_from([1.0, 0.1, 1.0 / 3.0]),
    period=st.sampled_from([1e-5, 2e-5, 3e-6, 1e-5 / 3.0, 0.1]),
    eighths=st.lists(st.integers(-128, 128), min_size=2, max_size=40),
    first=st.floats(0.0, 1.0, exclude_max=True),
    late=_LATE,
)
def test_sampled_exit_does_not_depend_on_the_start(delta, period, eighths, first, late):
    # sample values on eighths of a grid step, so samples often land on a level
    spec = Sampled(sample_period=period, values=tuple(delta * v / 8 for v in eighths))
    t1 = first * spec.span
    window = _grid_window(delta, evaluate(spec, t1))
    assume(window is not None)
    found = next_window_exit(spec, t1, *window, spec.span)
    assume(found is not None)
    t_x = found[0]
    t2 = t1 + late * (t_x - 2 * _tol(t_x) - t1)
    assume(t1 < t2 < t_x - 2 * _tol(t_x))
    assert next_window_exit(spec, t2, *window, spec.span) == found
