import math
import random
from dataclasses import fields

import numpy as np
import pytest

from lcadc.engine import AdcConfig, ConfigError, Trace, simulate
from lcadc.power import (
    EVENT_ENERGY_BREAKEVEN_201K,
    ModelDomainError,
    PowerParams,
    analytic_power,
    breakeven_clock,
    crossing_rate_sine,
    mean_off_time,
    measure,
)
from lcadc.signals import Constant, Sine
from tests.reference import count_level_crossings


def make_trace(off_durations, t_end, clock_freq=200000.0, gap=None):
    """Synthetic trace with the given off durations, events well separated."""
    cfg = AdcConfig(delta=1.0, level_count=64, v_min=0.0, clock_freq=clock_freq)
    n = len(off_durations)
    gap = gap if gap is not None else t_end / (n + 1)
    t_req = (np.arange(n) + 0.5) * gap
    t_on = t_req + np.asarray(off_durations, dtype=float)
    return Trace(
        config=cfg,
        initial_code=0,
        t_req=t_req,
        t_ack=t_on,
        code_after=np.arange(1, n + 1),
        saturation=(),
        overload_time=None,
        t_end=t_end,
    )


def test_measure_off_time_adds_left_to_right():
    # measure sums the clipped off intervals in event order, as a += loop
    # over the events does; a pairwise or compensated sum rounds differently
    rng = np.random.default_rng(11)
    trace = make_trace(rng.uniform(5e-6, 1e-5, 4000), t_end=0.05, gap=1.25e-5)
    expected = 0.0
    for ev in trace.events:
        expected += min(ev.t_on, trace.t_end) - min(ev.t_req, trace.t_end)
    off = np.minimum(trace.t_on, trace.t_end) - np.minimum(trace.t_req, trace.t_end)
    assert float(np.sum(off)) != expected  # the data tells the orders apart
    assert measure(trace, PowerParams()).t_off == expected


def test_params_validation():
    with pytest.raises(ValueError):
        PowerParams(p_on=1e-6, p_off=2e-6)
    with pytest.raises(ValueError):
        PowerParams(p_on=1e-6, p_off=-1e-9)
    with pytest.raises(ValueError):
        PowerParams(e_event=-1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name", [(cls, f.name) for cls in (AdcConfig, PowerParams) for f in fields(cls)]
)
def test_non_finite_field_is_rejected(cls, name, value):
    # a check written as ``x < 0`` lets a NaN through, and an upper bound
    # must be stated for an infinity to fail: settle_time = nan simulated a
    # trace with a NaN t_on, and p_on = inf gave NaN reports
    stock = {"delta": 1.0, "level_count": 32, "v_min": -16.0, "clock_freq": 201e3}
    error = ConfigError if cls is AdcConfig else ValueError
    with pytest.raises(error, match=name):
        cls(**{**(stock if cls is AdcConfig else {}), name: value})


def test_measure_empty_trace_always_on():
    cfg = AdcConfig(delta=1.0, level_count=32, v_min=0.0, clock_freq=1000.0)
    tr = simulate(cfg, Constant(5.5), 1.0)
    rep = measure(tr, PowerParams())
    assert rep.p_avg == pytest.approx(2.6e-6, rel=1e-12)
    assert rep.reduction == pytest.approx(0.0, abs=1e-12)
    assert rep.off_fraction == 0.0
    assert rep.t_on + rep.t_off == rep.t_total


def test_measure_matches_summary_table_point():
    # off fraction 0.455 with the measured on/off powers
    n = 1000
    t_end = 1.0
    d = 0.455 * t_end / n
    tr = make_trace([d] * n, t_end)
    rep = measure(tr, PowerParams(p_on=2.6e-6, p_off=0.2e-6))
    assert rep.off_fraction == pytest.approx(0.455, rel=1e-9)
    assert rep.p_avg == pytest.approx(1.508e-6, rel=1e-3)
    assert rep.reduction == pytest.approx(0.42, abs=0.005)


def test_measure_half_off_normalized():
    tr = make_trace([7.5e-6], 15e-6, gap=7e-6)
    rep = measure(tr, PowerParams(p_on=2.0, p_off=0.0))
    assert rep.p_avg == pytest.approx(1.0, rel=1e-9)


def test_measure_clips_trailing_off_window():
    # the event's power-up lands past the end of the span
    tr = make_trace([4e-3], 1e-3, gap=0.9e-3)
    rep = measure(tr, PowerParams(p_on=1.0, p_off=0.0))
    assert rep.t_off == pytest.approx(1e-3 - 0.45e-3, rel=1e-12)
    assert 0.0 <= rep.off_fraction <= 1.0


def test_energy_identity_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 40)
        t_end = rng.uniform(0.5, 2.0)
        gap = t_end / (n + 1)
        offs = [rng.uniform(0, gap * 0.9) for _ in range(n)]
        params = PowerParams(
            p_on=rng.uniform(1e-6, 5e-6),
            p_off=rng.uniform(0, 0.9e-6),
            e_event=rng.uniform(0, 1e-10),
        )
        rep = measure(make_trace(offs, t_end), params)
        expected = (
            params.p_on * rep.t_total
            - (params.p_on - params.p_off) * rep.t_off
            + rep.n_cross * params.e_event
        )
        assert rep.energy == pytest.approx(expected, rel=1e-12)


def test_reduction_identity_no_event_energy():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randrange(0, 30)
        t_end = 1.0
        gap = t_end / (n + 1)
        offs = [rng.uniform(0, gap * 0.9) for _ in range(n)]
        params = PowerParams(p_on=2.6e-6, p_off=0.2e-6, e_event=0.0)
        rep = measure(make_trace(offs, t_end), params)
        want = rep.off_fraction * (1.0 - params.p_off / params.p_on)
        assert rep.reduction == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_p_avg_monotone_in_off_fraction():
    params = PowerParams(p_on=2.6e-6, p_off=0.2e-6, e_event=0.0)
    fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9]
    p = [
        measure(make_trace([f / 10] * 10, 1.0), params).p_avg if f else measure(make_trace([], 1.0), params).p_avg
        for f in fractions
    ]
    assert all(b <= a + 1e-18 for a, b in zip(p, p[1:]))


def test_analytic_power_zero_rate_is_on_power():
    params = PowerParams()
    assert analytic_power(params, 0.0, 5e-6) == pytest.approx(params.p_on, rel=1e-12)


def test_mean_off_time_direct():
    assert mean_off_time(5e-6) == pytest.approx(7.5e-6, rel=1e-12)


def test_analytic_power_summary_point():
    params = PowerParams(p_on=2.6e-6, p_off=0.2e-6, e_event=0.0)
    t_clk = 5e-6
    rate = 0.455 / mean_off_time(t_clk)
    assert analytic_power(params, rate, t_clk) == pytest.approx(1.508e-6, rel=1e-6)


def test_analytic_power_domain_error():
    with pytest.raises(ModelDomainError):
        analytic_power(PowerParams(), crossing_rate=1e6, t_clk=5e-6)


def test_analytic_power_includes_event_energy():
    params = PowerParams(p_on=2.0, p_off=0.0, e_event=1e-9)
    got = analytic_power(params, 100.0, 1e-4)
    assert got == pytest.approx(2.0 * (1 - 100 * 1.5e-4) + 100 * 1e-9, rel=1e-12)


def test_measure_reports_analytic_from_own_rate():
    tr = make_trace([7.5e-6] * 10, 1e-3)
    rep = measure(tr, PowerParams(p_on=2.0, p_off=0.0))
    rate = 10 / 1e-3
    assert rep.p_avg_analytic == pytest.approx(
        analytic_power(PowerParams(p_on=2.0, p_off=0.0), rate, tr.config.t_clk), rel=1e-12
    )


def test_measure_analytic_none_outside_domain():
    # clock so slow that the event rate exceeds the model's validity
    tr = make_trace([0.09] * 10, 1.0, clock_freq=10.0, gap=0.095)
    rep = measure(tr, PowerParams(p_on=2.0, p_off=0.0))
    assert rep.p_avg_analytic is None
    assert rep.p_avg > 0


def test_crossing_rate_sine_value():
    assert crossing_rate_sine(16.0, 1000.0, 1.0) == pytest.approx(64000.0, rel=1e-12)


def test_crossing_rate_limit_small_frequency():
    assert crossing_rate_sine(16.0, 1e-9, 1.0) == pytest.approx(64e-9, rel=1e-12)


def test_crossing_rate_matches_brute_force_average():
    # averaged over random offsets the discrete count approaches 4*A*f/delta
    from tests.reference import count_all_crossings

    rng = random.Random(5)
    amp, freq, delta = 16.25, 100.0, 1.0
    periods = 4
    levels = [k * delta for k in range(-20, 21)]
    counts = []
    for _ in range(24):
        offset = rng.uniform(-0.5, 0.5)
        spec = Sine(amplitude=amp, frequency=freq, offset=offset)
        total = count_all_crossings(spec, levels, 0.0, periods / freq, 250_000)
        counts.append(total / (periods / freq))
    mean_rate = sum(counts) / len(counts)
    assert mean_rate == pytest.approx(crossing_rate_sine(amp, freq, delta), rel=0.05)


def test_crossing_rate_grazing_amplitude_is_alignment_dependent():
    # amplitude of half a level: the approximation says 2f, the exact count
    # swings between 0 and 2f with the offset alignment
    freq, delta = 50.0, 1.0
    centered = Sine(amplitude=0.5, frequency=freq, offset=0.5)  # spans (0, 1) exactly
    u, d = count_level_crossings(centered, 0.0, 0.0, 2 / freq, 400_000)
    u2, d2 = count_level_crossings(centered, 1.0, 0.0, 2 / freq, 400_000)
    assert u + d + u2 + d2 == 0  # grazes both neighbours, never crosses
    shifted = Sine(amplitude=0.5, frequency=freq, offset=0.2)  # straddles level 0
    u, d = count_level_crossings(shifted, 0.0, 0.0, 1 / freq, 400_000)
    assert u + d == 2
    assert crossing_rate_sine(0.5, freq, delta) == pytest.approx(2 * freq, rel=1e-12)


def test_breakeven_clock_mean_matches_preset():
    params = PowerParams(p_on=2.6e-6, p_off=0.2e-6, e_event=EVENT_ENERGY_BREAKEVEN_201K)
    f = breakeven_clock(params)
    assert f == pytest.approx(201e3, rel=1e-3)


def test_breakeven_clock_direct_substitution():
    params = PowerParams(p_on=1.2e-6, p_off=0.2e-6, e_event=1e-12)
    assert breakeven_clock(params) == pytest.approx(1.5e6, rel=1e-12)
    assert breakeven_clock(params, off_time="min") == pytest.approx(1.0e6, rel=1e-12)


def test_breakeven_clock_zero_overhead_signals_no_breakeven():
    with pytest.raises(ModelDomainError):
        breakeven_clock(PowerParams(e_event=0.0))


def test_breakeven_clock_grows_unbounded_as_overhead_vanishes():
    params_small = PowerParams(p_on=1.2e-6, p_off=0.2e-6, e_event=1e-18)
    assert breakeven_clock(params_small) > 1e12


def test_breakeven_rejects_bad_mode():
    with pytest.raises(ValueError):
        breakeven_clock(PowerParams(e_event=1e-12), off_time="median")


def test_power_report_json_round_values():
    import json

    tr = make_trace([1e-5] * 3, 1e-3)
    rep = measure(tr, PowerParams())
    doc = json.loads(rep.to_json())
    assert set(doc) == {
        "t_total",
        "t_on",
        "t_off",
        "n_cross",
        "off_fraction",
        "energy",
        "p_avg",
        "p_avg_analytic",
        "reduction",
    }
    assert doc["n_cross"] == 3
