import math
import random
from dataclasses import replace

import numpy as np
import pytest

from lcadc.analysis import (
    boundary_curve,
    max_frequency,
    monte_carlo_off_time,
    off_fraction_analytic,
    optimal_clock,
    sweep,
)
from lcadc.engine import AdcConfig
from lcadc.power import ModelDomainError, PowerParams
from lcadc.signals import Constant, Ramp, Sine


def default_config(**kw) -> AdcConfig:
    base = dict(delta=1.0, level_count=32, v_min=-16.0, clock_freq=201000.0)
    base.update(kw)
    return AdcConfig(**base)


def test_max_frequency_full_scale_operating_point():
    f = max_frequency(16.0, 1.0, 1.0 / 201000.0)
    assert f == pytest.approx(201000.0 / (64 * math.pi), rel=1e-12)
    assert f == pytest.approx(1000.0, rel=1e-3)


def test_max_frequency_hyperbola_scaling():
    f1 = max_frequency(8.0, 1.0, 1.0 / 201000.0)
    f2 = max_frequency(16.0, 1.0, 1.0 / 201000.0)
    assert f1 == pytest.approx(2 * f2, rel=1e-12)


def test_max_frequency_unit_amplitude():
    f = max_frequency(1.0, 1.0, 1.0 / 201000.0)
    assert f == pytest.approx(15.996e3, rel=1e-3)


def test_optimal_clock_full_scale():
    f = optimal_clock(16.0, 1000.0, 1.0)
    assert f == pytest.approx(201.06e3, rel=1e-4)
    # three significant digits match the round number
    assert round(f / 1e3) == 201


def test_optimal_clock_linear_in_input_frequency():
    assert optimal_clock(16.0, 100.0, 1.0) == pytest.approx(20.106e3, rel=1e-4)
    assert optimal_clock(1.0, 1.0, 1.0) == pytest.approx(4 * math.pi, rel=1e-12)


def test_optimal_clock_and_max_frequency_are_inverse():
    rng = random.Random(2)
    for _ in range(100):
        amp = rng.uniform(0.1, 50.0)
        f_in = rng.uniform(0.1, 1e5)
        delta = rng.uniform(0.01, 5.0)
        f_clk = optimal_clock(amp, f_in, delta)
        back = max_frequency(amp, delta, 1.0 / f_clk)
        assert back == pytest.approx(f_in, rel=1e-12)


def test_boundary_curve_cap_knee_and_branch():
    clock = 201000.0
    delta, a_limit = 1.0, 16.0
    knee = max_frequency(a_limit, delta, 1.0 / clock)
    grid = [knee / 100, knee / 10, knee, 10 * knee, 20 * knee, 40 * knee]
    curve = boundary_curve(clock, delta, a_limit, grid)
    assert curve.a_limit == a_limit
    # flat cap below the knee
    assert curve.points[0][1] == a_limit
    assert curve.points[1][1] == a_limit
    # hyperbolic branch: a * f constant, halves when f doubles
    fs = dict(curve.points)
    assert fs[10 * knee] * (10 * knee) == pytest.approx(
        delta * clock / (4 * math.pi), rel=1e-12
    )
    assert fs[40 * knee] == pytest.approx(fs[20 * knee] / 2, rel=1e-12)
    # monotone non-increasing, sorted by frequency
    amps = [a for _, a in curve.points]
    assert all(b <= a + 1e-15 for a, b in zip(amps, amps[1:]))


def test_boundary_curve_validates_grid():
    with pytest.raises(ValueError):
        boundary_curve(201000.0, 1.0, 16.0, [])
    with pytest.raises(ValueError):
        boundary_curve(201000.0, 1.0, 16.0, [10.0, 5.0])
    with pytest.raises(ValueError):
        boundary_curve(201000.0, 1.0, 16.0, [-1.0, 5.0])


def test_off_fraction_analytic_at_the_limit():
    t_clk = 1.0 / 201000.0
    amp = 16.0
    f = max_frequency(amp, 1.0, t_clk)
    assert off_fraction_analytic(amp, f, 1.0, t_clk) == pytest.approx(
        3.0 / (2.0 * math.pi), rel=1e-12
    )


def test_off_fraction_analytic_linear():
    t_clk = 1.0 / 201000.0
    f = max_frequency(16.0, 1.0, t_clk)
    half = off_fraction_analytic(16.0, 0.5 * f, 1.0, t_clk)
    assert half == pytest.approx(0.5 * 3.0 / (2.0 * math.pi), rel=1e-12)
    assert off_fraction_analytic(16.0, 1e-6 * f, 1.0, t_clk) < 1e-5


def test_off_fraction_analytic_rejects_past_limit():
    t_clk = 1.0 / 201000.0
    f = max_frequency(16.0, 1.0, t_clk)
    with pytest.raises(ModelDomainError):
        off_fraction_analytic(16.0, 1.01 * f, 1.0, t_clk)


def ramp_mc_setup(levels=300):
    cfg = AdcConfig(delta=1.0, level_count=levels, v_min=0.0, clock_freq=200000.0)
    spacing = (3 + math.sqrt(5)) / 2  # 2.618 clock periods between crossings
    spec = Ramp(start=0.0, slope=1.0 / (spacing * cfg.t_clk))
    return cfg, spec, spacing


def test_monte_carlo_mean_off_time():
    cfg, spec, spacing = ramp_mc_setup()
    t_end = 260 * spacing * cfg.t_clk
    stats = monte_carlo_off_time(cfg, spec, t_end, trials=40, seed=9)
    assert stats.n_events >= 10_000
    assert stats.mean == pytest.approx(1.5 * cfg.t_clk, rel=5e-3)
    # uniform on (T, 2T): population std T/sqrt(12)
    assert stats.std == pytest.approx(cfg.t_clk / math.sqrt(12), rel=0.05)


def test_monte_carlo_histogram_support():
    cfg, spec, spacing = ramp_mc_setup(levels=80)
    t_end = 60 * spacing * cfg.t_clk
    stats = monte_carlo_off_time(cfg, spec, t_end, trials=10, seed=3)
    assert sum(stats.counts) == stats.n_events
    assert stats.bin_edges[0] == pytest.approx(cfg.t_clk)
    assert stats.bin_edges[-1] == pytest.approx(2 * cfg.t_clk)


def test_monte_carlo_reproducible():
    cfg, spec, spacing = ramp_mc_setup(levels=60)
    t_end = 40 * spacing * cfg.t_clk
    s1 = monte_carlo_off_time(cfg, spec, t_end, trials=6, seed=21)
    s2 = monte_carlo_off_time(cfg, spec, t_end, trials=6, seed=21)
    assert s1 == s2
    s3 = monte_carlo_off_time(cfg, spec, t_end, trials=6, seed=22)
    assert s3 != s1


def test_monte_carlo_constant_signal_empty_stats():
    cfg = default_config()
    stats = monte_carlo_off_time(cfg, Constant(0.5), 1e-3, trials=1, seed=0)
    assert stats.n_events == 0
    assert math.isnan(stats.mean)
    assert sum(stats.counts) == 0


def test_sweep_frequency_monotone_and_inside_analytic():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=1000.0, offset=0.0)
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    grid = [f_max * r for r in (0.1, 0.2, 0.4, 0.6, 0.8, 0.95)]
    result = sweep(
        "frequency", grid, config=cfg, signal=sine, params=PowerParams(), seed=4, periods=60
    )
    offs = [r.off_fraction_sim for r in result.rows]
    assert all(b >= a for a, b in zip(offs, offs[1:]))
    for row in result.rows:
        assert not row.overload
        assert row.off_fraction_analytic is not None
        # simulated stays at or below the continuous-count prediction
        assert row.off_fraction_sim <= row.off_fraction_analytic * 1.05 + 0.01


def test_sweep_marks_rows_past_the_limit():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=1000.0, offset=0.0)
    f_max = max_frequency(16.0, cfg.delta, cfg.t_clk)
    grid = [0.5 * f_max, 1.3 * f_max]
    result = sweep(
        "frequency", grid, config=cfg, signal=sine, params=PowerParams(), seed=4, periods=80
    )
    inside, outside = result.rows
    assert not inside.overload
    assert inside.p_avg_analytic is not None
    assert outside.overload
    assert outside.off_fraction_analytic is None
    assert outside.p_avg_analytic is None


def test_sweep_clock_peaks_at_optimal():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=500.0, offset=0.0)
    f_opt = optimal_clock(16.0, 500.0, 1.0)
    grid = [f_opt * r for r in (0.9, 1.0, 1.5, 2.5, 4.0)]
    result = sweep(
        "clock", grid, config=cfg, signal=sine, params=PowerParams(), seed=8, periods=60
    )
    rows = result.rows
    assert rows[0].overload  # slower than the tracking limit
    valid = [r for r in rows if not r.overload]
    best = max(valid, key=lambda r: r.off_fraction_sim)
    assert best.x == pytest.approx(f_opt, rel=1e-12)
    offs = [r.off_fraction_sim for r in valid]
    assert all(b <= a for a, b in zip(offs, offs[1:]))


def test_sweep_amplitude_kind():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=200.0, offset=0.0)
    result = sweep(
        "amplitude",
        [2.0, 8.0, 14.0],
        config=cfg,
        signal=sine,
        params=PowerParams(),
        seed=5,
        periods=40,
    )
    offs = [r.off_fraction_sim for r in result.rows]
    assert all(b > a for a, b in zip(offs, offs[1:]))


def test_sweep_single_point_and_validation():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=100.0, offset=0.0)
    result = sweep(
        "frequency", [100.0], config=cfg, signal=sine, params=PowerParams(), seed=1, periods=20
    )
    assert len(result.rows) == 1
    with pytest.raises(ValueError):
        sweep("voltage", [1.0], config=cfg, signal=sine, params=PowerParams(), seed=1)
    with pytest.raises(ValueError):
        sweep("frequency", [], config=cfg, signal=sine, params=PowerParams(), seed=1)
    with pytest.raises(TypeError):
        sweep("frequency", [1.0], config=cfg, signal=Constant(0.0), params=PowerParams(), seed=1)


def test_sweep_deterministic_csv():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=300.0, offset=0.0)
    kw = dict(config=cfg, signal=sine, params=PowerParams(), seed=77, periods=30)
    a = sweep("frequency", [100.0, 300.0], **kw)
    b = sweep("frequency", [100.0, 300.0], **kw)
    assert a.to_csv() == b.to_csv()
    assert a.meta == b.meta
    assert a.meta["seed"] == 77
    assert a.meta["version"].startswith("lcadc ")


def test_sweep_csv_round_trip():
    cfg = default_config()
    sine = Sine(amplitude=16.0, frequency=300.0, offset=0.0)
    result = sweep(
        "frequency", [100.0, 900.0], config=cfg, signal=sine, params=PowerParams(), seed=6, periods=30
    )
    text = result.to_csv()
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "x",
        "off_fraction_sim",
        "off_fraction_analytic",
        "p_avg_sim",
        "p_avg_analytic",
        "overload",
    ]
    for line, row in zip(lines[1:], result.rows):
        fields = line.split(",")
        assert float(fields[0]) == pytest.approx(row.x, rel=1e-12)
        assert float(fields[1]) == row.off_fraction_sim  # repr round-trips exactly
        assert float(fields[3]) == row.p_avg_sim
        assert fields[5] in ("true", "false")
