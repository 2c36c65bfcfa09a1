"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single summary line when it passes; a failing criterion
shows up as a normal pytest failure with the measured numbers in the
assertion message.
"""

import json
import math
import os
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
from lcadc.cli import main
from lcadc.engine import AdcConfig, simulate, tracking_error
from lcadc.power import PowerParams, measure
from lcadc.signals import Ramp, Sine
from tests.reference import reference_simulate

DELTA = 1.0
CONFIG = AdcConfig(delta=DELTA, level_count=32, v_min=-16.0, clock_freq=201000.0)
FULL_SCALE_AMPLITUDE = 16.0
F_MAX = max_frequency(FULL_SCALE_AMPLITUDE, DELTA, CONFIG.t_clk)
PARAMS = PowerParams(p_on=2.6e-6, p_off=0.2e-6, e_event=0.0)


def _ok(n, text):
    print(f"[acceptance {n:02d}] PASS: {text}")


def _phase(seed, i, t_clk):
    return float(np.random.default_rng([seed, i]).uniform(0.0, t_clk))


def test_criterion_01_mean_off_time_and_uniformity():
    """>= 1e5 isolated events with uniform clock phase: mean off time
    1.5*t_clk within 0.5% and a flat 10-bin histogram on [T, 2T) within 1%."""
    cfg = AdcConfig(delta=1.0, level_count=560, v_min=0.0, clock_freq=200000.0)
    spacing = (3 + math.sqrt(5)) / 2  # incommensurate with the clock period
    ramp = Ramp(start=0.0, slope=1.0 / (spacing * cfg.t_clk))
    t_end = 545 * spacing * cfg.t_clk
    stats = monte_carlo_off_time(cfg, ramp, t_end, trials=200, seed=123, bins=10)
    assert stats.n_events >= 100_000, f"only {stats.n_events} events"
    rel = abs(stats.mean - 1.5 * cfg.t_clk) / (1.5 * cfg.t_clk)
    assert rel <= 0.005, f"mean off {stats.mean} deviates {rel:.4%} from 1.5*t_clk"
    fractions = np.asarray(stats.counts) / stats.n_events
    dev = float(np.max(np.abs(fractions - 0.1)))
    assert dev <= 0.01, f"bin fractions {fractions} deviate {dev:.4f} from 0.1"
    _ok(1, f"{stats.n_events} events, mean={stats.mean / cfg.t_clk:.5f} t_clk, "
           f"max bin dev {dev:.4%}")


def test_criterion_02_bandwidth_point_and_overload_onset():
    """Full-scale tracking limit at the 201 kHz clock is 1 kHz within 0.1%;
    simulation stays clean at 0.99x and trips the overload flag at 1.01x."""
    assert F_MAX == pytest.approx(1000.0, rel=1e-3), f"f_max={F_MAX}"
    for i in range(3):
        cfg = replace(CONFIG, clock_phase=_phase(313, i, CONFIG.t_clk))
        below = simulate(
            cfg, Sine(amplitude=FULL_SCALE_AMPLITUDE, frequency=0.99 * F_MAX, offset=0.0),
            300.0 / (0.99 * F_MAX),
        )
        assert not below.overload, f"overload at 0.99x f_max (phase {i})"
        above = simulate(
            cfg, Sine(amplitude=FULL_SCALE_AMPLITUDE, frequency=1.01 * F_MAX, offset=0.0),
            300.0 / (1.01 * F_MAX),
        )
        assert above.overload, f"no overload at 1.01x f_max (phase {i})"
    _ok(2, f"f_max={F_MAX:.2f} Hz; overload off at 0.99x, on at 1.01x (3 phases)")


def test_criterion_03_optimal_clock():
    """Slowest tracking clock for the full-scale 1 kHz sine: 201.06 kHz
    within 0.1%, i.e. 201 kHz to three significant digits."""
    f_clk = optimal_clock(FULL_SCALE_AMPLITUDE, 1000.0, DELTA)
    assert f_clk == pytest.approx(201.06e3, rel=1e-3), f"optimal clock {f_clk}"
    assert round(f_clk / 1e3) == 201
    _ok(3, f"optimal clock {f_clk:.2f} Hz")


def test_criterion_04_off_fraction_convergence_band():
    """Full-scale sine at its tracking limit, 200 periods, 20 random clock
    phases: the off fraction converges across phases and sits where the
    reference values put it.

    Crossings.  The 32 codes have 31 interior thresholds (-15 .. 15 V).  The
    peaks of the A = 16 V sine only graze the outer levels +-16 V, and a
    tangent peak is not a crossing, so every run serves exactly
    2*(level_count - 1) = 62 crossings per period, whatever the phase.

    Convergence.  Each served crossing is off for (T, 2T] with T = t_clk,
    1.5*T on average (settle_time is 0), so the off fraction of a run is
    predicted exactly as n_cross*1.5*T/t_end, and the phase band must
    contain it.  Its width is bounded by treating the N = n_cross off times
    of a run as independent uniform draws (variance T**2/12): the off
    fraction then has sigma = sqrt(N/12)*T/t_end ~ 0.0008, and the band must
    be narrower than 5*sigma ~ 0.004 (under that model the range of 20
    runs passes 5*sigma about once in 20 phase draws).  The model is loose:
    a run's requests sweep the clock phase almost evenly, so the measured
    band is about 0.0003 wide.

    Reference values, as a bracket around the band.  3/(2*pi) ~ 0.4775 is
    off_fraction_analytic at the limit, the continuum figure with
    4*A/delta = 64 crossings per period; a 62-crossing grid stays below it.
    0.455 is the summary-table off fraction, also used by
    tests/test_power.py (test_measure_matches_summary_table_point,
    test_analytic_power_summary_point).  It lies between the 60-crossing
    prediction (0.4476) and the 62-crossing one (0.4625), so a run that
    loses one crossing pair per period falls below it.  The chain here reads
    it as off 0.455 -> reduction 0.455*(1 - 0.2/2.6) = 0.42; PAPER.md's
    abstract pairs 42% with OFF time and 45.5% with power reduction
    instead, and the abstract alone does not settle which reading is right.
    """
    sine = Sine(amplitude=FULL_SCALE_AMPLITUDE, frequency=F_MAX, offset=0.0)
    t_end = 200.0 / F_MAX
    t_clk = CONFIG.t_clk
    expected_cross = 2 * (CONFIG.level_count - 1) * 200
    offs, counts = [], []
    for i in range(20):
        cfg = replace(CONFIG, clock_phase=_phase(424242, i, t_clk))
        rep = measure(simulate(cfg, sine, t_end), PARAMS)
        offs.append(rep.off_fraction)
        counts.append(rep.n_cross)
    lo, hi = min(offs), max(offs)
    mean = sum(offs) / len(offs)
    prediction = expected_cross * 1.5 * t_clk / t_end
    band = f"band [{lo:.5f}, {hi:.5f}] (mean {mean:.5f}, crossings {sorted(set(counts))})"
    assert 0.44 <= mean <= 0.49, f"mean off fraction {mean:.4f} outside [0.44, 0.49]"
    assert counts == [expected_cross] * len(counts), (
        f"crossings per run {sorted(set(counts))}, expected {expected_cross} "
        f"(62 per period over 200 periods); phase {band}, prediction {prediction:.5f}"
    )
    assert lo <= prediction <= hi, (
        f"prediction n_cross*1.5*t_clk/t_end = {prediction:.5f} outside the phase {band}"
    )
    width_bound = 5.0 * math.sqrt(expected_cross / 12.0) * t_clk / t_end
    assert hi - lo < width_bound, (
        f"phase {band} is {hi - lo:.5f} wide, not under 5 sigma = {width_bound:.5f} "
        f"(prediction {prediction:.5f})"
    )
    ceiling = 3.0 / (2.0 * math.pi)
    assert 0.455 < lo and hi < ceiling, (
        f"phase {band} not inside (0.455, 3/(2*pi) = {ceiling:.5f}); "
        f"prediction {prediction:.5f}"
    )
    _ok(4, f"{expected_cross} crossings, mean={mean:.5f}, band=[{lo:.5f}, {hi:.5f}] "
           f"around {prediction:.5f}, inside (0.455, {ceiling:.4f})")


def measured_off_fraction_at_limit(n_phases=20, periods=200.0, seed=424242):
    sine = Sine(amplitude=FULL_SCALE_AMPLITUDE, frequency=F_MAX, offset=0.0)
    t_end = periods / F_MAX
    offs = []
    for i in range(n_phases):
        cfg = replace(CONFIG, clock_phase=_phase(seed, i, CONFIG.t_clk))
        offs.append(measure(simulate(cfg, sine, t_end), PARAMS).off_fraction)
    return sum(offs) / len(offs)


def test_criterion_05_summary_power_chain():
    """With the measured 2.6/0.2 uW powers and the simulated off fraction at
    the operating point: p_avg = 1.5 +- 0.1 uW and reduction = 42% +- 2pp via
    reduction = off_fraction * (1 - p_off/p_on)."""
    off = measured_off_fraction_at_limit(n_phases=8, periods=120.0)
    reduction = off * (1.0 - PARAMS.p_off / PARAMS.p_on)
    p_avg = PARAMS.p_on * (1.0 - reduction)
    assert abs(p_avg - 1.5e-6) <= 0.1e-6, f"p_avg {p_avg * 1e6:.3f} uW"
    assert abs(reduction - 0.42) <= 0.02, f"reduction {reduction:.4f}"
    _ok(5, f"off={off:.4f}, p_avg={p_avg * 1e6:.3f} uW, reduction={reduction * 100:.1f}%")


def test_criterion_06_analytic_agreement_inside_boundary():
    """20 random (A, f) pairs strictly inside the tracking limit: simulated
    and analytic average power agree within 3% of p_on when the analytic
    model uses the trace's own crossing count."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        amp = float(rng.uniform(2.0, 15.0))
        f = float(rng.uniform(0.1, 0.9)) * max_frequency(amp, DELTA, CONFIG.t_clk)
        cfg = replace(CONFIG, clock_phase=float(rng.uniform(0.0, CONFIG.t_clk)))
        sine = Sine(amplitude=amp, frequency=f, offset=0.0)
        rep = measure(simulate(cfg, sine, 200.0 / f), PARAMS)
        assert rep.p_avg_analytic is not None
        rel = abs(rep.p_avg - rep.p_avg_analytic) / PARAMS.p_on
        worst = max(worst, rel)
        assert rel <= 0.03, f"deviation {rel:.4f} at A={amp:.3f}, f={f:.3f}"
    _ok(6, f"worst |p_sim - p_analytic|/p_on = {worst:.4%} over 20 pairs")


def test_criterion_07_figure_shapes():
    """Frequency sweep: off fraction monotone and within 5% of the linear law
    6*A*f*t_clk/delta; boundary curve: flat cap, exact knee, hyperbola."""
    sine = Sine(amplitude=FULL_SCALE_AMPLITUDE, frequency=1000.0, offset=0.0)
    grid = [F_MAX * r for r in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)]
    result = sweep(
        "frequency", grid, config=CONFIG, signal=sine, params=PARAMS,
        seed=71, periods=150,
    )
    offs = [r.off_fraction_sim for r in result.rows]
    assert all(b >= a for a, b in zip(offs, offs[1:])), f"not monotone: {offs}"
    worst = 0.0
    for row in result.rows:
        linear = 6.0 * FULL_SCALE_AMPLITUDE * row.x * CONFIG.t_clk / DELTA
        rel = abs(row.off_fraction_sim - linear) / linear
        worst = max(worst, rel)
        assert rel <= 0.05, f"off fraction at f={row.x:.1f} deviates {rel:.4f}"

    a_limit = FULL_SCALE_AMPLITUDE
    knee = max_frequency(a_limit, DELTA, CONFIG.t_clk)
    fgrid = [knee / 10, knee / 2, knee, 2 * knee, 10 * knee]
    curve = boundary_curve(CONFIG.clock_freq, DELTA, a_limit, fgrid)
    pts = dict(curve.points)
    assert pts[knee / 10] == a_limit and pts[knee / 2] == a_limit
    assert pts[knee] == pytest.approx(a_limit, rel=1e-12)
    const = DELTA / (4 * math.pi * CONFIG.t_clk)
    for f in (2 * knee, 10 * knee):
        assert pts[f] * f == pytest.approx(const, rel=1e-12)
    _ok(7, f"linearity within {worst:.4%}; knee at {knee:.3f} Hz exact")


def test_criterion_08_oracle_equivalence():
    """>= 10 randomized configurations: the event-driven engine matches a
    brute-force time-stepped reference (step <= 1e-3 of the clock period and
    of the input period) exactly in event count and within 2 steps per
    event."""
    rng = np.random.default_rng(77001)
    checked = 0
    tried = 0
    worst = 0.0
    while checked < 8 and tried < 200:
        tried += 1
        amp = float(rng.uniform(2.0, 12.0))
        offset = float(rng.uniform(-2.0, 2.0))
        if offset + amp > 14.5 or offset - amp < -14.5:
            continue
        # keep sine extremes off the level grid: a graze there is below the
        # reference grid's resolution
        graze = False
        for peak in (offset + amp, offset - amp):
            frac = (peak - CONFIG.v_min) % DELTA
            if min(frac, DELTA - frac) < 0.05:
                graze = True
        if graze:
            continue
        clock = float(rng.uniform(50e3, 300e3))
        t_clk = 1.0 / clock
        f_in = float(rng.uniform(0.2, 0.85)) * DELTA / (4 * math.pi * t_clk * amp)
        phase = float(rng.uniform(0.0, t_clk))
        cfg = AdcConfig(
            delta=DELTA, level_count=32, v_min=-16.0, clock_freq=clock, clock_phase=phase
        )
        sine = Sine(amplitude=amp, frequency=f_in, offset=offset)
        t_end = 6.0 / f_in
        h = 1e-3 * min(t_clk, 1.0 / f_in)
        tr = simulate(cfg, sine, t_end)

        def edge_distance(t):
            k = round((t - phase) / t_clk)
            return abs(t - (phase + k * t_clk))

        # a request within a grid step of a clock edge is unresolvable for
        # the stepped reference; such configurations are re-drawn
        if any(edge_distance(e.t_req) < 3 * h for e in tr.events if not e.immediate):
            continue
        ref = reference_simulate(cfg, sine, t_end, h)
        assert len(ref.events) == len(tr.events), (
            f"event count {len(tr.events)} vs reference {len(ref.events)} "
            f"(A={amp:.3f}, f={f_in:.3f}, clk={clock:.0f})"
        )
        for a, b in zip(tr.events, ref.events):
            dt = abs(a.t_req - b.t_req)
            worst = max(worst, dt / h)
            assert dt <= 2 * h, f"t_req differs by {dt / h:.2f} steps"
            assert (a.code_before, a.code_after) == (b.code_before, b.code_after)
            assert a.direction.value == b.direction
            assert abs(a.t_ack - b.t_ack) <= 2 * h
        checked += 1

    # two ramp configurations complete the set
    for slope_sign in (1.0, -1.0):
        cfg = AdcConfig(
            delta=DELTA, level_count=32, v_min=-16.0, clock_freq=150e3,
            clock_phase=1.1e-6,
        )
        spec = Ramp(start=slope_sign * -8.0, slope=slope_sign * 43211.0)
        t_end = 14.0 / 43211.0
        h = 1e-3 * cfg.t_clk
        tr = simulate(cfg, spec, t_end)
        ref = reference_simulate(cfg, spec, t_end, h)
        assert len(ref.events) == len(tr.events) >= 10
        for a, b in zip(tr.events, ref.events):
            assert abs(a.t_req - b.t_req) <= 2 * h
        checked += 1

    assert checked >= 10
    _ok(8, f"{checked} configurations, worst timing gap {worst:.3f} steps")


def test_criterion_09_tracking_error_bound():
    """Sines with A*f <= 0.99 * delta/(4*pi*t_clk): reconstruction error stays
    within 2*delta."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(12):
        amp = float(rng.uniform(1.0, 15.0))
        f = float(rng.uniform(0.05, 0.99)) * max_frequency(amp, DELTA, CONFIG.t_clk)
        cfg = replace(CONFIG, clock_phase=float(rng.uniform(0.0, CONFIG.t_clk)))
        sine = Sine(amplitude=amp, frequency=f, offset=float(rng.uniform(-0.4, 0.4)))
        tr = simulate(cfg, sine, 40.0 / f)
        err, _ = tracking_error(tr, sine, grid_points=20_000)
        worst = max(worst, err)
        assert err <= 2.0 * DELTA, f"error {err:.4f} at A={amp:.3f}, f={f:.3f}"
        assert not tr.overload
    _ok(9, f"worst tracking error {worst:.4f} delta over 12 sines")


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Identical seeds produce byte-identical trace JSON and sweep CSV."""
    cfg_text = (
        "signal.type = sine\nsignal.amplitude = 16\nsignal.frequency = 950\n"
        "adc.clock_freq = 201k\nrun.t_end = 40m\nrun.seed = 17\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    pairs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["simulate", "--config", str(cfg_path), "--out", out]) == 0
        assert (
            main(
                [
                    "sweep", "frequency", "--config", str(cfg_path), "--out", out,
                    "--grid", "100:900:4", "--periods", "25",
                ]
            )
            == 0
        )
        pairs.append(out)
    for name in ("trace.json", "power.json", "sweep_frequency.csv", "sweep_frequency.meta.json"):
        a = open(os.path.join(pairs[0], name), "rb").read()
        b = open(os.path.join(pairs[1], name), "rb").read()
        assert a == b, f"{name} differs between identical runs"
    doc = json.loads(open(os.path.join(pairs[0], "trace.json")).read())
    assert doc["events"], "simulation produced no events"
    _ok(10, "trace JSON and sweep CSV byte-identical across reruns")
