import json
import os
from dataclasses import replace

import pytest

from lcadc.cli import main


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DEFAULT_POINT = """
signal.type = sine
signal.amplitude = 16
signal.frequency = 1k
adc.delta = 1
adc.levels = 32
adc.v_min = -16
adc.clock_freq = 201k
power.p_on = 2.6u
power.p_off = 0.2u
run.t_end = 100m
run.seed = 5
"""


def test_simulate_default_operating_point(tmp_path, capsys):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "power.json").read_text())
    assert 0.44 <= report["off_fraction"] <= 0.49
    trace = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert trace["config"]["clock_freq"] == 201000.0
    assert trace["events"]
    captured = capsys.readouterr()
    assert "off_fraction" in captured.out


def test_simulate_runs_without_config_file(tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--out", out]) == 0
    assert (tmp_path / "out" / "trace.json").exists()


def test_simulate_constant_signal_zero_off(tmp_path):
    cfg = write_config(
        tmp_path,
        "signal.type = constant\nsignal.value = 0.5\nrun.t_end = 10m\n",
    )
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "power.json").read_text())
    assert report["off_fraction"] == 0.0
    assert report["n_cross"] == 0


def test_simulate_byte_identical_outputs(tmp_path):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "9"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2, "--seed", "9"]) == 0
    assert (tmp_path / "a" / "trace.json").read_bytes() == (
        tmp_path / "b" / "trace.json"
    ).read_bytes()
    assert (tmp_path / "a" / "power.json").read_bytes() == (
        tmp_path / "b" / "power.json"
    ).read_bytes()


def test_simulate_overload_exit_code(tmp_path, capsys):
    over = DEFAULT_POINT.replace("signal.frequency = 1k", "signal.frequency = 2k")
    cfg = write_config(tmp_path, over)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    trace = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert trace["overload"] is True
    capsys.readouterr()
    assert (
        main(["simulate", "--config", cfg, "--out", out, "--fail-on-overload"]) == 3
    )


def test_config_error_exit_code_and_message(tmp_path, capsys):
    cfg = write_config(tmp_path, "adc.delta = huge\n")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "adc.delta" in err and "line 1" in err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_signal_out_of_range_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "signal.type = constant\nsignal.value = 99\nrun.t_end = 1m\n"
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    import lcadc.cli as cli
    from lcadc.power import ModelDomainError

    def boom(*a, **kw):
        raise ModelDomainError("synthetic numeric failure")

    monkeypatch.setattr(cli, "simulate", boom)
    cfg = write_config(tmp_path, DEFAULT_POINT)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_sweep_frequency_csv(tmp_path):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    out = str(tmp_path / "out")
    rc = main(
        [
            "sweep",
            "frequency",
            "--config",
            cfg,
            "--out",
            out,
            "--grid",
            "100:900:5",
            "--periods",
            "40",
        ]
    )
    assert rc == 0
    csv_path = tmp_path / "out" / "sweep_frequency.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "x,off_fraction_sim,off_fraction_analytic,p_avg_sim,p_avg_analytic,overload"
    assert len(lines) == 6
    offs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(offs, offs[1:]))
    meta = json.loads((tmp_path / "out" / "sweep_frequency.meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["version"].startswith("lcadc ")


def test_sweep_byte_identical(tmp_path):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    args = ["sweep", "clock", "--config", cfg, "--grid", "150k:400k:4", "--periods", "20"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "sweep_clock.csv").read_bytes() == (
        tmp_path / "b" / "sweep_clock.csv"
    ).read_bytes()


def test_sweep_csv_round_trip_precision(tmp_path):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    out = str(tmp_path / "out")
    assert (
        main(
            ["sweep", "frequency", "--config", cfg, "--out", out, "--grid", "200:800:3", "--periods", "30"]
        )
        == 0
    )
    lines = (tmp_path / "out" / "sweep_frequency.csv").read_text().strip().split("\n")
    for line in lines[1:]:
        fields = line.split(",")
        for f in fields[:5]:
            if f:
                v = float(f)
                assert f == repr(v)  # exact shortest round-trip


def test_sweep_bad_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    assert main(["sweep", "frequency", "--config", cfg, "--grid", "1:2"]) == 2
    assert main(["sweep", "frequency", "--config", cfg, "--grid", "1:2:0"]) == 2
    assert main(["sweep", "frequency", "--config", cfg, "--grid", "a:b:3"]) == 2
    capsys.readouterr()


def test_sweep_requires_sine(tmp_path, capsys):
    cfg = write_config(tmp_path, "signal.type = constant\nsignal.value = 1\n")
    assert main(["sweep", "frequency", "--config", cfg, "--grid", "1:2:2"]) == 2
    assert "signal.type" in capsys.readouterr().err


def test_boundary_csv_per_clock(tmp_path):
    cfg = write_config(tmp_path, DEFAULT_POINT)
    out = str(tmp_path / "out")
    rc = main(
        ["boundary", "--config", cfg, "--out", out, "--clocks", "201k,402k", "--grid", "10:100k:13:log"]
    )
    assert rc == 0
    files = sorted(os.listdir(out))
    csvs = [f for f in files if f.startswith("boundary_") and f.endswith(".csv")]
    assert len(csvs) == 2
    for name in csvs:
        lines = (tmp_path / "out" / name).read_text().strip().split("\n")
        assert lines[0] == "f_hz,a_max"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        amps = [a for _, a in rows]
        assert max(amps) == 16.0  # flat cap at half the range
        assert all(b <= a + 1e-15 for a, b in zip(amps, amps[1:]))
    meta = json.loads((tmp_path / "out" / "boundary.meta.json").read_text())
    assert meta["a_limit"] == 16.0
    assert len(meta["curves"]) == 2


def test_table1_json(tmp_path, capsys):
    cfg = write_config(tmp_path, DEFAULT_POINT + "run.trials = 6\n")
    out = str(tmp_path / "out")
    assert main(["table1", "--config", cfg, "--out", out, "--seed", "2"]) == 0
    doc = json.loads((tmp_path / "out" / "table1.json").read_text())
    assert doc["p_on_watts"] == pytest.approx(2.6e-6)
    assert doc["p_off_watts"] == pytest.approx(0.2e-6)
    assert doc["p_avg_watts"] == pytest.approx(1.5e-6, abs=0.1e-6)
    assert doc["reduction"] == pytest.approx(0.42, abs=0.02)
    assert doc["bandwidth_hz"] == pytest.approx(1000.0, rel=1e-3)


def test_table1_markdown(tmp_path, capsys):
    cfg = write_config(tmp_path, DEFAULT_POINT + "run.trials = 4\n")
    out = str(tmp_path / "out")
    assert main(["table1", "--config", cfg, "--out", out, "--format", "markdown"]) == 0
    text = (tmp_path / "out" / "table1.md").read_text()
    assert text.startswith("| parameter | value |")
    assert "average power" in text


def test_table1_is_measure_pooled_over_trials(tmp_path):
    """table1 reports measure() pooled over its trials, so off time is clipped
    to the span.  This span ends 3 us after the 0 V crossing, with every
    trial still gated off at t_end."""
    from lcadc.analysis import trial_phase
    from lcadc.engine import simulate
    from lcadc.power import measure
    from lcadc.runconfig import load_run_config

    cfg = write_config(tmp_path, "run.t_end = 10.003m\nrun.trials = 2\nrun.seed = 0\n")
    assert main(["table1", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "table1.json").read_text())
    run = load_run_config(cfg)
    t_off = energy = 0.0
    for i in range(2):
        adc = replace(run.adc, clock_phase=trial_phase(0, i, run.adc.t_clk))
        trace = simulate(adc, run.signal, run.t_end)
        assert trace.events[-1].t_on > run.t_end
        report = measure(trace, run.power)
        t_off += report.t_off
        energy += report.energy
    assert doc["off_fraction"] == t_off / (2 * run.t_end)
    assert doc["p_avg_watts"] == energy / (2 * run.t_end)


def test_table1_reduction_zero_when_powers_equal(tmp_path):
    # p_off just below p_on: reduction collapses regardless of off fraction
    cfg = write_config(
        tmp_path,
        DEFAULT_POINT.replace("power.p_off = 0.2u", "power.p_off = 2.5999999u")
        + "run.trials = 4\n",
    )
    out = str(tmp_path / "out")
    assert main(["table1", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "out" / "table1.json").read_text())
    assert abs(doc["reduction"]) < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["montecarlo", "--format", "json"],
        ["boundary", "--clocks", "201k", "--fail-on-overload"],
        ["table1", "--format", "csv"],
    ],
)
def test_flags_only_on_commands_that_read_them(tmp_path, capsys, argv):
    # --format belongs to table1 (json or markdown), --fail-on-overload to
    # simulate and sweep; argparse rejects them elsewhere with status 2
    cfg = write_config(tmp_path, "run.t_end = 1m\nrun.trials = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_montecarlo_outputs_stats(tmp_path):
    text = """
signal.type = ramp
signal.start = 0
signal.slope = 76394
adc.delta = 1
adc.levels = 120
adc.v_min = 0
adc.clock_freq = 200k
run.t_end = 1.5m
run.trials = 5
run.seed = 11
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["montecarlo", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "out" / "offtime.json").read_text())
    assert doc["trials"] == 5
    assert doc["n_events"] > 100
    t_clk = 1.0 / 200000.0
    assert t_clk < doc["mean"] < 2 * t_clk
    assert sum(doc["counts"]) == doc["n_events"]


def test_montecarlo_trials_override(tmp_path):
    cfg = write_config(
        tmp_path,
        "signal.type = constant\nsignal.value = 1\nrun.t_end = 1m\nrun.trials = 9\n",
    )
    out = str(tmp_path / "out")
    assert main(["montecarlo", "--config", cfg, "--out", out, "--trials", "2"]) == 0
    doc = json.loads((tmp_path / "out" / "offtime.json").read_text())
    assert doc["trials"] == 2
    assert doc["n_events"] == 0
