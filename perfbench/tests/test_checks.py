"""The output checks flag corrupted traces and accept the engine's own."""

import json
from dataclasses import replace

import numpy as np
import pytest

import lcadc
from checks import (
    Traversals,
    columns_from_events,
    interior_traversals,
    protocol_problems,
    trace_file_problems,
)
from tests.reference import count_all_crossings

CFG = lcadc.AdcConfig(delta=1.0, level_count=32, v_min=-16.0, clock_freq=201e3, clock_phase=1.3e-6)
SINE = lcadc.Sine(amplitude=16.0, frequency=900.0, phase=0.4)
T_END = 3e-3
LEVELS = [-16.0 + k for k in range(1, 32)]


@pytest.fixture(scope="module")
def trace():
    return lcadc.simulate(CFG, SINE, T_END)


def _problems(events, initial_code):
    return protocol_problems(columns_from_events(events), initial_code, CFG.clock_freq, CFG.clock_phase, 0.0)


def test_engine_trace_passes(trace):
    assert len(trace.events) > 100
    assert _problems(trace.events, trace.initial_code) == []


def test_dropped_event_is_flagged(trace):
    events = list(trace.events)
    del events[len(events) // 2]
    assert any("chain" in p for p in _problems(events, trace.initial_code))


@pytest.mark.parametrize("shift_periods", [-1.0, 0.5, 1.0])
def test_shifted_ack_is_flagged(trace, shift_periods):
    events = list(trace.events)
    i = len(events) // 3
    events[i] = replace(events[i], t_ack=events[i].t_ack + shift_periods * CFG.t_clk)
    assert _problems(events, trace.initial_code)


def test_shifted_ack_and_power_up_is_flagged(trace):
    events = list(trace.events)
    i = len(events) // 3
    ev = events[i]
    events[i] = replace(ev, t_ack=ev.t_ack + 0.5 * CFG.t_clk, t_on=ev.t_on + 0.5 * CFG.t_clk)
    assert any("clock grid" in p for p in _problems(events, trace.initial_code))


def test_two_level_step_is_flagged(trace):
    events = list(trace.events)
    i = len(events) // 4
    events[i] = replace(events[i], code_after=events[i].code_before + 2 * (events[i].code_after - events[i].code_before))
    assert any("code step" in p for p in _problems(events, trace.initial_code))


def test_oracle_matches_dense_reference_count():
    tones = ((SINE.amplitude, SINE.frequency, SINE.phase),)
    expected = count_all_crossings(SINE, LEVELS, 0.0, T_END, 2_000_000)
    assert interior_traversals(tones, 0.0, T_END, -16.0, 1.0, 32) == Traversals(expected, 0)
    spec = lcadc.SumOfSines(tones=((6.0, 700.0, 0.3), (2.5, 2300.0, 1.9)), offset=1.2)
    expected = count_all_crossings(spec, LEVELS, 0.0, 0.02, 4_000_000)
    assert interior_traversals(spec.tones, spec.offset, 0.02, -16.0, 1.0, 32).total == expected


def test_oracle_marks_grazing_traversals():
    # peaks 0.4 mV past +3 V and -3 V: four of the traversals are grazes
    tones = ((3.0004, 1000.0, 0.0),)
    found = interior_traversals(tones, 0.0, 1e-3, -16.0, 1.0, 32)
    assert found == Traversals(3 + 7 + 3, 4)
    # peaks 0.2 V past a level graze nothing
    assert interior_traversals(((3.2, 1000.0, 0.0),), 0.0, 1e-3, -16.0, 1.0, 32).grazing == 0


def test_only_grazes_may_be_missed():
    expected = Traversals(total=100, grazing=4)
    assert expected.problems(100) == []
    assert expected.problems(96) == [] and expected.missed(96) == 4
    assert expected.problems(95)
    assert expected.problems(101)


def _write_outputs(tmp_path, trace):
    report = lcadc.measure(trace, lcadc.PowerParams())
    body = trace.to_json_dict()
    (tmp_path / "power.json").write_text(report.to_json() + "\n")
    return body, len(trace.events)


def _file_problems(tmp_path, body, reported):
    (tmp_path / "trace.json").write_text(json.dumps(body))
    tones = ((SINE.amplitude, SINE.frequency, SINE.phase),)
    expected = interior_traversals(tones, 0.0, T_END, -16.0, 1.0, 32)
    return trace_file_problems(
        str(tmp_path / "trace.json"), str(tmp_path / "power.json"), expected, reported
    )


def test_written_files_pass(tmp_path, trace):
    body, n = _write_outputs(tmp_path, trace)
    assert _file_problems(tmp_path, body, n) == []


def test_file_with_last_event_dropped_is_flagged(tmp_path, trace):
    body, n = _write_outputs(tmp_path, trace)
    body["events"].pop()
    problems = _file_problems(tmp_path, body, n)
    assert any("command reported" in p for p in problems)
    assert any("oracle" in p for p in problems)


def test_file_with_corrupted_event_is_flagged(tmp_path, trace):
    body, n = _write_outputs(tmp_path, trace)
    body["events"][5]["t_ack"] += CFG.t_clk
    assert _file_problems(tmp_path, body, n)


def test_empty_trace_has_no_protocol_problems():
    assert protocol_problems(columns_from_events([]), 16, 201e3, 0.0, 0.0) == []
    assert np.asarray(columns_from_events([]).t_req).size == 0


def test_stock_op_without_per_trial_traces_fails(tmp_path):
    from workloads import StockMonteCarlo

    workload = StockMonteCarlo()
    inputs = workload.generate(2)
    inputs.write_files(str(tmp_path))
    op = inputs.op(0)
    # without start() no trace reaches the per-event check
    outcome = workload.run(op, str(tmp_path), str(tmp_path / "bare"))
    assert any("not checked one by one" in p for p in workload.check(op, outcome))
    assert workload.notes["ops_not_checked_per_event"] == 1
    workload.start()
    try:
        outcome = workload.run(op, str(tmp_path), str(tmp_path / "captured"))
    finally:
        workload.stop()
    assert workload.check(op, outcome) == []
    assert workload.notes["ops_checked_per_event"] == 1
