import pytest

from lcadc.runconfig import (
    ConfigFileError,
    build_run_config,
    load_run_config,
    parse_config_text,
    parse_number,
)
from lcadc.signals import Constant, Ramp, Sampled, Sine, SumOfSines


def parse(text):
    return build_run_config(parse_config_text(text))


def test_parse_number_plain_and_suffixes():
    assert parse_number("2.5") == 2.5
    assert parse_number("-3e2") == -300.0
    assert parse_number("201k") == 201000.0
    assert parse_number("1M") == 1e6
    assert parse_number("5m") == 5e-3
    assert parse_number("2.6u") == pytest.approx(2.6e-6)
    assert parse_number("10n") == pytest.approx(1e-8)
    assert parse_number("17.91p") == pytest.approx(17.91e-12)


def test_parse_number_rejects_garbage():
    with pytest.raises(ValueError):
        parse_number("fast")
    with pytest.raises(ValueError):
        parse_number("1q")
    with pytest.raises(ValueError):
        parse_number("")


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e306k"])
def test_parse_number_rejects_non_finite(text):
    # the check follows SI scaling: 1e306 is finite, 1e306k is not
    with pytest.raises(ValueError, match="not a finite number"):
        parse_number(text)


def test_defaults_describe_the_stock_operating_point():
    run = build_run_config({})
    assert isinstance(run.signal, Sine)
    assert run.signal.amplitude == 16.0
    assert run.signal.frequency == 1000.0
    assert run.adc.delta == 1.0
    assert run.adc.level_count == 32
    assert run.adc.v_min == -16.0
    assert run.adc.clock_freq == 201000.0
    assert run.power.p_on == pytest.approx(2.6e-6)
    assert run.power.p_off == pytest.approx(0.2e-6)
    assert run.t_end == pytest.approx(0.2)
    assert run.seed == 0


def test_parse_full_file_with_comments():
    run = parse(
        """
        # input waveform
        signal.type = sine
        signal.amplitude = 8
        signal.frequency = 2k   # hertz
        adc.delta = 0.5
        adc.levels = 16
        adc.v_min = -4
        adc.clock_freq = 500k
        power.p_on = 3u
        power.p_off = 0.1u
        run.t_end = 50m
        run.seed = 42
        """
    )
    assert run.signal == Sine(amplitude=8.0, frequency=2000.0, phase=0.0, offset=0.0)
    assert run.adc.delta == 0.5
    assert run.adc.level_count == 16
    assert run.adc.clock_freq == 500000.0
    assert run.power.p_on == pytest.approx(3e-6)
    assert run.t_end == pytest.approx(0.05)
    assert run.seed == 42


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("signal.type = sine\nadc.bogus = 3\n")
    assert "adc.bogus" in str(err.value)
    assert "line 2" in str(err.value)


def test_missing_equals_reports_line():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("signal.type sine\n")
    assert "line 1" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigFileError) as err:
        parse_config_text("adc.delta = 1\nadc.delta = 2\n")
    assert "duplicate" in str(err.value)


def test_bad_number_names_key_and_line():
    with pytest.raises(ConfigFileError) as err:
        parse("signal.type = sine\nadc.delta = tiny\n")
    msg = str(err.value)
    assert "adc.delta" in msg and "line 2" in msg


def test_constant_signal():
    run = parse("signal.type = constant\nsignal.value = 0.5\n")
    assert run.signal == Constant(0.5)


def test_ramp_signal():
    run = parse("signal.type = ramp\nsignal.start = 1\nsignal.slope = -2\n")
    assert run.signal == Ramp(start=1.0, slope=-2.0)


def test_sum_of_sines_signal():
    run = parse(
        "signal.type = sum_of_sines\nsignal.tones = 2:100:0, 1:300\nsignal.offset = 0.5\n"
    )
    assert run.signal == SumOfSines(
        tones=((2.0, 100.0, 0.0), (1.0, 300.0, 0.0)), offset=0.5
    )


def test_sum_of_sines_requires_tones():
    with pytest.raises(ConfigFileError, match="missing required key") as err:
        parse("signal.type = sum_of_sines\n")
    assert "signal.tones" in str(err.value) and err.value.key == "signal.tones"


def test_sampled_signal():
    run = parse(
        "signal.type = sampled\nsignal.sample_period = 1m\nsignal.values = 0, 0.5, 1.5\n"
        "run.t_end = 2m\n"
    )
    assert run.signal == Sampled(sample_period=1e-3, values=(0.0, 0.5, 1.5))


def test_sampled_span_must_cover_the_run():
    text = "signal.type = sampled\nsignal.sample_period = 1m\nsignal.values = 0, 0.5, 1.5\n"
    with pytest.raises(ConfigFileError) as err:
        parse(text + "run.t_end = 2.1m\n")
    assert "run.t_end" in str(err.value) and "line 4" in str(err.value)
    with pytest.raises(ConfigFileError):
        parse(text)  # the default 200 ms span


def test_sampled_requires_values():
    with pytest.raises(ConfigFileError, match="missing required key") as err:
        parse("signal.type = sampled\nsignal.sample_period = 1m\n")
    assert err.value.key == "signal.values"


def test_sampled_requires_sample_period():
    with pytest.raises(ConfigFileError, match="missing required key") as err:
        parse("signal.type = sampled\nsignal.values = 0, 1\n")
    assert err.value.key == "signal.sample_period"


def test_bad_signal_type():
    with pytest.raises(ConfigFileError) as err:
        parse("signal.type = square\n")
    assert "signal.type" in str(err.value)


def test_invalid_adc_section_is_config_error():
    with pytest.raises(ConfigFileError):
        parse("adc.levels = 1\n")


def test_invalid_power_section_is_config_error():
    with pytest.raises(ConfigFileError):
        parse("power.p_on = 0.1u\npower.p_off = 0.2u\n")


@pytest.mark.parametrize(
    "text, field, wrong_key",
    [
        ("adc.levels = 1\n", "level_count", "adc.delta"),
        ("power.p_off = 3u\n", "p_off", "power.p_on"),
        ("signal.frequency = 0\n", "frequency", "signal.type"),
    ],
)
def test_section_error_names_its_field_not_a_fixed_key(text, field, wrong_key):
    with pytest.raises(ConfigFileError) as err:
        parse(text)
    assert field in str(err.value)
    assert wrong_key not in str(err.value)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "key",
    ["run.t_end", "run.trials", "run.seed", "adc.levels", "power.p_on", "signal.frequency"],
)
def test_non_finite_value_names_its_key_and_line(key, value):
    with pytest.raises(ConfigFileError) as err:
        parse(f"# non-finite\n{key} = {value}\n")
    assert (err.value.key, err.value.line) == (key, 2)


def test_non_integer_levels_rejected():
    with pytest.raises(ConfigFileError) as err:
        parse("adc.levels = 2.5\n")
    assert "adc.levels" in str(err.value)


def test_run_section_validation():
    with pytest.raises(ConfigFileError):
        parse("run.t_end = 0\n")
    with pytest.raises(ConfigFileError):
        parse("run.trials = 0\n")
    with pytest.raises(ConfigFileError):
        parse("run.seed = -1\n")
    with pytest.raises(ConfigFileError):
        parse("run.format = yaml\n")
    with pytest.raises(ConfigFileError):
        parse("run.format = csv\n")


def test_load_run_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("signal.type = constant\nsignal.value = 2\nrun.seed = 7\n")
    run = load_run_config(str(path))
    assert run.signal == Constant(2.0)
    assert run.seed == 7


def test_load_run_config_default_when_missing_path():
    run = load_run_config(None)
    assert isinstance(run.signal, Sine)
