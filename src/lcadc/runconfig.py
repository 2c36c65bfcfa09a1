"""Flat key-value run configuration files.

Format: one ``section.key = value`` per line, ``#`` starts a comment, blank
lines ignored.  Numbers accept SI suffixes k, M, m, u, n, p (case matters:
M is mega, m is milli).  Sections: signal, adc, power, run.

Example::

    signal.type = sine
    signal.amplitude = 16
    signal.frequency = 1k
    adc.delta = 1
    adc.levels = 32
    adc.v_min = -16
    adc.clock_freq = 201k
    power.p_on = 2.6u
    power.p_off = 0.2u
    run.t_end = 200m
    run.seed = 0
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import AdcConfig
from .power import PowerParams
from .signals import Constant, Ramp, Sampled, SignalSpec, Sine, SumOfSines

SI_SUFFIXES = {
    "k": 1e3,
    "M": 1e6,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
}


class ConfigFileError(ValueError):
    """Malformed run configuration; carries the offending key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        parts = []
        if key is not None:
            parts.append(f"key '{key}'")
        if line is not None:
            parts.append(f"line {line}")
        where = f" ({', '.join(parts)})" if parts else ""
        super().__init__(f"{message}{where}")
        self.key = key
        self.line = line


def parse_number(text: str) -> float:
    """Parse a decimal number with an optional SI suffix."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[-1] in SI_SUFFIXES:
        return float(text[:-1]) * SI_SUFFIXES[text[-1]]
    raise ValueError(f"not a number: {text!r}")


# key -> default raw value; values are parsed lazily so errors name the key
# that carried them
_KNOWN_KEYS = {
    "signal.type": "sine",
    "signal.amplitude": "16",
    "signal.frequency": "1k",
    "signal.phase": "0",
    "signal.offset": "0",
    "signal.value": "0",
    "signal.start": "0",
    "signal.slope": "0",
    "signal.tones": "",
    "signal.sample_period": "0",
    "signal.values": "",
    "adc.delta": "1",
    "adc.levels": "32",
    "adc.v_min": "-16",
    "adc.clock_freq": "201k",
    "adc.clock_phase": "0",
    "adc.settle_time": "0",
    "power.p_on": "2.6u",
    "power.p_off": "0.2u",
    "power.e_event": "0",
    "run.t_end": "200m",
    "run.seed": "0",
    "run.trials": "20",
    "run.out": ".",
    "run.format": "json",
}

_SIGNAL_TYPES = ("sine", "constant", "ramp", "sum_of_sines", "sampled")


@dataclass(frozen=True)
class RunConfig:
    signal: SignalSpec
    adc: AdcConfig
    power: PowerParams
    t_end: float
    seed: int
    trials: int
    out: str
    out_format: str


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse the flat grammar into key -> (raw value, line number)."""
    table: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError("expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigFileError("unknown key", key=key, line=lineno)
        if key in table:
            raise ConfigFileError("duplicate key", key=key, line=lineno)
        table[key] = (value, lineno)
    return table


class _Table:
    """Typed access over the parsed table with key/line error reporting."""

    def __init__(self, table: dict[str, tuple[str, int]]):
        self._table = table

    def raw(self, key: str) -> str:
        if key in self._table:
            return self._table[key][0]
        return _KNOWN_KEYS[key]

    def line(self, key: str) -> int | None:
        return self._table[key][1] if key in self._table else None

    def number(self, key: str) -> float:
        raw = self.raw(key)
        try:
            return parse_number(raw)
        except ValueError as exc:
            raise ConfigFileError(str(exc), key=key, line=self.line(key)) from exc

    def integer(self, key: str) -> int:
        value = self.number(key)
        if value != int(value):
            raise ConfigFileError(
                f"expected an integer, got {value}", key=key, line=self.line(key)
            )
        return int(value)

    def require(self, key: str) -> None:
        if key not in self._table:
            raise ConfigFileError("missing required key", key=key)

    def error(self, key: str, message: str) -> ConfigFileError:
        return ConfigFileError(message, key=key, line=self.line(key))


def _build_signal(tb: _Table) -> SignalSpec:
    kind = tb.raw("signal.type")
    if kind not in _SIGNAL_TYPES:
        raise tb.error("signal.type", f"must be one of {_SIGNAL_TYPES}")
    if kind == "sine":
        return Sine(
            amplitude=tb.number("signal.amplitude"),
            frequency=tb.number("signal.frequency"),
            phase=tb.number("signal.phase"),
            offset=tb.number("signal.offset"),
        )
    if kind == "constant":
        return Constant(value=tb.number("signal.value"))
    if kind == "ramp":
        return Ramp(start=tb.number("signal.start"), slope=tb.number("signal.slope"))
    if kind == "sum_of_sines":
        tb.require("signal.tones")
        tones = []
        for part in tb.raw("signal.tones").split(","):
            fields = [p.strip() for p in part.strip().split(":")]
            if len(fields) not in (2, 3):
                raise tb.error(
                    "signal.tones", "each tone must be 'amplitude:frequency[:phase]'"
                )
            try:
                amp = parse_number(fields[0])
                freq = parse_number(fields[1])
                phase = parse_number(fields[2]) if len(fields) == 3 else 0.0
            except ValueError as exc:
                raise tb.error("signal.tones", str(exc)) from exc
            tones.append((amp, freq, phase))
        return SumOfSines(tones=tuple(tones), offset=tb.number("signal.offset"))
    # sampled
    tb.require("signal.sample_period")
    tb.require("signal.values")
    try:
        values = tuple(
            parse_number(p) for p in tb.raw("signal.values").split(",") if p.strip()
        )
    except ValueError as exc:
        raise tb.error("signal.values", str(exc)) from exc
    return Sampled(sample_period=tb.number("signal.sample_period"), values=values)


def build_run_config(table: dict[str, tuple[str, int]]) -> RunConfig:
    tb = _Table(table)
    try:
        signal = _build_signal(tb)
    except ConfigFileError:
        raise
    except ValueError as exc:
        raise ConfigFileError(f"invalid signal: {exc}", key="signal.type") from exc
    try:
        adc = AdcConfig(
            delta=tb.number("adc.delta"),
            level_count=tb.integer("adc.levels"),
            v_min=tb.number("adc.v_min"),
            clock_freq=tb.number("adc.clock_freq"),
            clock_phase=tb.number("adc.clock_phase"),
            settle_time=tb.number("adc.settle_time"),
        )
    except ConfigFileError:
        raise
    except ValueError as exc:
        raise ConfigFileError(f"invalid adc section: {exc}", key="adc.delta") from exc
    try:
        power = PowerParams(
            p_on=tb.number("power.p_on"),
            p_off=tb.number("power.p_off"),
            e_event=tb.number("power.e_event"),
        )
    except ConfigFileError:
        raise
    except ValueError as exc:
        raise ConfigFileError(f"invalid power section: {exc}", key="power.p_on") from exc
    out_format = tb.raw("run.format")
    if out_format not in ("json", "markdown"):
        raise tb.error("run.format", "must be json or markdown")
    t_end = tb.number("run.t_end")
    if t_end <= 0:
        raise tb.error("run.t_end", "must be > 0")
    trials = tb.integer("run.trials")
    if trials < 1:
        raise tb.error("run.trials", "must be >= 1")
    return RunConfig(
        signal=signal,
        adc=adc,
        power=power,
        t_end=t_end,
        seed=tb.integer("run.seed"),
        trials=trials,
        out=tb.raw("run.out"),
        out_format=out_format,
    )


def load_run_config(path: str | None) -> RunConfig:
    """Load a RunConfig from ``path`` or built-in defaults when None.

    The defaults describe a 5-bit converter with a full-scale 1 kHz sine and
    a 201 kHz clock.
    """
    if path is None:
        return build_run_config({})
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return build_run_config(parse_config_text(text))
