"""Layer spans and work counters, recorded from outside the lcadc package.

The tracer wraps lcadc's public functions wherever lcadc binds them (a module
that did ``from .signals import next_window_exit`` holds its own reference),
so nothing under ``src/`` changes.  Wrappers compose: each new wrapper wraps
whatever is bound now and records the original in ``__wrapped__``.

Three kinds of layer:

* ``count``: only the number of calls (``signals.evaluate``, which runs
  about twenty times per crossing and would be distorted by timing).
* ``fine``: calls and busy time, folded into one aggregate per enclosing
  span (the crossing search and ``ack_time`` run once per event, and a span
  per call would cost more memory than the run it describes).
* ``span``: one recorded span per call, with start, end and parent.

A layer's self time is its duration minus the time of the traced layers it
called.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

# (layer name, module, attribute path, kind); a layer missing from the
# package is skipped and reads as zero calls
LAYERS = (
    ("signals.evaluate", "lcadc.signals", "evaluate", "count"),
    ("signals.next_window_exit", "lcadc.signals", "next_window_exit", "fine"),
    ("signals.next_window_entry", "lcadc.signals", "next_window_entry", "fine"),
    ("engine.ack_time", "lcadc.engine", "ack_time", "fine"),
    ("engine.simulate", "lcadc.engine", "simulate", "span"),
    ("engine.tracking_error", "lcadc.engine", "tracking_error", "span"),
    ("engine.Trace.to_json", "lcadc.engine", "Trace.to_json", "span"),
    ("power.measure", "lcadc.power", "measure", "span"),
    ("analysis.monte_carlo_off_time", "lcadc.analysis", "monte_carlo_off_time", "span"),
    ("runconfig.load_run_config", "lcadc.runconfig", "load_run_config", "span"),
    ("cli.main", "lcadc.cli", "main", "span"),
)


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    evaluate_calls: int = 0  # evaluate calls made inside this layer


@dataclass
class WorkCounters:
    """Deterministic work done by the engine, observed at its boundary."""

    evaluate_calls: int = 0
    events: int = 0
    immediate_events: int = 0
    saturation_intervals: int = 0
    overload_traces: int = 0
    to_json_bytes: int = 0


@dataclass
class _Frame:
    span_id: int
    name: str
    start: float
    evaluate_at_start: int
    child_s: float = 0.0
    # fine layers called directly inside this span: name -> [calls, seconds]
    fine: dict[str, list] = field(default_factory=dict)


@dataclass
class Tracer:
    """Collects spans, per-layer time and work counters while installed."""

    stats: dict[str, LayerStat] = field(default_factory=dict)
    counters: WorkCounters = field(default_factory=WorkCounters)
    spans: list[dict] = field(default_factory=list)
    op: int | None = None
    _stack: list[_Frame] = field(default_factory=list)

    def stat(self, name: str) -> LayerStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        return st

    def enter(self, name: str) -> _Frame:
        # spans opened so far, closed or still open, number the new one
        frame = _Frame(len(self.spans) + len(self._stack), name, perf_counter(), self.counters.evaluate_calls)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child_s += duration
        st = self.stat(frame.name)
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - frame.child_s
        st.evaluate_calls += self.counters.evaluate_calls - frame.evaluate_at_start
        self.spans.append(
            {
                "id": frame.span_id,
                "parent": self._stack[-1].span_id if self._stack else None,
                "op": self.op,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self_s": duration - frame.child_s,
                "fine": frame.fine,
            }
        )

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` of untraced work out of the self time of the
        innermost open span."""
        if self._stack:
            self._stack[-1].child_s += seconds

    def observe_result(self, name: str, result) -> None:
        if name == "engine.simulate":
            c = self.counters
            c.events += len(result.events)
            c.immediate_events += sum(1 for e in result.events if e.immediate)
            c.saturation_intervals += len(result.saturation)
            c.overload_traces += bool(result.overload)
        elif name == "engine.Trace.to_json":
            self.counters.to_json_bytes += len(result)

    def wrap(self, name: str, kind: str, fn):
        counters = self.counters
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters.evaluate_calls += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "fine":
            # fine layers call no traced layer, so their self time is their
            # busy time
            st = self.stat(name)
            stack = self._stack

            @functools.wraps(fn)
            def fine(*args, **kwargs):
                evals = counters.evaluate_calls
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    st.calls += 1
                    st.total_s += duration
                    st.self_s += duration
                    st.evaluate_calls += counters.evaluate_calls - evals
                    if stack:
                        parent = stack[-1]
                        parent.child_s += duration
                        agg = parent.fine.get(name)
                        if agg is None:
                            agg = parent.fine[name] = [0, 0.0]
                        agg[0] += 1
                        agg[1] += duration

            return fine

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            self.observe_result(name, result)
            return result

        return timed

    def to_json_dict(self) -> dict:
        """Spans, per-layer totals and counters, for writing out when the
        run ends."""
        return {
            "spans": self.spans,
            "layers": {name: vars(st) for name, st in sorted(self.stats.items())},
            "counters": vars(self.counters),
        }


class Patches:
    """Wrappers installed over lcadc bindings, removable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap_everywhere(self, module: str, attr: str, make_wrapper) -> None:
        """Replace every lcadc binding of ``module.attr`` with
        ``make_wrapper(current)``; a missing function is left alone."""
        owner_path, _, leaf = attr.rpartition(".")
        owner = sys.modules.get(module)
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        current = getattr(owner, leaf, None)
        if not isinstance(current, types.FunctionType):
            return
        if owner_path:
            self._set(owner, leaf, make_wrapper(current))
            return
        original = inspect.unwrap(current)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lcadc" or name.startswith("lcadc.")):
                continue
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and inspect.unwrap(value) is original:
                    self._set(mod, key, make_wrapper(value))

    def _set(self, namespace, key: str, value) -> None:
        self._saved.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, value)

    def restore(self) -> None:
        while self._saved:
            namespace, key, value = self._saved.pop()
            setattr(namespace, key, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer in LAYERS with ``tracer``; restore() undoes it."""
    patches = Patches()
    for name, module, attr, kind in LAYERS:
        patches.wrap_everywhere(module, attr, functools.partial(tracer.wrap, name, kind))
    return patches
