"""Reference kernel that calibrates host time against the machine's current speed.

Ops are timed in process CPU time, which leaves out time the hypervisor
steals from the vCPU: the guest kernel accounts steal time apart from task
run time. That does not remove a second kind of noise on a shared machine.
The vCPU also runs at several speeds, a fast one and two about 1.8x and
2.2x slower, and switches between them every few seconds to minutes. CPU
time slows with them, so raw times of one op spread by 25-30% between runs.
The benchmark therefore also times this fixed pure-Python kernel, in CPU
time, before and after every op. It scales the op's CPU time by
``REFERENCE_S / kernel time``, so the result reads as seconds on a machine
where the kernel takes ``REFERENCE_S``. The kernel mixes the interpreter
work the simulator does: float math with ``math.sin``, small dicts, calls
with ``isinstance`` dispatch on frozen dataclasses, tuple appends and a
``json.dumps`` of event-like records. It does not use lcadc, so no change
to lcadc moves it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import process_time

REFERENCE_S = 1e-3


@dataclass(frozen=True)
class _Tone:
    amplitude: float
    frequency: float


def _value(tone, t: float) -> float:
    if isinstance(tone, _Tone):
        return tone.amplitude * math.sin(2.0 * math.pi * tone.frequency * t)
    return 0.0


_RECORDS = [
    {"t_req": i * 1e-6, "dir": "up", "code_before": i, "code_after": i + 1,
     "t_ack": i * 1.1e-6, "t_on": i * 1.2e-6, "immediate": False}
    for i in range(100)
]


def _kernel() -> None:
    acc = 0.0
    for i in range(1000):
        acc += math.sin(i * 0.001) * 1.5
        d = {"a": i, "b": acc}
        acc -= d["a"] * 1e-9
    tone = _Tone(16.0, 1000.0)
    hits = []
    t = 0.0
    for _ in range(1000):
        v = _value(tone, t)
        if v > 15.0 or v < -15.0:
            hits.append((t, v))
        t += 1e-6
    json.dumps(_RECORDS, sort_keys=True, separators=(",", ":"))


def kernel_seconds() -> float:
    """CPU time of one run of the reference kernel."""
    start = process_time()
    _kernel()
    return process_time() - start


def warm_up(runs: int = 20) -> None:
    """Let the interpreter specialize the kernel before it is timed."""
    for _ in range(runs):
        _kernel()


def calibrated(cpu_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """CPU time rescaled to a machine where the reference kernel takes
    REFERENCE_S, using the kernel times measured around it."""
    return cpu_s * REFERENCE_S / (0.5 * (kernel_before_s + kernel_after_s))
