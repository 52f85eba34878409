"""Host-speed calibration for the timed phase.

The 2-vCPU VM this benchmark was defined on drifts in speed by about
15 % over a few seconds: a fixed pure-Python loop, alone on the machine,
took 70-127 ms per repetition within one minute, and identical service
items 0.25-0.44 s within one process.  Runs of 10-20 s do not average
that out, so a wall-clock rate spreads across runs by more than any
bound worth setting.

:class:`Probe` measures the drift with a fixed pure-Python workload (a
few dictionary updates and a string sort, about 12 ms) between items and
after every session or tree build inside them.  The worker subtracts the
probes' own time from each item and scales what remains by
``REF_S / mean probe``: ``items_per_s`` is thus in units per *reference*
second, the second of a host whose probe takes ``REF_S``.  The probe is
independent of the program, so a change to the program moves the
calibrated rate exactly as it moves the wall rate; the uncalibrated wall
rate is printed next to it.
"""

from __future__ import annotations

import gc
import time

#: probe time on the reference host (median inside timed runs there)
REF_S = 0.0175


def probe_seconds() -> float:
    """Wall seconds of the fixed probe, run with the collector off.

    The collector is off so that the program's collector settings (a
    session pauses it while it runs) cannot reach the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        slots = [0] * 64
        for i in range(120000):
            acc = (acc * 31 + i) & 0xFFFF
            slots[acc & 63] += 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Collects probe samples; the worker reads them per item."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time inside sample(), probe included

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_seconds())
        self.spent_s += time.perf_counter() - t0
