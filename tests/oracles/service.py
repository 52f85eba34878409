"""Per-event oracle for :meth:`repro.service.runtime.ServiceRuntime._drive`.

The production driver fires simulator events in batches while asyncio's
ready queue is empty.  This is the driver it replaced: it waits for the
pulse to settle (two clean passes of ``asyncio.sleep(0)``) around *every*
simulator event.  Monkeypatch it in as ``ServiceRuntime._drive`` and the
run's ``metrics_json()`` must not change by a byte.
"""

from __future__ import annotations

import asyncio
import time


async def reference_quiesce(rt) -> None:
    """Yield to the loop until the pulse counter settles."""
    idle = 0
    while idle < 2:
        before = rt.pulse.count
        await asyncio.sleep(0)
        idle = idle + 1 if rt.pulse.count == before else 0


async def reference_drive(rt) -> None:
    """Interleave asyncio quiescence with single simulator events."""
    try:
        last = rt.sim.now
        while not rt._finished:
            await reference_quiesce(rt)
            if rt._finished:
                break
            if rt._drain_requested and not rt._draining:
                rt._begin_drain()
                continue
            if not rt.sim.step():
                raise RuntimeError(
                    "service runtime stalled: asyncio is quiescent, the "
                    "event queue is empty, and the run is not finished"
                )
            if rt._pace_s > 0:
                wall = (rt.sim.now - last) * rt._pace_s
                if wall > 0:
                    time.sleep(min(wall, 0.25))
            last = rt.sim.now
    except BaseException:
        if rt._orchestrator is not None and not rt._orchestrator.done():
            rt._orchestrator.cancel()
        raise
