"""The batching service driver: equivalence with the per-event oracle,
its loop-turn budget, stall detection, and the one private loop attribute
it reads.

``ServiceRuntime._drive`` fires simulator events back to back while
asyncio's ready queue is empty; ``tests.oracles.reference_drive`` waits
for the pulse to settle around every single event.  Every run below must
produce byte-identical metrics under both.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
from collections import Counter

import numpy as np
import pytest

from repro.harness.chaos import ServiceChaosRule
from repro.service.runtime import ServiceConfig, ServiceRuntime
from repro.sim.network import MatrixUnderlay
from tests.oracles import reference_drive


def _underlay(n: int, seed: int = 7) -> MatrixUnderlay:
    rng = np.random.default_rng(seed)
    pos = np.sort(rng.uniform(0.0, 100.0, n))
    return MatrixUnderlay(np.abs(pos[:, None] - pos[None, :]) * 2.0)


BASE = ServiceConfig(
    scenario="poisson",
    duration_s=300.0,
    seed=3,
    n_hosts=24,
    arrival_rate_hz=0.3,
    hold_s=80.0,
)

FLASH = ServiceConfig(
    scenario="flash", duration_s=240.0, seed=5, n_hosts=24,
    arrival_rate_hz=0.1, hold_s=150.0, join_queue_hwm=2,
    join_workers=1, probe_period_s=1.0, burst_at_s=60.0,
    burst_rate_hz=3.0, burst_duration_s=20.0,
)

DIURNAL = ServiceConfig(
    scenario="diurnal", duration_s=400.0, seed=9, n_hosts=24,
    arrival_rate_hz=0.3, hold_s=60.0, diurnal_period_s=100.0,
    diurnal_depth=0.8,
)

CHAOS = (
    ServiceChaosRule(action="agent-crash", at_s=100.0, node_index=1),
    ServiceChaosRule(action="bus-stall", at_s=110.0, topic="joins",
                     duration_s=40.0),
    ServiceChaosRule(action="clock-jump", at_s=150.0),
)

#: name -> (config, chaos plan, drain time or None, pace_s)
CASES = {
    "poisson": (BASE, (), None, 0.0),
    "flash-above-hwm": (FLASH, (), None, 0.0),
    "diurnal": (DIURNAL, (), None, 0.0),
    "chaos": (BASE, CHAOS, None, 0.0),
    "drain": (BASE, (), 150.0, 0.0),
    "pace": (BASE, (), None, 1e-4),
}


def _runtime(case: str) -> ServiceRuntime:
    cfg, plan, drain_at, pace_s = CASES[case]
    rt = ServiceRuntime(
        cfg, _underlay(cfg.n_hosts), chaos_plan=plan,
        journal_outcomes=False, pace_s=pace_s,
    )
    if drain_at is not None:
        rt.sim.schedule(drain_at, rt.request_drain, label="test-drain")
    return rt


def _run(case: str) -> ServiceRuntime:
    rt = _runtime(case)
    rt.run()
    return rt


# ---------------------------------------------------------------------------
# equivalence with the per-event oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_byte_identical_to_per_event_oracle(case, monkeypatch):
    batched = _run(case)
    with monkeypatch.context() as m:
        m.setattr(ServiceRuntime, "_drive", reference_drive)
        oracle = _run(case)
    assert batched.metrics_json() == oracle.metrics_json()
    assert batched.sim.events_processed == oracle.sim.events_processed
    assert batched.sim.now == oracle.sim.now


def test_cases_exercise_what_they_name():
    """Guard against the equivalence grid going vacuous."""
    flash = _run("flash-above-hwm").report()
    assert flash["rejected"] > 0 and flash["admitted"] > 0
    chaos = _run("chaos").report()
    assert chaos["chaos"]["agent_crashes"] == 1
    assert chaos["chaos"]["bus_stalls"] == 1
    assert chaos["chaos"]["clock_jumps"] == 1
    drained = _run("drain").report()
    assert drained["drained"] is True
    assert drained["drain_time_s"] == pytest.approx(150.0)


# ---------------------------------------------------------------------------
# loop-turn budget
# ---------------------------------------------------------------------------


class _CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts its turns (``_run_once`` calls)."""

    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self._counts = counts

    def _run_once(self):
        self._counts["turns"] += 1
        super()._run_once()


class _CountingPolicy(asyncio.DefaultEventLoopPolicy):
    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self._counts = counts

    def new_event_loop(self):
        return _CountingLoop(self._counts)


@contextlib.contextmanager
def _counting_loop():
    """Run the enclosed ``asyncio.run`` calls on a turn-counting loop."""
    counts: Counter = Counter()
    asyncio.set_event_loop_policy(_CountingPolicy(counts))
    try:
        yield counts
    finally:
        asyncio.set_event_loop_policy(None)


def _record_steps(rt: ServiceRuntime, counts: Counter) -> list[int]:
    """Wrap ``rt.sim.step``; the list gets the loop-turn count at each call."""
    seen: list[int] = []
    step = rt.sim.step

    def recording_step() -> bool:
        seen.append(counts["turns"])
        return step()

    rt.sim.step = recording_step
    return seen


def _turns_and_steps() -> tuple[int, int]:
    rt = _runtime("poisson")
    with _counting_loop() as counts:
        steps = _record_steps(rt, counts)
        rt.run()
    return counts["turns"], len(steps)


def test_loop_turns_at_most_half_a_turn_per_step():
    turns, steps = _turns_and_steps()
    assert steps > 1000
    assert turns <= 0.5 * steps, (turns, steps)


def test_per_event_oracle_spins_over_two_turns_per_step(monkeypatch):
    """The budget above is one the per-event driver cannot meet."""
    monkeypatch.setattr(ServiceRuntime, "_drive", reference_drive)
    turns, steps = _turns_and_steps()
    assert turns >= 2 * steps, (turns, steps)


# ---------------------------------------------------------------------------
# stall detection
# ---------------------------------------------------------------------------


def _parked_runtime(noop_events: int) -> ServiceRuntime:
    """A runtime whose only asyncio work parks forever on a bare future.

    The producer never returns and the health monitor is off, so the
    simulator holds only the ``noop_events`` that wake nobody: the driver
    must run them, find the queue empty and raise instead of hanging.
    """
    rt = ServiceRuntime(BASE, _underlay(BASE.n_hosts), chaos_plan=(),
                        journal_outcomes=False)

    async def produce_forever():
        await asyncio.get_running_loop().create_future()

    async def no_health(_finished):
        return None

    rt._produce = produce_forever
    rt.health.run = no_health
    for k in range(noop_events):
        rt.sim.schedule(1.0 + k, lambda: None, label="test-noop")
    return rt


@pytest.mark.parametrize("noop_events", [0, 3])
def test_stall_raises_instead_of_hanging(noop_events):
    rt = _parked_runtime(noop_events)
    with _counting_loop() as counts:
        turns_at_step = _record_steps(rt, counts)
        with pytest.raises(RuntimeError, match="stalled"):
            rt.run()
    # The no-op events and the failing step all run in one batch: the
    # stall surfaces on the first step after quiescence (no events) or
    # mid-batch (three events that woke nothing).
    assert len(turns_at_step) == noop_events + 1
    assert len(set(turns_at_step)) == 1
    assert rt.sim.now == float(noop_events)


# ---------------------------------------------------------------------------
# the private attribute the driver reads
# ---------------------------------------------------------------------------


def test_event_loop_ready_queue_is_a_deque():
    loop = asyncio.new_event_loop()
    try:
        assert isinstance(loop._ready, collections.deque)
    finally:
        loop.close()
