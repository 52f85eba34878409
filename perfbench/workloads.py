"""The four benchmark workloads.

Each workload is a :class:`Workload` with three steps:

* ``setup(seed, smoke)`` builds the substrates the workload's units run
  on, from an empty artifact cache, and returns the run's state dict (the
  worker adds ``on_unit``, the host-speed probe, or ``None``);
* ``item(state, index)`` runs one *item* -- a fixed group of units -- and
  returns ``(units, output_bytes)``, where ``output_bytes`` is the
  canonical rendering of everything the item produced;
* ``cycle`` is how many distinct items there are before inputs repeat.
  Item ``i`` and item ``i + cycle`` must produce identical output bytes;
  the worker checks that, and compares the first ``cycle`` items against
  the pinned digests in ``digests.json`` when the seed has them.  Each
  position of the cycle has its own sub-seed and substrate, so one run
  averages over ``cycle`` independent inputs.

Inputs are made only from the seed.  Every function of the program is
reached through its module at call time (``experiments.ch3_churn_tables``
rather than a name imported once), so the traced run's wrappers are the
functions the workload calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class CheckFailed(AssertionError):
    """A unit's output or end state failed the benchmark's own check."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: what one unit is (the denominator of ``items_per_s``)
    unit: str
    setup: Callable[[int, bool], Any]
    item: Callable[[Any, int], tuple[int, bytes]]
    #: distinct items before inputs repeat.  A timed run executes whole
    #: cycles, so every run weighs every input equally; a fixed-size run
    #: (traced, or its untraced baseline) executes exactly one cycle
    cycle: int
    #: modules whose import is the workload's entry cost
    entry_modules: tuple[str, ...]
    #: optional whole-run check over every item's result (model shape)
    finish: Callable[[Any], None] | None = None


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the workload seed (stable across runs)."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tables_json(groups: dict[str, dict]) -> bytes:
    payload = {
        group: {metric: json.loads(table.to_json()) for metric, table in tables.items()}
        for group, tables in groups.items()
    }
    return json.dumps(payload, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# fig3_sweep: the Ch. 3 churn and degree sweeps on the paper substrate
# ---------------------------------------------------------------------------


#: distinct inputs (one substrate each) of one fig3_sweep / planetlab_refine cycle
FIG3_CYCLE = 4
PL_CYCLE = 6


def _seeds(seed: int, cycle: int) -> list[int]:
    return [sub_seed(seed, pos) for pos in range(cycle)]


def _fig3_preset(state, index: int):
    from repro.harness import presets

    # A distinct preset name per item bypasses the in-process sweep cache,
    # so every item recomputes its tables; substrate memos stay warm.
    name = f"perfbench-fig3-{index}"
    seed = state["seeds"][index % FIG3_CYCLE]
    if state["smoke"]:
        return dataclasses.replace(
            presets.SMOKE,
            name=name,
            seed=seed,
            churn_rates=(0.1,),
            degree_values=(2, 4),
        )
    return presets.Preset(
        name=name,
        seed=seed,
        replications=1,
        churn_rates=(0.01, 0.10),
        degree_values=(2, 4, 8),
    )


def _fig3_setup(seed: int, smoke: bool):
    from repro.harness import substrates

    state = {"seeds": _seeds(seed, FIG3_CYCLE), "smoke": smoke}
    for pos in range(FIG3_CYCLE):
        preset = _fig3_preset(state, pos)
        substrates.build_transit_stub_underlay(
            n_hosts=preset.ch3_hosts, seed=preset.seed, ts_config=preset.ts_config
        )
    return state


def _fig3_item(state, index: int) -> tuple[int, bytes]:
    from repro.harness import experiments

    preset = _fig3_preset(state, index)
    churn = experiments.ch3_churn_tables(preset)
    degree = experiments.ch3_degree_tables(preset)
    reps = preset.replications * (
        2 * len(preset.churn_rates) + len(preset.degree_values)
    )
    return reps, _tables_json({"ch3_churn": churn, "ch3_degree": degree})


# ---------------------------------------------------------------------------
# planetlab_refine: Ch. 5 PlanetLab-emulation sessions over the churn grid
# ---------------------------------------------------------------------------


def _pl_preset(state, index: int):
    from repro.harness import presets

    base = presets.SMOKE if state["smoke"] else presets.QUICK
    return dataclasses.replace(
        base,
        name=f"perfbench-pl-{index}",
        seed=state["seeds"][index % PL_CYCLE],
        pl_replications=1,
        pl_churn_rates=base.pl_churn_rates[::2],
    )


def _pl_setup(seed: int, smoke: bool):
    from repro.harness import substrates
    from repro.util.rngtools import spawn_rng

    state = {"seeds": _seeds(seed, PL_CYCLE), "smoke": smoke}
    for pos in range(PL_CYCLE):
        preset = _pl_preset(state, pos)
        # The churn sweep's substrate seed, derived as the sweep derives it.
        substrate_seed = int(spawn_rng(preset.seed, "pl", "churn").integers(2**31))
        substrates.build_planetlab_underlay(
            n_select=preset.pl_select, seed=substrate_seed, n_us=preset.pl_pool_us
        )
    return state


def _pl_item(state, index: int) -> tuple[int, bytes]:
    from repro.harness import experiments

    preset = _pl_preset(state, index)
    tables = experiments.ch5_churn_tables(preset)
    reps = preset.pl_replications * 2 * len(preset.pl_churn_rates)
    return reps, _tables_json({"ch5_churn": tables})


# ---------------------------------------------------------------------------
# service_mix: live service runs, Poisson and flash crowd above the HWM
# ---------------------------------------------------------------------------

#: (scenario, load factor) of the service runs in one item
SERVICE_MIX = (("poisson", 4.0), ("flash", 2.0), ("flash", 4.0))
#: distinct items before the service inputs repeat
SERVICE_CYCLE = 16


def _service_config(seed: int, scenario: str, load: float, smoke: bool):
    from repro.service import runtime

    duration = 120.0 if smoke else 300.0
    burst = scenario == "flash"
    return runtime.ServiceConfig(
        scenario=scenario,
        duration_s=duration,
        seed=seed,
        n_hosts=16 if smoke else 32,
        arrival_rate_hz=0.1 * load,
        hold_s=120.0,
        join_queue_hwm=8,
        join_workers=2,
        burst_at_s=duration / 3.0 if burst else 0.0,
        burst_rate_hz=1.0 * load if burst else 0.0,
        burst_duration_s=30.0 if burst else 0.0,
    )


def _service_setup(seed: int, smoke: bool):
    from repro.harness import presets, substrates

    ts_config = (presets.SMOKE if smoke else presets.QUICK).ts_config
    underlays = [
        substrates.build_transit_stub_underlay(
            n_hosts=16 if smoke else 32, seed=sub_seed(seed, pos), ts_config=ts_config
        )
        for pos in range(SERVICE_CYCLE)
    ]
    return {
        "seed": seed,
        "smoke": smoke,
        "underlays": underlays,
        "arrivals": 0,
        "admitted": 0,
        "rejected": 0,
    }


def _service_item(state, index: int) -> tuple[int, bytes]:
    from repro.service import runtime

    pos = index % SERVICE_CYCLE
    arrivals = 0
    out = []
    for k, (scenario, load) in enumerate(SERVICE_MIX):
        cfg = _service_config(
            sub_seed(state["seed"], pos, k), scenario, load, state["smoke"]
        )
        service = runtime.ServiceRuntime(
            cfg, state["underlays"][pos], journal_outcomes=False
        )
        report = service.run()
        out.append(service.metrics_json())
        arrivals += report["arrivals"]
        state["arrivals"] += report["arrivals"]
        state["admitted"] += report["admitted"]
        state["rejected"] += report["rejected"]
    return arrivals, "".join(out).encode()


def _service_finish(state) -> None:
    # The mix is chosen so admission control bites but does not close:
    # some arrivals are rejected and some are admitted.
    if state["rejected"] == 0 or state["admitted"] == 0:
        raise CheckFailed(
            f"service mix lost its shape: {state['admitted']} admitted, "
            f"{state['rejected']} rejected of {state['arrivals']}"
        )



# ---------------------------------------------------------------------------
# scale_join: Ch. 7 static-join walks on a sparse CSR substrate
# ---------------------------------------------------------------------------

SCALE_MEMBERS = 2000
SCALE_SMOKE_MEMBERS = 200
SCALE_DEGREE = 4


#: distinct substrates per scale_join run
SCALE_CYCLE = 3


def _scale_setup(seed: int, smoke: bool):
    from repro.harness import scale, substrates

    n = SCALE_SMOKE_MEMBERS if smoke else SCALE_MEMBERS
    underlays = [
        substrates.build_transit_stub_underlay(
            n_hosts=n,
            seed=sub_seed(seed, pos),
            ts_config=scale.scale_ts_config(n),
            sparse=True,
        )
        for pos in range(SCALE_CYCLE)
    ]
    return {"underlays": underlays, "n": n}


def check_scale_tree(parents: np.ndarray, degree_limit: int) -> None:
    """Parents form one tree rooted at member 0 within the degree bound."""
    n = parents.size
    if n == 0 or parents[0] != -1:
        raise CheckFailed("scale tree root is not member 0")
    rest = parents[1:]
    if rest.min(initial=0) < 0 or rest.max(initial=0) >= n:
        raise CheckFailed("scale tree has a dangling parent")
    if np.bincount(rest, minlength=n).max(initial=0) > degree_limit:
        raise CheckFailed("scale tree exceeds the degree limit")
    # Pointer doubling: after ceil(log2 n) + 1 squarings every member's
    # ancestor is the root, unless it sits on a cycle that misses it.
    up = parents.copy()
    up[0] = 0
    for _ in range(int(n).bit_length() + 1):
        up = up[up]
    if np.any(up != 0):
        raise CheckFailed("scale tree has a cycle")


def _scale_item(state, index: int) -> tuple[int, bytes]:
    from repro.harness import scale

    underlay, n = state["underlays"][index % SCALE_CYCLE], state["n"]
    out = {}
    for proto in ("vdm", "hmtp"):
        tree = scale.build_scale_tree(underlay, proto, n, degree_limit=SCALE_DEGREE)
        check_scale_tree(tree.parents, SCALE_DEGREE)
        metrics = scale.scale_tree_metrics(underlay, tree.parents)
        if state["on_unit"] is not None:
            state["on_unit"]()
        out[proto] = {
            "parents": tree.parents.tolist(),
            "join_latency_ms": tree.join_latency_ms.tolist(),
            "metrics": dataclasses.asdict(metrics),
        }
    return 2 * (n - 1), json.dumps(out, sort_keys=True).encode()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig3_sweep",
            unit="replication",
            setup=_fig3_setup,
            item=_fig3_item,
            cycle=FIG3_CYCLE,
            entry_modules=("repro.harness.experiments",),
        ),
        Workload(
            name="planetlab_refine",
            unit="replication",
            setup=_pl_setup,
            item=_pl_item,
            cycle=PL_CYCLE,
            entry_modules=("repro.harness.experiments",),
        ),
        Workload(
            name="service_mix",
            unit="arrival",
            setup=_service_setup,
            item=_service_item,
            cycle=SERVICE_CYCLE,
            entry_modules=("repro.service.runtime", "repro.harness.substrates"),
            finish=_service_finish,
        ),
        Workload(
            name="scale_join",
            unit="member join",
            setup=_scale_setup,
            item=_scale_item,
            cycle=SCALE_CYCLE,
            entry_modules=("repro.harness.scale", "repro.harness.substrates"),
        ),
    )
}


# ---------------------------------------------------------------------------
# End-state checks wrapped around the program's session entry points
# ---------------------------------------------------------------------------


def install_checks(on_unit: Callable[[], None] | None = None) -> None:
    """Check every session's end state; a failed check raises CheckFailed.

    Wraps ``MulticastSession.run`` and ``ServiceRuntime.run`` once per
    process, after any tracing wrappers, so check time stays outside the
    traced spans.  Legality is judged by the original
    ``tree_is_legal``, never by a traced copy, so checks add no counts.
    ``on_unit`` (the timed run's host-speed probe) runs after each check.
    """
    from repro.service import runtime
    from repro.sim import invariants, session

    tree_is_legal = invariants.tree_is_legal

    def check_env(env, checker, violations) -> None:
        if checker is None or checker.mode != "raise":
            raise CheckFailed("invariant checker is not in raise mode")
        if violations:
            raise CheckFailed(f"{len(violations)} invariant violations recorded")
        if not tree_is_legal(env):
            raise CheckFailed("tree is not legal at the end of the run")

    session_run = session.MulticastSession.run

    def checked_session_run(self):
        result = session_run(self)
        check_env(self.env, self.checker, result.violations)
        if on_unit is not None:
            on_unit()
        return result

    service_run = runtime.ServiceRuntime.run

    def checked_service_run(self):
        report = service_run(self)
        check_env(self.env, self.checker, self.checker.violations)
        if report["invariant_violations"] != 0:
            raise CheckFailed("service reports invariant violations")
        if on_unit is not None:
            on_unit()
        return report

    session.MulticastSession.run = checked_session_run
    runtime.ServiceRuntime.run = checked_service_run
