"""Layer tracing from outside the program.

The traced run wraps the public entry points of each layer with either a
*span* (timed: name, start, end, parent, unit id) or a *counter*.  Nothing
in ``src/`` changes: :func:`install` replaces class attributes and module
functions in the running process, and every module that imported a
wrapped function by name gets the wrapper too.

Spans live in memory in flat arrays and are written out once at the end
(:meth:`Tracer.save`).  A span's *self time* is its duration minus the
time its child spans cover; a layer's self time is the sum over its
spans.  Spans with no layer (``unit.*``) mark units of work; their self
time, plus the time outside every span, is the *untracked* remainder, so
layer self times plus untracked add up to the traced wall time.

Hot calls (``request``, ``tell``, ``virtual_distance``, ``delay_ms``,
``rtt_ms``) are only counted.  Coarser boundaries are timed.
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: the layers, in report order (the module names of the program)
LAYERS = (
    "sim.engine",
    "protocols",
    "sim.network",
    "sim.sparse",
    "sim.delivery",
    "sim.invariants",
    "metrics.collectors",
    "sim.batched",
    "harness",
    "harness.scale",
    "service",
)


class Tracer:
    """Span and counter store for one traced process (single thread)."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.span_layers: list[str | None] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.units = array("i")
        self.starts = array("d")
        self.ends = array("d")
        # Bottom sentinel: a root span's parent is -1.
        self.stack: list[int] = [-1]
        self.unit = 0
        self._next_unit = 1
        self.counts: Counter[str] = Counter()
        self.t_open = time.perf_counter()
        self.t_close: float | None = None

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str, layer: str | None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(layer)
        return nid

    def timed(self, name: str, layer: str | None, fn, *, new_unit: bool = False):
        """``fn`` wrapped in a span; ``new_unit`` gives the span a fresh unit id."""
        nid = self.name_id(name, layer)
        names, parents, units = self.names, self.parents, self.units
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self.unit
            if new_unit:
                self.unit = self._next_unit
                self._next_unit += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            units.append(self.unit)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                self.unit = outer

        return functools.update_wrapper(wrapper, fn)

    def counted(self, key: str, fn):
        """``fn`` wrapped so each call adds one to ``counts[key]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def close(self) -> None:
        self.t_close = time.perf_counter()

    # -- reduction ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "unit": np.frombuffer(self.units, dtype=np.int32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per-span-name counts and self times, per-layer self times, wall."""
        if self.t_close is None:
            raise RuntimeError("close the tracer before summarizing")
        return summarize(
            self.arrays(),
            self.span_names,
            self.span_layers,
            wall_s=self.t_close - self.t_open,
        )

    def save(self, path: Path, extra: dict) -> None:
        """Write every span (``.npz``) and the summary (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), **self.arrays())
        doc = {
            "span_names": self.span_names,
            "span_layers": self.span_layers,
            "t_open": self.t_open,
            "t_close": self.t_close,
            "counts": dict(sorted(self.counts.items())),
            "summary": self.summary(),
            **extra,
        }
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def summarize(spans: dict, span_names, span_layers, *, wall_s: float) -> dict:
    """Self times from raw span arrays (also used by the tests)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_s = dur - child
    n_names = len(span_names)
    name = spans["name"]
    by_name_self = np.bincount(name, weights=self_s, minlength=n_names)
    by_name_count = np.bincount(name, minlength=n_names)
    layer_self = {layer: 0.0 for layer in LAYERS}
    structural = 0.0
    for nid, layer in enumerate(span_layers):
        if layer is None:
            structural += float(by_name_self[nid])
        else:
            layer_self[layer] += float(by_name_self[nid])
    outside = wall_s - float(dur[~nested].sum())
    return {
        "wall_s": wall_s,
        "spans": int(dur.size),
        "span_self_s": {
            n: float(by_name_self[i]) for i, n in enumerate(span_names)
        },
        "span_count": {n: int(by_name_count[i]) for i, n in enumerate(span_names)},
        "layer_self_s": layer_self,
        "untracked_s": outside + structural,
    }


# ---------------------------------------------------------------------------
# Installation: which entry points become spans and counters
# ---------------------------------------------------------------------------


def _replace_function(module, attr: str, wrapper) -> None:
    """Point ``module.attr`` and every by-name import of it at ``wrapper``."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or mod is None:
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _own_methods(cls, *names):
    for name in names:
        if name in cls.__dict__:
            yield name, cls.__dict__[name]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class _CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts its turns (``_run_once`` calls)."""

    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self._counts = counts

    def _run_once(self):
        self._counts["service.loop_turns"] += 1
        super()._run_once()


class CountingLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """Event-loop policy whose new loops count their turns."""

    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self._counts = counts

    def new_event_loop(self):
        return _CountingLoop(self._counts)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points in this process (call once)."""
    # Import every module whose functions get wrapped, so that by-name
    # imports elsewhere exist before the replacement scan.
    from repro.core import vdm
    from repro.harness import (
        experiments,
        parallel,
        scale,
        substrates,
    )
    from repro.metrics import collectors
    from repro.protocols import base
    from repro.service import health, runtime
    from repro.sim import batched, delivery, engine, invariants, network, session
    from repro.sim import sparse
    from repro.util import artifacts

    del experiments  # imported for its by-name imports only
    tr = tracer
    counts = tr.counts

    # -- sim.engine ----------------------------------------------------------
    sim_cls = engine.Simulator
    for name in ("run", "run_until"):
        fn = getattr(sim_cls, name)
        setattr(sim_cls, name, tr.timed("sim.engine.run", "sim.engine", fn))

    def harvest_engine(sim) -> None:
        counts["sim.engine.events"] += sim.events_processed
        counts["sim.engine.scheduled"] += sim.events_scheduled

    # -- protocols -------------------------------------------------------------
    runtime_cls = base.ProtocolRuntime
    runtime_cls.request = tr.counted("protocols.requests", runtime_cls.request)
    runtime_cls.tell = tr.counted("protocols.tells", runtime_cls.tell)
    runtime_cls.virtual_distance = tr.counted(
        "protocols.virtual_distance_calls", runtime_cls.virtual_distance
    )
    agent_cls = base.OverlayAgent
    for name in (
        "handle_request",
        "handle_tell",
        "start_join",
        "leave",
        "on_parent_lost",
        "_refine_tick",
    ):
        for cls in _subclasses(agent_cls):
            for attr, fn in _own_methods(cls, name):
                setattr(cls, attr, tr.timed("protocols.handle", "protocols", fn))
    join_cls = base.JoinProcess
    for name in (
        "_iterate",
        "_probe_children",
        "_decide",
        "_redirect_after_reject",
        "_restart_at_source",
    ):
        fn = getattr(join_cls, name)
        setattr(join_cls, name, tr.timed("protocols.handle", "protocols", fn))

    join_start = join_cls.start

    def start(self):
        kind = "refine" if self.kind == "refine" else "join"
        counts[f"protocols.{kind}_attempts"] += 1
        return join_start(self)

    join_cls.start = tr.timed("protocols.handle", "protocols", start)

    join_done = join_cls._done

    def done(self, succeeded):
        if not self.finished and self.kind != "refine":
            counts["protocols.join_finished"] += 1
            counts["protocols.join_ok"] += bool(succeeded)
            counts["protocols.join_iterations"] += self.iterations
        return join_done(self, succeeded)

    join_cls._done = done

    join_commit = join_cls._commit

    def commit(self, new_parent, resp):
        old = self.agent.parent
        if self.kind == "refine" and old is not None and old != new_parent:
            counts["protocols.refine_moves"] += 1
        return join_commit(self, new_parent, resp)

    join_cls._commit = tr.timed("protocols.handle", "protocols", commit)

    # VDM case of each decision: the classification is stashed as the
    # decision is made, then read against the decision's kind.
    stash: list = [()]
    classify = vdm.classify_children

    def stashing_classify(*args, **kwargs):
        stash[0] = classified = classify(*args, **kwargs)
        return classified

    vdm.classify_children = stashing_classify
    case_iii = vdm.Case.III

    for cls in _subclasses(agent_cls):
        for attr, fn in _own_methods(cls, "join_decision"):
            if issubclass(cls, vdm.VDMAgent):

                def decide(self, *args, _fn=fn, **kwargs):
                    stash[0] = ()
                    decision = _fn(self, *args, **kwargs)
                    if isinstance(decision, base.Insert):
                        counts["protocols.case_II"] += 1
                    elif isinstance(decision, base.Descend) and any(
                        c.case is case_iii for c in stash[0]
                    ):
                        counts["protocols.case_III"] += 1
                    else:
                        counts["protocols.case_I"] += 1
                    return decision

                fn = functools.update_wrapper(decide, fn)
            setattr(cls, attr, tr.timed("protocols.decide", "protocols", fn))

    tree_cls = base.TreeRegistry
    for name in ("attach", "reparent", "depart", "sever", "insert"):
        setattr(
            tree_cls,
            name,
            tr.timed("protocols.tree_mutation", "protocols", getattr(tree_cls, name)),
        )

    # -- sim.network -----------------------------------------------------------
    for cls in _subclasses(network.Underlay):
        for attr, fn in _own_methods(cls, "delay_ms", "rtt_ms"):
            if cls is network.Underlay:
                continue  # the base rtt_ms calls delay_ms: count that once
            setattr(cls, attr, tr.counted("sim.network.queries", fn))
        for attr, fn in _own_methods(cls, "path_links", "delay_row"):
            if getattr(fn, "__isabstractmethod__", False):
                continue
            fn = tr.counted(f"sim.network.{attr}_calls", fn)
            setattr(cls, attr, tr.timed("sim.network.query", "sim.network", fn))

    # -- sim.sparse ------------------------------------------------------------
    plan_cls = sparse.RowPlan
    plan_cls.take = tr.timed("sim.sparse.take", "sim.sparse", plan_cls.take)
    plan_close = plan_cls.close

    def close(self):
        if not getattr(self, "_perfbench_harvested", False):
            self._perfbench_harvested = True
            counts["sim.sparse.rows_prefetched"] += self.sources_computed
            counts["sim.sparse.plan_hits"] += self.hits
            counts["sim.sparse.plan_misses"] += self.misses
        return plan_close(self)

    plan_cls.close = close
    sparse_cls = sparse.SparseUnderlay
    for name in ("_row", "router_dist_row"):
        fn = getattr(sparse_cls, name)

        def row(self, *args, _fn=fn, **kwargs):
            before = self.demand_rows
            try:
                return _fn(self, *args, **kwargs)
            finally:
                counts["sim.sparse.rows_demand"] += self.demand_rows - before

        row = functools.update_wrapper(row, fn)
        setattr(sparse_cls, name, tr.timed("sim.sparse.row", "sim.sparse", row))

    # -- sim.delivery, sim.invariants, metrics.collectors ------------------------
    acc_cls = delivery.DeliveryAccountant
    acc_cls.window_snapshot = tr.timed(
        "sim.delivery.snapshot", "sim.delivery", acc_cls.window_snapshot
    )
    chk_cls = invariants.InvariantChecker
    chk_cls.check_mutation = tr.timed(
        "sim.invariants.mutation_check", "sim.invariants", chk_cls.check_mutation
    )
    chk_cls.check_tree = tr.timed(
        "sim.invariants.sweep", "sim.invariants", chk_cls.check_tree
    )
    _replace_function(
        invariants,
        "tree_is_legal",
        tr.timed("sim.invariants.legality", "sim.invariants", invariants.tree_is_legal),
    )
    _replace_function(
        collectors,
        "collect_tree_metrics",
        tr.timed("metrics.collect", "metrics.collectors", collectors.collect_tree_metrics),
    )

    # -- sim.batched (entered through harness.batchrun) --------------------------
    cell_cls = batched.BatchedCell
    cell_run = cell_cls.run_session

    def run_session(self, cfg):
        result = cell_run(self, cfg)  # raises BatchedUnsupported on decline
        counts["sim.batched.reps"] += 1
        return result

    cell_cls.run_session = tr.timed(
        "sim.batched.run",
        "sim.batched",
        functools.update_wrapper(run_session, cell_run),
        new_unit=True,
    )

    # -- harness ----------------------------------------------------------------
    run_reps = parallel.run_replications

    def run_replications(worker, args, seeds, *, batch=None, **kwargs):
        counts["harness.reps"] += len(seeds)
        if batch is not None:
            hook = batch

            def counted_batch(pending):
                done = hook(pending)
                if not done:
                    counts["sim.batched.declines"] += 1
                return done

            counted_batch = functools.update_wrapper(counted_batch, hook)
            batch = tr.timed("sim.batched.hook", "sim.batched", counted_batch)
        worker = tr.timed("unit.worker", None, worker, new_unit=True)
        return run_reps(worker, args, seeds, batch=batch, **kwargs)

    _replace_function(
        parallel,
        "run_replications",
        tr.timed(
            "harness.run_replications",
            "harness",
            functools.update_wrapper(run_replications, run_reps),
        ),
    )
    for fn_name in ("build_transit_stub_underlay", "build_planetlab_underlay"):
        _replace_function(
            substrates,
            fn_name,
            tr.timed("harness.substrate", "harness", getattr(substrates, fn_name)),
        )
    load = artifacts.load_artifact

    def load_artifact(*args, **kwargs):
        got = load(*args, **kwargs)
        counts["harness.artifact_" + ("misses" if got is None else "hits")] += 1
        return got

    load_artifact = functools.update_wrapper(load_artifact, load)
    _replace_function(
        artifacts, "load_artifact", tr.timed("harness.artifact", "harness", load_artifact)
    )
    _replace_function(
        artifacts,
        "store_artifact",
        tr.timed("harness.artifact", "harness", artifacts.store_artifact),
    )

    # -- harness.scale ------------------------------------------------------------
    build = scale.build_scale_tree

    def build_scale_tree(*args, **kwargs):
        tree = build(*args, **kwargs)
        counts["harness.scale.join_iterations"] += int(tree.iterations.sum())
        return tree

    _replace_function(
        scale,
        "build_scale_tree",
        tr.timed(
            "harness.scale.build",
            "harness.scale",
            functools.update_wrapper(build_scale_tree, build),
            new_unit=True,
        ),
    )
    _replace_function(
        scale,
        "scale_tree_metrics",
        tr.timed("harness.scale.metrics", "harness.scale", scale.scale_tree_metrics),
    )

    # -- sessions and the service (units of work) ------------------------------------
    session_run = session.MulticastSession.run

    def run_session(self):
        result = session_run(self)
        harvest_engine(self.sim)
        counts["protocols.messages"] += self.env.total_control_messages
        return result

    session.MulticastSession.run = tr.timed(
        "unit.session", None, functools.update_wrapper(run_session, session_run)
    )

    sim_cls.step = tr.timed("service.step", "service", sim_cls.step)
    health.HealthMonitor.probe_once = tr.timed(
        "service.probe", "service", health.HealthMonitor.probe_once
    )
    service_run = runtime.ServiceRuntime.run

    def run_service(self):
        report = service_run(self)
        harvest_engine(self.sim)
        counts["protocols.messages"] += self.env.total_control_messages
        counts["service.bus_published"] += report["bus"]["published"]
        counts["service.bus_rejected"] += report["bus"]["rejected"]
        counts["service.retries"] += report["retries"]
        counts["service.join_timeouts"] += report["join_timeouts"]
        return report

    runtime.ServiceRuntime.run = tr.timed(
        "service.run",
        "service",
        functools.update_wrapper(run_service, service_run),
        new_unit=True,
    )
    asyncio.set_event_loop_policy(CountingLoopPolicy(counts))


# ---------------------------------------------------------------------------
# Per-layer metrics from a summary
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(summary: dict, counts: Counter, *, import_s: float) -> dict[str, float]:
    """Every per-layer metric, by name (idle layers read 0)."""
    c = counts
    self_s = summary["span_self_s"]
    n = summary["span_count"]

    def s(name: str) -> float:
        return float(self_s.get(name, 0.0))

    def k(name: str) -> int:
        return int(n.get(name, 0))

    layer = summary["layer_self_s"]
    return {
        "sim.engine.events": c["sim.engine.events"],
        "sim.engine.scheduled": c["sim.engine.scheduled"],
        "sim.engine.self_s": layer["sim.engine"],
        "protocols.messages": c["protocols.messages"],
        "protocols.requests": c["protocols.requests"],
        "protocols.tells": c["protocols.tells"],
        "protocols.handle_s": s("protocols.handle"),
        "protocols.decide_s": s("protocols.decide"),
        "protocols.virtual_distance_calls": c["protocols.virtual_distance_calls"],
        "protocols.join_attempts": c["protocols.join_attempts"],
        "protocols.join_ok_ratio": _ratio(c["protocols.join_ok"], c["protocols.join_finished"]),
        "protocols.join_iterations": c["protocols.join_iterations"],
        "protocols.refine_attempts": c["protocols.refine_attempts"],
        "protocols.refine_move_ratio": _ratio(
            c["protocols.refine_moves"], c["protocols.refine_attempts"]
        ),
        "protocols.case_I": c["protocols.case_I"],
        "protocols.case_II": c["protocols.case_II"],
        "protocols.case_III": c["protocols.case_III"],
        "protocols.tree_mutations": k("protocols.tree_mutation"),
        "protocols.tree_mutation_s": s("protocols.tree_mutation"),
        "sim.network.queries": c["sim.network.queries"],
        "sim.network.query_s": layer["sim.network"],
        "sim.network.path_links_calls": c["sim.network.path_links_calls"],
        "sim.network.delay_row_calls": c["sim.network.delay_row_calls"],
        "sim.sparse.rows_demand": c["sim.sparse.rows_demand"],
        "sim.sparse.rows_prefetched": c["sim.sparse.rows_prefetched"],
        "sim.sparse.plan_hits": c["sim.sparse.plan_hits"],
        "sim.sparse.plan_misses": c["sim.sparse.plan_misses"],
        "sim.sparse.plan_hit_ratio": _ratio(
            c["sim.sparse.plan_hits"],
            c["sim.sparse.plan_hits"] + c["sim.sparse.plan_misses"],
        ),
        "sim.sparse.take_s": s("sim.sparse.take"),
        "sim.delivery.snapshots": k("sim.delivery.snapshot"),
        "sim.delivery.snapshot_s": s("sim.delivery.snapshot"),
        "sim.invariants.mutation_checks": k("sim.invariants.mutation_check"),
        "sim.invariants.mutation_check_s": s("sim.invariants.mutation_check"),
        "sim.invariants.sweeps": k("sim.invariants.sweep"),
        "sim.invariants.sweep_s": s("sim.invariants.sweep"),
        "sim.invariants.legality_scans": k("sim.invariants.legality"),
        "sim.invariants.legality_s": s("sim.invariants.legality"),
        "metrics.collect_calls": k("metrics.collect"),
        "metrics.collect_s": s("metrics.collect"),
        "sim.batched.reps": c["sim.batched.reps"],
        "sim.batched.share": _ratio(c["sim.batched.reps"], c["harness.reps"]),
        "sim.batched.declines": c["sim.batched.declines"],
        "sim.batched.run_s": layer["sim.batched"],
        "harness.import_s": import_s,
        "harness.substrate_s": s("harness.substrate"),
        "harness.artifact_hits": c["harness.artifact_hits"],
        "harness.artifact_misses": c["harness.artifact_misses"],
        "harness.overhead_s": s("harness.run_replications"),
        "harness.scale.build_s": s("harness.scale.build"),
        "harness.scale.metrics_s": s("harness.scale.metrics"),
        "harness.scale.join_iterations": c["harness.scale.join_iterations"],
        "service.sim_steps": k("service.step"),
        "service.step_s": s("service.step"),
        "service.driver_self_s": s("service.run"),
        "service.loop_turns": c["service.loop_turns"],
        "service.loop_turns_per_step": _ratio(c["service.loop_turns"], k("service.step")),
        "service.probes": k("service.probe"),
        "service.probe_s": s("service.probe"),
        "service.bus_published": c["service.bus_published"],
        "service.bus_rejected": c["service.bus_rejected"],
        "service.retries": c["service.retries"],
        "service.join_timeouts": c["service.join_timeouts"],
        **{f"self.{name}": layer[name] for name in LAYERS},
        "trace.untracked_s": summary["untracked_s"],
        "trace.wall_s": summary["wall_s"],
    }
