"""Machine-readable performance snapshots (``BENCH_PR6.json``).

Each snapshot times experiment groups under five configurations —

* ``serial_cold_s`` — one process, artifact cache wiped before every
  run: pays topology generation, the substrates' row stores, *and* the
  cache store;
* ``serial_s`` — one process, warm artifact cache: substrate setup is an
  mmap load plus the row store (the default scalar experience, and the
  field :mod:`repro.harness.perfgate` gates in CI);
* ``batched_s`` — one process, warm cache, the batched
  multi-replication engine (:mod:`repro.harness.batchrun`) enabled:
  every sweep cell's replications run through
  :class:`~repro.sim.batched.BatchedCell` (PR 6's headline figure);
* ``parallel_s`` — ``jobs`` worker processes over the warm cache,
  scalar engine;
* ``resume_s`` — one process replaying a fully populated run journal
  (:mod:`repro.harness.journal`): no worker executes, so this isolates
  the fixed replay + render cost a ``--resume`` run pays up front;

— plus *substrate-only* timings (``substrate_cold_s`` /
``substrate_warm_s``): the wall time of just the group's substrate
builder calls in each mode, which isolates what the artifact cache buys
at setup time.

Every mode except ``batched`` pins ``REPRO_BATCHED_REPS=0``, so the
legacy figures keep meaning exactly what they meant in the PR 4/5
reports: scalar-engine wall clock.  ``batched`` leaves the flag unset
(unlimited batching), and its rendered table JSON joins the byte-for-byte
identity check against the cold scalar run — alongside warm, parallel,
and the journal replay.  A mismatch aborts the report: that check is
what licenses reading ``serial_s / batched_s`` as pure overhead removed
rather than a different computation.  For the same
reason the report *refuses to run at all* outside the exactness envelope:
``REPRO_SPARSE_EXACT=0`` declares approximation, and a timing figure for
an approximate run cannot be compared against exact baselines.

Each timed run also records its *peak RSS* (``<figure>_rss_mb``, e.g.
``serial_rss_mb`` / ``batched_rss_mb``) via :mod:`repro.util.memprof`: the
kernel high-water mark is reset before and read after every measurement,
and the per-mode maximum over reps is reported — memory wants the worst
case where wall time wants the best.  Where the kernel interface is
unavailable the figures degrade to process-lifetime maxima and the report
says so (``rss_resettable: false``); the gate should then skip memory
fields.

Timed runs are isolated: the experiment cache, the substrate memos, and
the worker pool are all torn down before and after every measurement,
and the artifact cache lives in a private temporary directory for the
duration of the report.  Every configuration is timed ``timing_reps``
times (default 5, ``REPRO_PERF_REPS`` or ``--perf-reps`` to override —
the report records the value used) and the *minimum* wall time is
reported, with the configurations *interleaved* within each rep: shared
machines drift in effective clock speed on minute scales, and timing one
mode's reps back to back would hand whichever mode lands in a fast epoch
an unearned win.  Each figure also carries its coefficient of variation
across reps (``cv``), so downstream consumers — the CI gate above all —
can tell a stable measurement from one taken on a noisy box and skip
gating the latter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from repro.harness import experiments as exp
from repro.harness.parallel import shutdown_pool
from repro.harness.presets import Preset
from repro.topology.linkmodel import LinkErrorConfig
from repro.util.artifacts import CACHE_DIR_ENV, CACHE_ENABLED_ENV
from repro.util.envflags import sparse_exact
from repro.util.memprof import peak_rss_bytes, peak_rss_resettable, reset_peak_rss
from repro.util.timing import Stopwatch

__all__ = [
    "GROUP_RUNNERS",
    "DEFAULT_GROUPS",
    "SERVICE_GROUPS",
    "ServiceModeUnsupported",
    "generate_perf_report",
    "timing_reps",
]


class ServiceModeUnsupported(RuntimeError):
    """A perf-report group was requested that runs in live service mode.

    The report times its groups across engine modes (cold, warm,
    batched, parallel) and demands bit-identical tables between them; a
    service run is a single asyncio control plane with no alternative
    engines to compare, so timing it here would produce an empty,
    misleading comparison.  Benchmark service mode with
    ``python -m repro.service`` and wall-clock tooling instead.
    """

GROUP_RUNNERS: dict[str, Callable[[Preset], dict]] = {
    "ch3_churn": exp.ch3_churn_tables,
    "ch3_nodes": exp.ch3_nodes_tables,
    "ch3_degree": exp.ch3_degree_tables,
    "ch4_time": exp.ch4_time_tables,
    "ch5_churn": exp.ch5_churn_tables,
    "ch5_nodes": exp.ch5_nodes_tables,
    "ch5_degree": exp.ch5_degree_tables,
    "ch5_refinement": exp.ch5_refinement_tables,
    "ch5_mst": exp.ch5_mst_table,
    "ablations": exp.ablation_tables,
    "extensions": exp.extension_tables,
    "ch7_scale": exp.ch7_scale_tables,
}

#: sweep groups that exist in the registry but are *live service mode* —
#: the perf report refuses them with :class:`ServiceModeUnsupported`
#: instead of failing with a generic unknown-group error
SERVICE_GROUPS: tuple[str, ...] = ("ch8_service",)

#: groups timed when none are requested — one per evaluation environment,
#: plus the node sweep (several distinct substrates, so it exercises the
#: artifact cache hardest)
DEFAULT_GROUPS: tuple[str, ...] = (
    "ch3_churn",
    "ch3_nodes",
    "ch3_degree",
    "ch5_churn",
)

_BATCHED_ENV = "REPRO_BATCHED_REPS"

#: default timing repetitions per configuration; the minimum wall time is
#: kept.  Five reps (not three) because the minimum is only as good as
#: the number of drift epochs it samples — see the interleaving note on
#: :func:`_timed_modes`.
TIMING_REPS = 5

#: report field each timed mode lands in (also the cv key for the mode)
_MODE_FIELDS = {
    "cold": "serial_cold_s",
    "warm": "serial_s",
    "batched": "batched_s",
    "parallel": "parallel_s",
    "resume": "resume_s",
}


def _rss_field(mode: str) -> str:
    """Memory field paired with a mode's timing field (``serial_s`` ->
    ``serial_rss_mb``)."""
    return _MODE_FIELDS[mode].removesuffix("_s") + "_rss_mb"


def timing_reps(requested: int | None = None) -> int:
    """Resolve the timing rep count: argument, then ``REPRO_PERF_REPS``, then 5.

    Paper-preset groups take minutes per rep, so CI and local paper-scale
    snapshots dial this down; the report records whatever was used so a
    single-rep snapshot can never masquerade as a best-of-five.
    """
    if requested is None:
        raw = os.environ.get("REPRO_PERF_REPS", "").strip()
        requested = int(raw) if raw else TIMING_REPS
    if requested < 1:
        raise ValueError(f"timing reps must be >= 1, got {requested}")
    return requested


def _cv(samples: Sequence[float]) -> float | None:
    """Coefficient of variation (population stdev / mean), or ``None``.

    ``None`` when fewer than two reps were taken (no spread to measure)
    or the mean is zero — the gate treats missing cv as "no stability
    information", not as "stable".
    """
    if len(samples) < 2:
        return None
    mean = sum(samples) / len(samples)
    if mean <= 0:
        return None
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    return math.sqrt(var) / mean


@contextlib.contextmanager
def _env(**overrides: str):
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _wipe(cache_root: Path) -> None:
    shutil.rmtree(cache_root, ignore_errors=True)
    cache_root.mkdir(parents=True, exist_ok=True)


def _render_outputs(tables: dict) -> dict[str, str]:
    """Deterministic JSON text per table, for cross-mode comparison."""
    return {name: tables[name].to_json() for name in sorted(tables)}


def _timed_modes(
    runner: Callable[[Preset], dict],
    preset: Preset,
    *,
    jobs: int,
    cache_root: Path,
    reps: int,
) -> tuple[
    dict[str, list[float]], dict[str, dict[str, str]], dict[str, float]
]:
    """Time all five configurations of one group, reps interleaved.

    Shared machines throttle and un-throttle on minute scales, so timing
    one mode's reps back to back hands whichever mode lands in a fast
    epoch an unearned win.  Interleaving runs every mode once per rep —
    each drift window scores all five — and the per-mode minimum over
    reps discards contended epochs for all modes alike.  The full
    per-rep sample lists are returned so the caller can also report each
    figure's spread (cv), alongside each mode's peak RSS in bytes (the
    *maximum* over reps: a footprint claim must hold on the worst rep).

    Rep order matters: ``cold`` wipes the artifact cache and repopulates
    it, and ``warm``/``batched``/``parallel`` ride on the cache ``cold``
    just built.  Every mode except ``batched`` pins
    ``REPRO_BATCHED_REPS=0`` — the scalar oracle — so the legacy figures
    stay comparable against PR 4/5 baselines; ``batched`` unsets the cap
    and is the only mode exercising :mod:`repro.harness.batchrun`.

    The ``resume`` mode times a *journal replay*: an untimed populate run
    first fills a private journal (:mod:`repro.harness.journal`) with
    every replication result, then each timed rep re-runs the group under
    ``resume=True`` — every task is a journal hit, so no worker executes
    and the figure isolates the pure replay + table-render cost a resumed
    run pays before reaching its first missing task.  Its outputs join
    the byte-identity check, pinning the journal's float round-trip end
    to end.

    Note the ``parallel`` RSS figure covers only the parent process;
    worker RSS is not aggregated.
    """
    from repro.harness import journal as journal_mod

    # (mode, jobs, wipe_cache, REPRO_BATCHED_REPS value)
    specs = (
        ("cold", 1, True, "0"),
        ("warm", 1, False, "0"),
        ("batched", 1, False, ""),
        ("parallel", jobs, False, "0"),
        ("resume", 1, False, "0"),
    )
    times: dict[str, list[float]] = {mode: [] for mode, *_ in specs}
    rss: dict[str, float] = {mode: 0.0 for mode, *_ in specs}
    outputs: dict[str, dict[str, str]] = {}
    journal_root = Path(tempfile.mkdtemp(prefix="repro-perf-journal-"))
    try:
        with _env(**{CACHE_DIR_ENV: str(cache_root), CACHE_ENABLED_ENV: "1"}):
            # Untimed populate pass for the resume mode: record every
            # replication of this group into the private journal once,
            # on the scalar engine (the journal is oracle-produced).
            with _env(**{_BATCHED_ENV: "0"}):
                exp.clear_cache()
                shutdown_pool()
                with journal_mod.run_context(journal_root):
                    runner(dataclasses.replace(preset, jobs=1))
            for _ in range(reps):
                for mode, mode_jobs, wipe, batched in specs:
                    with _env(**{_BATCHED_ENV: batched}):
                        if wipe:
                            _wipe(cache_root)
                        exp.clear_cache()
                        shutdown_pool()
                        replay = contextlib.nullcontext()
                        if mode == "resume":
                            replay = journal_mod.run_context(
                                journal_root, resume=True
                            )
                        reset_peak_rss()
                        with replay, Stopwatch() as sw:
                            tables = runner(
                                dataclasses.replace(preset, jobs=mode_jobs)
                            )
                        times[mode].append(sw.elapsed)
                        rss[mode] = max(rss[mode], float(peak_rss_bytes()))
                        outputs[mode] = _render_outputs(tables)
            exp.clear_cache()
            shutdown_pool()
    finally:
        shutil.rmtree(journal_root, ignore_errors=True)
    return times, outputs, rss


def _group_substrate_builders(
    name: str, preset: Preset
) -> list[Callable[[], object]]:
    """Zero-arg builders reproducing exactly the substrates a group uses."""
    from repro.harness.experiments import _pl_seed
    from repro.harness.substrates import (
        build_planetlab_underlay,
        build_transit_stub_underlay,
    )

    def ts(n_hosts: int, errors: LinkErrorConfig | None = None):
        return lambda: build_transit_stub_underlay(
            n_hosts=n_hosts,
            seed=preset.seed,
            ts_config=preset.ts_config,
            link_errors=errors,
        )

    def pl(n_select: int, seed: int):
        return lambda: build_planetlab_underlay(
            n_select=n_select, seed=seed, n_us=preset.pl_pool_us
        )

    if name in ("ch3_churn", "ch3_degree", "ablations", "extensions"):
        return [ts(preset.ch3_hosts)]
    if name == "ch3_nodes":
        return [ts(max(preset.ch3_hosts, 2 * n)) for n in preset.node_counts]
    if name == "ch4_time":
        return [
            ts(
                max(preset.ch3_hosts, 2 * preset.ch4_nodes),
                LinkErrorConfig(max_error=preset.ch4_max_link_error),
            )
        ]
    if name in ("ch5_churn", "ch5_degree"):
        return [pl(preset.pl_select, _pl_seed(preset, name.removeprefix("ch5_")))]
    if name == "ch5_nodes":
        return [
            pl(n + 1, _pl_seed(preset, f"nodes{n}")) for n in preset.pl_node_counts
        ]
    if name == "ch5_refinement":
        return [
            pl(n + 1, _pl_seed(preset, f"refine{n}"))
            for n in preset.pl_refine_node_counts
        ]
    if name == "ch5_mst":
        return [
            pl(n + 1, _pl_seed(preset, f"mst{n}")) for n in preset.pl_mst_node_counts
        ]
    return []


def _time_substrates(
    builders: Sequence[Callable[[], object]],
    *,
    cache_root: Path,
    reps: int,
) -> dict[str, float] | None:
    """Best-of-reps wall time of one pass over a group's substrate builders.

    ``cold`` builds with an empty cache (generation + row store +
    store); ``warm`` rides on the cache the cold pass just populated, so
    it times pure mmap loads.  Reps interleave the two modes for the same
    drift-fairness reason as :func:`_timed_modes`.
    """
    if not builders:
        return None
    best = {"cold": float("inf"), "warm": float("inf")}
    with _env(**{CACHE_DIR_ENV: str(cache_root), CACHE_ENABLED_ENV: "1"}):
        for _ in range(reps):
            for mode in ("cold", "warm"):
                if mode == "cold":
                    _wipe(cache_root)
                with Stopwatch() as sw:
                    for build in builders:
                        build()
                best[mode] = min(best[mode], sw.elapsed)
    return best


def generate_perf_report(
    preset: Preset,
    *,
    jobs: int = 4,
    groups: Sequence[str] | None = None,
    path: str | Path = "BENCH_PR6.json",
    reps: int | None = None,
) -> dict:
    """Time the requested groups and write the snapshot to ``path``.

    Raises :class:`RuntimeError` if any mode's run of any group disagrees
    with the cold scalar run on any table — a timing number for a mode
    that changes results would be meaningless, so the report refuses to
    be written.  For the same reason it refuses to *start* under
    ``REPRO_SPARSE_EXACT=0``: it declares approximation, and approximate
    timings are not comparable to the exact baselines this report exists
    to gate.  ``reps`` overrides
    the timing rep count (default: ``REPRO_PERF_REPS`` or 5); the value
    used is recorded in the report.
    """
    if not sparse_exact():
        raise RuntimeError(
            "REPRO_SPARSE_EXACT=0 permits landmark-approximate distances — "
            "refusing to generate a perf report for approximate runs "
            "(unset the flag)"
        )
    names = list(groups) if groups else list(DEFAULT_GROUPS)
    service = sorted(set(names) & set(SERVICE_GROUPS))
    if service:
        raise ServiceModeUnsupported(
            f"group(s) {service} run in live service mode and have no "
            "engine-mode comparison to time — the perf report declines "
            "them (benchmark with `python -m repro.service` instead)"
        )
    unknown = sorted(set(names) - set(GROUP_RUNNERS))
    if unknown:
        raise KeyError(
            f"unknown perf group(s) {unknown}; choose from {sorted(GROUP_RUNNERS)}"
        )
    reps = timing_reps(reps)
    report: dict = {
        "schema": "repro-perf-report/8",
        "preset": preset.name,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "timing_reps": reps,
        "rss_resettable": peak_rss_resettable(),
        "command": (
            f"python -m repro.harness --perf-report {path} "
            f"--preset {preset.name} --jobs {jobs} "
            f"--perf-reps {reps} "
            f"--perf-groups {','.join(names)}"
        ),
        "notes": (
            "serial_cold_s = the artifact cache wiped each run (the "
            "identity reference); serial_s = a warm cache (the default "
            "scalar mode, gated in CI); batched_s = warm cache with the batched "
            "multi-replication engine enabled (REPRO_BATCHED_REPS unset; "
            "every other mode pins it to 0, the scalar oracle); "
            "parallel_s = jobs=N over the warm cache; resume_s = jobs=1 "
            "replaying a fully populated run journal (no worker executes "
            "— the fixed cost a resumed run pays up front).  "
            "substrate_*_s time only the group's substrate builder "
            "calls in the cold/warm modes.  Each figure is the "
            "minimum wall time over timing_reps reps, with the modes "
            "interleaved inside each rep so host-speed drift on shared "
            "machines cannot favor one mode; cv maps each figure to its "
            "coefficient of variation across those reps (null when only "
            "one rep was taken).  Each *_rss_mb is the mode's peak RSS "
            "(MiB), the maximum over reps, measured by resetting the "
            "kernel high-water mark before each run; when rss_resettable "
            "is false the figures are process-lifetime maxima and should "
            "not be gated.  The parallel RSS covers the parent process "
            "only.  outputs_identical means cold, warm, batched, "
            "parallel, and resume all produced byte-identical table "
            "JSON; the report refuses to run at all under "
            "REPRO_SPARSE_EXACT=0.  "
            "Parallel speedup is bounded by cpu_count."
        ),
        "groups": {},
    }
    cache_root = Path(tempfile.mkdtemp(prefix="repro-perf-cache-"))
    try:
        for name in names:
            runner = GROUP_RUNNERS[name]
            times, outputs, rss = _timed_modes(
                runner, preset, jobs=jobs, cache_root=cache_root, reps=reps
            )
            ref_out = outputs["cold"]
            for mode_name in ("warm", "batched", "parallel", "resume"):
                out = outputs[mode_name]
                if out != ref_out:
                    differing = sorted(
                        t
                        for t in out.keys() | ref_out.keys()
                        if out.get(t) != ref_out.get(t)
                    )
                    raise RuntimeError(
                        f"group {name!r}: mode {mode_name!r} changed the "
                        f"results of table(s) {differing} — refusing to "
                        "write a perf report for divergent modes"
                    )
            best = {mode: min(samples) for mode, samples in times.items()}
            cold = best["cold"]
            warm, batched = best["warm"], best["batched"]
            parallel, resume = best["parallel"], best["resume"]
            subs = _time_substrates(
                _group_substrate_builders(name, preset),
                cache_root=cache_root,
                reps=reps,
            )
            cv_entry = {}
            for mode, field_name in _MODE_FIELDS.items():
                cv = _cv(times[mode])
                cv_entry[field_name] = round(cv, 4) if cv is not None else None
            entry = {
                "serial_cold_s": round(cold, 3),
                "serial_s": round(warm, 3),
                "batched_s": round(batched, 3),
                "parallel_s": round(parallel, 3),
                "resume_s": round(resume, 3),
                "workers": jobs,
                "outputs_identical": True,
                "cv": cv_entry,
                "speedup_batched_vs_warm": round(warm / batched, 2),
                "speedup_parallel_vs_serial": round(warm / parallel, 2),
            }
            for mode in _MODE_FIELDS:
                entry[_rss_field(mode)] = round(rss[mode] / 2**20, 1)
            if subs:
                entry.update(
                    {
                        "substrate_cold_s": round(subs["cold"], 4),
                        "substrate_warm_s": round(subs["warm"], 4),
                        "substrate_speedup_warm_vs_cold": round(
                            subs["cold"] / subs["warm"], 1
                        )
                        if subs["warm"] > 0
                        else None,
                    }
                )
            report["groups"][name] = entry
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report
