"""Process-wide feature toggles read from the environment.

Optimizations that have shipped run on one code path: their reference
implementations live in ``tests/oracles``, where the equivalence tests
compare against them, and their measured speedups stay on record in the
committed ``BENCH_PR*.json`` snapshots.  The artifact-cache knobs
(``REPRO_CACHE_DIR``, ``REPRO_SUBSTRATE_CACHE``,
``REPRO_CACHE_MAX_BYTES``) live in :mod:`repro.util.artifacts`.

Robustness work ships with knobs too (PR 5) — all inert by default so
the fault-free hot path is unchanged:

* ``REPRO_TASK_TIMEOUT_S`` — per-replication wall-clock timeout in the
  supervised pooled path of :mod:`repro.harness.supervisor`; a hung
  worker is killed and the task retried.  Unset or ``0`` disables
  timeouts (the default: simulations have no natural upper bound).
* ``REPRO_TASK_RETRIES`` — attempts per task before the supervisor
  quarantines it (default 3; the first run counts as attempt 1).
* ``REPRO_RETRY_BACKOFF_S`` — base of the exponential backoff with
  decorrelated jitter slept before a retry (default 0.25; ``0`` retries
  immediately — tests and CI chaos jobs use that).
* ``REPRO_GRACE_S`` — how long an interrupted supervised run waits for
  in-flight replications to finish before killing the pool, so their
  results still reach the journal (default 5).
* ``REPRO_JOURNAL_DIR`` — default journal directory for the harness CLI
  (equivalent to ``--journal DIR``); see :mod:`repro.harness.journal`.
* ``REPRO_CHAOS`` — deterministic worker-fault plan (JSON, or ``@path``
  to a JSON file) injected by the supervisor for self-tests; see
  :mod:`repro.harness.chaos`.  Unset = no chaos, zero overhead.

Batched execution keeps its ablation knob, because the batched
engine covers only part of the configuration space:

* ``REPRO_BATCHED_REPS`` — cap the replications the batched
  multi-replication engine (:mod:`repro.harness.batchrun`) takes per
  batch; ``0`` disables it entirely so every replication runs on the
  scalar oracle engine (whose output the batched mode must match byte
  for byte).  Unset = unlimited, the default.
* ``REPRO_PERF_REPS`` — timing repetitions per mode in
  :mod:`repro.harness.perfreport` (read there, not here; default 5).
  Paper-preset snapshots dial it down, and the report records the
  value used so a single-rep figure can't pose as a best-of-five.

The transit-stub underlay (:class:`~repro.sim.sparse.SparseUnderlay`,
the only one the substrate builders return) keeps its row-store tuning
knobs; whether its rows are resident or bounded follows from the input
size and is not a flag:

* ``REPRO_SPARSE_EXACT`` — exactness knob for the sparse engine.  The
  default (``1``) forces exact Dijkstra rows, byte-identical to the
  lazy oracle.  ``0`` permits the landmark approximation layer
  for substrates built with landmarks; approximate results declare an
  error bound and are *refused* by the perf report's byte-identity
  check (the PR 6 decline pattern).
* ``REPRO_SPARSE_ROWS`` — LRU capacity (in source rows) of the
  bounded regime's Dijkstra row cache (default 128; minimum 4).

The scale kernels (PR 9) add two more:

* ``REPRO_SPARSE_PREFETCH`` — block size of the multi-source Dijkstra
  prefetcher on :class:`~repro.sim.sparse.SparseUnderlay` (default 64
  sources per ``scipy.sparse.csgraph.dijkstra`` call; ``0`` disables
  prefetching so every row is a demand-time single-source run).  The
  prefetcher is *exact*, never speculative: callers hand it the full
  ordered source plan, so a prefetched row is always a row the scalar
  path would have computed anyway, with bit-identical contents.

Flags are read at object construction time, not per call, so a running
session never changes behavior mid-flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "FLAG_REGISTRY",
    "FlagSpec",
    "batched_reps",
    "interrupt_grace_s",
    "retry_backoff_s",
    "sparse_exact",
    "sparse_prefetch_block",
    "sparse_row_cache",
    "task_max_attempts",
    "task_timeout_s",
]

_FALSE_VALUES = ("0", "false", "no")


@dataclass(frozen=True)
class FlagSpec:
    """One registered environment knob: default, meaning, read site."""

    default: str
    description: str
    read_in: str


#: Every ``REPRO_*`` environment variable the codebase reads, by name.
#: A conformance test regex-scans ``src`` for ``REPRO_`` reads and fails
#: in *both* directions — an unregistered read (someone added a knob
#: without documenting it here) and a stale registration (the knob's
#: last read site was deleted).  Keep descriptions to one line; the
#: module docstring above carries the full story.
FLAG_REGISTRY: dict[str, FlagSpec] = {
    "REPRO_CACHE_DIR": FlagSpec(
        "~/.cache/repro-vdm", "artifact-cache root directory", "repro.util.artifacts"
    ),
    "REPRO_SUBSTRATE_CACHE": FlagSpec(
        "1", "on-disk substrate artifact cache", "repro.util.artifacts"
    ),
    "REPRO_CACHE_MAX_BYTES": FlagSpec(
        "2147483648", "artifact-cache size bound (LRU eviction)", "repro.util.artifacts"
    ),
    "REPRO_SHARD_BYTES": FlagSpec(
        "134217728", "artifact-array shard size for mmap artifacts",
        "repro.util.artifacts",
    ),
    "REPRO_TASK_TIMEOUT_S": FlagSpec(
        "0 (off)", "per-replication wall-clock timeout (supervised pool)",
        "repro.util.envflags",
    ),
    "REPRO_TASK_RETRIES": FlagSpec(
        "3", "attempts per task before quarantine", "repro.util.envflags"
    ),
    "REPRO_RETRY_BACKOFF_S": FlagSpec(
        "0.25", "base of the decorrelated-jitter retry backoff",
        "repro.util.envflags",
    ),
    "REPRO_GRACE_S": FlagSpec(
        "5", "interrupted-run drain grace for in-flight tasks",
        "repro.util.envflags",
    ),
    "REPRO_JOURNAL_DIR": FlagSpec(
        "unset", "default journal directory for the CLIs", "repro.harness.journal"
    ),
    "REPRO_CHAOS": FlagSpec(
        "unset", "worker-fault chaos plan (JSON or @path)", "repro.harness.chaos"
    ),
    "REPRO_SERVICE_CHAOS": FlagSpec(
        "unset", "live-service chaos plan: agent-crash / bus-stall / clock-jump",
        "repro.harness.chaos",
    ),
    "REPRO_JOBS": FlagSpec(
        "1", "replication worker processes (sweep parallelism)",
        "repro.harness.parallel",
    ),
    "REPRO_START_METHOD": FlagSpec(
        "platform default", "multiprocessing start method for the pool",
        "repro.harness.parallel",
    ),
    "REPRO_BATCHED_REPS": FlagSpec(
        "unlimited", "batched-engine replication cap (0 = scalar oracle)",
        "repro.util.envflags",
    ),
    "REPRO_PERF_REPS": FlagSpec(
        "5", "timing repetitions per perf-report mode", "repro.harness.perfreport"
    ),
    "REPRO_SPARSE_EXACT": FlagSpec(
        "1", "pin the sparse engine to exact Dijkstra rows", "repro.util.envflags"
    ),
    "REPRO_SPARSE_ROWS": FlagSpec(
        "128", "sparse-engine Dijkstra row-cache capacity", "repro.util.envflags"
    ),
    "REPRO_SPARSE_PREFETCH": FlagSpec(
        "64", "multi-source Dijkstra prefetch block (0 = demand-time)",
        "repro.util.envflags",
    ),
}


def batched_reps() -> int | None:
    """Batched-engine replication cap (``REPRO_BATCHED_REPS``, PR 6).

    * unset or empty — ``None``: the batched engine may take every
      replication of a sweep cell in one batch (the default);
    * ``0`` / ``false`` / ``no`` — ``0``: batched execution disabled,
      every replication runs on the scalar oracle engine (the ablation
      baseline whose table JSON the batched mode must reproduce byte
      for byte);
    * a positive integer — at most that many replications per batch.
    """
    raw = os.environ.get("REPRO_BATCHED_REPS", "").strip()
    if not raw:
        return None
    if raw.lower() in _FALSE_VALUES:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_BATCHED_REPS must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"REPRO_BATCHED_REPS must be >= 0, got {value}")
    return value


def _positive_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def task_timeout_s() -> float | None:
    """Per-task wall-clock timeout for supervised pooled replications.

    ``REPRO_TASK_TIMEOUT_S``; unset or ``0`` means no timeout (default).
    """
    value = _positive_float("REPRO_TASK_TIMEOUT_S", 0.0)
    return value if value > 0 else None


def task_max_attempts() -> int:
    """Attempts per task before quarantine (``REPRO_TASK_RETRIES``, default 3)."""
    raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
    if not raw:
        return 3
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TASK_RETRIES must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_TASK_RETRIES must be >= 1, got {value}")
    return value


def retry_backoff_s() -> float:
    """Base retry backoff in seconds (``REPRO_RETRY_BACKOFF_S``, default 0.25)."""
    return _positive_float("REPRO_RETRY_BACKOFF_S", 0.25)


def interrupt_grace_s() -> float:
    """Seconds an interrupted run waits for in-flight tasks (``REPRO_GRACE_S``)."""
    return _positive_float("REPRO_GRACE_S", 5.0)


def sparse_exact() -> bool:
    """Whether the sparse engine is pinned to exact rows (default on).

    ``REPRO_SPARSE_EXACT=0`` permits the landmark approximation layer on
    underlays built with landmarks; everything produced that way is
    outside the byte-identity envelope and declined by the perf report.
    """
    return os.environ.get("REPRO_SPARSE_EXACT", "1").lower() not in _FALSE_VALUES


def sparse_row_cache() -> int:
    """Dijkstra row-cache capacity (``REPRO_SPARSE_ROWS``, default 128)."""
    raw = os.environ.get("REPRO_SPARSE_ROWS", "").strip()
    if not raw:
        return 128
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SPARSE_ROWS must be an integer, got {raw!r}"
        ) from None
    if value < 4:
        raise ValueError(f"REPRO_SPARSE_ROWS must be >= 4, got {value}")
    return value


def sparse_prefetch_block(requested: int | None = None) -> int:
    """Prefetch block size (``REPRO_SPARSE_PREFETCH``, default 64).

    Sources per multi-source ``csgraph.dijkstra`` call when a caller
    hands :class:`~repro.sim.sparse.SparseUnderlay` an ordered row plan.
    ``0`` disables prefetching (every row is computed on demand, the
    PR 8 behavior).  An explicit ``requested`` value — e.g. a kernel
    test pinning ``B=1`` — wins over the environment.
    """
    if requested is not None:
        value = requested
    else:
        raw = os.environ.get("REPRO_SPARSE_PREFETCH", "").strip()
        if not raw:
            return 64
        if raw.lower() in _FALSE_VALUES:
            return 0
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_SPARSE_PREFETCH must be an integer, got {raw!r}"
            ) from None
    if value < 0:
        raise ValueError(f"REPRO_SPARSE_PREFETCH must be >= 0, got {value}")
    return value

