"""Sharded scale benchmark across protocols and kernels.

The perf report (:mod:`repro.harness.perfreport`) times paper-scale
experiment groups, where the CSR underlay keeps every row resident.  This
module measures the regime its bounded row store and the PR 9 batched
kernel exist for: substrates with thousands of routers carrying
thousands to a million members, where all-pairs matrices would be the
memory bottleneck and the scalar per-join Python walk is the wall-clock
one.  (The dense engine's 43x memory result stays on record in
``BENCH_PR8.json``.)

Each benchmark *cell* is one ``(protocol, member count, kernel)`` tuple,
labelled ``sparse:<protocol>@<members>``, run in a **fresh subprocess**
so its peak RSS is the cell's own footprint and not an artifact of
allocator history from earlier cells.  The child builds the ch7-style
transit-stub underlay (artifact cache disabled — every cell pays its
full construction cost), runs one static-join replication
(:mod:`repro.harness.scale`), computes tree metrics, and reports
per-phase wall clock, per-phase peak RSS (where
``/proc/self/clear_refs`` permits resetting the high-water mark), the
row-store regime, and SHA-256 digests of the tree arrays.

Identity is enforced the PR 6/8 way — refuse to write on divergence:
for every cell that ran both kernels, the batched walk's parents / join
latencies / iteration counts must hash identically to the scalar walk's,
and every metric repr must match.

Cells are *supervised* in the PR 5 spirit: each child runs under an
optional deadline (``--timeout``), is killed and retried a bounded
number of times on failure (``--retries``), and a cell that still fails
is recorded in the snapshot as a structured failure instead of sinking
the whole grid — which is what lets a best-effort 1M-member cell land
"attempted, outcome recorded" either way.

CLI::

    python -m repro.harness.scalebench --out BENCH_PR9.json \\
        --protocols vdm,hmtp,btp --members 1000,10000
    python -m repro.harness.scalebench --smoke --routers 10000 --members 1000

``--smoke`` marks a CI run (CI wraps it in a hard address-space
``ulimit`` to keep the no-V^2-matrices claim honest);
``--routers`` decouples substrate size from member count; ``--scalar-max``
bounds the member count up to which the scalar reference walk is also
run (above it, only the batched kernel is feasible); ``--max-tree-s``
turns the snapshot into an assertion for CI smoke jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

__all__ = [
    "CellFailure",
    "DEFAULT_MEMBERS",
    "DEFAULT_SCALAR_MAX",
    "SCHEMA",
    "main",
    "run_cell",
]

SCHEMA = "repro-scale-bench/3"
DEFAULT_MEMBERS = (1000, 10000)
DEFAULT_OUT = "BENCH_PR9.json"
DEFAULT_SEED = 2011
DEFAULT_SCALAR_MAX = 10_000

#: Tree-array digest fields; identical digests == bitwise-identical trees.
_DIGEST_FIELDS = ("parents_sha", "joinlat_sha", "iterations_sha")


class CellFailure(RuntimeError):
    """One cell exhausted its retries; carries a structured record."""

    def __init__(self, record: dict):
        super().__init__(record.get("error", record.get("status", "cell failed")))
        self.record = record


def _cell_env() -> dict[str, str]:
    """Child environment: exactness pinned, artifact cache disabled."""
    from repro.util.artifacts import CACHE_ENABLED_ENV

    env = dict(os.environ)
    env[CACHE_ENABLED_ENV] = "0"
    env["REPRO_SPARSE_EXACT"] = "1"
    env.pop("REPRO_SPARSE_PREFETCH", None)
    return env


def run_cell(
    n_members: int,
    *,
    n_routers: int | None = None,
    seed: int = DEFAULT_SEED,
    protocol: str = "vdm",
    kernel: str = "batched",
    timeout_s: float | None = None,
    retries: int = 1,
) -> dict:
    """Run one benchmark cell in a supervised fresh subprocess.

    Returns the child's record (``status == "ok"``).  On deadline or
    repeated failure raises :class:`CellFailure` whose ``.record`` is a
    structured failure suitable for landing in the snapshot.
    """
    if kernel not in ("batched", "scalar"):
        raise ValueError(f"kernel must be 'batched' or 'scalar', got {kernel!r}")
    cmd = [
        sys.executable,
        "-m",
        "repro.harness.scalebench",
        "--cell",
        "--members",
        str(n_members),
        "--routers",
        str(n_routers if n_routers is not None else n_members),
        "--seed",
        str(seed),
        "--protocols",
        protocol,
        "--kernel",
        kernel,
    ]
    base = {
        "protocol": protocol,
        "kernel": kernel,
        "members": n_members,
        "seed": seed,
    }
    last_error = "no attempts made"
    for attempt in range(max(0, retries) + 1):
        try:
            proc = subprocess.run(
                cmd,
                env=_cell_env(),
                capture_output=True,
                text=True,
                check=False,
                timeout=timeout_s,
            )
        except subprocess.TimeoutExpired:
            # A deadline kill is not transient: retrying would just burn
            # another timeout_s on the same workload.
            raise CellFailure(
                dict(
                    base,
                    status="timeout",
                    timeout_s=timeout_s,
                    attempts=attempt + 1,
                )
            ) from None
        if proc.returncode == 0:
            record = json.loads(proc.stdout)
            record["status"] = "ok"
            record["attempts"] = attempt + 1
            return record
        last_error = (
            f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}"
            if proc.stderr.strip()
            else f"exit {proc.returncode}"
        )
    raise CellFailure(
        dict(base, status="failed", error=last_error, attempts=retries + 1)
    )


def _cell_main(args: argparse.Namespace) -> None:
    """Child-process body: build, join, measure, print one JSON record."""
    from repro.harness.scale import (
        build_scale_tree,
        scale_tree_metrics,
        scale_ts_config,
    )
    from repro.harness.substrates import build_transit_stub_underlay
    from repro.util.memprof import peak_rss_bytes, reset_peak_rss
    from repro.util.timing import Stopwatch

    def _mb(n_bytes: int) -> float:
        return round(n_bytes / 2**20, 1)

    import_rss = peak_rss_bytes()
    resettable = reset_peak_rss()
    protocol = args.protocols
    # --routers decouples substrate size from member count in *both*
    # directions: a 10k-router substrate carrying 1k members, or 10k
    # members packed onto a 1.2k-router substrate (many hosts per stub
    # router).  Only the explicit default ties routers to members.
    ts_config = scale_ts_config(max(args.routers, 120))
    with Stopwatch() as sw_substrate:
        underlay = build_transit_stub_underlay(
            n_hosts=args.members,
            seed=args.seed,
            ts_config=ts_config,
        )
    substrate_rss = peak_rss_bytes()
    if resettable:
        reset_peak_rss()
    with Stopwatch() as sw_tree:
        tree = build_scale_tree(
            underlay, protocol, args.members, kernel=args.kernel
        )
    tree_rss = peak_rss_bytes()
    if resettable:
        reset_peak_rss()
    with Stopwatch() as sw_metrics:
        metrics = scale_tree_metrics(underlay, tree.parents, kernel=args.kernel)
    metrics_rss = peak_rss_bytes()
    lat = tree.join_latency_ms[1:]
    record = {
        "protocol": protocol,
        "regime": underlay.regime,
        "kernel": args.kernel,
        "members": args.members,
        "routers": ts_config.total_nodes,
        "seed": args.seed,
        "substrate_s": round(sw_substrate.elapsed, 3),
        "tree_s": round(sw_tree.elapsed, 3),
        "metrics_s": round(sw_metrics.elapsed, 3),
        "total_s": round(
            sw_substrate.elapsed + sw_tree.elapsed + sw_metrics.elapsed, 3
        ),
        # With a resettable high-water mark these are per-phase peaks;
        # otherwise they are monotone process-lifetime maxima.
        "rss_per_phase": resettable,
        "peak_rss_mb": _mb(max(substrate_rss, tree_rss, metrics_rss)),
        "substrate_rss_mb": _mb(substrate_rss),
        "tree_rss_mb": _mb(tree_rss),
        "metrics_rss_mb": _mb(metrics_rss),
        "import_rss_mb": _mb(import_rss),
        "joinlat_mean_ms": round(float(sum(lat) / len(lat)), 6),
        # Identical digests == bitwise-identical trees: the cross-kernel
        # identity oracle in the parent.
        "parents_sha": hashlib.sha256(tree.parents.tobytes()).hexdigest(),
        "joinlat_sha": hashlib.sha256(
            tree.join_latency_ms.tobytes()
        ).hexdigest(),
        "iterations_sha": hashlib.sha256(tree.iterations.tobytes()).hexdigest(),
        "iterations_max": int(tree.iterations.max()),
        # repr() round-trips floats exactly: these double as oracles too.
        "metrics": {k: repr(v) for k, v in metrics.as_record().items()},
    }
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")


def _assert_identical(label_a: str, a: dict, label_b: str, b: dict) -> None:
    """Refuse-to-write check: two cells must describe one identical tree."""
    diff = [f for f in _DIGEST_FIELDS if a.get(f) != b.get(f)]
    diff += sorted(
        f"metrics.{k}"
        for k in a["metrics"].keys() | b["metrics"].keys()
        if a["metrics"].get(k) != b["metrics"].get(k)
    )
    if diff:
        raise RuntimeError(
            f"{label_a} and {label_b} disagree on {diff} — refusing to "
            "write a benchmark for divergent kernels"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.scalebench",
        description="sharded protocol x kernel scale benchmark",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="snapshot path")
    parser.add_argument(
        "--members",
        default=",".join(str(n) for n in DEFAULT_MEMBERS),
        help="comma-separated member counts (default: %(default)s)",
    )
    parser.add_argument(
        "--routers",
        type=int,
        default=None,
        help="router count override (default: one router per member)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--protocols",
        default="vdm",
        help="comma-separated protocols sharing one cells dict "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--scalar-max",
        type=int,
        default=DEFAULT_SCALAR_MAX,
        help="also run the scalar reference kernel (and assert identity "
        "against the batched one) for cells up to this many members; "
        "0 disables the comparison (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell deadline in seconds; a cell over deadline is "
        "killed and recorded as a structured failure",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-runs granted to a failing cell before recording the "
        "failure (default: %(default)s)",
    )
    parser.add_argument(
        "--max-tree-s",
        type=float,
        default=None,
        help="fail (exit 1) if any completed cell's tree_s exceeds this "
        "bound — CI smoke uses it to pin the batched kernel's speed",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke run (wrapped in a hard ulimit -v there); the cell "
        "grid is the same",
    )
    parser.add_argument("--cell", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--kernel", default="batched", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        args.members = int(args.members)
        args.routers = args.routers if args.routers is not None else args.members
        _cell_main(args)
        return 0

    member_counts = [int(tok) for tok in str(args.members).split(",") if tok]
    protocols = [tok for tok in str(args.protocols).split(",") if tok]
    cells: dict[str, dict] = {}

    def _run(label: str, **kwargs) -> dict | None:
        print(f"[scalebench] running {label} ...", file=sys.stderr)
        try:
            rec = run_cell(
                timeout_s=args.timeout, retries=args.retries, **kwargs
            )
        except CellFailure as failure:
            cells[label] = failure.record
            print(f"[scalebench] {label}: {failure.record['status']} "
                  f"({failure})", file=sys.stderr)
            return None
        cells[label] = rec
        print(
            f"[scalebench] {label}: tree {rec['tree_s']}s, total "
            f"{rec['total_s']}s, peak RSS {rec['peak_rss_mb']} MiB",
            file=sys.stderr,
        )
        return rec

    for n_members in member_counts:
        for protocol in protocols:
            label = f"sparse:{protocol}@{n_members}"
            common = dict(n_routers=args.routers, seed=args.seed, protocol=protocol)
            batched = _run(label, n_members=n_members, **common)
            if 0 < n_members <= args.scalar_max:
                scalar = _run(
                    f"{label}#scalar", n_members=n_members, kernel="scalar", **common
                )
                if batched and scalar:
                    _assert_identical(label, batched, f"{label}#scalar", scalar)
    report = {
        "schema": SCHEMA,
        "protocols": protocols,
        "seed": args.seed,
        "scalar_max": args.scalar_max,
        "command": "python -m repro.harness.scalebench "
        + " ".join(argv if argv is not None else sys.argv[1:]),
        "notes": (
            "Each cell is one (protocol, member count, kernel) tuple "
            "run in a fresh supervised subprocess with the "
            "artifact cache disabled: build the transit-stub underlay "
            "(~1 router per member unless --routers overrides), run one "
            "static-join replication, compute tree metrics.  *_rss_mb "
            "are per-phase peak RSS when rss_per_phase is true (else "
            "process-lifetime maxima); *_s are per-phase wall clocks.  "
            "Cells up to --scalar-max members also run the scalar "
            "reference kernel ('#scalar' labels); scalar-vs-batched "
            "pairs are asserted tree-digest- and metric-identical "
            "before the snapshot is written; regime says whether the "
            "substrate's rows were resident or bounded.  Cells "
            "that miss their --timeout deadline or exhaust --retries "
            "land as structured failure records (status != 'ok')."
        ),
        "cells": cells,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"[scalebench] snapshot written to {args.out}", file=sys.stderr)
    if args.max_tree_s is not None:
        slow = {
            label: rec["tree_s"]
            for label, rec in cells.items()
            if rec["status"] == "ok" and rec["tree_s"] > args.max_tree_s
        }
        if slow:
            print(
                f"[scalebench] tree_s bound {args.max_tree_s}s exceeded: "
                f"{slow}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
