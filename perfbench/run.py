"""Benchmark entry point: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload fig3_sweep --seed 2011 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median over several fresh processes, each set up from
an empty artifact cache; ``items_per_s`` and ``peak_rss_mb`` come from
the last of them, which goes on to run the workload for ``--seconds``.
``--trace 1`` reports the per-layer metrics from a traced process that
runs one input cycle, next to an untraced process running the same
cycle (the tracing overhead).  ``--workload all`` runs every
workload and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit, the failure share, and the host
(commit, ``nproc``, Python, numpy and scipy versions).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import guard
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = tuple(WORKLOADS)
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"
DIGESTS = HERE / "digests.json"

#: fresh processes whose set-up time is sampled per run (median reported)
SETUP_SAMPLES = 3
#: a workload's processes share this budget; past it the worker is killed
#: and the run fails (a benchmark run must end within 180 s)
RUN_BUDGET_S = 170


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(workload: str, seed: int, mode: str, *, seconds: float, smoke: bool,
            digests: Path, tag: str, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process and work directory.

    ``deadline`` is a ``time.monotonic()`` reading the worker must finish by.
    """
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", str(seconds), "--out", str(out), "--digests", str(digests),
    ]
    if smoke:
        cmd.append("--smoke")
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"trace-{workload}-{seed}")]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} {mode} worker timed out") from None
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} {mode} worker exited {proc.returncode}")
    result = json.loads(out.read_text())
    shutil.rmtree(work, ignore_errors=True)
    return result


def host_record() -> dict:
    """Commit, source digest, core count and library versions."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 smoke: bool = False) -> dict:
    """Run one workload; returns the result object printed last."""
    spec = _spec()
    common = dict(seconds=seconds, smoke=smoke, digests=DIGESTS,
                  deadline=time.monotonic() + RUN_BUDGET_S)
    if not trace:
        samples = [
            _worker(name, seed, "setup", tag=f"{name}-setup{k}", **common)["setup_s"]
            for k in range(SETUP_SAMPLES - 1)
        ]
        main = _worker(name, seed, "measure", tag=f"{name}-measure", **common)
        samples.append(main["setup_s"])
        values = {
            "setup_s": statistics.median(samples),
            "items_per_s": main["items_per_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics_spec = spec["end_to_end"]
        runs = [main]
        detail = {
            "setup_samples_s": samples,
            "wall_items_per_s": main["wall_items_per_s"],
        }
    else:
        base = _worker(name, seed, "fixed", tag=f"{name}-fixed", **common)
        traced = _worker(name, seed, "trace", tag=f"{name}-trace", **common)
        values = dict(traced["layers"])
        values["trace.items_per_s"] = traced["items_per_s"]
        values["trace.untraced_items_per_s"] = base["items_per_s"]
        values["trace.overhead_ratio"] = (
            base["items_per_s"] / traced["items_per_s"] if traced["items_per_s"] else 0.0
        )
        metrics_spec = spec["per_layer"]
        runs = [base, traced]
        detail = {"wall_items_per_s": traced["wall_items_per_s"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "pinned": all(r["pinned"] for r in runs),
        "items": [r["items"] for r in runs],
        "errors": errors,
        "metrics": metrics,
        **detail,
    }


def _print_result(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}"
          f" unit '{WORKLOADS[res['workload']].unit}' items {res['items']}"
          f" pinned_digest {res['pinned']}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_items_per_s':36s} {res['wall_items_per_s']:.6g} 1/s"
          " (uncalibrated)")
    print(f"  {'fail_share':36s} {res['fail_share']:.6g} ratio"
          f" ({res['failed']} failed of {res['attempted']} attempted)")
    for err in res["errors"]:
        print(f"  error: {err.strip()}", file=sys.stderr)


def main(argv=None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description="VDM reproduction benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--pin", action="store_true",
                   help="record this seed's output digests in digests.json")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    guard.refuse_flags(os.environ)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.pin:
        pins = json.loads(DIGESTS.read_text())
        size = "smoke" if args.smoke else "full"
        unpinned = WORK / "no-pins.json"  # repinning must not check old pins
        WORK.mkdir(parents=True, exist_ok=True)
        unpinned.write_text("{}")
        for name in names:
            res = _worker(name, args.seed, "fixed", seconds=args.seconds,
                          smoke=args.smoke, digests=unpinned, tag=f"{name}-pin",
                          deadline=time.monotonic() + RUN_BUDGET_S)
            if res["errors"]:
                print("\n".join(res["errors"]), file=sys.stderr)
                return 1
            pins.setdefault(name, {}).setdefault(size, {})[str(args.seed)] = res["digests"]
            print(f"pinned {name} {size} seed {args.seed}: {len(res['digests'])} digests")
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0

    print("host " + json.dumps(host_record(), sort_keys=True))
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               smoke=args.smoke)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        _print_result(res)
        results.append(res)
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (
            results[0]["metrics"]
            if len(results) == 1
            else {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
        ),
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
