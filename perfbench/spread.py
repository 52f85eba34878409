"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads all --seeds 1-10 --out spread.json

For every workload and end-to-end metric this prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median -- the figure a metric's
``bound`` in ``BENCHMARK.json`` is judged against.  Runs are sequential,
one ``run.py`` process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else float("inf"),
        "n": len(values),
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    names = (
        [w["name"] for w in spec["workloads"]]
        if args.workloads == "all"
        else args.workloads.split(",")
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    for name in names:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect", file=sys.stderr)
                return 1
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for line in proc.stdout.splitlines():
                if line.startswith("  wall_items_per_s "):
                    values.setdefault("wall_items_per_s", []).append(
                        float(line.split()[1])
                    )
        report[name] = {
            "seeds": _seeds(args.seeds),
            "run_wall_s": spread(walls),
            "metrics": {metric: spread(v) for metric, v in values.items()},
        }
        for metric, s in report[name]["metrics"].items():
            print(
                f"{name:18s} {metric:12s} median {s['median']:11.4f} "
                f"iqr/median {s['iqr_share']:.4f} (bound {bounds.get(metric)})",
                flush=True,
            )
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
