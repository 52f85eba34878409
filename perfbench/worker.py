"""One benchmark process: set up a workload, run its items, check outputs.

``run.py`` starts this script in a fresh interpreter for every sample, in
a work directory it has emptied, so the program's default artifact cache
(``.repro_cache`` under the working directory) starts empty and no
in-process memo survives from an earlier sample.  The result is written
as JSON to ``--out``.

Modes:

* ``setup``    -- stop as soon as the first unit is ready; report ``setup_s``;
* ``measure``  -- run whole input cycles until ``--seconds`` have passed;
  peak RSS is the peak over the first cycle (the program's per-process
  memos grow with every item, so a peak over the whole timed phase would
  depend on how fast the host is);
* ``fixed``    -- run exactly one cycle untraced (the baseline the traced
  run's overhead is taken against);
* ``trace``    -- like ``fixed``, with every layer traced.

Every mode but ``setup`` reports the first cycle's output digests, which
``run.py --pin`` records.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

# setup_s counts from the parent's clock reading just before it started
# this process; CLOCK_MONOTONIC is shared by every process on the host.
_MODES = ("setup", "measure", "fixed", "trace")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=_MODES, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--digests", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


class _Checker:
    """Compares each item's output digest with the pin or the first pass."""

    def __init__(self, pinned: list[str] | None, cycle: int) -> None:
        self.pinned = pinned
        self.cycle = cycle
        self.first: dict[int, str] = {}

    def check(self, index: int, out_digest: str) -> str | None:
        pos = index % self.cycle
        if self.pinned is not None and pos < len(self.pinned):
            if out_digest != self.pinned[pos]:
                return f"item {index}: digest {out_digest[:12]} != pinned {self.pinned[pos][:12]}"
        seen = self.first.setdefault(pos, out_digest)
        if seen != out_digest:
            return f"item {index}: digest {out_digest[:12]} != first pass {seen[:12]}"
        return None


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))

    import guard

    guard.refuse_flags(os.environ)

    import calibration
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    t_import = time.perf_counter()
    for module in workload.entry_modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t_import

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    # Only the timed phase calibrates; fixed-size runs report wall rates.
    probe = calibration.Probe() if args.mode == "measure" else None
    on_unit = probe.sample if probe is not None else None
    wl.install_checks(on_unit)

    from repro.util import memprof

    state = workload.setup(args.seed, args.smoke)
    state["on_unit"] = on_unit
    setup_s = time.monotonic() - args.t0
    result: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "import_s": import_s,
    }
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0

    pins = json.loads(args.digests.read_text())
    size = "smoke" if args.smoke else "full"
    pinned = pins.get(workload.name, {}).get(size, {}).get(str(args.seed))
    checker = _Checker(pinned, workload.cycle)
    timed = args.mode == "measure"

    attempted = failed = items = 0
    errors: list[str] = []
    digests: list[str] = []
    per_item: list[tuple[int, float, float, float]] = []
    t_start = time.perf_counter()
    while True:
        if items > 0 and items % workload.cycle == 0:
            if not timed or time.perf_counter() - t_start >= args.seconds:
                break
        if probe is not None:
            first = len(probe.samples)
            probe.sample()
            spent = probe.spent_s
        memprof.reset_peak_rss()
        t_item = time.perf_counter()
        try:
            units, output = workload.item(state, items)
        except Exception:  # a raising item is a failed unit; stop the run
            attempted += 1
            failed += 1
            errors.append(traceback.format_exc(limit=8))
            break
        work_s = time.perf_counter() - t_item
        rss = memprof.peak_rss_bytes() / 2**20
        host_s = calibration.REF_S
        if probe is not None:
            work_s -= probe.spent_s - spent  # probes taken inside the item
            probe.sample()
            taken = probe.samples[first:]
            host_s = sum(taken) / len(taken)
        per_item.append((units, work_s, rss, host_s))
        out_digest = wl.digest(output)
        if items < workload.cycle:
            digests.append(out_digest)
        attempted += units
        problem = checker.check(items, out_digest)
        if problem is not None:
            failed += units
            errors.append(problem)
        items += 1
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = max(
        (rss for _, _, rss, _ in per_item[: workload.cycle]), default=0.0
    )
    if workload.finish is not None and not errors:
        try:
            workload.finish(state)
        except wl.CheckFailed as exc:
            failed = attempted
            errors.append(str(exc))
    done = attempted - failed
    wall_s = sum(t for _, t, _, _ in per_item)
    ref_s = sum(t * calibration.REF_S / c for _, t, _, c in per_item)

    result.update(
        items=items,
        attempted=attempted,
        failed=failed,
        elapsed_s=elapsed,
        items_per_s=done / ref_s if ref_s > 0 else 0.0,
        wall_items_per_s=done / wall_s if wall_s > 0 else 0.0,
        peak_rss_mb=peak_rss_mb,
        pinned=pinned is not None,
        digests=digests,
        per_item=per_item,
        errors=errors,
    )
    if tracer is not None:
        tracer.close()
        summary = tracer.summary()
        result["layers"] = tracing.layer_metrics(
            summary, tracer.counts, import_s=import_s
        )
        result["summary"] = summary
        result["counts"] = dict(sorted(tracer.counts.items()))
        if args.spans is not None:
            tracer.save(args.spans, {"workload": workload.name, "seed": args.seed})
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
