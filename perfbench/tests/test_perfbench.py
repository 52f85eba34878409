"""The benchmark's own tests (tiny ``--smoke`` inputs, a few seconds each).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import guard  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(tmp_path: Path, tag: str, workload: str, mode: str, *,
            seed: int = 7, digests: Path | None = None, spans: Path | None = None) -> dict:
    work = tmp_path / tag
    work.mkdir()
    if digests is None:
        digests = tmp_path / "no-pins.json"
        digests.write_text("{}")
    out = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--smoke", "--t0", "0",
        "--out", str(out), "--digests", str(digests),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=work, env=_clean_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


# -- traced runs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ["planetlab_refine", "service_mix"])
def test_traced_runs_with_one_seed_give_identical_counts(tmp_path, workload):
    a = _worker(tmp_path, "a", workload, "trace")
    b = _worker(tmp_path, "b", workload, "trace")
    assert a["failed"] == 0 and b["failed"] == 0
    assert a["counts"] == b["counts"]
    assert a["summary"]["span_count"] == b["summary"]["span_count"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    counts_a = {k: v for k, v in a["layers"].items() if k in counted}
    counts_b = {k: v for k, v in b["layers"].items() if k in counted}
    assert counts_a == counts_b
    assert counts_a["sim.engine.events"] > 0


def test_layer_self_times_plus_untracked_add_up_to_wall(tmp_path):
    spans_path = tmp_path / "spans" / "trace"
    res = _worker(tmp_path, "t", "fig3_sweep", "trace", spans=spans_path)
    doc = json.loads(spans_path.with_suffix(".json").read_text())
    arr = np.load(spans_path.with_suffix(".npz"))
    start, end, parent, name = arr["start"], arr["end"], arr["parent"], arr["name"]
    wall = doc["t_close"] - doc["t_open"]
    assert start.size > 0

    # Recompute self times span by span, independently of tracer.summarize.
    child = [0.0] * start.size
    for i in range(start.size):
        p = int(parent[i])
        if p >= 0:
            assert start[p] <= start[i] <= end[i] <= end[p]  # children nest
            child[p] += end[i] - start[i]
    self_s = [(end[i] - start[i]) - child[i] for i in range(start.size)]
    assert min(self_s) >= -1e-9
    layers = [doc["span_layers"][int(n)] for n in name]
    layer_total = sum(s for s, layer in zip(self_s, layers) if layer is not None)
    # untracked = wall outside every span + self time of the unit spans
    structural = sum(s for s, layer in zip(self_s, layers) if layer is None)
    outside = wall - sum(end[i] - start[i] for i in range(start.size) if parent[i] < 0)
    assert outside >= 0
    assert layer_total + outside + structural == pytest.approx(wall, rel=1e-9)
    summary = res["summary"]
    assert sum(summary["layer_self_s"].values()) == pytest.approx(layer_total, rel=1e-9)
    assert summary["untracked_s"] == pytest.approx(outside + structural, rel=1e-9, abs=1e-9)
    assert summary["wall_s"] == pytest.approx(wall)


# -- output checks -----------------------------------------------------------------


def test_corrupted_digest_is_reported_as_failure(tmp_path):
    pinned = _worker(tmp_path, "pin", "scale_join", "fixed")
    assert pinned["errors"] == [] and len(pinned["digests"]) == workloads.SCALE_CYCLE
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scale_join": {"smoke": {"7": pinned["digests"]}}}))
    ok = _worker(tmp_path, "ok", "scale_join", "fixed", digests=good)
    assert ok["pinned"] and ok["failed"] == 0 and ok["errors"] == []

    corrupted = list(pinned["digests"])
    last = corrupted[-1]
    corrupted[-1] = ("0" if last[0] != "0" else "1") + last[1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scale_join": {"smoke": {"7": corrupted}}}))
    res = _worker(tmp_path, "bad", "scale_join", "fixed", digests=bad)
    units = res["attempted"] // workloads.SCALE_CYCLE
    assert res["attempted"] > 0
    assert res["failed"] == units  # the one item whose pin was corrupted
    assert len(res["errors"]) == 1 and "pinned" in res["errors"][0]


def test_scale_tree_check_rejects_cycles_and_overfull_parents():
    ok = np.array([-1, 0, 0, 1, 3])
    workloads.check_scale_tree(ok, 2)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_scale_tree(np.array([-1, 2, 1, 0]), 4)  # 1 <-> 2 cycle
    with pytest.raises(workloads.CheckFailed):
        workloads.check_scale_tree(np.array([-1, 0, 0, 0]), 2)


# -- refusing to measure anything but the default program --------------------------


def test_flag_registry_is_read_from_the_program():
    registry = guard.flag_registry()
    assert {"REPRO_JOBS", "REPRO_BATCHED_REPS", "REPRO_CACHE_DIR"} <= registry
    env = {"PATH": "/bin", "REPRO_BATCHED_REPS": "0", "HOME": "/x"}
    assert guard.offending(env, registry) == ["REPRO_BATCHED_REPS"]
    assert guard.offending({"PATH": "/bin"}, registry) == []


def test_env_flag_guard_rejects_a_set_flag():
    env = _clean_env()
    env["REPRO_BATCHED_REPS"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scale_join",
         "--smoke", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == guard.REFUSED
    assert "REPRO_BATCHED_REPS" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale_join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_clean_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_per_layer_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = tracer.summarize(
        {k: np.zeros(0, dtype=d) for k, d in
         (("name", np.int32), ("parent", np.int32), ("unit", np.int32),
          ("start", float), ("end", float))},
        [], [], wall_s=1.0,
    )
    from collections import Counter

    names = set(tracer.layer_metrics(summary, Counter(), import_s=0.0))
    names |= {"trace.items_per_s", "trace.untraced_items_per_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
