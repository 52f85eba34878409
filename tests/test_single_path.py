"""Structural guard: production code carries one path per optimization.

Reference oracles live in ``tests/oracles``, never in ``src/``, and the
production package never reaches back into the test tree for them.
Transit-stub substrates have one underlay: the dense compiled module is
gone, nothing reads its private host-delay matrix, and the builder
returns the CSR underlay in whichever regime the input size selects.
Retired ablation flags are caught separately by the two-way registry
check in ``tests/test_envflags_registry.py``.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.harness.presets import PRESETS
from repro.harness.scale import scale_ts_config
from repro.harness.substrates import build_transit_stub_underlay
from repro.sim.sparse import SparseUnderlay
from repro.util import artifacts

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules() -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text())) for path in sorted(SRC.rglob("*.py"))]


def test_src_defines_no_reference_oracles():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_reference_")
    ]
    assert not offenders, (
        f"reference oracles defined in src/: {offenders} — move them to "
        "tests/oracles"
    )


def test_src_never_imports_tests():
    offenders = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name == "tests" or name.startswith("tests."):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert not offenders, f"src/ imports from the test tree: {offenders}"


def test_guard_scans_the_package():
    # A wrong SRC path would make both guards above pass vacuously.
    assert any(path.name == "base.py" for path, _ in _modules())


def test_no_dense_compiled_underlay_module():
    assert importlib.util.find_spec("repro.sim.compiled") is None


def test_src_never_reads_the_dense_host_delay_matrix():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_hdelay")
        or (isinstance(node, ast.Constant) and node.value == "_hdelay")
    ]
    assert not offenders, f"src/ peeks at a private _hdelay matrix: {offenders}"


PAPER = PRESETS["paper"]


@pytest.mark.parametrize(
    "recipe, regime",
    [
        (dict(n_hosts=PAPER.ch3_hosts, ts_config=PAPER.ts_config), "resident"),
        (dict(n_hosts=2000, ts_config=scale_ts_config(2000)), "bounded"),
    ],
    ids=["paper-ch3", "scale-2000"],
)
def test_transit_stub_builder_returns_one_underlay(recipe, regime, monkeypatch):
    monkeypatch.setenv(artifacts.CACHE_ENABLED_ENV, "0")
    underlay = build_transit_stub_underlay(seed=2011, **recipe)
    assert type(underlay) is SparseUnderlay
    assert underlay.regime == regime
