"""Structural guard: production code carries one path per optimization.

Reference oracles live in ``tests/oracles``, never in ``src/``, and the
production package never reaches back into the test tree for them.
Retired ablation flags are caught separately by the two-way registry
check in ``tests/test_envflags_registry.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
