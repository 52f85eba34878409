"""Refuse to measure anything but the default program.

Every knob in ``repro.util.envflags.FLAG_REGISTRY`` changes what the
program does or where it keeps state, so a benchmark run refuses to
start while any of them (or any other ``REPRO_*`` variable) is set.
The registry is read from the source file without importing the
``repro`` package, which keeps the check cheap in the parent process.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVFLAGS = ROOT / "src" / "repro" / "util" / "envflags.py"

#: exit code of a refused run
REFUSED = 3


def flag_registry(path: Path = ENVFLAGS) -> frozenset[str]:
    spec = importlib.util.spec_from_file_location("_perfbench_envflags", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return frozenset(module.FLAG_REGISTRY)


def offending(environ, registry: frozenset[str]) -> list[str]:
    """The environment variables that would change the measured program."""
    return sorted(
        name for name in environ if name in registry or name.startswith("REPRO_")
    )


def refuse_flags(environ) -> None:
    """Exit with :data:`REFUSED` if any program flag is set."""
    bad = offending(environ, flag_registry())
    if bad:
        print(
            "perfbench: refusing to run with program flags set: "
            + ", ".join(bad)
            + " (the benchmark measures the default program only)",
            file=sys.stderr,
        )
        sys.exit(REFUSED)
