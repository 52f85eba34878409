"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import numpy as np

from repro.sim import sparse
from repro.sim.faults import FaultPlan

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def line_matrix(positions: list[float]) -> np.ndarray:
    """RTT matrix for hosts placed on a 1-D line.

    Pairwise RTT equals the absolute coordinate difference, so the
    directionality cases are fully controlled: a host strictly between two
    others is exactly 'on the way'.
    """
    pos = np.asarray(positions, dtype=float)
    return np.abs(pos[:, None] - pos[None, :])


def bounded_regime():
    """Context in which every new ``SparseUnderlay`` takes the bounded row
    store (demand LRU plus prefetch), whatever its size."""
    return mock.patch.object(sparse, "RESIDENT_BUDGET_BYTES", 0)


def save_fault_fixture(
    path: Path, plan: FaultPlan, session: dict, *, comment: str = ""
) -> None:
    """Serialize a pinned fault schedule (plan + session knobs) to JSON.

    Always writes with sorted keys and a trailing newline so re-saving an
    unchanged fixture is byte-identical — the regression test relies on
    that to detect drift between the file and the dataclass schema.
    """
    doc = {"comment": comment, "plan": plan.to_dict(), "session": session}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_fault_fixture(path: Path) -> tuple[FaultPlan, dict, str]:
    """Load a fixture written by :func:`save_fault_fixture`."""
    doc = json.loads(path.read_text())
    return FaultPlan.from_dict(doc["plan"]), doc["session"], doc["comment"]
