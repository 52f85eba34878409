"""Naive reference implementations the equivalence tests compare against.

Production code keeps one path per optimization: the incrementally
maintained tree state, the per-pair underlay memos, the transit-stub
underlay's row store, the batching service driver.  The full-recompute
(or per-event) versions of those computations live here instead, so every
equivalence test keeps a bit-for-bit oracle without the simulator carrying
a second branch.  Nothing under ``src/`` imports this
package.
"""

from tests.oracles.metrics import reference_tree_metrics
from tests.oracles.service import reference_drive
from tests.oracles.tree import (
    reference_depth,
    reference_is_reachable,
    reference_path_success,
    reference_path_to_source,
)
from tests.oracles.underlay import (
    build_lazy_transit_stub_underlay,
    transit_stub_attachments,
)

__all__ = [
    "build_lazy_transit_stub_underlay",
    "reference_depth",
    "reference_drive",
    "reference_is_reachable",
    "reference_path_success",
    "reference_path_to_source",
    "reference_tree_metrics",
    "transit_stub_attachments",
]
