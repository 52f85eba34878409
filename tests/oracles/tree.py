"""Parent-chain oracles for :class:`~repro.protocols.base.TreeRegistry`
and :class:`~repro.sim.delivery.DeliveryAccountant`.

Each function re-derives from ``parent`` pointers alone what the
registry and the accountant maintain incrementally.
"""

from __future__ import annotations

from repro.protocols.base import TreeRegistry
from repro.sim.delivery import DeliveryAccountant


def reference_is_reachable(tree: TreeRegistry, node: int) -> bool:
    """Whether ``node``'s parent chain reaches the source."""
    seen = set()
    while True:
        if node == tree.source:
            return True
        if node in seen or node not in tree.parent:
            return False
        seen.add(node)
        up = tree.parent[node]
        if up is None:
            return False
        node = up


def reference_path_to_source(tree: TreeRegistry, node: int) -> list[int]:
    """Node ids from ``node`` up to the source, with visited-set cycle
    detection."""
    path = [node]
    seen = {node}
    cur = node
    while cur != tree.source:
        up = tree.parent.get(cur)
        if up is None:
            raise ValueError(f"node {node} has no path to source")
        if up in seen:
            raise ValueError(f"parent cycle detected at {up}")
        seen.add(up)
        path.append(up)
        cur = up
    return path


def reference_depth(tree: TreeRegistry, node: int) -> int:
    """Overlay hops from the source, via the whole root path."""
    return len(reference_path_to_source(tree, node)) - 1


def reference_path_success(acc: DeliveryAccountant, node: int) -> float:
    """Product of hop successes over the whole root path.

    Multiplies source-outward so the floating-point association is
    identical to the accountant's parent-times-hop product.
    """
    path = reference_path_to_source(acc.tree, node)
    success = 1.0
    for i in range(len(path) - 1, 0, -1):
        success *= 1.0 - acc.underlay.path_error(path[i], path[i - 1])
    return success
