"""Full-recompute oracle for :func:`repro.metrics.collectors.collect_tree_metrics`."""

from __future__ import annotations

from collections import Counter

from repro.metrics.collectors import (
    HopcountStats,
    ResourceUsage,
    StressStats,
    StretchStats,
    TreeMetrics,
)
from repro.protocols.base import TreeRegistry
from repro.sim.network import Underlay
from tests.oracles.tree import (
    reference_depth,
    reference_is_reachable,
    reference_path_to_source,
)


def _dfs_order(tree: TreeRegistry) -> list[int]:
    """Reachable receivers in the exact visit order of the single-pass DFS."""
    out: list[int] = []
    stack = [tree.source]
    while stack:
        node = stack.pop()
        if node != tree.source:
            out.append(node)
        kids = tree.children.get(node)
        if kids:
            stack.extend(sorted(kids, reverse=True))
    return out


def reference_tree_metrics(tree: TreeRegistry, underlay: Underlay) -> TreeMetrics:
    """Full-recompute oracle: one independent loop per metric family.

    Reachability is re-verified per node, the root path walked per
    stretch sample and depth re-derived per hopcount sample — all from
    parent pointers, never from the registry's maintained state — while
    nodes are visited in the DFS order of :func:`collect_tree_metrics` so
    float accumulation matches it bit for bit.
    """
    source = tree.source
    order = [n for n in _dfs_order(tree) if reference_is_reachable(tree, n)]
    delay_ms = underlay.delay_ms
    path_links = underlay.path_links

    link_usage: Counter = Counter()
    for node in order:
        for link in path_links(tree.parent[node], node):
            link_usage[link] += 1
    if link_usage:
        transmissions = sum(link_usage.values())
        stress = StressStats(
            average=transmissions / len(link_usage),
            maximum=max(link_usage.values()),
            links_used=len(link_usage),
            total_transmissions=transmissions,
        )
    else:
        stress = StressStats.empty()

    stretch_vals: list[float] = []
    leaf_stretch: list[float] = []
    for node in order:
        unicast = delay_ms(source, node)
        if unicast <= 0:
            continue
        path = reference_path_to_source(tree, node)
        overlay = 0.0
        for i in range(len(path) - 1, 0, -1):  # source-outward, as the DFS sums
            overlay += delay_ms(path[i], path[i - 1])
        ratio = overlay / unicast
        stretch_vals.append(ratio)
        if not tree.children.get(node):
            leaf_stretch.append(ratio)
    if stretch_vals:
        stretch = StretchStats(
            average=sum(stretch_vals) / len(stretch_vals),
            minimum=min(stretch_vals),
            maximum=max(stretch_vals),
            leaf_average=(
                sum(leaf_stretch) / len(leaf_stretch) if leaf_stretch else 0.0
            ),
            count=len(stretch_vals),
        )
    else:
        stretch = StretchStats.empty()

    depths: list[int] = []
    leaf_depths: list[int] = []
    for node in order:
        d = reference_depth(tree, node)
        depths.append(d)
        if not tree.children.get(node):
            leaf_depths.append(d)
    if depths:
        hopcount = HopcountStats(
            average=sum(depths) / len(depths),
            maximum=max(depths),
            leaf_average=(
                sum(leaf_depths) / len(leaf_depths) if leaf_depths else 0.0
            ),
            count=len(depths),
        )
    else:
        hopcount = HopcountStats.empty()

    total_ms = 0.0
    star_ms = 0.0
    edge_count = 0
    for node in order:
        total_ms += delay_ms(tree.parent[node], node)
        star_ms += delay_ms(source, node)
        edge_count += 1
    if edge_count:
        usage = ResourceUsage(
            total_ms=total_ms,
            normalized=total_ms / star_ms if star_ms > 0 else 0.0,
            edges=edge_count,
        )
    else:
        usage = ResourceUsage.empty()
    return TreeMetrics(stress=stress, stretch=stretch, hopcount=hopcount, usage=usage)
