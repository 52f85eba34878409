"""The Chapter 7 static-join scale model (harness/scale.py).

Structural guarantees first: every protocol walk produces a valid
spanning tree (one root, acyclic, degree-bounded) with positive modelled
join latencies, deterministically, and identically on sparse and lazy
substrates — the scale model must not care which engine serves its
queries.  Then the baselines: Prim's MST is pinned against its
optimality property (no protocol tree can beat its total RTT weight) and
against a brute-force Kruskal on a small instance; tree metrics are
pinned against a naive reference implementation.  Finally the ch7 sweep
itself is smoke-run end to end through the figure registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.scale import (
    SCALE_PROTOCOLS,
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
    scale_ts_config,
)
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SparseUnderlay
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub,
    generate_transit_stub_arrays,
)

from tests.oracles import transit_stub_attachments

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


def _underlays(seed=11, n_hosts=24):
    """The same substrate served lazily and sparsely."""
    arr = generate_transit_stub_arrays(TINY_TS, seed=seed)
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    lazy = RouterUnderlay(graph, attachments)
    sparse = SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments
    )
    return lazy, sparse


def _assert_valid_tree(tree, n_members, degree_limit):
    parents = tree.parents
    assert parents.shape == (n_members,)
    assert parents[0] == -1 and (parents[1:] >= 0).all()
    # acyclic and fully attached: every member reaches the source
    for node in range(1, n_members):
        seen = set()
        cur = node
        while cur != 0:
            assert cur not in seen
            seen.add(cur)
            cur = int(parents[cur])
    # degree bound
    counts = np.bincount(parents[parents >= 0], minlength=n_members)
    assert counts.max() <= degree_limit
    assert tree.join_latency_ms[0] == 0.0
    assert (tree.join_latency_ms[1:] > 0).all()
    assert tree.iterations[0] == 0
    assert (tree.iterations[1:] >= 1).all()


def _tree_weight(underlay, parents):
    return sum(
        underlay.rtt_ms(int(parents[n]), n) for n in range(1, parents.size)
    )


class TestTreeConstruction:
    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_valid_tree_every_protocol(self, protocol):
        _, sparse = _underlays()
        tree = build_scale_tree(sparse, protocol, 24, degree_limit=3)
        _assert_valid_tree(tree, 24, degree_limit=3)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_deterministic(self, protocol):
        _, sparse = _underlays()
        a = build_scale_tree(sparse, protocol, 20)
        b = build_scale_tree(sparse, protocol, 20)
        np.testing.assert_array_equal(a.parents, b.parents)
        np.testing.assert_array_equal(a.join_latency_ms, b.join_latency_ms)
        np.testing.assert_array_equal(a.iterations, b.iterations)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_engine_independent(self, protocol):
        # lazy and sparse substrates answer identically, so the walks —
        # pure functions of the answers — must produce identical trees.
        lazy, sparse = _underlays()
        on_lazy = build_scale_tree(lazy, protocol, 24)
        on_sparse = build_scale_tree(sparse, protocol, 24)
        np.testing.assert_array_equal(on_lazy.parents, on_sparse.parents)
        np.testing.assert_array_equal(
            on_lazy.join_latency_ms, on_sparse.join_latency_ms
        )

    def test_degree_limit_one_builds_a_chain(self):
        _, sparse = _underlays()
        tree = build_scale_tree(sparse, "btp", 8, degree_limit=1)
        counts = np.bincount(tree.parents[tree.parents >= 0], minlength=8)
        assert counts.max() == 1

    def test_rejects_bad_arguments(self):
        _, sparse = _underlays()
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "mst", 10)
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "vdm", 1)
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "vdm", 10, degree_limit=0)
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "vdm", 10_000)


class TestMst:
    def test_mst_weight_lower_bounds_every_protocol(self):
        _, sparse = _underlays(seed=13)
        mst = prim_mst_parents(sparse, 24)
        mst_weight = _tree_weight(sparse, mst)
        for protocol in SCALE_PROTOCOLS:
            tree = build_scale_tree(sparse, protocol, 24)
            assert mst_weight <= _tree_weight(sparse, tree.parents) + 1e-9

    def test_matches_bruteforce_kruskal(self):
        import networkx as nx

        _, sparse = _underlays(seed=29, n_hosts=12)
        parents = prim_mst_parents(sparse, 12)
        g = nx.Graph()
        for a in range(12):
            for b in range(a + 1, 12):
                g.add_edge(a, b, weight=sparse.rtt_ms(a, b))
        expected = nx.minimum_spanning_tree(g).size(weight="weight")
        assert _tree_weight(sparse, parents) == pytest.approx(expected)

    def test_engine_independent(self):
        lazy, sparse = _underlays(seed=5)
        np.testing.assert_array_equal(
            prim_mst_parents(lazy, 20), prim_mst_parents(sparse, 20)
        )

    def test_rejects_bad_arguments(self):
        _, sparse = _underlays()
        with pytest.raises(ValueError):
            prim_mst_parents(sparse, 1)
        with pytest.raises(ValueError):
            prim_mst_parents(sparse, 10_000)


class TestMetrics:
    def _reference(self, underlay, parents, include_stress=True):
        """Naive re-derivation: per-node root paths and full Counters."""
        from collections import Counter

        n = parents.size
        stretch, depths = [], []
        usage = Counter()
        for node in range(1, n):
            # each tree edge carries one copy of the packet: its physical
            # links count once, regardless of how many descendants follow
            if include_stress:
                usage.update(underlay.path_links(int(parents[node]), node))
            overlay = 0.0
            depth = 0
            cur = node
            while cur != 0:
                p = int(parents[cur])
                overlay += underlay.delay_ms(p, cur)
                depth += 1
                cur = p
            unicast = underlay.delay_ms(0, node)
            if unicast > 0:
                stretch.append(overlay / unicast)
            depths.append(depth)
        return stretch, depths, usage

    def test_matches_naive_reference(self):
        _, sparse = _underlays(seed=3)
        tree = build_scale_tree(sparse, "vdm", 24)
        m = scale_tree_metrics(sparse, tree.parents)
        stretch, depths, usage = self._reference(sparse, tree.parents)
        assert m.stretch_avg == pytest.approx(sum(stretch) / len(stretch))
        assert m.stretch_max == pytest.approx(max(stretch))
        assert m.depth_avg == pytest.approx(sum(depths) / len(depths))
        assert m.depth_max == max(depths)
        assert m.links_used == len(usage)
        assert m.stress_max == max(usage.values())
        assert m.stress_avg == pytest.approx(
            sum(usage.values()) / len(usage)
        )
        assert m.n_receivers == 23

    def test_stress_can_be_skipped(self):
        _, sparse = _underlays(seed=3)
        tree = build_scale_tree(sparse, "hmtp", 16)
        m = scale_tree_metrics(sparse, tree.parents, include_stress=False)
        full = scale_tree_metrics(sparse, tree.parents)
        assert m.stress_avg == 0.0 and m.links_used == 0
        assert m.stretch_avg == full.stretch_avg
        assert m.depth_max == full.depth_max

    def test_rejects_forests(self):
        _, sparse = _underlays()
        parents = np.array([-1, 0, -1, 2])
        with pytest.raises(ValueError):
            scale_tree_metrics(sparse, parents)


class TestScaleConfig:
    def test_total_nodes_track_request(self):
        for n in (120, 599, 600, 4100, 41_000):
            assert scale_ts_config(n).total_nodes == n

    def test_domain_count_grows_linearly(self):
        small = scale_ts_config(10_000)
        large = scale_ts_config(100_000)
        assert large.transit_domains == pytest.approx(
            10 * small.transit_domains, rel=0.05
        )


class TestCh7Sweep:
    def test_smoke_sweep_end_to_end(self, tmp_path, monkeypatch):
        from repro.harness import experiments as exp
        from repro.harness.registry import run_experiment
        from repro.util import artifacts

        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        exp.clear_cache()
        try:
            table = run_experiment("fig7_stretch", "smoke")
            names = {s.name for s in table.series}
            assert names >= {"VDM", "HMTP", "BTP", "MST"}
            joinlat = run_experiment("fig7_joinlat", "smoke")
            lat_names = {s.name for s in joinlat.series}
            assert "MST" not in lat_names  # no join walk to model
            for name in ("VDM", "HMTP", "BTP"):
                for point in joinlat.get(name).values:
                    assert point.mean > 0
        finally:
            exp.clear_cache()
