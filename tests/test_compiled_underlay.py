"""Resident vs bounded rows: the transit-stub underlay == lazy oracle, bit for bit.

Every transit-stub substrate is a :class:`~repro.sim.sparse.SparseUnderlay`.
Its rows are either *resident* — every attachment router's row compiled
up front by one batched Dijkstra, the regime that replaced the dense
compiled underlay — or *bounded* (demand LRU plus prefetch).  The regime
may change only where rows live, never what any query returns.  This
suite pins that: a hypothesis sweep over random transit-stub
configurations compares every ordered host pair of both regimes against
the lazy ``RouterUnderlay``, the artifact round-trip is checked to be
lossless in both regimes, and whole smoke-scale experiment groups are
rendered resident, bounded and with the lazy builder from
``tests/oracles`` and compared as table JSON.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness import experiments as exp
from repro.harness import substrates
from repro.harness.presets import PRESETS
from repro.harness.substrates import (
    _planetlab_loss_matrix,
    build_planetlab_underlay,
    build_transit_stub_underlay,
)
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SPARSE_SCHEMA, SparseUnderlay
from repro.topology.linkmodel import LinkErrorConfig, link_error_array
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub_arrays,
)
from repro.util import artifacts
from repro.util.rngtools import spawn_rng

from tests.helpers import bounded_regime
from tests.oracles import build_lazy_transit_stub_underlay

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)

LOSSY = LinkErrorConfig(max_error=0.05)


def _sparse(seed, n_hosts, errors):
    """The builder's recipe, minus the artifact cache."""
    arr = generate_transit_stub_arrays(TINY_TS, seed=spawn_rng(seed, "topology"))
    edge_error = None
    if errors is not None:
        edge_error = link_error_array(
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            errors,
            seed=spawn_rng(seed, "errors"),
        )
    return SparseUnderlay(
        arr.n_nodes,
        arr.edge_u,
        arr.edge_v,
        arr.edge_delay,
        substrates._attach_hosts(arr.stub_ids(), n_hosts, seed),
        edge_error=edge_error,
        router_domain=arr.transit_domain,
    )


def _build(seed, n_hosts, errors):
    """``(lazy, resident, bounded)`` underlays of one recipe."""
    lazy = build_lazy_transit_stub_underlay(
        n_hosts=n_hosts, seed=seed, ts_config=TINY_TS, link_errors=errors
    )
    resident = _sparse(seed, n_hosts, errors)
    with bounded_regime():
        bounded = _sparse(seed, n_hosts, errors)
    assert (resident.regime, bounded.regime) == ("resident", "bounded")
    assert resident.attachments == bounded.attachments == lazy.attachments
    return lazy, resident, bounded


def _assert_equivalent(ref, underlay):
    hosts = sorted(underlay.attachments)
    for a in hosts:
        for b in hosts:
            assert underlay.delay_ms(a, b) == ref.delay_ms(a, b)
            assert underlay.rtt_ms(a, b) == ref.rtt_ms(a, b)
            assert underlay.path_links(a, b) == ref.path_links(a, b)
            assert underlay.path_error(a, b) == ref.path_error(a, b)


def _assert_matches_lazy(lazy, underlay):
    """All six host queries, every ordered pair (``delay_row`` included)."""
    _assert_equivalent(lazy, underlay)
    hosts = sorted(underlay.attachments)
    for a in hosts:
        assert underlay.delay_row(a) == [lazy.delay_ms(a, b) for b in hosts]
        assert underlay.host_domain(a) == lazy.host_domain(a)


class TestEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_hosts=st.integers(min_value=4, max_value=16),
        max_error=st.sampled_from([None, 0.02, 0.1]),
    )
    def test_compiled_matches_lazy_bitwise(self, seed, n_hosts, max_error):
        errors = None if max_error is None else LinkErrorConfig(max_error=max_error)
        lazy, resident, bounded = _build(seed, n_hosts, errors)
        _assert_equivalent(lazy, resident)
        _assert_equivalent(lazy, bounded)

    def test_reference_oracle_agrees_on_one_instance(self):
        # One recipe, lossless and lossy: both regimes answer all six
        # host queries exactly like the lazy oracle.
        for errors in (None, LOSSY):
            lazy, resident, bounded = _build(11, 10, errors)
            _assert_matches_lazy(lazy, resident)
            _assert_matches_lazy(lazy, bounded)

    def test_router_queries_match(self):
        lazy, resident, bounded = _build(3, 8, None)
        routers = sorted(set(resident.attachments.values()))
        targets = list(lazy.graph.nodes)[:20]
        for underlay in (resident, bounded):
            for r in routers:
                for t in targets:
                    assert underlay.router_distance(r, t) == lazy.router_distance(
                        r, t
                    )
                    assert underlay.router_path(r, t) == lazy.router_path(r, t)

    def test_non_attachment_router_falls_back_to_lazy(self):
        # Resident rows cover attachment routers only; any other source
        # takes the demand path and must still be exact.
        lazy, resident, _ = _build(5, 6, None)
        att = set(resident.attachments.values())
        other = next(r for r in lazy.graph.nodes if r not in att)
        target = next(iter(att))
        assert resident.demand_rows == 0
        assert resident.router_distance(other, target) == lazy.router_distance(
            other, target
        )
        assert resident.demand_rows == 1

    def test_unknown_host_error_parity(self):
        lazy, resident, bounded = _build(2, 5, None)
        known = next(iter(resident.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        for underlay in (resident, bounded):
            with pytest.raises(KeyError) as err:
                underlay.delay_ms(known, 9999)
            assert str(err.value) == str(lazy_err.value)

    def test_unreachable_pairs_raise_in_both_regimes(self):
        # Two components: hosts 0/1 on one, host 2 on the other.
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1, delay=3.0)
        graph.add_edge(2, 3, delay=4.0)
        attachments = {0: 0, 1: 1, 2: 3}
        lazy = RouterUnderlay(graph, attachments)
        with pytest.raises(nx.NetworkXNoPath) as lazy_err:
            lazy.delay_ms(0, 2)

        def build():
            return SparseUnderlay(4, [0, 2], [1, 3], [3.0, 4.0], attachments)

        resident = build()
        with bounded_regime():
            bounded = build()
        for underlay in (resident, bounded):
            assert underlay.delay_ms(0, 1) == lazy.delay_ms(0, 1)
            with pytest.raises(nx.NetworkXNoPath) as err:
                underlay.delay_ms(0, 2)
            assert str(err.value) == str(lazy_err.value)
            assert underlay.delay_row(0) is None  # callers go per pair


class TestArtifactRoundtrip:
    def _roundtrip(self, underlay, cache_root):
        arrays, meta = underlay.to_artifact()
        key = artifacts.artifact_key({"test": id(underlay)})
        artifacts.store_artifact(key, arrays, meta, base_dir=cache_root)
        loaded = artifacts.load_artifact(key, base_dir=cache_root)
        assert loaded is not None
        return SparseUnderlay.from_artifact(loaded)

    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, LOSSY):
            _, resident, bounded = _build(17, 9, errors)
            restored = self._roundtrip(resident, tmp_path)
            assert restored.regime == "resident"
            _assert_equivalent(resident, restored)
            with bounded_regime():
                restored = self._roundtrip(bounded, tmp_path)
            assert restored.regime == "bounded"
            _assert_equivalent(bounded, restored)

    def test_restored_lazy_oracle_still_agrees(self, tmp_path):
        # The restored underlay re-runs Dijkstra on the CSR rebuilt from
        # the stored triplets, so this pins that the triplets preserved
        # the graph (link errors and transit domains included).
        lazy, resident, _ = _build(23, 8, LOSSY)
        restored = self._roundtrip(resident, tmp_path)
        _assert_matches_lazy(lazy, restored)

    def test_rejects_foreign_artifact(self):
        # Entries of the retired dense layout (kind "router") never load.
        art = artifacts.Artifact(
            key="x" * 64, meta={"kind": "router", "schema": 3}, arrays={}
        )
        with pytest.raises(ValueError):
            SparseUnderlay.from_artifact(art)

    def test_rejects_schema_drift(self):
        _, resident, _ = _build(2, 5, None)
        arrays, meta = resident.to_artifact()
        art = artifacts.Artifact(
            key="x" * 64, meta={**meta, "schema": SPARSE_SCHEMA + 1}, arrays=arrays
        )
        with pytest.raises(ValueError):
            SparseUnderlay.from_artifact(art)


class TestBuilders:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)

    def test_flag_on_compiles(self):
        # The default build compiles every attachment row up front.
        ul = build_transit_stub_underlay(n_hosts=6, seed=1, ts_config=TINY_TS)
        assert isinstance(ul, SparseUnderlay)
        assert ul.regime == "resident"

    def test_second_build_hits_cache_and_matches(self, monkeypatch):
        loads = []
        restore = SparseUnderlay.from_artifact.__func__

        def spy(cls, artifact):
            loads.append(artifact.key)
            return restore(cls, artifact)

        monkeypatch.setattr(SparseUnderlay, "from_artifact", classmethod(spy))
        first = build_transit_stub_underlay(
            n_hosts=8, seed=4, ts_config=TINY_TS, link_errors=LOSSY
        )
        assert loads == []
        second = build_transit_stub_underlay(
            n_hosts=8, seed=4, ts_config=TINY_TS, link_errors=LOSSY
        )
        assert len(loads) == 1  # the reload came from the artifact cache
        assert second.regime == first.regime == "resident"
        _assert_equivalent(first, second)

    def test_builder_matches_lazy_mode(self):
        lazy = build_lazy_transit_stub_underlay(n_hosts=7, seed=9, ts_config=TINY_TS)
        resident = build_transit_stub_underlay(n_hosts=7, seed=9, ts_config=TINY_TS)
        with bounded_regime():
            bounded = build_transit_stub_underlay(
                n_hosts=7, seed=9, ts_config=TINY_TS
            )
        assert (resident.regime, bounded.regime) == ("resident", "bounded")
        for underlay in (resident, bounded):
            assert underlay.attachments == lazy.attachments
            _assert_matches_lazy(lazy, underlay)

    def test_corrupt_cache_entry_rebuilds(self, tmp_path):
        build_transit_stub_underlay(n_hosts=6, seed=2, ts_config=TINY_TS)
        cache = tmp_path / "cache"
        (entry,) = [p for p in cache.iterdir() if p.is_dir()]
        (entry / "manifest.json").write_text("{broken")
        rebuilt = build_transit_stub_underlay(n_hosts=6, seed=2, ts_config=TINY_TS)
        assert isinstance(rebuilt, SparseUnderlay)

    def test_planetlab_cache_roundtrip(self):
        cold = build_planetlab_underlay(n_select=20, seed=5, n_us=60, loss_sigma=0.8)
        warm = build_planetlab_underlay(n_select=20, seed=5, n_us=60, loss_sigma=0.8)
        np.testing.assert_array_equal(
            np.asarray(warm.underlay._rtt), np.asarray(cold.underlay._rtt)
        )
        assert warm.source == cold.source
        assert warm.nodes == cold.nodes
        hosts = list(range(cold.n_hosts))[:6]
        for a in hosts:
            for b in hosts:
                assert warm.underlay.delay_ms(a, b) == cold.underlay.delay_ms(a, b)
                assert warm.underlay.path_error(a, b) == cold.underlay.path_error(
                    a, b
                )


class TestLossVectorization:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        sigma=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    )
    def test_block_draw_matches_scalar_loop_bitwise(self, n, seed, sigma):
        # the historical per-pair loop, verbatim
        loss_rng = spawn_rng(seed, "loss")
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                rate = min(0.2, loss_rng.lognormal(np.log(0.005), sigma))
                expected[i, j] = expected[j, i] = rate
        actual = _planetlab_loss_matrix(n, seed, sigma)
        np.testing.assert_array_equal(actual, expected)


class TestExperimentEquivalence:
    # One ch3 group, the lossy ch4 group (link-error triplets) and the
    # correlated-failure group (transit-domain arrays).
    GROUPS = (exp.ch3_churn_tables, exp.ch4_time_tables, exp.ch6_failover_tables)

    def test_smoke_group_identical_with_and_without_compilation(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        preset = PRESETS["smoke"]

        def render():
            out = {}
            for group in self.GROUPS:
                exp.clear_cache()
                tables = group(preset)
                exp.clear_cache()
                out.update({name: tables[name].to_json() for name in tables})
            return out

        resident_out = render()
        warm_out = render()  # second pass reads the artifact cache
        with bounded_regime():
            monkeypatch.setenv(artifacts.CACHE_ENABLED_ENV, "0")
            bounded_out = render()
            monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV)
        built = []

        def lazy_builder(**kwargs):
            underlay = build_lazy_transit_stub_underlay(**kwargs)
            built.append(type(underlay))
            return underlay

        # experiments imports the builder by name, so patch both bindings
        for module in (substrates, exp):
            monkeypatch.setattr(module, "build_transit_stub_underlay", lazy_builder)
        lazy_out = render()
        assert built and set(built) == {RouterUnderlay}
        assert resident_out == lazy_out
        assert warm_out == lazy_out
        assert bounded_out == lazy_out
