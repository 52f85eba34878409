"""CompiledUnderlay equivalence: compiled answers == lazy answers, bit for bit.

The compilation layer (PR 4) is only allowed to change *when* shortest
paths are computed, never *what* any query returns.  This suite pins
that: a hypothesis sweep over random transit-stub configurations compares
every ordered host pair across both implementations, the artifact cache
round-trip is checked to be lossless, and a whole smoke-scale experiment
group is rendered with compiled substrates and with the lazy builder from
``tests/oracles`` and compared as table JSON.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness import experiments as exp
from repro.harness import substrates
from repro.harness.presets import PRESETS
from repro.harness.substrates import (
    _planetlab_loss_matrix,
    _transit_stub_attachments,
    build_planetlab_underlay,
    build_transit_stub_underlay,
)
from repro.sim.compiled import ARTIFACT_SCHEMA, CompiledUnderlay
from repro.sim.network import RouterUnderlay
from repro.topology.linkmodel import LinkErrorConfig, assign_link_errors
from repro.topology.transit_stub import TransitStubConfig, generate_transit_stub
from repro.util import artifacts
from repro.util.rngtools import spawn_rng

from tests.oracles import (
    build_lazy_transit_stub_underlay,
    reference_delay_ms,
    reference_path_error,
    reference_path_links,
)

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


def _build_pair(seed, n_hosts, errors):
    """The same graph + attachments through both implementations."""
    graph = generate_transit_stub(TINY_TS, seed=spawn_rng(seed, "topology"))
    if errors is not None:
        assign_link_errors(graph, errors, seed=spawn_rng(seed, "errors"))
    attachments = _transit_stub_attachments(graph, n_hosts, seed)
    return (
        RouterUnderlay(graph, attachments),
        CompiledUnderlay(graph, attachments),
    )


def _assert_equivalent(lazy, compiled):
    hosts = sorted(compiled.attachments)
    for a in hosts:
        for b in hosts:
            assert compiled.delay_ms(a, b) == lazy.delay_ms(a, b)
            assert compiled.rtt_ms(a, b) == lazy.rtt_ms(a, b)
            assert compiled.path_links(a, b) == lazy.path_links(a, b)
            assert compiled.path_error(a, b) == lazy.path_error(a, b)


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
        lazy, compiled = _build_pair(seed, n_hosts, errors)
        _assert_equivalent(lazy, compiled)

    def test_reference_oracle_agrees_on_one_instance(self):
        _, compiled = _build_pair(11, 10, LinkErrorConfig(max_error=0.05))
        hosts = sorted(compiled.attachments)
        for a in hosts:
            for b in hosts:
                assert compiled.delay_ms(a, b) == reference_delay_ms(compiled, a, b)
                assert compiled.path_links(a, b) == reference_path_links(
                    compiled, a, b
                )
                assert compiled.path_error(a, b) == reference_path_error(
                    compiled, a, b
                )

    def test_router_queries_match(self):
        lazy, compiled = _build_pair(3, 8, None)
        routers = sorted(set(compiled.attachments.values()))
        targets = list(compiled.graph.nodes)[:20]
        for r in routers:
            for t in targets:
                assert compiled.router_distance(r, t) == lazy.router_distance(r, t)
                assert compiled.router_path(r, t) == lazy.router_path(r, t)

    def test_non_attachment_router_falls_back_to_lazy(self):
        lazy, compiled = _build_pair(5, 6, None)
        att = set(compiled.attachments.values())
        other = next(r for r in compiled.graph.nodes if r not in att)
        target = next(iter(att))
        assert compiled.router_distance(other, target) == lazy.router_distance(
            other, target
        )

    def test_unknown_host_error_parity(self):
        lazy, compiled = _build_pair(2, 5, None)
        known = next(iter(compiled.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        with pytest.raises(KeyError) as compiled_err:
            compiled.delay_ms(known, 9999)
        assert str(compiled_err.value) == str(lazy_err.value)


class TestArtifactRoundtrip:
    def _roundtrip(self, compiled, cache_root):
        arrays, meta = compiled.to_artifact()
        key = artifacts.artifact_key({"test": id(compiled)})
        artifacts.store_artifact(key, arrays, meta, base_dir=cache_root)
        loaded = artifacts.load_artifact(key, base_dir=cache_root)
        assert loaded is not None
        return CompiledUnderlay.from_artifact(loaded)

    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, LinkErrorConfig(max_error=0.05)):
            _, compiled = _build_pair(17, 9, errors)
            restored = self._roundtrip(compiled, tmp_path)
            _assert_equivalent(compiled, restored)

    def test_restored_lazy_oracle_still_agrees(self, tmp_path):
        # The oracle re-runs Dijkstra on the *reconstructed* graph, so this
        # pins that graph reconstruction preserved the CSR layout.
        _, compiled = _build_pair(23, 8, LinkErrorConfig(max_error=0.05))
        restored = self._roundtrip(compiled, tmp_path)
        hosts = sorted(restored.attachments)
        for a in hosts[:5]:
            for b in hosts:
                assert restored.delay_ms(a, b) == reference_delay_ms(restored, a, b)
                assert restored.path_error(a, b) == reference_path_error(
                    restored, a, b
                )

    def test_rejects_foreign_artifact(self):
        art = artifacts.Artifact(key="x" * 64, meta={"kind": "planetlab"}, arrays={})
        with pytest.raises(ValueError):
            CompiledUnderlay.from_artifact(art)

    def test_rejects_schema_drift(self):
        _, compiled = _build_pair(2, 5, None)
        arrays, meta = compiled.to_artifact()
        art = artifacts.Artifact(
            key="x" * 64, meta={**meta, "schema": ARTIFACT_SCHEMA + 1}, arrays=arrays
        )
        with pytest.raises(ValueError):
            CompiledUnderlay.from_artifact(art)

    def test_rejects_missing_pair_error(self):
        _, compiled = _build_pair(2, 5, LinkErrorConfig(max_error=0.05))
        arrays, meta = compiled.to_artifact()
        arrays = {k: v for k, v in arrays.items() if k != "pair_error"}
        art = artifacts.Artifact(key="x" * 64, meta=meta, arrays=arrays)
        with pytest.raises(ValueError):
            CompiledUnderlay.from_artifact(art)


class TestBuilders:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)

    def test_flag_on_compiles(self):
        ul = build_transit_stub_underlay(n_hosts=6, seed=1, ts_config=TINY_TS)
        assert isinstance(ul, CompiledUnderlay)

    def test_second_build_hits_cache_and_matches(self, tmp_path):
        first = build_transit_stub_underlay(
            n_hosts=8,
            seed=4,
            ts_config=TINY_TS,
            link_errors=LinkErrorConfig(max_error=0.05),
        )
        second = build_transit_stub_underlay(
            n_hosts=8,
            seed=4,
            ts_config=TINY_TS,
            link_errors=LinkErrorConfig(max_error=0.05),
        )
        # the reload serves queries from memory-mapped pages
        assert isinstance(second._hdelay, np.memmap)
        _assert_equivalent(first, second)

    def test_builder_matches_lazy_mode(self):
        compiled = build_transit_stub_underlay(n_hosts=7, seed=9, ts_config=TINY_TS)
        lazy = build_lazy_transit_stub_underlay(n_hosts=7, seed=9, ts_config=TINY_TS)
        assert compiled.attachments == lazy.attachments
        _assert_equivalent(lazy, compiled)

    def test_corrupt_cache_entry_rebuilds(self, tmp_path):
        build_transit_stub_underlay(n_hosts=6, seed=2, ts_config=TINY_TS)
        cache = tmp_path / "cache"
        (entry,) = [p for p in cache.iterdir() if p.is_dir()]
        (entry / "manifest.json").write_text("{broken")
        rebuilt = build_transit_stub_underlay(n_hosts=6, seed=2, ts_config=TINY_TS)
        assert isinstance(rebuilt, CompiledUnderlay)

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
    def test_smoke_group_identical_with_and_without_compilation(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        preset = PRESETS["smoke"]

        def render():
            exp.clear_cache()
            tables = exp.ch3_churn_tables(preset)
            exp.clear_cache()
            return {name: tables[name].to_json() for name in sorted(tables)}

        compiled_out = render()
        warm_out = render()  # second pass reads the artifact cache
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
        assert compiled_out == lazy_out
        assert warm_out == lazy_out
