"""SparseUnderlay equivalence: bounded answers == lazy/resident, bit for bit.

The sparse engine (PR 8) is only allowed to change *how much memory*
shortest paths cost, never *what* any query returns — in its default
exact mode.  This suite pins its bounded regime (demand LRU plus
prefetch) with a hypothesis sweep over random substrates (every ordered
host pair compared against both the lazy ``RouterUnderlay`` and the
resident regime), checks the LRU row cache is a transparent policy knob,
round-trips the sparse artifact format, verifies ``link_error_array``
reproduces the graph-order error draws on triplet arrays, and — for the
opt-in landmark approximation — asserts the *declared* error bound
empirically and that the exactness flag keeps it dormant by default.
The resident regime's own suite is ``tests/test_compiled_underlay.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.substrates import (
    build_transit_stub_underlay,
    default_landmark_count,
)
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SPARSE_SCHEMA, SparseUnderlay, select_landmarks
from repro.topology.linkmodel import (
    LinkErrorConfig,
    assign_link_errors,
    link_error_array,
)
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub,
    generate_transit_stub_arrays,
)
from repro.util import artifacts
from repro.util.rngtools import spawn_rng

from tests.helpers import bounded_regime
from tests.oracles import build_lazy_transit_stub_underlay, transit_stub_attachments

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)

MID_TS = TransitStubConfig(
    total_nodes=180,
    transit_domains=2,
    transit_nodes_per_domain=4,
    stub_domains_per_transit=2,
)


def _build(seed, n_hosts, errors, ts=TINY_TS, **sparse_kwargs):
    """The same topology + attachments as ``(lazy, resident, bounded)``."""
    arr = generate_transit_stub_arrays(ts, seed=spawn_rng(seed, "topology"))
    graph = generate_transit_stub(ts, seed=spawn_rng(seed, "topology"))
    edge_error = None
    if errors is not None:
        assign_link_errors(graph, errors, seed=spawn_rng(seed, "errors"))
        edge_error = link_error_array(
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            errors,
            seed=spawn_rng(seed, "errors"),
        )
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    lazy = RouterUnderlay(graph, attachments)

    def sparse():
        return SparseUnderlay(
            arr.n_nodes,
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            attachments,
            edge_error=edge_error,
            router_domain=arr.transit_domain,
            **sparse_kwargs,
        )

    resident = sparse()
    with bounded_regime():
        bounded = sparse()
    assert (resident.regime, bounded.regime) == ("resident", "bounded")
    return lazy, resident, bounded


def _assert_equivalent(ref, sparse):
    hosts = sorted(sparse.attachments)
    for a in hosts:
        for b in hosts:
            assert sparse.delay_ms(a, b) == ref.delay_ms(a, b)
            assert sparse.rtt_ms(a, b) == ref.rtt_ms(a, b)
            assert sparse.path_links(a, b) == ref.path_links(a, b)
            assert sparse.path_error(a, b) == ref.path_error(a, b)


class TestEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_hosts=st.integers(min_value=4, max_value=16),
        max_error=st.sampled_from([None, 0.02, 0.1]),
    )
    def test_sparse_matches_both_oracles_bitwise(self, seed, n_hosts, max_error):
        errors = None if max_error is None else LinkErrorConfig(max_error=max_error)
        lazy, resident, sparse = _build(seed, n_hosts, errors)
        _assert_equivalent(lazy, sparse)
        _assert_equivalent(resident, sparse)

    def test_delay_row_matches_compiled(self):
        # "compiled" = the resident regime's up-front rows
        _, resident, sparse = _build(7, 12, None)
        for a in sorted(sparse.attachments):
            assert sparse.delay_row(a) == resident.delay_row(a)

    def test_link_queries_match(self):
        lazy, _, sparse = _build(13, 8, LinkErrorConfig(max_error=0.05))
        hosts = sorted(sparse.attachments)
        for a in hosts[:4]:
            for b in hosts:
                for link in sparse.path_links(a, b):
                    assert sparse.link_delay(link) == lazy.link_delay(link)
                    assert sparse.link_error(link) == lazy.link_error(link)

    @pytest.mark.parametrize(
        "errors", [None, LinkErrorConfig(max_error=0.05)], ids=["lossless", "lossy"]
    )
    def test_unknown_router_link_raises(self, errors):
        # link_error must honor the Underlay contract like link_delay:
        # a router link that does not exist is a KeyError, never 0.0.
        lazy, resident, bounded = _build(13, 8, errors)
        absent = next(
            ("router", 0, v) for v in range(1, 60) if not lazy.graph.has_edge(0, v)
        )
        for link in (absent, ("router", 0, 10**6), ("router", 10**6, 0)):
            with pytest.raises(KeyError):
                lazy.link_error(link)
            for underlay in (resident, bounded):
                with pytest.raises(KeyError, match="unknown link id"):
                    underlay.link_delay(link)
                with pytest.raises(KeyError, match="unknown link id"):
                    underlay.link_error(link)

    def test_host_domain_matches(self):
        lazy, _, sparse = _build(3, 10, None)
        for h in sorted(sparse.attachments):
            assert sparse.host_domain(h) == lazy.host_domain(h)

    def test_lru_capacity_is_transparent(self):
        # A 4-row cache on a 12-host substrate evicts constantly; answers
        # must not depend on capacity (policy knob, never correctness).
        lazy, _, tight = _build(21, 12, LinkErrorConfig(), row_cache=4)
        _assert_equivalent(lazy, tight)

    def test_unknown_host_error_parity(self):
        lazy, _, sparse = _build(2, 5, None)
        known = next(iter(sparse.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        with pytest.raises(KeyError) as sparse_err:
            sparse.delay_ms(known, 9999)
        assert str(sparse_err.value) == str(lazy_err.value)


class TestLinkErrorArray:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        correlation=st.sampled_from([0.0, 0.6, -0.4]),
    )
    def test_array_draws_match_graph_assignment(self, seed, correlation):
        cfg = LinkErrorConfig(max_error=0.1, correlation=correlation)
        arr = generate_transit_stub_arrays(TINY_TS, seed=spawn_rng(seed, "t"))
        graph = generate_transit_stub(TINY_TS, seed=spawn_rng(seed, "t"))
        assign_link_errors(graph, cfg, seed=spawn_rng(seed, "e"))
        errors = link_error_array(
            arr.edge_u, arr.edge_v, arr.edge_delay, cfg, seed=spawn_rng(seed, "e")
        )
        for i in range(arr.n_edges):
            u, v = int(arr.edge_u[i]), int(arr.edge_v[i])
            assert graph[u][v]["error"] == errors[i]

    def test_zero_width_config_means_zero_errors(self):
        arr = generate_transit_stub_arrays(TINY_TS, seed=1)
        cfg = LinkErrorConfig(max_error=0.0)
        errors = link_error_array(arr.edge_u, arr.edge_v, arr.edge_delay, cfg)
        assert errors.shape == (arr.n_edges,) and not errors.any()


class TestLandmarks:
    def test_selection_is_deterministic_and_sorted(self):
        arr = generate_transit_stub_arrays(MID_TS, seed=5)
        lm1 = select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 16)
        lm2 = select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 16)
        np.testing.assert_array_equal(lm1, lm2)
        assert (np.diff(lm1) > 0).all() and lm1.size == 16

    def test_count_capped_at_router_count(self):
        arr = generate_transit_stub_arrays(TINY_TS, seed=5)
        lm = select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 10_000)
        assert lm.size == arr.n_nodes

    def test_default_landmark_count_scales_with_sqrt(self):
        assert default_landmark_count(64) == 8
        assert default_landmark_count(10_000) == 64
        assert 8 <= default_landmark_count(1_000) <= 64

    def test_exact_mode_ignores_landmarks(self):
        # REPRO_SPARSE_EXACT defaults to 1: landmarks present but dormant.
        arr = generate_transit_stub_arrays(MID_TS, seed=9)
        graph = generate_transit_stub(MID_TS, seed=9)
        attachments = transit_stub_attachments(graph, 12, 9)
        landmarks = select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 13)
        sparse = SparseUnderlay(
            arr.n_nodes,
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            attachments,
            landmarks=landmarks,
        )
        assert sparse.exact
        lazy = RouterUnderlay(graph, attachments)
        _assert_equivalent(lazy, sparse)

    def test_approximate_mode_respects_declared_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EXACT", "0")
        arr = generate_transit_stub_arrays(MID_TS, seed=17)
        graph = generate_transit_stub(MID_TS, seed=17)
        attachments = transit_stub_attachments(graph, 20, 17)
        landmarks = select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 13)
        sparse = SparseUnderlay(
            arr.n_nodes,
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            attachments,
            landmarks=landmarks,
            error_bound=2.0,
        )
        assert not sparse.exact
        assert sparse.regime == "bounded"  # approximate rows are never resident
        exact = RouterUnderlay(graph, attachments)
        hosts = sorted(attachments)
        for a in hosts:
            for b in hosts:
                est = sparse.delay_ms(a, b)
                true = exact.delay_ms(a, b)
                # upper bound by the triangle inequality, within the
                # declared multiplicative error bound
                assert est >= true - 1e-9
                if true > 0:
                    assert est <= 2.0 * true

    def test_approximate_without_landmarks_stays_exact(self, monkeypatch):
        # the flag alone must not degrade a substrate built without
        # landmarks: there is nothing to approximate with
        monkeypatch.setenv("REPRO_SPARSE_EXACT", "0")
        lazy, _, sparse = _build(4, 8, None)
        assert sparse.exact
        _assert_equivalent(lazy, sparse)


class TestArtifactRoundtrip:
    def _roundtrip(self, sparse, cache_root):
        arrays, meta = sparse.to_artifact()
        key = artifacts.artifact_key({"test": id(sparse)})
        artifacts.store_artifact(key, arrays, meta, base_dir=cache_root)
        loaded = artifacts.load_artifact(key, base_dir=cache_root)
        assert loaded is not None
        return SparseUnderlay.from_artifact(loaded)

    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, LinkErrorConfig(max_error=0.05)):
            _, _, sparse = _build(31, 9, errors)
            restored = self._roundtrip(sparse, tmp_path)
            _assert_equivalent(sparse, restored)

    def test_roundtrip_preserves_landmarks_and_domains(self, tmp_path):
        arr = generate_transit_stub_arrays(TINY_TS, seed=3)
        graph = generate_transit_stub(TINY_TS, seed=3)
        attachments = transit_stub_attachments(graph, 6, 3)
        sparse = SparseUnderlay(
            arr.n_nodes,
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            attachments,
            router_domain=arr.transit_domain,
            landmarks=select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 8),
        )
        restored = self._roundtrip(sparse, tmp_path)
        np.testing.assert_array_equal(restored._landmarks, sparse._landmarks)
        for h in sorted(attachments):
            assert restored.host_domain(h) == sparse.host_domain(h)

    def test_rejects_foreign_artifact(self):
        art = artifacts.Artifact(key="x" * 64, meta={"kind": "transit-stub"}, arrays={})
        with pytest.raises(ValueError):
            SparseUnderlay.from_artifact(art)

    def test_rejects_schema_drift(self):
        _, _, sparse = _build(2, 5, None)
        arrays, meta = sparse.to_artifact()
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

    def test_explicit_sparse_argument(self):
        # The retired selector keyword is still accepted, and ignored.
        ul = build_transit_stub_underlay(
            n_hosts=6, seed=1, ts_config=TINY_TS, sparse=True
        )
        assert isinstance(ul, SparseUnderlay)

    def test_builder_sparse_matches_builder_lazy(self):
        # End-to-end builder parity: same seed, same link errors, the
        # sparse product answers byte-identically to the lazy one —
        # including attachments, which the sparse path derives from
        # arrays rather than the graph.
        errors = LinkErrorConfig(max_error=0.05)
        sparse = build_transit_stub_underlay(
            n_hosts=10, seed=4, ts_config=TINY_TS, link_errors=errors, sparse=True
        )
        lazy = build_lazy_transit_stub_underlay(
            n_hosts=10, seed=4, ts_config=TINY_TS, link_errors=errors
        )
        assert sparse.attachments == lazy.attachments
        _assert_equivalent(lazy, sparse)

    def test_second_build_hits_cache_and_matches(self):
        first = build_transit_stub_underlay(
            n_hosts=8, seed=4, ts_config=TINY_TS, sparse=True
        )
        second = build_transit_stub_underlay(
            n_hosts=8, seed=4, ts_config=TINY_TS, sparse=True
        )
        _assert_equivalent(first, second)


class TestExactnessRefusal:
    def test_perf_report_refuses_inexact_sparse(self, monkeypatch, tmp_path):
        from repro.harness.perfreport import generate_perf_report
        from repro.harness.presets import PRESETS

        monkeypatch.setenv("REPRO_SPARSE_EXACT", "0")
        with pytest.raises(RuntimeError, match="REPRO_SPARSE_EXACT"):
            generate_perf_report(
                PRESETS["smoke"], groups=["ch3_churn"], path=tmp_path / "x.json"
            )


class TestRowPrefetch:
    """The PR 9 block prefetcher: exact rows, ahead of time."""

    def _fresh(self, seed=19, n_hosts=40):
        _, _, sparse = _build(seed, n_hosts, None, ts=MID_TS)
        return sparse

    def _plan_routers(self, sparse, n=None):
        hosts = sorted(sparse.attachments)[: n or len(sparse.attachments)]
        return [sparse.attachments[h] for h in hosts]

    @pytest.mark.parametrize("block", [1, 3, 16, 10**6])
    def test_prefetched_rows_bitwise_match_demand_rows(self, block):
        demand = self._fresh()
        planned = self._fresh()
        routers = self._plan_routers(planned)
        with planned.prefetch_rows(routers, block=block) as plan:
            for router in routers:
                a = planned.router_dist_row(router)
                b = demand.router_dist_row(router)
                assert a.tobytes() == b.tobytes()
            assert planned.demand_rows == 0
            assert plan.stats()["sources_computed"] == len(set(routers))

    def test_predecessor_plan_serves_full_rows(self):
        demand = self._fresh()
        planned = self._fresh()
        routers = self._plan_routers(planned)
        with planned.prefetch_rows(routers, block=8, predecessors=True):
            for router in routers[:20]:
                dist, pred = planned._row(router)
                ref_dist, ref_pred = demand._row(router)
                assert dist.tobytes() == ref_dist.tobytes()
                assert pred.tobytes() == ref_pred.tobytes()
            assert planned.demand_rows == 0

    def test_dist_only_plan_does_not_serve_pred_queries(self):
        planned = self._fresh()
        routers = self._plan_routers(planned)
        with planned.prefetch_rows(routers, block=8):
            planned._row(routers[0])  # needs predecessors: demand path
            assert planned.demand_rows == 1

    def test_multi_source_call_matches_single_source_bitwise(self):
        # The exactness anchor: scipy computes each source of a
        # multi-source dijkstra independently, and distances are
        # unchanged by return_predecessors.
        from scipy.sparse import csgraph

        sparse = self._fresh()
        routers = np.asarray(self._plan_routers(sparse, 8), dtype=np.int64)
        block = csgraph.dijkstra(sparse._csr, directed=False, indices=routers)
        for i, router in enumerate(routers.tolist()):
            single_pred, _ = csgraph.dijkstra(
                sparse._csr,
                directed=False,
                indices=router,
                return_predecessors=True,
            )
            single = csgraph.dijkstra(sparse._csr, directed=False, indices=router)
            assert block[i].tobytes() == single.tobytes()
            assert single.tobytes() == single_pred.tobytes()

    def test_unplanned_router_misses_to_demand(self):
        sparse = self._fresh()
        routers = self._plan_routers(sparse)
        unplanned = next(
            r for r in range(sparse.n_routers) if r not in set(routers)
        )
        with sparse.prefetch_rows(routers, block=4) as plan:
            sparse.router_dist_row(unplanned)
            assert sparse.demand_rows == 1
            assert plan.stats()["misses"] == 1

    def test_block_zero_is_inert(self):
        sparse = self._fresh()
        routers = self._plan_routers(sparse)
        with sparse.prefetch_rows(routers, block=0) as plan:
            sparse.router_dist_row(routers[0])
            assert plan.stats()["blocks"] == 0
            assert sparse.demand_rows == 1

    def test_env_flag_sets_default_block(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_PREFETCH", "5")
        sparse = self._fresh()
        with sparse.prefetch_rows(self._plan_routers(sparse)) as plan:
            assert plan.stats()["block"] == 5
        monkeypatch.setenv("REPRO_SPARSE_PREFETCH", "-2")
        with pytest.raises(ValueError):
            sparse.prefetch_rows(self._plan_routers(sparse))

    def test_retention_budget_evicts_but_stays_correct(self):
        sparse = self._fresh()
        demand = self._fresh()
        routers = self._plan_routers(sparse)
        # A budget of ~4 rows forces eviction long before the plan ends.
        tiny = 4 * sparse.n_routers * 8
        with sparse.prefetch_rows(routers, block=2, retain_bytes=tiny) as plan:
            for router in routers:
                a = sparse.router_dist_row(router)
                assert a.tobytes() == demand.router_dist_row(router).tobytes()
            assert plan.stats()["retained_rows"] <= max(4, 2 * plan.block)

    def test_installing_a_new_plan_closes_the_old(self):
        sparse = self._fresh()
        routers = self._plan_routers(sparse)
        first = sparse.prefetch_rows(routers, block=4)
        second = sparse.prefetch_rows(routers, block=4)
        assert sparse._plan is second
        assert first._pool is None  # closed
        second.close()
        assert sparse._plan is None

    def test_router_dist_row_refused_in_landmark_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EXACT", "0")
        arr = generate_transit_stub_arrays(TINY_TS, seed=3)
        graph = generate_transit_stub(TINY_TS, seed=3)
        attachments = transit_stub_attachments(graph, 12, 3)
        sparse = SparseUnderlay(
            arr.n_nodes,
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            attachments,
            landmarks=select_landmarks(arr.n_nodes, arr.edge_u, arr.edge_v, 8),
            error_bound=2.0,
        )
        with pytest.raises(RuntimeError, match="exact"):
            sparse.router_dist_row(0)
