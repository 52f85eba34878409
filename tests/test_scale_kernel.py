"""Batched scale kernel: byte-identical to the scalar reference walk.

The contract under test (PR 9, DESIGN.md §13): for every protocol,
degree limit, and prefetch block size — including the B=1 and
B > n_members edges — the array-native batched kernel of
:mod:`repro.harness.scale` produces a :class:`ScaleTree` whose parents,
join latencies, and iteration counts are *bitwise equal* to the scalar
per-child walk's, on both sparse and dense substrates.  The same holds
for :func:`prim_mst_parents` routed through the block prefetcher and for
the vectorized metrics pass (bincount stress vs Counter stress).  The
prefetcher itself is pinned separately in ``test_sparse_underlay.py``;
here it is exercised end to end through the walks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.scale import (
    SCALE_PROTOCOLS,
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
)
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SparseUnderlay
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub,
    generate_transit_stub_arrays,
)

from tests.helpers import bounded_regime
from tests.oracles import transit_stub_attachments

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


@lru_cache(maxsize=None)
def _sparse(seed: int, n_hosts: int = 32) -> SparseUnderlay:
    # Bounded regime, so the kernel's rows really flow through the block
    # prefetcher (a resident underlay leaves every plan empty).
    arr = generate_transit_stub_arrays(TINY_TS, seed=seed)
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    with bounded_regime():
        underlay = SparseUnderlay(
            arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments
        )
    assert underlay.regime == "bounded"
    return underlay


@lru_cache(maxsize=None)
def _lazy(seed: int, n_hosts: int = 32) -> RouterUnderlay:
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    return RouterUnderlay(graph, attachments)


def _assert_trees_bitwise_equal(a, b, context: str = "") -> None:
    np.testing.assert_array_equal(a.parents, b.parents, err_msg=context)
    assert a.join_latency_ms.tobytes() == b.join_latency_ms.tobytes(), context
    np.testing.assert_array_equal(a.iterations, b.iterations, err_msg=context)


class TestWalkEquivalence:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(
        seed=st.integers(0, 7),
        protocol=st.sampled_from(SCALE_PROTOCOLS),
        degree_limit=st.integers(1, 5),
        n_members=st.integers(2, 32),
        block=st.sampled_from([1, 3, 64, 10**6]),
    )
    def test_batched_matches_scalar(
        self, seed, protocol, degree_limit, n_members, block
    ):
        underlay = _sparse(seed)
        scalar = build_scale_tree(
            underlay, protocol, n_members, degree_limit=degree_limit, kernel="scalar"
        )
        batched = build_scale_tree(
            underlay,
            protocol,
            n_members,
            degree_limit=degree_limit,
            kernel="batched",
            prefetch_block=block,
        )
        _assert_trees_bitwise_equal(
            scalar, batched, f"{protocol} deg={degree_limit} B={block}"
        )

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_prefetch_disabled_is_still_batched_and_identical(self, protocol):
        underlay = _sparse(2)
        scalar = build_scale_tree(underlay, protocol, 24, kernel="scalar")
        batched = build_scale_tree(
            underlay, protocol, 24, kernel="batched", prefetch_block=0
        )
        _assert_trees_bitwise_equal(scalar, batched)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_default_kernel_matches_scalar(self, protocol):
        underlay = _sparse(4)
        default = build_scale_tree(underlay, protocol, 20)
        scalar = build_scale_tree(underlay, protocol, 20, kernel="scalar")
        _assert_trees_bitwise_equal(default, scalar)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_lazy_underlay_falls_back_to_scalar_and_agrees(self, protocol):
        # The lazy substrate serves no rows: batched mode must quietly
        # walk scalar there, and still agree with the sparse batched walk
        # on the same substrate (the PR 8 engine-independence promise).
        lazy = _lazy(5)
        sparse = _sparse(5)
        on_lazy = build_scale_tree(lazy, protocol, 24, kernel="batched")
        on_sparse = build_scale_tree(sparse, protocol, 24, kernel="batched")
        np.testing.assert_array_equal(on_lazy.parents, on_sparse.parents)
        assert (
            on_lazy.join_latency_ms.tobytes() == on_sparse.join_latency_ms.tobytes()
        )

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            build_scale_tree(_sparse(0), "vdm", 8, kernel="vectorized")
        with pytest.raises(ValueError):
            prim_mst_parents(_sparse(0), 8, kernel="vectorized")
        with pytest.raises(ValueError):
            scale_tree_metrics(
                _sparse(0), np.array([-1, 0]), kernel="vectorized"
            )


class TestIterationBound:
    def test_degree_one_chain_exceeds_legacy_bound(self):
        # A BTP chain descends one level per iteration: member k needs k
        # iterations, so n=100 legitimately blows through the old fixed
        # bound of 64.  Both kernels must complete and agree.
        underlay = _sparse(9, n_hosts=100)
        scalar = build_scale_tree(
            underlay, "btp", 100, degree_limit=1, kernel="scalar"
        )
        batched = build_scale_tree(
            underlay, "btp", 100, degree_limit=1, kernel="batched"
        )
        _assert_trees_bitwise_equal(scalar, batched)
        assert int(scalar.iterations.max()) == 99
        counts = np.bincount(scalar.parents[scalar.parents >= 0], minlength=100)
        assert counts.max() == 1
        metrics = scale_tree_metrics(underlay, scalar.parents)
        assert metrics.depth_max == 99


class TestPrimEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_prefetched_prim_matches_scalar(self, seed):
        underlay = _sparse(seed)
        np.testing.assert_array_equal(
            prim_mst_parents(underlay, 28, kernel="scalar"),
            prim_mst_parents(underlay, 28, kernel="batched"),
        )

    def test_prefetched_prim_matches_lazy_oracle(self):
        np.testing.assert_array_equal(
            prim_mst_parents(_lazy(6), 24),
            prim_mst_parents(_sparse(6), 24, kernel="batched"),
        )


class TestMetricsEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 7),
        protocol=st.sampled_from(SCALE_PROTOCOLS),
        n_members=st.integers(2, 32),
    )
    def test_bincount_stress_matches_counter_stress(
        self, seed, protocol, n_members
    ):
        underlay = _sparse(seed)
        tree = build_scale_tree(underlay, protocol, n_members)
        scalar = scale_tree_metrics(underlay, tree.parents, kernel="scalar")
        batched = scale_tree_metrics(underlay, tree.parents, kernel="batched")
        # repr round-trips floats exactly: this is bitwise equality.
        assert repr(scalar) == repr(batched)

    def test_stress_skip_agrees(self):
        underlay = _sparse(1)
        tree = build_scale_tree(underlay, "hmtp", 20)
        scalar = scale_tree_metrics(
            underlay, tree.parents, include_stress=False, kernel="scalar"
        )
        batched = scale_tree_metrics(
            underlay, tree.parents, include_stress=False, kernel="batched"
        )
        assert repr(scalar) == repr(batched)
        assert batched.links_used == 0 and batched.stress_avg == 0.0

    def test_batched_metrics_reject_forests(self):
        with pytest.raises(ValueError):
            scale_tree_metrics(
                _sparse(0), np.array([-1, 0, -1, 2]), kernel="batched"
            )

    def test_metric_floats_are_python_floats(self):
        # scalebench reprs the record as its cross-kernel identity
        # oracle; np.float64 reprs would diverge from the scalar path.
        metrics = scale_tree_metrics(_sparse(3), build_scale_tree(
            _sparse(3), "vdm", 16
        ).parents, kernel="batched")
        for value in metrics.as_record().values():
            assert type(value) is float
