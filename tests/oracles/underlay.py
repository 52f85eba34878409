"""Lazy-underlay oracle for the transit-stub substrate builder.

The lazy :class:`~repro.sim.network.RouterUnderlay` runs one Dijkstra per
source router on demand over the networkx generator's graph.  The
production :class:`~repro.sim.sparse.SparseUnderlay` — in either row-store
regime — must answer every query bit for bit the same; these helpers
build the lazy substrate from a builder recipe.
"""

from __future__ import annotations

from repro.harness.substrates import _attach_hosts
from repro.sim.network import RouterUnderlay
from repro.topology.linkmodel import LinkErrorConfig, assign_link_errors
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub,
    stub_routers,
)
from repro.util.rngtools import spawn_rng


def transit_stub_attachments(graph, n_hosts: int, seed: int) -> dict[int, int]:
    """The builder's host attachment draw, over a networkx graph's stubs."""
    return _attach_hosts(stub_routers(graph), n_hosts, seed)


def build_lazy_transit_stub_underlay(
    *,
    n_hosts: int,
    seed: int,
    ts_config: TransitStubConfig | None = None,
    link_errors: LinkErrorConfig | None = None,
    access_delay_ms: float = 0.5,
) -> RouterUnderlay:
    """The lazy :class:`RouterUnderlay` for a
    :func:`~repro.harness.substrates.build_transit_stub_underlay` recipe.

    Same recipe keywords and RNG streams as the production builder, so
    tests can monkeypatch it in; it never touches the artifact cache.
    """
    config = ts_config or TransitStubConfig()
    graph = generate_transit_stub(config, seed=spawn_rng(seed, "topology"))
    if link_errors is not None:
        assign_link_errors(graph, link_errors, seed=spawn_rng(seed, "errors"))
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    return RouterUnderlay(graph, attachments, access_delay_ms=access_delay_ms)
