"""Lazy-underlay oracles for :class:`~repro.sim.compiled.CompiledUnderlay`
and the transit-stub substrate builder.

The lazy :class:`~repro.sim.network.RouterUnderlay` runs one Dijkstra per
source router on demand.  The compiled substrate must answer every query
bit for bit the same; these helpers expose the lazy answers on a compiled
instance and build the lazy substrate from a builder recipe.
"""

from __future__ import annotations

from repro.harness.substrates import _transit_stub_attachments
from repro.sim.network import LinkId, RouterUnderlay
from repro.topology.linkmodel import LinkErrorConfig, assign_link_errors
from repro.topology.transit_stub import TransitStubConfig, generate_transit_stub
from repro.util.rngtools import spawn_rng


def reference_delay_ms(underlay: RouterUnderlay, a: int, b: int) -> float:
    """The inherited lazy ``delay_ms`` of a compiled underlay."""
    return RouterUnderlay.delay_ms(underlay, a, b)


def reference_path_links(
    underlay: RouterUnderlay, a: int, b: int
) -> tuple[LinkId, ...]:
    """The inherited lazy ``path_links`` of a compiled underlay."""
    return RouterUnderlay.path_links(underlay, a, b)


def reference_path_error(underlay: RouterUnderlay, a: int, b: int) -> float:
    """The inherited lazy ``path_error`` of a compiled underlay."""
    return RouterUnderlay.path_error(underlay, a, b)


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

    Same dense-recipe keywords and RNG streams as the production builder,
    so tests can monkeypatch it in; it never compiles and never touches
    the artifact cache.
    """
    config = ts_config or TransitStubConfig()
    graph = generate_transit_stub(config, seed=spawn_rng(seed, "topology"))
    if link_errors is not None:
        assign_link_errors(graph, link_errors, seed=spawn_rng(seed, "errors"))
    attachments = _transit_stub_attachments(graph, n_hosts, seed)
    return RouterUnderlay(graph, attachments, access_delay_ms=access_delay_ms)
