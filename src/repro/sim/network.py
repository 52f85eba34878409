"""Underlay network models.

The overlay protocols only ever see *hosts* and inter-host delays; the
underlay decides what those delays are and which physical links an overlay
hop consumes.  Two concrete models mirror the paper's two environments:

* :class:`RouterUnderlay` — a router-level graph (transit-stub for Chapter
  3) with hosts attached to stub routers through access links.  Supports
  per-physical-link *stress* accounting (eq. 3.4) because multiple overlay
  hops share router links.
* :class:`MatrixUnderlay` — a host-level RTT matrix (the PlanetLab
  emulation of Chapter 5).  Physical paths are opaque, so resource usage is
  measured as the summed latency of used overlay links (Section 5.3), which
  is exactly how the paper measured it on PlanetLab.

Both expose the same interface, so sessions, protocols, and metrics are
substrate-agnostic.

Hot-path caching: underlay paths are immutable after construction, yet the
metric collectors and the delivery accountant re-query the same host pairs
on every measurement window.  :class:`RouterUnderlay` therefore memoizes
``delay_ms`` / ``path_links`` / ``path_error`` per ordered host pair, and
:class:`MatrixUnderlay` precomputes its one-way delay matrix.

:class:`RouterUnderlay` discovers shortest paths *lazily*, one Dijkstra
source at a time, on any networkx graph.  The production transit-stub
substrate is :class:`repro.sim.sparse.SparseUnderlay`, which serves the
same queries from CSR triplets; the lazy implementation below is its
reference oracle (``tests/oracles``), so the two must stay bit-for-bit
equivalent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csgraph

__all__ = ["Underlay", "RouterUnderlay", "MatrixUnderlay"]

LinkId = Hashable

#: minimum path length before the loss product switches to numpy —
#: below this, the pure-python loop is faster than array setup.
_VECTORIZE_MIN_LINKS = 8


class Underlay(ABC):
    """Abstract substrate: host-to-host delays and physical-path accounting."""

    @property
    @abstractmethod
    def hosts(self) -> Sequence[int]:
        """All host identifiers that can participate in an overlay."""

    @abstractmethod
    def delay_ms(self, a: int, b: int) -> float:
        """One-way latency between hosts ``a`` and ``b`` in milliseconds."""

    @abstractmethod
    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        """Physical links traversed by unicast traffic from ``a`` to ``b``."""

    @abstractmethod
    def link_delay(self, link: LinkId) -> float:
        """One-way latency of a single physical link."""

    @abstractmethod
    def link_error(self, link: LinkId) -> float:
        """Loss probability of a single physical link."""

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time between two hosts."""
        return 2.0 * self.delay_ms(a, b)

    def delay_row(self, a: int) -> list[float] | None:
        """Host ``a``'s full delay row indexed *by host id*, or ``None``.

        Substrates that hold a materialized delay matrix and whose host
        ids coincide with matrix indices return the row list; every
        other substrate returns ``None`` and callers fall back to
        per-pair :meth:`delay_ms`.  A returned row must be treated as
        read-only, and ``row[b]`` is bit-identical to ``delay_ms(a, b)``
        for every valid ``b``.
        """
        return None

    def host_domain(self, host: int) -> int | None:
        """The transit domain serving ``host``, or ``None`` when unknown.

        Correlated fault plans (whole-domain outages, partitions) need to
        group hosts by underlay domain; substrates without a router
        topology — or router graphs without transit-stub attributes —
        answer ``None`` and such plans fail loudly with
        :class:`~repro.sim.faults.UnsupportedFaultPlan`.
        """
        self.validate_host(host)
        return None

    def path_error(self, a: int, b: int) -> float:
        """End-to-end loss probability of the unicast path from a to b."""
        return self._compute_path_error(self.path_links(a, b))

    def _compute_path_error(self, links: Sequence[LinkId]) -> float:
        errors = [self.link_error(link) for link in links]
        if len(errors) >= _VECTORIZE_MIN_LINKS:
            return float(1.0 - np.prod(1.0 - np.asarray(errors)))
        success = 1.0
        for error in errors:
            success *= 1.0 - error
        return 1.0 - success

    def validate_host(self, host: int) -> None:
        if host not in self._host_set():
            raise KeyError(f"unknown host {host!r}")

    def _host_set(self) -> frozenset[int]:
        cached = getattr(self, "_host_set_cache", None)
        if cached is None:
            cached = frozenset(self.hosts)
            self._host_set_cache = cached
        return cached


class RouterUnderlay(Underlay):
    """Hosts attached to routers of a weighted graph (e.g. transit-stub).

    Parameters
    ----------
    graph:
        Undirected router graph.  Edges need a ``delay`` attribute (one-way
        ms) and may carry an ``error`` attribute (loss probability,
        default 0).
    attachments:
        Mapping host id -> router id.  Multiple hosts may share a router
        (the paper's 1000-host sweep exceeds its 792 routers).
    access_delay_ms:
        Mapping host id -> one-way access-link delay, or a scalar applied
        to every host.  The access link is a real physical link for stress
        purposes: a host with k children sends k copies over it.
    access_error:
        Loss probability of access links (scalar or per-host mapping).
    """

    def __init__(
        self,
        graph: nx.Graph,
        attachments: dict[int, int],
        *,
        access_delay_ms: float | dict[int, float] = 0.5,
        access_error: float | dict[int, float] = 0.0,
    ) -> None:
        if not attachments:
            raise ValueError("attachments must not be empty")
        for host, router in attachments.items():
            if router not in graph:
                raise KeyError(f"host {host} attached to unknown router {router}")
        self.graph = graph
        self.attachments = dict(attachments)
        self._hosts = sorted(self.attachments)
        self._host_idx = {h: i for i, h in enumerate(self._hosts)}
        self._access_delay = self._per_host(access_delay_ms)
        self._access_error = self._per_host(access_error)
        # Router graph in CSR form for scipy's Dijkstra (profiling showed
        # pure-python Dijkstra dominating session time at paper scale).
        self._router_ids = list(graph.nodes())
        self._router_idx = {r: i for i, r in enumerate(self._router_ids)}
        self._csr = nx.to_scipy_sparse_array(
            graph, nodelist=self._router_ids, weight="delay", format="csr"
        )
        # Per-source-router Dijkstra results, filled lazily:
        # router -> (distance array, predecessor-index array).
        self._dist: dict[int, np.ndarray] = {}
        self._pred: dict[int, np.ndarray] = {}
        # Per-ordered-host-pair memos; paths never change once built.
        self._delay_cache: dict[tuple[int, int], float] = {}
        self._path_cache: dict[tuple[int, int], tuple[LinkId, ...]] = {}
        self._error_cache: dict[tuple[int, int], float] = {}

    def _per_host(self, value: float | dict[int, float]) -> dict[int, float]:
        if isinstance(value, dict):
            missing = set(self._hosts) - set(value)
            if missing:
                raise KeyError(f"missing per-host values for hosts {sorted(missing)}")
            return {h: float(value[h]) for h in self._hosts}
        return {h: float(value) for h in self._hosts}

    @property
    def hosts(self) -> Sequence[int]:
        return self._hosts

    def router_of(self, host: int) -> int:
        self.validate_host(host)
        return self.attachments[host]

    def host_domain(self, host: int) -> int | None:
        """Transit domain of ``host``'s router (transit-stub graphs only)."""
        self.validate_host(host)
        domains = getattr(self, "_domain_map", None)
        if domains is None:
            try:
                from repro.topology.transit_stub import router_transit_domains

                domains = router_transit_domains(self.graph)
            except KeyError:
                # Not a transit-stub graph (no level/domain attributes) —
                # remember that so we only probe once.
                domains = {}
            self._domain_map = domains
        return domains.get(self.attachments[host])

    def _ensure_dijkstra(self, router: int) -> None:
        if router not in self._dist:
            dist, pred = csgraph.dijkstra(
                self._csr,
                directed=False,
                indices=self._router_idx[router],
                return_predecessors=True,
            )
            self._dist[router] = dist
            self._pred[router] = pred

    def router_distance(self, r_a: int, r_b: int) -> float:
        """Shortest-path delay between two routers."""
        self._ensure_dijkstra(r_a)
        dist = float(self._dist[r_a][self._router_idx[r_b]])
        if not np.isfinite(dist):
            raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
        return dist

    def router_path(self, r_a: int, r_b: int) -> list[int]:
        """One shortest router path from ``r_a`` to ``r_b`` (deterministic:
        scipy's predecessor choice is stable for a fixed graph)."""
        self._ensure_dijkstra(r_a)
        pred = self._pred[r_a]
        target = self._router_idx[r_b]
        if not np.isfinite(self._dist[r_a][target]):
            raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
        path_idx = [target]
        node = target
        source = self._router_idx[r_a]
        while node != source:
            node = int(pred[node])
            path_idx.append(node)
        path_idx.reverse()
        return [self._router_ids[i] for i in path_idx]

    def delay_ms(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._delay_cache.get(key)
        if cached is not None:
            return cached
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            value = 0.0
        else:
            base = self.router_distance(self.attachments[a], self.attachments[b])
            value = self._access_delay[a] + base + self._access_delay[b]
        self._delay_cache[key] = value
        return value

    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        key = (a, b)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            links: tuple[LinkId, ...] = ()
        else:
            parts: list[LinkId] = [("access", a)]
            routers = self.router_path(self.attachments[a], self.attachments[b])
            for u, v in zip(routers[:-1], routers[1:]):
                parts.append(("router", min(u, v), max(u, v)))
            parts.append(("access", b))
            links = tuple(parts)
        self._path_cache[key] = links
        return links

    def path_error(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._error_cache.get(key)
        if cached is not None:
            return cached
        value = self._compute_path_error(self.path_links(a, b))
        self._error_cache[key] = value
        return value

    def link_delay(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_delay[payload[0]]
        if kind == "router" and len(payload) == 2:
            u, v = payload
            return float(self.graph.edges[u, v]["delay"])
        raise KeyError(f"unknown link id {link!r}")

    def link_error(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_error[payload[0]]
        if kind == "router" and len(payload) == 2:
            u, v = payload
            return float(self.graph.edges[u, v].get("error", 0.0))
        raise KeyError(f"unknown link id {link!r}")


def _split_link(link: LinkId) -> tuple[object, tuple]:
    """Split a link id into (kind, payload), raising the documented
    ``KeyError`` for ids of the wrong shape instead of a bare
    ``ValueError``/``TypeError`` from tuple unpacking."""
    if not isinstance(link, tuple) or not link:
        raise KeyError(f"unknown link id {link!r}")
    return link[0], link[1:]


class MatrixUnderlay(Underlay):
    """Host-level substrate defined by a pairwise RTT matrix.

    Used for the PlanetLab emulation: each host pair is one opaque "link"
    whose delay is half the measured RTT.  Optionally carries a pairwise
    loss-probability matrix.
    """

    def __init__(
        self,
        rtt_ms: np.ndarray,
        *,
        host_ids: Sequence[int] | None = None,
        loss: np.ndarray | None = None,
    ) -> None:
        rtt_arr = np.asarray(rtt_ms, dtype=float)
        if rtt_arr.ndim != 2 or rtt_arr.shape[0] != rtt_arr.shape[1]:
            raise ValueError(f"rtt matrix must be square, got shape {rtt_arr.shape}")
        if not np.allclose(rtt_arr, rtt_arr.T):
            raise ValueError("rtt matrix must be symmetric")
        if np.any(rtt_arr < 0):
            raise ValueError("rtt matrix must be non-negative")
        if np.any(np.diag(rtt_arr) != 0):
            raise ValueError("rtt matrix diagonal must be zero")
        n = rtt_arr.shape[0]
        if host_ids is None:
            host_ids = list(range(n))
        if len(host_ids) != n:
            raise ValueError(
                f"host_ids length {len(host_ids)} != matrix size {n}"
            )
        if loss is not None:
            loss = np.asarray(loss, dtype=float)
            if loss.shape != rtt_arr.shape:
                raise ValueError("loss matrix shape must match rtt matrix")
            if np.any((loss < 0) | (loss > 1)):
                raise ValueError("loss matrix entries must be probabilities")
        self._rtt = rtt_arr
        # One-way delays, precomputed once (0.5 scaling is exact in IEEE
        # floats, so this matches the historical per-call division bit for
        # bit while keeping the hot path a plain array load).
        self._delay = rtt_arr * 0.5
        # Nested-list mirrors of both matrices: a Python list-of-lists
        # subscript is several times cheaper than a numpy scalar index,
        # and ``tolist()`` yields the exact same Python floats that
        # ``float(arr[i, j])`` would.  delay_ms/rtt_ms are the hottest
        # calls in a session (one per message leg, one per probe).
        self._delay_rows = self._delay.tolist()
        self._rtt_rows = rtt_arr.tolist()
        self._loss = loss
        # The matrix substrate holds the full loss table, so "is the
        # whole substrate loss-free" is global knowledge available up
        # front — consumers (delivery accounting) short-circuit on it.
        self._zero_error = loss is None or not bool(loss.any())
        self._hosts = list(host_ids)
        self._index = {h: i for i, h in enumerate(self._hosts)}
        if len(self._index) != n:
            raise ValueError("host_ids must be unique")
        # Host ids usually coincide with matrix indices (PlanetLab hosts
        # are numbered 0..n-1); when they do, whole rows can be handed to
        # bulk readers via delay_row without per-call id translation.
        self._ids_are_indices = all(h == i for i, h in enumerate(self._hosts))

    @property
    def hosts(self) -> Sequence[int]:
        return self._hosts

    def delay_ms(self, a: int, b: int) -> float:
        try:
            return self._delay_rows[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None

    def rtt_ms(self, a: int, b: int) -> float:
        # Overrides the base-class ``2 * delay_ms`` chain with a single
        # subscript; ``2.0 * (rtt * 0.5) == rtt`` exactly in IEEE floats,
        # so the value is unchanged.  This is the default virtual-distance
        # metric, called once per probe.
        try:
            return self._rtt_rows[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None

    @property
    def zero_error(self) -> bool:
        """Whether the substrate is globally loss-free (no loss matrix)."""
        return self._zero_error

    def delay_row(self, a: int) -> list[float] | None:
        if not self._ids_are_indices:
            return None
        try:
            return self._delay_rows[self._index[a]]
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None

    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            return ()
        lo, hi = (a, b) if a <= b else (b, a)
        return (("pair", lo, hi),)

    def _pair_of(self, link: LinkId) -> tuple[int, int]:
        """Unpack a ``("pair", a, b)`` link id, raising the documented
        ``KeyError`` on malformed ids (wrong kind *or* wrong arity)."""
        if (
            not isinstance(link, tuple)
            or len(link) != 3
            or link[0] != "pair"
        ):
            raise KeyError(f"unknown link id {link!r}")
        return link[1], link[2]

    def link_delay(self, link: LinkId) -> float:
        a, b = self._pair_of(link)
        return self.delay_ms(a, b)

    def link_error(self, link: LinkId) -> float:
        a, b = self._pair_of(link)
        if self._loss is None:
            return 0.0
        try:
            return float(self._loss[self._index[a], self._index[b]])
        except KeyError as exc:
            raise KeyError(f"unknown host {exc.args[0]!r}") from None
