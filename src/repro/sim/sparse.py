"""The transit-stub underlay: a CSR graph with exact Dijkstra rows.

:class:`SparseUnderlay` is the one underlay every transit-stub substrate
is built as.  It keeps the router graph as CSR edge triplets end to end
and serves every query from single-source Dijkstra rows.  *Where* those
rows live is decided once, at construction, from the input size alone —
never a user option:

* **Resident regime** — when every distinct attachment router's row fits
  :data:`RESIDENT_BUDGET_BYTES` (routers × V × 12 bytes: float64
  distances plus int32 predecessors), all of them come from **one
  batched** ``csgraph.dijkstra`` call and stay resident with no
  eviction, together with the host-delay rows built from them.
  ``delay_ms`` is then one list subscript, which is what paper-scale
  sweeps (the 792-router Ch. 3 substrate) need.
* **Bounded regime** — above the budget, rows are computed on demand
  into a bounded LRU (``REPRO_SPARSE_ROWS``), optionally fed by the
  :class:`RowPlan` block prefetcher.  Peak memory is O(E + cache · V)
  instead of O(V²), which is what makes 10⁵–10⁶-router substrates
  tractable.

Exactness discipline (DESIGN.md §12):

* **Exact mode** (the default, and forced whenever ``REPRO_SPARSE_EXACT``
  is left at ``1``) answers every query **byte-identically** to the
  lazy :class:`~repro.sim.network.RouterUnderlay` oracle, in both
  regimes: the CSR matrix holds the same canonicalized values networkx
  would produce, scipy's Dijkstra is deterministic on it and computes
  each source of a batched call independently, and the float association
  of ``delay_ms`` (``(access_a + base) + access_b``) is copied verbatim.
  The equivalence suites in ``tests/test_sparse_underlay.py`` and
  ``tests/test_compiled_underlay.py`` pin this.
* **Landmark mode** (opt-in: construct with ``landmarks`` *and* set
  ``REPRO_SPARSE_EXACT=0``) estimates a distance as
  ``min_l d(u, l) + d(l, v)`` over a small landmark set — an upper bound
  by the triangle inequality — *combined with a bounded-horizon local
  Dijkstra* (``local_horizon_ms``): sources explore only their local
  neighborhood, so any pair closer than the horizon is answered exactly
  and the landmark detour only applies to long paths, where hierarchical
  routing makes it tight.  The estimate is always an upper bound, with a
  *declared* multiplicative ``error_bound``.  Approximate answers are
  outside the byte-identity envelope: the perf report refuses to time
  them (the PR 6 decline pattern), and the landmark test asserts the
  declared bound empirically.  Landmark mode always runs bounded.

The per-ordered-pair memo dicts mirror the lazy underlay's but are
*bounded*: at scale the set of queried pairs is itself O(members ·
probes), so each memo clears itself at ``_PAIR_MEMO_CAP`` entries — a
transparent cache policy, never a correctness knob.

Prefetching (PR 9): when a caller knows its source routers up front — the
static-join walk knows the whole join order before the first query — it
can hand the ordered plan to :meth:`SparseUnderlay.prefetch_rows`.  The
returned :class:`RowPlan` runs **multi-source** ``csgraph.dijkstra``
calls of ``REPRO_SPARSE_PREFETCH`` sources at a time on a single worker
thread, double-buffered: block *k+1* computes while block *k* is
consumed.  The prefetch is exact, never speculative — every planned row
is one the demand path would have computed anyway, and scipy computes
each source of a multi-source call independently, so a prefetched row is
bit-identical to its single-source twin (pinned in
``tests/test_sparse_underlay.py``).  Prefetched rows are retained in a
byte-budgeted LRU *separate* from the small demand LRU, which is what
lets members ≫ routers walks keep every distinct attachment-router row
resident instead of thrashing ``REPRO_SPARSE_ROWS``.  Resident rows are
never planned: a plan only covers what the resident store lacks.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import networkx as nx
import numpy as np
from scipy import sparse as sp
from scipy.sparse import csgraph

from repro.sim.network import LinkId, Underlay, _split_link
from repro.util.artifacts import Artifact
from repro.util.envflags import sparse_exact, sparse_prefetch_block, sparse_row_cache

__all__ = ["SPARSE_SCHEMA", "RowPlan", "SparseUnderlay", "select_landmarks"]

#: artifact layout version of the CSR-triplet substrate entries; part of
#: every cache key, so a layout change invalidates (never misreads) them.
SPARSE_SCHEMA = 1

#: per-ordered-pair memo dicts self-clear at this many entries so a
#: 100k-member walk cannot accumulate unbounded Python-dict state.
_PAIR_MEMO_CAP = 1 << 20

#: byte budget of the resident regime, against distinct attachment
#: routers × V × 12 (float64 distances + int32 predecessors).  16 MiB
#: keeps the paper's 792-router substrate (400 attachment routers,
#: ~3.6 MiB) resident and puts a 2,000-router scale substrate (~29 MiB)
#: on the bounded LRU.
RESIDENT_BUDGET_BYTES = 16 << 20

_INF = float("inf")


def select_landmarks(
    n_routers: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    n_landmarks: int,
) -> np.ndarray:
    """Deterministic landmark choice: the ``n_landmarks`` highest-degree
    routers (ties broken by ascending id).

    On transit-stub graphs this lands on transit/gateway routers — the
    hubs real hierarchical routes go through — which is what keeps the
    empirical stretch of the ``d(u,l)+d(l,v)`` upper bound small.
    """
    degree = np.bincount(edge_u, minlength=n_routers) + np.bincount(
        edge_v, minlength=n_routers
    )
    n_landmarks = min(int(n_landmarks), n_routers)
    # argsort on (-degree, id): stable sort over ids then stable resort.
    order = np.argsort(-degree, kind="stable")
    return np.sort(order[:n_landmarks]).astype(np.int64)


class RowPlan:
    """Exact block prefetcher over an ordered source-router plan.

    Built by :meth:`SparseUnderlay.prefetch_rows`; consumed implicitly —
    the underlay's row lookups consult the active plan before falling
    back to demand Dijkstra.  The plan dedupes its sources to
    first-occurrence order (dropping rows the underlay holds resident),
    chunks them into blocks of ``block`` sources, and keeps exactly one
    block *in flight* on a single worker thread (double-buffering):
    collecting block *k* immediately submits block *k+1*.  A lookup for a source in a not-yet-collected block
    drains in-flight blocks forward until that block lands — plans are
    consumed roughly in plan order, so this is one wait in the common
    case, never a recompute.

    Retention is a byte-budgeted LRU: collected rows stay resident until
    the budget forces eviction.  An evicted row looked up again simply
    misses back to the demand path — retention is a cache policy, never
    a correctness knob.  ``block == 0`` builds an inert plan (no blocks,
    every lookup misses): the ablation baseline rides the same code.
    """

    def __init__(
        self,
        underlay: "SparseUnderlay",
        sources,
        *,
        block: int,
        predecessors: bool,
        retain_bytes: int,
    ) -> None:
        self._underlay = underlay
        self.block = int(block)
        self.predecessors = bool(predecessors)
        order: list[int] = []
        seen: set[int] = set()
        resident = underlay._resident_rows
        for router in np.asarray(sources, dtype=np.int64).tolist():
            if router not in seen and router not in resident:
                seen.add(router)
                order.append(router)
        self.n_sources = len(order)
        self._blocks: list[np.ndarray] = (
            [
                np.asarray(order[i : i + self.block], dtype=np.int64)
                for i in range(0, len(order), self.block)
            ]
            if self.block > 0
            else []
        )
        self._block_of: dict[int, int] = {}
        for idx, blk in enumerate(self._blocks):
            for router in blk.tolist():
                self._block_of[router] = idx
        row_bytes = underlay.n_routers * (12 if predecessors else 8)
        self._retain_rows = max(
            2 * max(self.block, 1), int(retain_bytes) // max(row_bytes, 1)
        )
        self._ready: OrderedDict[int, tuple[np.ndarray, np.ndarray | None]] = (
            OrderedDict()
        )
        self._next = 0  # next block index to submit
        self._future = None
        self._future_idx = -1
        self._pool = ThreadPoolExecutor(max_workers=1) if self._blocks else None
        # Instrumentation (read by benches and the equivalence tests).
        self.sources_computed = 0
        self.hits = 0
        self.misses = 0
        self._submit_next()

    def _compute(self, blk: np.ndarray):
        csr = self._underlay._csr
        if self.predecessors:
            return csgraph.dijkstra(
                csr, directed=False, indices=blk, return_predecessors=True
            )
        return csgraph.dijkstra(csr, directed=False, indices=blk), None

    def _submit_next(self) -> None:
        if self._pool is not None and self._next < len(self._blocks):
            self._future = self._pool.submit(self._compute, self._blocks[self._next])
            self._future_idx = self._next
            self._next += 1
        else:
            self._future = None

    def _collect(self) -> None:
        """Land the in-flight block in the retained LRU; submit the next."""
        dist, pred = self._future.result()
        blk = self._blocks[self._future_idx]
        self._submit_next()
        for i, router in enumerate(blk.tolist()):
            # Copies detach the rows from the (B, V) block matrices so
            # eviction actually frees memory; bits are preserved.
            self._ready[router] = (
                dist[i].copy(),
                pred[i].copy() if pred is not None else None,
            )
        self.sources_computed += int(blk.size)
        while len(self._ready) > self._retain_rows:
            self._ready.popitem(last=False)

    def take(
        self, router: int, *, need_pred: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """The plan's row for ``router``, or ``None`` (caller goes demand)."""
        if need_pred and not self.predecessors:
            return None
        got = self._ready.get(router)
        if got is None:
            target = self._block_of.get(router)
            if target is None or target < self._future_idx or self._future is None:
                self.misses += 1  # unplanned, or collected-then-evicted
                return None
            while self._future is not None and self._future_idx <= target:
                self._collect()
            got = self._ready.get(router)
            if got is None:  # retained cap < block — cannot happen, but safe
                self.misses += 1
                return None
        else:
            self._ready.move_to_end(router)
        self.hits += 1
        return got

    def stats(self) -> dict:
        return {
            "block": self.block,
            "blocks": len(self._blocks),
            "planned_sources": self.n_sources,
            "sources_computed": self.sources_computed,
            "hits": self.hits,
            "misses": self.misses,
            "retained_rows": len(self._ready),
        }

    def close(self) -> None:
        """Stop the worker, drop retained rows, detach from the underlay."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._future = None
        self._ready.clear()
        if self._underlay._plan is self:
            self._underlay._plan = None

    def __enter__(self) -> "RowPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SparseUnderlay(Underlay):
    """Hosts attached to routers of a CSR graph; O(E) resident state.

    Router ids must be dense ``0..n_routers-1`` (what
    :func:`repro.topology.transit_stub.generate_transit_stub_arrays`
    emits); each undirected edge appears once in the triplet arrays.

    Parameters mirror :class:`~repro.sim.network.RouterUnderlay` where
    they overlap.  ``router_domain`` (per-router transit-domain indices,
    ``-1`` = unknown) feeds :meth:`host_domain` for correlated fault
    plans.  ``landmarks`` enables the approximation layer — which stays
    *dormant* (exact rows) unless ``REPRO_SPARSE_EXACT=0`` at
    construction time.

    :attr:`regime` reports where the exact rows live: ``"resident"``
    (every attachment router's row from one batched Dijkstra, never
    evicted) or ``"bounded"`` (demand LRU plus prefetch), chosen from
    the input size against :data:`RESIDENT_BUDGET_BYTES`.
    """

    def __init__(
        self,
        n_routers: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_delay: np.ndarray,
        attachments: dict[int, int],
        *,
        access_delay_ms: float | dict[int, float] = 0.5,
        access_error: float | dict[int, float] = 0.0,
        edge_error: np.ndarray | None = None,
        router_domain: np.ndarray | None = None,
        landmarks: np.ndarray | Sequence[int] | None = None,
        error_bound: float = 2.0,
        local_horizon_ms: float = 60.0,
        row_cache: int | None = None,
    ) -> None:
        if not attachments:
            raise ValueError("attachments must not be empty")
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        edge_delay = np.asarray(edge_delay, dtype=np.float64)
        if not (edge_u.shape == edge_v.shape == edge_delay.shape):
            raise ValueError("edge triplet arrays must have equal length")
        self.n_routers = int(n_routers)
        for host, router in attachments.items():
            if not 0 <= router < self.n_routers:
                raise KeyError(f"host {host} attached to unknown router {router}")
        self.attachments = dict(attachments)
        self._hosts = sorted(self.attachments)
        self._host_idx = {h: i for i, h in enumerate(self._hosts)}
        self._access_delay = self._per_host(access_delay_ms)
        self._access_error = self._per_host(access_error)

        # Canonical symmetric CSR.  coo->csr sorts indices and sums
        # duplicates, exactly like ``nx.to_scipy_sparse_array`` — so for
        # the same edge set scipy's Dijkstra sees an identical matrix and
        # returns bit-identical dist/pred rows (the exactness anchor).
        both_u = np.concatenate([edge_u, edge_v])
        both_v = np.concatenate([edge_v, edge_u])
        both_d = np.concatenate([edge_delay, edge_delay])
        self._csr = sp.coo_matrix(
            (both_d, (both_u, both_v)), shape=(self.n_routers, self.n_routers)
        ).tocsr()
        if edge_error is not None and np.any(np.asarray(edge_error) != 0.0):
            err = np.asarray(edge_error, dtype=np.float64)
            both_e = np.concatenate([err, err])
            self._err_csr = sp.coo_matrix(
                (both_e, (both_u, both_v)), shape=self._csr.shape
            ).tocsr()
        else:
            self._err_csr = None

        self._router_domain = (
            None if router_domain is None else np.asarray(router_domain, np.int64)
        )

        # Exactness knob: landmarks are carried either way (so one
        # artifact serves both modes), but approximation only activates
        # when the env flag explicitly leaves the exact envelope.
        self._landmarks = (
            None if landmarks is None else np.asarray(landmarks, dtype=np.int64)
        )
        self.error_bound = float(error_bound)
        self.local_horizon_ms = float(local_horizon_ms)
        self._approx = self._landmarks is not None and not sparse_exact()
        self._ldist: np.ndarray | None = None
        self._lpred: np.ndarray | None = None
        # Bounded-horizon local rows (landmark mode only): a truncated
        # Dijkstra explores just the source's neighborhood, so these are
        # cheap at any V.
        self._local_rows: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )

        # Bounded LRU of (dist, pred) Dijkstra rows keyed by source router.
        self._row_cap = row_cache if row_cache is not None else sparse_row_cache()
        self._rows: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        # Host-id-indexed delay rows (for collectors): small LRU of lists.
        self._hrow_cap = max(8, self._row_cap // 4)
        self._hrows: OrderedDict[int, list[float]] = OrderedDict()
        self._ids_are_indices = all(h == i for i, h in enumerate(self._hosts))
        # Some host pair is unreachable iff the router graph is split.
        self._any_unreachable = (
            csgraph.connected_components(self._csr, return_labels=False) > 1
        )
        self._plan: RowPlan | None = None  # active prefetch plan, if any
        self.demand_rows = 0  # instrumentation: demand-time Dijkstra runs

        # Row-store regime, from the input size alone.  Resident: one
        # batched Dijkstra over the attachment routers, rows kept for the
        # underlay's lifetime, host-delay rows (by host index) likewise.
        att = np.unique(np.fromiter(self.attachments.values(), dtype=np.int64))
        resident = (
            not self._approx
            and att.size * self.n_routers * 12 <= RESIDENT_BUDGET_BYTES
        )
        self.regime = "resident" if resident else "bounded"
        self._resident_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._drows: list[list[float] | None] | None = None
        if resident:
            dist, pred = csgraph.dijkstra(
                self._csr, directed=False, indices=att, return_predecessors=True
            )
            self._resident_rows = dict(zip(att.tolist(), zip(dist, pred)))
            self._drows = [None] * len(self._hosts)

        self._delay_cache: dict[tuple[int, int], float] = {}
        self._path_cache: dict[tuple[int, int], tuple[LinkId, ...]] = {}
        self._error_cache: dict[tuple[int, int], float] = {}

        self._zero_error = all(
            e == 0.0 for e in self._access_error.values()
        ) and self._err_csr is None

    # -- shared plumbing -----------------------------------------------------

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

    @property
    def exact(self) -> bool:
        """Whether every answer is inside the byte-identity envelope."""
        return not self._approx

    @property
    def zero_error(self) -> bool:
        """Whether every link and access error is exactly zero."""
        return self._zero_error

    def router_of(self, host: int) -> int:
        self.validate_host(host)
        return self.attachments[host]

    def host_domain(self, host: int) -> int | None:
        self.validate_host(host)
        if self._router_domain is None:
            return None
        domain = int(self._router_domain[self.attachments[host]])
        return None if domain < 0 else domain

    # -- Dijkstra row machinery ----------------------------------------------

    def prefetch_rows(
        self,
        sources,
        *,
        block: int | None = None,
        predecessors: bool = False,
        retain_bytes: int = 1 << 28,
    ) -> RowPlan:
        """Install a :class:`RowPlan` over an ordered source-router plan.

        ``sources`` is the sequence of source routers the caller will
        query, in order, repeats allowed (the plan dedupes and skips
        rows the resident store already holds).  ``block``
        overrides ``REPRO_SPARSE_PREFETCH``; ``predecessors=True``
        additionally prefetches predecessor rows (for path expansion).
        ``retain_bytes`` budgets the retained-row LRU (default 256 MiB,
        ~3.3k float64 rows at 10k routers); an evicted row that gets
        re-queried falls back to the demand path, still exact.
        The plan is a context manager — ``close()`` detaches it and
        frees its retained rows.  Only one plan is active at a time;
        installing a new one closes the old.
        """
        if self._plan is not None:
            self._plan.close()
        plan = RowPlan(
            self,
            sources,
            block=sparse_prefetch_block(block),
            predecessors=predecessors,
            retain_bytes=retain_bytes,
        )
        self._plan = plan
        return plan

    def _row(self, router: int) -> tuple[np.ndarray, np.ndarray]:
        """(dist, pred) arrays from ``router``: resident, else LRU-cached."""
        got = self._resident_rows.get(router)
        if got is not None:
            return got
        cached = self._rows.get(router)
        if cached is not None and cached[1] is not None:
            self._rows.move_to_end(router)
            return cached
        if self._plan is not None:
            got = self._plan.take(router, need_pred=True)
            if got is not None:
                return got
        dist, pred = csgraph.dijkstra(
            self._csr,
            directed=False,
            indices=router,
            return_predecessors=True,
        )
        self.demand_rows += 1
        self._rows[router] = (dist, pred)
        if len(self._rows) > self._row_cap:
            self._rows.popitem(last=False)
        return dist, pred

    def router_dist_row(self, router: int) -> np.ndarray:
        """Exact dist row from ``router`` — no predecessors computed.

        Serves the scale kernels: checks the resident rows, the demand
        LRU, then the active prefetch plan, then falls back to a
        *dist-only* Dijkstra (scipy returns bit-identical distances with
        and without ``return_predecessors``; the equivalence suite pins
        that).  Not available in landmark mode, which has no exact rows
        to give.
        """
        if self._approx:
            raise RuntimeError("router_dist_row requires exact mode")
        got = self._resident_rows.get(router)
        if got is not None:
            return got[0]
        cached = self._rows.get(router)
        if cached is not None:
            self._rows.move_to_end(router)
            return cached[0]
        if self._plan is not None:
            got = self._plan.take(router)
            if got is not None:
                return got[0]
        dist = csgraph.dijkstra(self._csr, directed=False, indices=router)
        self.demand_rows += 1
        self._rows[router] = (dist, None)
        if len(self._rows) > self._row_cap:
            self._rows.popitem(last=False)
        return dist

    def _landmark_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """L×V distance and predecessor matrices from every landmark."""
        if self._ldist is None:
            if self._landmarks is None:
                raise RuntimeError("underlay was built without landmarks")
            dist, pred = csgraph.dijkstra(
                self._csr,
                directed=False,
                indices=self._landmarks,
                return_predecessors=True,
            )
            self._ldist = dist
            self._lpred = pred.astype(np.int32, copy=False)
        return self._ldist, self._lpred

    def _local_row(self, router: int) -> tuple[np.ndarray, np.ndarray]:
        """(dist, pred) of a Dijkstra truncated at ``local_horizon_ms``.

        Entries beyond the horizon are ``inf``; entries within it are the
        exact shortest-path distances.  Exploration stops at the horizon,
        so cost scales with the neighborhood, not with V.
        """
        cached = self._local_rows.get(router)
        if cached is not None:
            self._local_rows.move_to_end(router)
            return cached
        dist, pred = csgraph.dijkstra(
            self._csr,
            directed=False,
            indices=router,
            return_predecessors=True,
            limit=self.local_horizon_ms,
        )
        self._local_rows[router] = (dist, pred)
        if len(self._local_rows) > self._row_cap:
            self._local_rows.popitem(last=False)
        return dist, pred

    def _approx_distance(self, r_a: int, r_b: int) -> tuple[float, int]:
        """(estimate, landmark-or--1): the hybrid upper bound.

        ``-1`` means the bounded local search found the (exact) path;
        otherwise the returned landmark index is the detour hub.
        """
        if r_a == r_b:
            return 0.0, -1
        local, _ = self._local_row(r_a)
        local_d = float(local[r_b])
        ldist, _ = self._landmark_rows()
        sums = ldist[:, r_a] + ldist[:, r_b]
        best = int(np.argmin(sums))
        land_d = float(sums[best])
        if local_d <= land_d:
            return local_d, -1
        return land_d, best

    # -- router-level queries -------------------------------------------------

    def router_distance(self, r_a: int, r_b: int) -> float:
        """Shortest-path delay between two routers (estimate in landmark
        mode — an upper bound within the declared ``error_bound``)."""
        if self._approx:
            est, _ = self._approx_distance(r_a, r_b)
            if not np.isfinite(est):
                raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
            return est
        dist, _ = self._row(r_a)
        value = float(dist[r_b])
        if not np.isfinite(value):
            raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
        return value

    def _walk_pred(self, pred: np.ndarray, source: int, target: int) -> list[int]:
        path = [target]
        node = target
        while node != source:
            node = int(pred[node])
            path.append(node)
        path.reverse()
        return path

    def router_path(self, r_a: int, r_b: int) -> list[int]:
        """One shortest router path (in landmark mode: the concatenated
        ``a → best-landmark → b`` route the estimate corresponds to)."""
        if self._approx:
            if r_a == r_b:
                return [r_a]
            est, best = self._approx_distance(r_a, r_b)
            if not np.isfinite(est):
                raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
            if best < 0:  # the bounded local search found the exact path
                _, lpred_local = self._local_row(r_a)
                return self._walk_pred(lpred_local, r_a, r_b)
            _, lpred = self._landmark_rows()
            landmark = int(self._landmarks[best])
            to_a = self._walk_pred(lpred[best], landmark, r_a)  # l .. a
            to_b = self._walk_pred(lpred[best], landmark, r_b)  # l .. b
            return list(reversed(to_a)) + to_b[1:]
        dist, pred = self._row(r_a)
        if not np.isfinite(dist[r_b]):
            raise nx.NetworkXNoPath(f"no route between routers {r_a} and {r_b}")
        return self._walk_pred(pred, r_a, r_b)

    # -- host-level queries ---------------------------------------------------

    def delay_ms(self, a: int, b: int) -> float:
        drows = self._drows
        if drows is not None:
            # Resident regime: one subscript into a host-delay row list.
            try:
                ia = self._host_idx[a]
                ib = self._host_idx[b]
            except KeyError as exc:
                raise KeyError(f"unknown host {exc.args[0]!r}") from None
            row = drows[ia]
            if row is None:
                row = drows[ia] = self._host_delays(a).tolist()
            value = row[ib]
            if value == _INF:
                raise nx.NetworkXNoPath(
                    f"no route between routers {self.attachments[a]} "
                    f"and {self.attachments[b]}"
                )
            return value
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
            # Exact left-to-right association of the lazy oracle.
            value = self._access_delay[a] + base + self._access_delay[b]
        if len(self._delay_cache) >= _PAIR_MEMO_CAP:
            self._delay_cache.clear()
        self._delay_cache[key] = value
        return value

    def delay_row(self, a: int) -> list[float] | None:
        if not self._ids_are_indices:
            return None
        self.validate_host(a)
        if self._drows is not None:
            row = self._drows[a]
            if row is None:
                row = self._drows[a] = self._host_delays(a).tolist()
        else:
            row = self._hrows.get(a)
            if row is not None:
                self._hrows.move_to_end(a)
            else:
                row = self._hrows[a] = self._host_delays(a).tolist()
                if len(self._hrows) > self._hrow_cap:
                    self._hrows.popitem(last=False)
        if self._any_unreachable and max(row) == _INF:
            return None  # unreachable pairs: callers fall back to delay_ms
        return row

    def _host_delays(self, a: int) -> np.ndarray:
        """Host ``a``'s one-way delays to every host, in host-index order."""
        r_a = self.attachments[a]
        if self._approx:
            ldist, _ = self._landmark_rows()
            cols = self._host_cols()
            land = np.min(ldist[:, [r_a]] + ldist[:, cols], axis=0)
            local, _ = self._local_row(r_a)
            base = np.minimum(land, local[cols])
            # Same-router pairs are exactly 0 in delay_ms; keep the row
            # consistent with the per-pair estimate.
            base[cols == r_a] = 0.0
        else:
            base = self.router_dist_row(r_a)[self._host_cols()]
        # Elementwise ``(acc_a + base) + acc_b`` — the lazy association.
        values = (self._access_delay[a] + base) + self._acc_array()
        values[self._host_idx[a]] = 0.0
        return values

    def _host_cols(self) -> np.ndarray:
        cols = getattr(self, "_host_cols_cache", None)
        if cols is None:
            cols = np.fromiter(
                (self.attachments[h] for h in self._hosts),
                dtype=np.intp,
                count=len(self._hosts),
            )
            self._host_cols_cache = cols
        return cols

    def _acc_array(self) -> np.ndarray:
        acc = getattr(self, "_acc_cache", None)
        if acc is None:
            acc = np.fromiter(
                (self._access_delay[h] for h in self._hosts),
                dtype=np.float64,
                count=len(self._hosts),
            )
            self._acc_cache = acc
        return acc

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
        if len(self._path_cache) >= _PAIR_MEMO_CAP:
            self._path_cache.clear()
        self._path_cache[key] = links
        return links

    def path_error(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._error_cache.get(key)
        if cached is not None:
            return cached
        if self._zero_error:
            self.validate_host(a)
            self.validate_host(b)
            value = 0.0 if a == b else self._compute_path_error(self.path_links(a, b))
        else:
            value = self._compute_path_error(self.path_links(a, b))
        if len(self._error_cache) >= _PAIR_MEMO_CAP:
            self._error_cache.clear()
        self._error_cache[key] = value
        return value

    def _edge_value(self, matrix: sp.csr_matrix, u: int, v: int) -> float:
        start, stop = matrix.indptr[u], matrix.indptr[u + 1]
        cols = matrix.indices[start:stop]
        pos = int(np.searchsorted(cols, v))
        if pos >= cols.size or cols[pos] != v:
            raise KeyError(f"no router link between {u} and {v}")
        return float(matrix.data[start + pos])

    def link_delay(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_delay[payload[0]]
        if kind == "router" and len(payload) == 2:
            u, v = payload
            try:
                return self._edge_value(self._csr, u, v)
            except (KeyError, IndexError):
                raise KeyError(f"unknown link id {link!r}") from None
        raise KeyError(f"unknown link id {link!r}")

    def link_error(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_error[payload[0]]
        if kind == "router" and len(payload) == 2:
            self.link_delay(link)  # unknown router links raise KeyError
            if self._err_csr is None:
                return 0.0
            # Error triplets share the delay triplets' sparsity pattern.
            return self._edge_value(self._err_csr, *payload)
        raise KeyError(f"unknown link id {link!r}")

    # -- artifact round-trip --------------------------------------------------

    def to_artifact(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` for :func:`repro.util.artifacts.store_artifact`.

        Stores the CSR *triplets* (upper triangle only), attachments,
        access links, domains and — when present — the precomputed
        landmark matrices (sharded automatically when large).  No O(V²)
        array is ever written.
        """
        coo = sp.triu(self._csr).tocoo()
        hosts = self._hosts
        arrays: dict[str, np.ndarray] = {
            "edge_u": coo.row.astype(np.int64),
            "edge_v": coo.col.astype(np.int64),
            "edge_delay": coo.data.astype(np.float64),
            "hosts": np.asarray(hosts, dtype=np.int64),
            "host_router": np.asarray(
                [self.attachments[h] for h in hosts], dtype=np.int64
            ),
            "access_delay": np.asarray([self._access_delay[h] for h in hosts]),
            "access_error": np.asarray([self._access_error[h] for h in hosts]),
        }
        if self._err_csr is not None:
            ecoo = sp.triu(self._err_csr).tocoo()
            arrays["edge_error_u"] = ecoo.row.astype(np.int64)
            arrays["edge_error_v"] = ecoo.col.astype(np.int64)
            arrays["edge_error"] = ecoo.data.astype(np.float64)
        if self._router_domain is not None:
            arrays["router_domain"] = self._router_domain
        if self._landmarks is not None:
            arrays["landmarks"] = self._landmarks
            ldist, lpred = self._landmark_rows()
            arrays["landmark_dist"] = ldist
            arrays["landmark_pred"] = lpred
        meta = {
            "kind": "sparse-router",
            "schema": SPARSE_SCHEMA,
            "n_routers": self.n_routers,
            "zero_error": self._zero_error,
            "error_bound": self.error_bound,
            "local_horizon_ms": self.local_horizon_ms,
        }
        return arrays, meta

    @classmethod
    def from_artifact(cls, artifact: Artifact) -> "SparseUnderlay":
        """Rebuild a sparse underlay from cached (memory-mapped) arrays."""
        meta = artifact.meta
        if meta.get("kind") != "sparse-router" or meta.get("schema") != SPARSE_SCHEMA:
            raise ValueError(
                f"artifact {artifact.key[:12]}… is not a sparse router "
                f"underlay of schema {SPARSE_SCHEMA}"
            )
        arrays = artifact.arrays
        hosts = arrays["hosts"].tolist()
        attachments = dict(zip(hosts, arrays["host_router"].tolist()))
        edge_error = None
        if "edge_error" in arrays:
            # Error triplets share the delay triplets' (u, v) pairs; both
            # are canonical upper-triangle COO of the same graph.
            edge_error = np.asarray(arrays["edge_error"])
        self = cls(
            int(meta["n_routers"]),
            np.asarray(arrays["edge_u"]),
            np.asarray(arrays["edge_v"]),
            np.asarray(arrays["edge_delay"]),
            attachments,
            access_delay_ms=dict(zip(hosts, arrays["access_delay"].tolist())),
            access_error=dict(zip(hosts, arrays["access_error"].tolist())),
            edge_error=edge_error,
            router_domain=(
                np.asarray(arrays["router_domain"])
                if "router_domain" in arrays
                else None
            ),
            landmarks=(
                np.asarray(arrays["landmarks"]) if "landmarks" in arrays else None
            ),
            error_bound=float(meta.get("error_bound", 2.0)),
            local_horizon_ms=float(meta.get("local_horizon_ms", 60.0)),
        )
        if "landmark_dist" in arrays:
            self._ldist = np.asarray(arrays["landmark_dist"])
            self._lpred = np.asarray(arrays["landmark_pred"])
        return self
