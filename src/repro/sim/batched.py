"""Batched multi-replication engine (PR 6).

The scalar stack (:mod:`repro.sim.engine` + :mod:`repro.protocols.base` +
:mod:`repro.sim.session`) executes one Python callback per event: every
control message allocates a closure, a ``Message`` dataclass, and usually
an :class:`~repro.sim.engine.Event`, and every delivery walks several
layers of runtime dispatch.  A ``paper``-preset sweep pays that
interpreter cost 32 times over for 32 independent replications of the
same recipe.  This module removes the per-event object machinery for the
dominant workload — plain VDM sessions without faults, probe noise, or
refinement — while keeping the scalar engine as the bit-exactness oracle.

How the speedup is obtained
---------------------------
* **Lean op tuples instead of callbacks.**  Each replication runs a
  private event heap of ``(time, priority, seq, op, payload)`` tuples.
  ``seq`` mirrors the scalar simulator's sequence counter one for one
  (every scalar ``schedule*`` call has exactly one counterpart here), so
  tuple comparison — and therefore event order — is identical to the
  scalar engine's ``(time, priority, seq)`` key.  No ``Event``, closure,
  or ``Message`` object is allocated on the hot path; the continuation
  state a scalar closure would capture rides in the payload tuple.
* **Timeout elision.**  The scalar runtime schedules a cancellable
  timeout for *every* request and cancels it when the reply lands.  Under
  the envelope below (``2 x max one-way delay`` strictly below the
  timeout), a timeout can only ever *fire* a state change when its target
  was dead at send or at request-delivery time; all other timeouts are
  either cancelled or guarded into no-ops (``fire_timeout`` checks the
  requester is alive, and every ``on_timeout`` continuation checks its
  join process is neither cancelled nor finished).  The batched engine
  therefore consumes the timeout's sequence number when the scalar engine
  would, but only materializes a heap entry in the two cases that can
  act.  ``events_processed`` diverges (skipped timeouts never pop), which
  is output-neutral: its only consumer is the agent-RNG spawn key, and a
  plain VDM agent (``case3_selection="closest"``) never draws that RNG.
* **Cell-level sharing.**  All replications of one sweep cell share the
  underlay plus lazily materialized per-source delay/RTT rows
  (:class:`BatchedCell`), instead of re-deriving them per replication.
* **No invariant checker.**  The checker is a pure observer (it schedules
  nothing and draws no RNG), so dropping it cannot change results on
  violation-free runs — and a violating run is a bug either way.

* **Fused tree + ledger state.**  The scalar stack layers
  :class:`~repro.protocols.base.TreeRegistry` (pointer maintenance, one
  listener dispatch per mutation) under
  :class:`~repro.sim.delivery.DeliveryAccountant` (a second subtree
  traversal per mutation, plus per-node ``IntervalSet``/dataclass
  machinery per measurement window).  Here both are *mirrored flat*: one
  traversal per tree mutation updates reachability, depth, and the
  per-node delivery ledger together, and the measurement window math runs
  as one inlined pass over plain float-pair lists.  The envelope requires
  ``underlay.zero_error`` so every segment's path success is exactly
  ``1.0`` — multiplying by which is the float identity, so dropping the
  stored success changes no bit.  Interval merge rules, fragment
  boundaries, accumulation order (ledger dicts keep scalar insertion
  order), and every ``max``/``min``/compare are copied from
  :mod:`repro.util.intervals` / :mod:`repro.sim.delivery` /
  :mod:`repro.metrics.collectors` operation for operation.

What stays real
---------------
:class:`~repro.sim.churn.SlottedChurnModel`,
:func:`~repro.sim.session.draw_degree`,
:class:`~repro.metrics.report.MeasurementRecord`, and
:class:`~repro.protocols.base.JoinRecord` are reused as-is.  All RNG
streams (:func:`~repro.util.rngtools.spawn_rng` keyed exactly as the
session spawns them) are consumed in the same order, so results match the
serial and parallel harness paths bit for bit.  ``REPRO_BATCHED_REPS=0``
(:func:`repro.util.envflags.batched_reps`) disables the batched path
entirely and is the ablation oracle the byte-identity CI step runs.

Sessions outside the envelope raise :class:`BatchedUnsupported`; the
harness (:mod:`repro.harness.batchrun`) catches it and falls back to the
scalar path, so enabling batching is always safe.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import Counter

import numpy as np

from repro.core.vdm import VDMConfig
from repro.metrics.collectors import (
    HopcountStats,
    ResourceUsage,
    StressStats,
    StretchStats,
    TreeMetrics,
)
from repro.metrics.report import MeasurementRecord
from repro.protocols.base import JoinRecord
from repro.sim.churn import SlottedChurnModel
from repro.sim.delivery import NodeDeliveryStats
from repro.sim.faults import resolve_fault_plan
from repro.sim.session import SessionConfig, SessionResult, draw_degree
from repro.util.rngtools import spawn_rng

__all__ = ["BatchedUnsupported", "BatchedCell"]


class BatchedUnsupported(Exception):
    """The session falls outside the batched engine's exactness envelope.

    Raised before any simulation state is touched; callers fall back to
    the scalar engine, which handles every configuration.
    """


# Op codes for the per-replication heap.  ``seq`` is unique per heap, so
# tuple comparison never reaches the op — the codes only drive dispatch.
_OP_JOIN = 0
_OP_LEAVE = 1
_OP_SLOT = 2
_OP_MEASURE = 3
_OP_TELL = 4
_OP_INFO_REQ = 5
_OP_INFO_REPLY = 6
_OP_PROBE_REQ = 7
_OP_PROBE_REPLY = 8
_OP_CONN_REQ = 9
_OP_CONN_REPLY = 10
_OP_TIMEOUT_RESTART = 11
_OP_TIMEOUT_PROBE = 12
_OP_DECIDE = 13
_OP_FREE_READ = 14
_OP_DECIDE_MID = 15

# Tell kinds (mirror the scalar message vocabulary that survives the
# envelope: LeaveNotice / ChildRemove / ParentChange / GrandparentChange).
_TELL_LEAVE = 0
_TELL_CHILD_REMOVE = 1
_TELL_PARENT_CHANGE = 2
_TELL_GP_CHANGE = 3

#: Safety margin (seconds) on the timeout envelope: the reply lands at
#: ``(t0 + d) + d`` and the timeout at ``t0 + timeout_s``, so equality
#: would need ``timeout_s - 2d`` to vanish under the rounding of two
#: additions near ``t0``.  At simulation horizons up to 1e6 s an ulp is
#: ~1e-10 s; a millisecond of slack is astronomically conservative.
_TIMEOUT_MARGIN_S = 1e-3


class _Agent:
    """Mirror of :class:`~repro.protocols.base.OverlayAgent` state.

    Only the fields the envelope can reach: no refinement timer, no
    per-agent RNG (never drawn by plain VDM), no foster state.  The
    agent carries direct references to its (static, cell-shared) delay
    and RTT rows so the hot send/decide paths index a list instead of
    going through the cell's row-cache lookup per message.
    """

    __slots__ = (
        "degree_limit",
        "parent",
        "grandparent",
        "children",
        "proc",
        "sec",
        "rtt",
        "csort",
    )

    def __init__(
        self, degree_limit: int, sec: list[float], rtt: list[float]
    ) -> None:
        self.degree_limit = degree_limit
        self.parent: int | None = None
        self.grandparent: int | None = None
        #: child id -> virtual distance measured when the child connected.
        self.children: dict[int, float] = {}
        self.proc: _Join | None = None
        self.sec = sec  # one-way delay row of this node, in seconds
        self.rtt = rtt  # RTT row of this node (the sigma=0 virtual distance)
        #: memo of ``sorted(children.items())`` — reset to None at every
        #: children mutation, rebuilt lazily by ``_child_info``.
        self.csort: list[tuple[int, float]] | None = None


class _Join:
    """Mirror of :class:`~repro.protocols.base.JoinProcess` bookkeeping.

    The probe-round state a scalar closure would capture
    (results/outstanding) travels in the op payloads instead, exactly
    like the closures carry it per round.
    """

    __slots__ = (
        "node",
        "agent",
        "kind",
        "started_at",
        "iterations",
        "restarts",
        "cancelled",
        "finished",
    )

    def __init__(self, node: int, agent: _Agent, kind: str, started_at: float) -> None:
        self.node = node
        self.agent = agent
        self.kind = kind
        self.started_at = started_at
        self.iterations = 0
        self.restarts = 0
        self.cancelled = False
        self.finished = False


class BatchedCell:
    """Shared per-sweep-cell state: one underlay, many replications.

    Validates the underlay/protocol half of the exactness envelope once;
    per-config checks happen in :meth:`check_config`.  The delay and RTT
    row caches are shared by every replication run through this cell.
    """

    def __init__(self, underlay, vdm_config: VDMConfig | None = None) -> None:
        config = vdm_config if vdm_config is not None else VDMConfig()
        if config.case3_selection != "closest":
            raise BatchedUnsupported(
                "random Case III selection draws the agent RNG"
            )
        if config.foster_child:
            raise BatchedUnsupported("foster-child quick start not emulated")
        if config.refine_period_s is not None:
            raise BatchedUnsupported("refinement not emulated")
        self.underlay = underlay
        self.vdm_config = config
        self.hosts = list(underlay.hosts)
        if not self.hosts:
            raise BatchedUnsupported("underlay has no hosts")
        if underlay.delay_row(self.hosts[0]) is None:
            raise BatchedUnsupported(
                "underlay has no host-indexed delay rows"
            )
        if not getattr(underlay, "zero_error", False):
            raise BatchedUnsupported(
                "underlay carries link errors; loss accounting needs the "
                "scalar accountant's per-hop success products"
            )
        max_delay = -math.inf
        min_delay = math.inf
        for host in self.hosts:
            row = underlay.delay_row(host)
            if row is None:
                raise BatchedUnsupported("underlay delay rows are partial")
            max_delay = max(max_delay, max(row))
            min_delay = min(min_delay, min(row))
        if not math.isfinite(max_delay) or min_delay < 0:
            raise BatchedUnsupported("underlay delays must be finite and >= 0")
        self._max_delay_ms = max_delay
        #: per-source one-way delay rows in *seconds* (``delay_ms/1000``,
        #: the exact elementwise op the scalar runtime applies per send).
        self._sec_rows: dict[int, list[float]] = {}
        #: per-source RTT rows (``2*delay_ms`` — doubling only bumps the
        #: float64 exponent, matching ``Underlay.rtt_ms`` bit for bit).
        self._rtt_rows: dict[int, list[float]] = {}
        #: raw ``delay_row`` objects (the exact lists the scalar metric
        #: collector indexes) and physical-path link tuples, both static
        #: per underlay and therefore shared by every replication.
        self._raw_rows: dict[int, list[float]] = {}
        self._links: dict[tuple[int, int], tuple] = {}

    # -- envelope ------------------------------------------------------------

    def check_config(self, cfg: SessionConfig) -> None:
        """Raise :class:`BatchedUnsupported` unless ``cfg`` is emulated exactly."""
        if cfg.measurement_noise_sigma != 0.0:
            raise BatchedUnsupported("probe noise draws the shared noise RNG")
        if cfg.refine_period_s is not None:
            raise BatchedUnsupported("refinement not emulated")
        if cfg.failover != "reactive":
            raise BatchedUnsupported("precomputed failover not emulated")
        plan = resolve_fault_plan(cfg.faults)
        if plan is not None and not plan.is_noop():
            raise BatchedUnsupported("fault plans not emulated")
        timeout_s = cfg.timeout_ms / 1000.0
        if not 2.0 * (self._max_delay_ms / 1000.0) < timeout_s - _TIMEOUT_MARGIN_S:
            raise BatchedUnsupported(
                "timeout elision needs 2*max_delay strictly below timeout_ms"
            )

    # -- shared row caches -----------------------------------------------------

    def sec_row(self, a: int) -> list[float]:
        row = self._sec_rows.get(a)
        if row is None:
            base = np.asarray(self.underlay.delay_row(a), dtype=np.float64)
            row = self._sec_rows[a] = (base / 1000.0).tolist()
        return row

    def rtt_row(self, a: int) -> list[float]:
        row = self._rtt_rows.get(a)
        if row is None:
            base = np.asarray(self.underlay.delay_row(a), dtype=np.float64)
            row = self._rtt_rows[a] = (2.0 * base).tolist()
        return row

    def raw_row(self, a: int) -> list[float]:
        row = self._raw_rows.get(a)
        if row is None:
            row = self._raw_rows[a] = self.underlay.delay_row(a)
        return row

    def links(self, a: int, b: int) -> tuple:
        key = (a, b)
        links = self._links.get(key)
        if links is None:
            links = self._links[key] = self.underlay.path_links(a, b)
        return links

    # -- running ------------------------------------------------------------

    def run_session(self, cfg: SessionConfig) -> SessionResult:
        """Run one replication; result matches ``MulticastSession.run()``.

        ``runtime`` is ``None`` in the returned result: the metric
        extractors consume records/join_records/config/accountant only.
        """
        self.check_config(cfg)
        return _Emulator(self, cfg).run()


class _Emulator:
    """One replication's event loop; mirrors ``MulticastSession`` + the
    protocol runtime for the envelope's message flows, seq for seq."""

    def __init__(self, cell: BatchedCell, cfg: SessionConfig) -> None:
        self.cell = cell
        self.cfg = cfg
        hosts = cell.hosts
        if len(hosts) < cfg.n_nodes + 1:
            raise ValueError(
                f"underlay has {len(hosts)} hosts; need at least "
                f"{cfg.n_nodes + 1} (members + source)"
            )
        # RNG streams spawned exactly as MulticastSession.__init__ does.
        self._rng_membership = spawn_rng(cfg.seed, "membership")
        self._rng_degrees = spawn_rng(cfg.seed, "degrees")
        if cfg.source_host is not None:
            cell.underlay.validate_host(cfg.source_host)
            self.source = cfg.source_host
        else:
            self.source = int(
                hosts[int(self._rng_membership.integers(len(hosts)))]
            )
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []
        self._timeout_s = cfg.timeout_ms / 1000.0
        # Flat mirror of TreeRegistry state (source pre-registered exactly
        # as TreeRegistry.__init__ does) ...
        self.parent: dict[int, int | None] = {self.source: None}
        self.kidsets: dict[int, set[int]] = {self.source: set()}
        self._reachable: set[int] = {self.source}
        self._depth: dict[int, int] = {self.source: 0}
        # ... and of the delivery ledger: node -> [lifetime intervals,
        # lifetime open-start, reachable intervals, reachable open-start,
        # closed segments, segment open-start, then one window cursor per
        # interval list].  Dict insertion order matches the scalar
        # accountant's ledger (entries are created at the same refresh),
        # which fixes the accumulation order of every windowed float sum.
        # The cursors skip intervals that ended at or before the previous
        # measure: windows only move forward and a skipped interval clips
        # to nothing (``hi <= lo`` adds no term), so the sums keep every
        # bit.  A passed interval can never merge-extend later — merging
        # needs a reopen at or before its end, and post-measure events are
        # strictly after the measure time.
        self._led: dict[int, list] = {}
        self._rate = float(cfg.chunk_rate)
        self.agents: dict[int, _Agent] = {}
        self._alive: set[int] = set()
        self._active: set[int] = set()
        self._pool = [h for h in hosts if h != self.source]
        self._pool_set = set(self._pool)
        #: single control-message total (the scalar runtime counts per
        #: class; measurements consume only the sum).
        self.control = 0
        self.join_records: list[JoinRecord] = []
        self._records: list[MeasurementRecord] = []
        self._last_measure_time = 0.0
        self._last_control_count = 0
        # Same constructor (and so the same "churn" spawn stream) as the
        # scalar session — the churn draws must be identical call for call.
        self._churn = SlottedChurnModel.from_config(cfg)
        # Source registration (mirrors _register_source: the degree draw
        # consumes the degrees stream unless source_degree pins it).
        degree = cfg.source_degree
        if degree is None:
            degree = draw_degree(cfg.degree, self._rng_degrees)
        self.agents[self.source] = _Agent(
            int(degree), cell.sec_row(self.source), cell.rtt_row(self.source)
        )
        self._alive.add(self.source)
        #: per-node ``sorted(kids, reverse=True)`` memo for the metric
        #: collector, invalidated at every kid-set mutation.
        self._skids: dict[int, list[int]] = {}
        # Scheduling knowledge for the probe-round fast path: churn is
        # slotted, so every leave inside the current slot is already in
        # the heap — ``_death_at`` maps node -> its pending leave time,
        # ``_horizon`` is the next slot boundary (beyond it, aliveness is
        # not yet drawn), and ``_next_measure`` is the next measurement
        # instant (the only reader of the control counter).  All three
        # are maintained by ``_run_slot`` / ``_do_leave`` / ``_measure``.
        self._death_at: dict[int, float] = {}
        self._horizon = math.inf
        self._next_measure = math.inf
        self._mtimes: list[float] = []
        self._mt_i = 0
        # Incrementally maintained link-stress multiset: exactly the
        # physical links under every reachable tree edge, as integer
        # counts (zero entries deleted).  The metric collector's stress
        # stats (sum/len/max over int counts) are order-free, so counting
        # edges at reachability flips instead of walking them per measure
        # is bit-exact.  ``_cedge`` remembers the link tuple counted for
        # each node, which makes uncounting immune to parent mutations
        # that happen before the uncount.
        self._lstress: Counter = Counter()
        self._cedge: dict[int, tuple] = {}
        self._links = cell._links  # the cell-wide physical-path memo

    # Virtual distance with sigma=0 is exactly ``underlay.rtt_ms(a, b)``:
    # every site below indexes ``agent.rtt`` (the cell's shared RTT row).

    # -- fused tree + delivery-ledger mirror -----------------------------------
    #
    # These methods replace TreeRegistry mutations plus the delivery
    # accountant's listener with ONE traversal per mutation.  Ledger
    # fragment boundaries are preserved exactly: the scalar accountant
    # closes and reopens every subtree member's segment at each
    # attach/orphan/reparent in its ancestry, and those fragment edges
    # change the windowed float sums, so the mirror fragments at the very
    # same times.  Re-emits at an unchanged timestamp (insert's per-child
    # reparent events after the node's own attach) are provable no-ops
    # (``t > start`` fails) and are skipped.

    def _is_descendant(self, node: int, ancestor: int) -> bool:
        """Mirror of ``TreeRegistry.is_descendant`` (incremental branch).

        Same booleans, fewer walks: a depth entry exists iff the node is
        reachable, a reachable node's whole ancestry is reachable (and an
        unreachable node's is unreachable — refreshes run inside every
        mutation, so the invariant holds whenever this is called), and a
        node absent from the parent map is never anyone's parent.  So
        mixed reachability answers False without the scalar fallback's
        full chain walk, which only remains for the unreachable/
        unreachable pair.
        """
        if node == ancestor:
            return False
        depth = self._depth
        dn = depth.get(node)
        da = depth.get(ancestor)
        if dn is not None:
            if da is None or dn <= da:
                return False
            parent = self.parent
            cur = node
            for _ in range(dn - da):
                cur = parent[cur]
            return cur == ancestor
        if da is not None:
            return False
        parent = self.parent
        if ancestor not in parent:
            return False
        cur = parent.get(node)
        steps = 0
        limit = len(parent)
        while cur is not None and steps <= limit:
            if cur == ancestor:
                return True
            cur = parent.get(cur)
            steps += 1
        return False

    def _count_edge(self, node: int, parent_id: int) -> None:
        # Inlined cell.links memo (shared across the cell's replications)
        # plus a C-speed Counter.update for the per-link increments.
        key = (parent_id, node)
        tup = self._links.get(key)
        if tup is None:
            tup = self._links[key] = self.cell.underlay.path_links(parent_id, node)
        self._cedge[node] = tup
        self._lstress.update(tup)

    def _uncount_edge(self, node: int) -> None:
        tup = self._cedge.pop(node, None)
        if tup is None:
            return
        counts = self._lstress
        pop = counts.pop  # dict.pop — skips Counter's Python __delitem__
        for link in tup:
            c = counts[link] - 1
            if c:
                counts[link] = c
            else:
                pop(link)

    def _refresh_combined(self, root: int, t: float) -> None:
        """One subtree pass: reachability + depth + ledger refresh.

        Mirrors ``TreeRegistry._refresh_subtree`` fused with
        ``DeliveryAccountant._on_tree_event``/``_refresh``.  A subtree
        shares its root's reachability (every member routes through the
        root), so the branch is picked once.  Traversal order within the
        subtree is free: per-node ledger state depends only on that
        node's transition times, and new ledger entries can only be the
        event's root (members were refreshed at their own earlier
        attach), so dict insertion order matches the scalar preorder.
        """
        parent = self.parent
        kidsets = self.kidsets
        reach_set = self._reachable
        depth_map = self._depth
        led_map = self._led
        up = parent.get(root)
        if up is not None and up in reach_set:
            kids = kidsets[root]
            if not kids:  # leaf fast path: the common single-node refresh
                reach_set.add(root)
                depth_map[root] = depth_map[up] + 1
                led = led_map.get(root)
                if led is None:
                    led = led_map[root] = [[], None, [], None, [], None, 0, 0, 0, 0, 0]
                if led[1] is None:
                    led[1] = t
                if led[3] is None:
                    led[3] = t
                s = led[5]
                if s is not None and t > s:
                    led[4].append((s, t))
                led[5] = t
                led[9] = 0  # wake a dormant rejoiner
                led[10] = 0  # windows disturbed: drop the steady-state flag
                if root not in self._cedge:
                    self._count_edge(root, up)
                return
            cedge = self._cedge
            stack = [(root, depth_map[up] + 1, up)]
            while stack:
                node, d, p = stack.pop()
                reach_set.add(node)
                depth_map[node] = d
                if node not in cedge:
                    self._count_edge(node, p)
                led = led_map.get(node)
                if led is None:
                    led = led_map[node] = [[], None, [], None, [], None, 0, 0, 0, 0, 0]
                if led[1] is None:  # lifetime.open (no-op when open)
                    led[1] = t
                if led[3] is None:  # reachable.open (no-op when open)
                    led[3] = t
                s = led[5]  # open_new: close fragment, reopen at t
                if s is not None and t > s:
                    led[4].append((s, t))
                led[5] = t
                led[9] = 0  # wake a dormant rejoiner
                led[10] = 0  # windows disturbed: drop the steady-state flag
                dn = d + 1
                for child in kidsets[node]:
                    stack.append((child, dn, node))
        else:
            stack = [root]
            while stack:
                node = stack.pop()
                reach_set.discard(node)
                depth_map.pop(node, None)
                self._uncount_edge(node)
                led = led_map.get(node)
                if led is None:
                    led = led_map[node] = [[], None, [], None, [], None, 0, 0, 0, 0, 0]
                led[10] = 0  # windows disturbed: drop the steady-state flag
                s = led[5]  # close_segment
                if s is not None:
                    if t > s:
                        led[4].append((s, t))
                    led[5] = None
                o = led[3]  # reachable.close (merge like IntervalSet._append)
                if o is not None:
                    if t > o:
                        iv = led[2]
                        if iv and o <= iv[-1][1]:
                            ps, pe = iv[-1]
                            iv[-1] = (ps, pe if pe >= t else t)
                        else:
                            iv.append((o, t))
                    led[3] = None
                stack.extend(kidsets[node])

    def _maint_subtree(self, root: int) -> None:
        """Reachability/depth-only subtree refresh (no ledger updates).

        Used for the one insert shape whose scalar counterpart refreshes
        maintained state without an accountant event for the subtree root
        (``old parent == new parent``).
        """
        parent = self.parent
        kidsets = self.kidsets
        reach_set = self._reachable
        depth_map = self._depth
        up = parent.get(root)
        if up is not None and up in reach_set:
            cedge = self._cedge
            stack = [(root, depth_map[up] + 1, up)]
            while stack:
                node, d, p = stack.pop()
                reach_set.add(node)
                depth_map[node] = d
                if node not in cedge:
                    self._count_edge(node, p)
                dn = d + 1
                for child in kidsets[node]:
                    stack.append((child, dn, node))
        else:
            stack = [root]
            while stack:
                node = stack.pop()
                reach_set.discard(node)
                depth_map.pop(node, None)
                self._uncount_edge(node)
                stack.extend(kidsets[node])

    def _tree_attach(self, node: int, parent_id: int, t: float) -> None:
        self._uncount_edge(node)
        self.parent[node] = parent_id
        if node not in self.kidsets:
            self.kidsets[node] = set()
        self.kidsets[parent_id].add(node)
        self._skids.pop(parent_id, None)
        self._refresh_combined(node, t)

    def _tree_reparent(self, node: int, new_parent: int, t: float) -> None:
        old = self.parent[node]
        if new_parent == old:
            return
        self._uncount_edge(node)
        self.kidsets[old].discard(node)
        self.parent[node] = new_parent
        self.kidsets[new_parent].add(node)
        skids = self._skids
        skids.pop(old, None)
        skids.pop(new_parent, None)
        self._refresh_combined(node, t)

    def _tree_insert(
        self, node: int, parent_id: int, adopt: tuple[int, ...], t: float
    ) -> None:
        parent = self.parent
        kidsets = self.kidsets
        skids = self._skids
        self._uncount_edge(node)
        old = parent.get(node)
        if old is not None:
            kidsets[old].discard(node)
            skids.pop(old, None)
        parent[node] = parent_id
        kids = kidsets.get(node)
        if kids is None:
            kids = kidsets[node] = set()
        kidsets[parent_id].add(node)
        skids.pop(parent_id, None)
        if adopt:
            skids.pop(node, None)
            for child in adopt:
                self._uncount_edge(child)
                kidsets[parent_id].discard(child)
                parent[child] = node
                kids.add(child)
        if old != parent_id:
            # Scalar emits attach/reparent for the node first; the later
            # per-adoptee reparent emits re-refresh at the same t — no-ops.
            self._refresh_combined(node, t)
        else:
            self._maint_subtree(node)
            for child in adopt:
                self._refresh_combined(child, t)

    def _tree_depart(self, node: int, t: float) -> None:
        parent = self.parent
        kidsets = self.kidsets
        up = parent.pop(node)
        if up is not None:
            kidsets[up].discard(node)
            self._skids.pop(up, None)
        orphans = kidsets.pop(node, ())
        self._skids.pop(node, None)
        self._reachable.discard(node)
        self._depth.pop(node, None)
        self._uncount_edge(node)
        for child in orphans:
            parent[child] = None
        for child in orphans:
            self._refresh_combined(child, t)
        # The departing node's own ledger closes last ("depart" is the
        # final emit in the scalar mutation).
        led = self._led.get(node)
        if led is not None:
            led[10] = 0  # windows disturbed: drop the steady-state flag
            s = led[5]
            if s is not None:
                if t > s:
                    led[4].append((s, t))
                led[5] = None
            o = led[3]
            if o is not None:
                if t > o:
                    iv = led[2]
                    if iv and o <= iv[-1][1]:
                        ps, pe = iv[-1]
                        iv[-1] = (ps, pe if pe >= t else t)
                    else:
                        iv.append((o, t))
                led[3] = None
            o = led[1]
            if o is not None:
                if t > o:
                    iv = led[0]
                    if iv and o <= iv[-1][1]:
                        ps, pe = iv[-1]
                        iv[-1] = (ps, pe if pe >= t else t)
                    else:
                        iv.append((o, t))
                led[1] = None

    # -- sends -----------------------------------------------------------------
    #
    # Heap entries are FLAT tuples ``(time, prio, seq, op, *fields)``.
    # ``seq`` is unique per heap, so tuple comparison never reads past
    # index 2 and the trailing fields are free to hold arbitrary payload
    # without a nested tuple allocation per event.

    def _tell(self, srow, src: int, dst: int, kind: int, a=None, b=None) -> None:
        """``srow`` is the sender's delay row (``agents[src].sec``)."""
        self.control += 1
        if dst not in self._alive:
            return
        d = srow[dst]
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (self.now + d, 0, seq, _OP_TELL, dst, src, kind, a, b)
        )

    def _send_info(self, proc: _Join, pivot: int) -> None:
        self.control += 1
        tseq = self._seq
        self._seq = tseq + 1
        ttime = self.now + self._timeout_s
        if pivot not in self._alive:
            heapq.heappush(
                self._heap, (ttime, 0, tseq, _OP_TIMEOUT_RESTART, proc)
            )
            return
        d = proc.agent.sec[pivot]
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self.now + d, 0, seq, _OP_INFO_REQ, proc, pivot, d, tseq, ttime),
        )

    def _send_conn(self, proc: _Join, target: int, adopt) -> None:
        """``adopt`` is ``None`` for attach, a tuple for insert."""
        self.control += 1
        tseq = self._seq
        self._seq = tseq + 1
        ttime = self.now + self._timeout_s
        if target not in self._alive:
            heapq.heappush(
                self._heap, (ttime, 0, tseq, _OP_TIMEOUT_RESTART, proc)
            )
            return
        d = proc.agent.sec[target]
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self.now + d, 0, seq, _OP_CONN_REQ, proc, target, adopt, d, tseq, ttime),
        )

    # -- agent state helpers -----------------------------------------------------

    def _child_info(self, agent: _Agent) -> tuple[tuple[int, float, int], ...]:
        """Mirror of ``OverlayAgent.child_info``: (id, dist, free) sorted."""
        agents = self.agents
        alive = self._alive
        items = agent.csort
        if items is None:
            items = agent.csort = sorted(agent.children.items())
        infos = []
        for child, dist in items:
            # An alive node always has an agent (registered at join), so
            # the scalar ``agents.get`` + alive check collapses to one
            # membership test.
            if child in alive:
                a = agents[child]
                infos.append((child, dist, a.degree_limit - len(a.children)))
            else:
                infos.append((child, dist, 0))
        return tuple(infos)

    # -- join process -------------------------------------------------------------

    def _start_join(self, node: int, agent: _Agent, kind: str, at: int) -> None:
        if agent.proc is not None:
            agent.proc.cancelled = True
            agent.proc = None
        proc = _Join(node, agent, kind, self.now)
        agent.proc = proc
        self._iterate(proc, at)

    def _iterate(self, proc: _Join, pivot: int) -> None:
        if proc.cancelled or proc.finished:
            return
        proc.iterations += 1
        if proc.iterations > 64:  # JoinProcess.MAX_ITERATIONS
            self._done(proc, False)
            return
        if pivot == proc.node:
            self._restart(proc)
            return
        self._send_info(proc, pivot)

    def _restart(self, proc: _Join) -> None:
        proc.restarts += 1
        if proc.restarts > 3:  # JoinProcess.MAX_RESTARTS
            self._done(proc, False)
            return
        self._iterate(proc, self.source)

    def _done(self, proc: _Join, succeeded: bool) -> None:
        if proc.finished:
            return
        proc.finished = True
        self.join_records.append(
            JoinRecord(
                node=proc.node,
                kind=proc.kind,
                started_at=proc.started_at,
                completed_at=self.now,
                succeeded=succeeded,
                iterations=proc.iterations,
            )
        )
        if proc.agent.proc is proc:
            proc.agent.proc = None
        # on_connected: a no-op for plain VDM.

    def _probe_children(self, proc: _Join, pivot: int, pivot_free: int, kids) -> None:
        me = proc.node
        if self.kidsets.get(me):
            # Only a joiner that kept a subtree through a parent loss can
            # have descendants among the pivot's children.
            is_descendant = self._is_descendant
            candidates = [
                ci for ci in kids if ci[0] != me and not is_descendant(ci[0], me)
            ]
        else:
            candidates = [ci for ci in kids if ci[0] != me]
        if not candidates:
            self._decide(proc, pivot, pivot_free, {})
            return
        now = self.now
        ttime = now + self._timeout_s
        # ---- precomputed round (the fast path) -------------------------------
        # A probe round's decision inputs are static except for two things:
        # which children answer (aliveness at each request's arrival) and
        # their fresh free degrees.  Aliveness is predictable — churn is
        # slotted, so inside the horizon a child dies exactly at its
        # already-scheduled leave time.  Everything else — the Case I/II/III
        # split over static distance rows, the reply/timeout terminal
        # times, the scalar ``sorted(results.items())`` order (candidates
        # are already in ascending child order) — is computed here at send
        # time, so the whole round collapses to ONE heap entry at the
        # instant the last terminal would have fired, where ``_decide_pre``
        # runs the decision against live agent state exactly as ``_decide``
        # would.  Control totals stay window-exact: replies are counted at
        # send, except those arriving after the next measurement, whose
        # count rides inside the DECIDE entry (the decide instant lies in
        # the same window as every such arrival whenever the timeout fits
        # between consecutive measurements — checked below).
        #
        # Rounds whose decision *would* read the probed free degrees
        # (pivot full, no Case III, at least one reply — the last-resort
        # branch of ``_decide``) take the middle path instead: aliveness
        # is still predicted, so the request/timeout legs are elided, and
        # one FREE_READ event per replying child samples its free degree
        # at exactly the scalar request-arrival instant (which is also
        # when the scalar runtime counts the reply and reads the free it
        # carries), with the terminal DECIDE_MID running ``_decide``'s
        # free-dependent tail over the collected samples.
        death_at = self._death_at
        dag = death_at.get
        horizon = self._horizon
        alive = self._alive
        srow = proc.agent.sec
        rtt = proc.agent.rtt
        tol = self.cell.vdm_config.tie_tolerance
        next_measure = self._next_measure
        # Every reply lands strictly before ``ttime`` (timeout-margin
        # envelope), so with the whole round in front of the next
        # measurement every reply counts at send; the per-arrival window
        # split below only runs for the rare straddling round.
        straddle = ttime > next_measure
        dist_to_pivot = rtt[pivot]
        case2: list[tuple[float, int]] = []
        case3: list[tuple[float, int]] = []
        n_reply = 0
        n_pre = 0  # replies arriving at or before the next measurement
        seq = self._seq
        last_tseq = -1  # tseq of the last elided timeout, if any
        best_d = -1.0
        best_seq = -1  # request seq of the chronologically last reply
        ok = True
        for child, d_pivot_child, _cfree in candidates:
            tseq = seq
            seq += 1
            if child not in alive:
                last_tseq = tseq
                continue
            d = srow[child]
            seq += 1
            check = now + d
            if check > horizon:
                ok = False
                break
            dt = dag(child)
            if dt is not None and dt <= check:
                # The leave beats the request: its event was pushed at
                # slot start (lower seq), so at ``check`` the child is
                # already gone and the scalar path re-arms the timeout.
                last_tseq = tseq
                continue
            n_reply += 1
            if straddle and check <= next_measure:
                n_pre += 1
            if d >= best_d:  # ties: the later candidate replies last
                best_d = d
                best_seq = tseq + 1
            d_new_child = rtt[child]
            longest = dist_to_pivot
            if d_pivot_child > longest:
                longest = d_pivot_child
            if d_new_child > longest:
                longest = d_new_child
            cut = longest - tol * (longest if longest >= 1.0 else 1.0)
            is_ne = d_new_child >= cut
            is_pe = d_pivot_child >= cut
            is_pn = dist_to_pivot >= cut
            if is_ne + is_pe + is_pn > 1 or is_ne:
                continue  # Case I
            if is_pe:
                case2.append((d_new_child, child))
            else:
                case3.append((d_new_child, child))
        if not straddle:
            n_pre = n_reply
        elif ok and n_pre < n_reply:
            # Post-measure replies ride in the terminal entry; that is
            # window-exact only if no second measurement can fall inside
            # the round.
            i = self._mt_i + 1
            mt = self._mtimes
            if i < len(mt) and ttime > mt[i]:
                ok = False
        if ok:
            heap = self._heap
            if pivot_free <= 0 and not case3 and n_reply:
                # ---- middle path: free degrees sampled by FREE_READ ----
                # Re-walk the candidates (pure reads; nothing changed
                # since the classification pass, so every aliveness
                # determination repeats) to emit one FREE_READ per
                # predicted reply at the scalar request-arrival instant.
                self.control += len(candidates)
                freeres: dict[int, tuple[float, int]] = {}
                push = heapq.heappush
                s = self._seq
                for child, _cd, _cf in candidates:
                    tseq = s
                    s += 1
                    if child not in alive:
                        continue
                    d = srow[child]
                    s += 1
                    check = now + d
                    dt = dag(child)
                    if dt is not None and dt <= check:
                        continue
                    push(
                        heap,
                        (check, 0, tseq + 1, _OP_FREE_READ,
                         freeres, child, rtt[child]),
                    )
                self._seq = seq
                if last_tseq >= 0:
                    entry = (
                        ttime, 0, last_tseq, _OP_DECIDE_MID,
                        proc, pivot, pivot_free, case2, case3, freeres,
                    )
                else:
                    entry = (
                        (now + best_d) + best_d, 0, best_seq, _OP_DECIDE_MID,
                        proc, pivot, pivot_free, case2, case3, freeres,
                    )
                push(heap, entry)
                return
            self._seq = seq
            self.control += len(candidates) + n_pre
            xctl = n_reply - n_pre
            if last_tseq >= 0:
                # Replies all land before ``ttime`` (timeout-margin
                # envelope), so the last terminal is the last timeout.
                entry = (
                    ttime, 0, last_tseq, _OP_DECIDE,
                    proc, pivot, pivot_free, case2, case3, xctl,
                )
            else:
                # The scalar reply time is (t0 + d) + d, summed in
                # exactly this order at the request's arrival.
                entry = (
                    (now + best_d) + best_d, 0, best_seq, _OP_DECIDE,
                    proc, pivot, pivot_free, case2, case3, xctl,
                )
            heapq.heappush(heap, entry)
            return
        # ---- event-per-probe slow path ---------------------------------------
        results: dict[int, tuple[float, float, int]] = {}
        # Each probed child is finished exactly once — the send/request
        # chain creates one terminal entry (reply or elided-timeout) per
        # child — so the scalar round's outstanding *set* reduces to a
        # countdown.
        round_ = (proc, pivot, pivot_free, results, [len(candidates)])
        # Probe sends inlined (the hottest send site); seq consumption
        # matches the per-send order: timeout seq first, then the request
        # seq only when the target is alive.  The control counter is
        # flushed once — no event can observe it between same-time sends.
        heap = self._heap
        push = heapq.heappush
        alive = self._alive
        now = self.now
        ttime = now + self._timeout_s
        srow = proc.agent.sec
        seq = self._seq
        for ci in candidates:
            child = ci[0]
            tseq = seq
            seq += 1
            if child not in alive:
                push(heap, (ttime, 0, tseq, _OP_TIMEOUT_PROBE, round_, child, ci[1]))
                continue
            d = srow[child]
            push(
                heap,
                (now + d, 0, seq, _OP_PROBE_REQ, round_, child, ci[1], d, tseq, ttime),
            )
            seq += 1
        self._seq = seq
        self.control += len(candidates)

    def _finish_probe(self, round_, child: int, ci_dist: float, free) -> None:
        """Mirror of the probe round's ``finish_one`` (``free`` None = timeout)."""
        proc, pivot, pivot_free, results, remaining = round_
        if proc.cancelled or proc.finished:
            return
        if free is not None:
            results[child] = (proc.agent.rtt[child], ci_dist, free)
        n = remaining[0] - 1
        remaining[0] = n
        if not n:
            self._decide(proc, pivot, pivot_free, results)

    def _decide(self, proc: _Join, pivot: int, pivot_free: int, results) -> None:
        """``JoinProcess._decide`` + the VDM ``join_decision`` brain, inlined.

        ``results``: child -> (dist newcomer->child, pivot's cached dist
        to the child, the child's fresh free degree) — the probes dict.
        The scalar classification (``classify_children`` over
        ``classify_case``) runs at most a handful of children per pivot,
        so the scalar arithmetic is inlined here in the same IEEE-754
        order rather than paying array construction per decision;
        :func:`repro.core.cases.classify_case_array` covers the dense
        sweeps and the equivalence tests pin the two against each other.
        """
        me = proc.node
        dist_to_pivot = proc.agent.rtt[pivot]
        config = self.cell.vdm_config
        tol = config.tie_tolerance
        case3: list[tuple[float, int]] = []
        case2: list[tuple[float, int]] = []
        # ``max`` keeps its first maximal argument; the compare-selects
        # below preserve that tie behavior (strict ``>`` to replace).
        for child, (d_new_child, d_pivot_child, _free) in sorted(results.items()):
            longest = dist_to_pivot
            if d_pivot_child > longest:
                longest = d_pivot_child
            if d_new_child > longest:
                longest = d_new_child
            cut = longest - tol * (longest if longest >= 1.0 else 1.0)
            is_ne = d_new_child >= cut
            is_pe = d_pivot_child >= cut
            is_pn = dist_to_pivot >= cut
            if is_ne + is_pe + is_pn > 1 or is_ne:
                continue  # Case I
            if is_pe:
                case2.append((d_new_child, child))
            else:
                case3.append((d_new_child, child))

        if case2 and (config.case_priority == "case2" or not case3):
            adopt = self._insert_adopt(proc.agent, case2, config)
            if adopt is not None:
                self._send_conn_checked(proc, pivot, adopt)
                return
        if case3:
            # closest-of-Case-III (the "random" knob is outside the envelope)
            self._iterate(proc, min(case3)[1])
            return
        if case2:
            adopt = self._insert_adopt(proc.agent, case2, config)
            if adopt is not None:
                self._send_conn_checked(proc, pivot, adopt)
                return
        # Case I
        if pivot_free > 0:
            self._send_conn_checked(proc, pivot, None)
            return
        free_children = [
            (dist, child)
            for child, (dist, _cid, free) in results.items()
            if free > 0
        ]
        if free_children:
            self._send_conn_checked(proc, min(free_children)[1], None)
            return
        if results:
            self._iterate(
                proc,
                min((dist, child) for child, (dist, _cid, _f) in results.items())[1],
            )
            return
        self._send_conn_checked(proc, pivot, None)

    def _decide_pre(self, proc: _Join, pivot: int, pivot_free: int, case2, case3):
        """``_decide`` for a precomputed round (classification done at send).

        Runs against *live* agent state exactly like ``_decide`` — only the
        Case I/II/III split (pure static-distance arithmetic) was hoisted
        to send time.  The fast path never builds a round whose decision
        would read the probed free degrees: that needs pivot full, no
        Case III, and at least one reply, which ``_probe_children`` checks
        statically.  What remains of Case I is therefore either a free
        pivot (attach) or a no-reply round (attach to the pivot as well),
        so the tail collapses to one unconditional attach.
        """
        config = self.cell.vdm_config
        if case2 and (config.case_priority == "case2" or not case3):
            adopt = self._insert_adopt(proc.agent, case2, config)
            if adopt is not None:
                self._send_conn_checked(proc, pivot, adopt)
                return
        if case3:
            self._iterate(proc, min(case3)[1])
            return
        if case2:
            adopt = self._insert_adopt(proc.agent, case2, config)
            if adopt is not None:
                self._send_conn_checked(proc, pivot, adopt)
                return
        self._send_conn_checked(proc, pivot, None)

    def _decide_mid(self, proc, pivot, pivot_free, case2, case3, freeres):
        """``_decide`` for a middle-path round (free degrees collected).

        ``freeres``: child -> (dist newcomer->child, free degree sampled
        at the scalar request-arrival instant), inserted in reply-arrival
        order — request order and reply order coincide (reply time is a
        monotonic function of the request delay, and equal delays keep
        the request seq order), so ``min`` ties resolve exactly like the
        scalar ``results`` dict.  ``case3`` is empty by construction
        (middle-path precondition), so the tail always reaches the
        free-dependent branches of ``_decide``.
        """
        config = self.cell.vdm_config
        if case2 and (config.case_priority == "case2" or not case3):
            adopt = self._insert_adopt(proc.agent, case2, config)
            if adopt is not None:
                self._send_conn_checked(proc, pivot, adopt)
                return
        if case3:
            self._iterate(proc, min(case3)[1])
            return
        if case2:
            adopt = self._insert_adopt(proc.agent, case2, config)
            if adopt is not None:
                self._send_conn_checked(proc, pivot, adopt)
                return
        if pivot_free > 0:
            self._send_conn_checked(proc, pivot, None)
            return
        free_children = [
            (dist, child) for child, (dist, free) in freeres.items() if free > 0
        ]
        if free_children:
            self._send_conn_checked(proc, min(free_children)[1], None)
            return
        if freeres:
            self._iterate(
                proc,
                min((dist, child) for child, (dist, _f) in freeres.items())[1],
            )
            return
        self._send_conn_checked(proc, pivot, None)

    @staticmethod
    def _insert_adopt(agent: _Agent, case2, config) -> tuple[int, ...] | None:
        """Mirror of ``VDMAgent._try_insert``: closest first, within degree."""
        ordered = sorted(case2)  # (dist_new_child, child) — the scalar sort key
        budget = agent.degree_limit - len(agent.children)
        if config.max_adopt is not None:
            budget = min(budget, config.max_adopt)
        adopt = tuple(child for _dist, child in ordered[:budget])
        return adopt if adopt else None

    def _send_conn_checked(self, proc: _Join, target: int, adopt) -> None:
        """Mirror of ``JoinProcess._request_connection`` (join/reconnect)."""
        me = proc.node
        if target == me or self._is_descendant(target, me):
            self._restart(proc)
            return
        self._send_conn(proc, target, adopt)

    def _handle_conn(self, node: int, sender: int, adopt):
        """Mirror of ``OverlayAgent._handle_conn_request`` at the acceptor.

        Runs at request-delivery time and commits tree mutations then,
        exactly as the scalar handler does.  Returns the reply payload:
        ``(False, children_snapshot)`` or ``(True, parent, transferred)``.
        """
        agent = self.agents[node]
        children = agent.children
        # _reconcile_children
        registry = self.kidsets.get(node, set())
        stale = [c for c in children if c not in registry]
        if stale:
            agent.csort = None
            for child in stale:
                del children[child]
        missing = registry - children.keys()
        if missing:
            agent.csort = None
            rtt = agent.rtt
            for child in sorted(missing):
                children[child] = rtt[child]
        else:
            rtt = agent.rtt
        reject_kids = self._child_info(agent)
        if node != self.source and node not in self._reachable:
            return (False, reject_kids)
        if self._is_descendant(node, sender):
            return (False, reject_kids)

        if adopt is not None:  # insert
            alive = self._alive
            tree_parent = self.parent
            transferable = [
                c
                for c in adopt
                if c in children
                and c in alive
                and c != sender
                and tree_parent.get(c) == node
            ]
            sender_agent = self.agents.get(sender)
            if sender_agent is not None:
                room = sender_agent.degree_limit - len(
                    self.kidsets.get(sender, ())
                )
                if len(transferable) > room:
                    transferable = transferable[: max(room, 0)]
            if not transferable and agent.degree_limit - len(children) <= 0:
                return (False, reject_kids)
            dist = rtt[sender]
            self._tree_insert(sender, node, tuple(transferable), self.now)
            children[sender] = dist
            for child in transferable:
                del children[child]
            agent.csort = None
            return (True, agent.parent, tuple(transferable))

        # attach
        if agent.degree_limit - len(children) <= 0:
            return (False, reject_kids)
        dist = rtt[sender]
        children[sender] = dist
        agent.csort = None
        # is_present and is_attached (sender is never the source): one
        # non-None parent-pointer check covers both.
        if self.parent.get(sender) is not None:
            self._tree_reparent(sender, node, self.now)
        else:
            self._tree_attach(sender, node, self.now)
        return (True, agent.parent, ())

    def _commit(self, proc: _Join, new_parent: int, acc_parent, transferred) -> None:
        """Mirror of ``JoinProcess._commit``."""
        me = proc.node
        agent = proc.agent
        srow = agent.sec
        rtt = agent.rtt
        old_parent = agent.parent
        if old_parent is not None and old_parent != new_parent:
            self._tell(srow, me, old_parent, _TELL_CHILD_REMOVE)
        agent.parent = new_parent
        agent.grandparent = acc_parent
        children = agent.children
        if transferred:
            agent.csort = None
        for child in transferred:
            children[child] = rtt[child]
            self._tell(srow, me, child, _TELL_PARENT_CHANGE, me, new_parent)
        for child in sorted(children):
            if child not in transferred:
                self._tell(srow, me, child, _TELL_GP_CHANGE, new_parent)
        self._done(proc, True)

    def _redirect(self, proc: _Join, kids) -> None:
        """Mirror of ``JoinProcess._redirect_after_reject``."""
        me = proc.node
        is_descendant = self._is_descendant
        candidates = [
            ci for ci in kids if ci[0] != me and not is_descendant(ci[0], me)
        ]
        free = [ci for ci in candidates if ci[2] > 0]
        pool = free or candidates
        if not pool:
            self._restart(proc)
            return
        nxt = min(pool, key=lambda ci: (ci[1], ci[0]))
        self._iterate(proc, nxt[0])

    # -- membership ---------------------------------------------------------------

    def _do_join(self, entry) -> None:
        node = entry[4]
        if node in self._active or node == self.source:
            return
        degree = draw_degree(self.cfg.degree, self._rng_degrees)
        cell = self.cell
        agent = _Agent(degree, cell.sec_row(node), cell.rtt_row(node))
        self.agents[node] = agent
        self._alive.add(node)
        self._active.add(node)
        self._start_join(node, agent, "join", self.source)
        # Refinement stays unarmed: the envelope requires both the session
        # override and VDM's auto period to be None.

    def _do_leave(self, entry) -> None:
        node = entry[4]
        self._death_at.pop(node, None)
        if node not in self._active:
            return
        agent = self.agents.get(node)
        if agent is None or node not in self._alive:
            self._active.discard(node)
            return
        self._active.discard(node)
        # OverlayAgent.leave()
        if agent.proc is not None:
            agent.proc.cancelled = True
            agent.proc = None
        srow = agent.sec
        for child in sorted(agent.children):
            self._tell(srow, node, child, _TELL_LEAVE)
        agent.csort = None
        if agent.parent is not None:
            self._tell(srow, node, agent.parent, _TELL_CHILD_REMOVE)
        if node in self.parent:
            self._tree_depart(node, self.now)
        self._alive.discard(node)
        agent.parent = None
        agent.grandparent = None
        agent.children.clear()

    def _on_parent_lost(self, node: int, agent: _Agent) -> None:
        """Mirror of ``VDMAgent.on_parent_lost``."""
        if self.cell.vdm_config.reconnect_at == "source":
            self._start_join(node, agent, "reconnect", self.source)
            return
        target = agent.grandparent if agent.grandparent is not None else self.source
        if target == node:
            target = self.source
        self._start_join(node, agent, "reconnect", target)

    # -- slot / measurement ----------------------------------------------------------

    def _run_slot(self, entry) -> None:
        slot_start = entry[4]
        active = sorted(self._active & self._alive)
        inactive = sorted(self._pool_set - self._active)
        events = self._churn.plan_slot(slot_start, active, inactive)
        heap = self._heap
        death_at = self._death_at
        for ev in events:
            seq = self._seq
            self._seq = seq + 1
            if ev.action == "join":
                op = _OP_JOIN
            else:
                op = _OP_LEAVE
                # Leavers are drawn from the alive-at-slot-start set and
                # joiners from its complement, so this is the node's only
                # possible aliveness flip before the next slot boundary.
                death_at[ev.node] = ev.time
            heapq.heappush(heap, (ev.time, 0, seq, op, ev.node))
        nxt = slot_start + self.cfg.slot_s
        self._horizon = (
            nxt if nxt + self.cfg.slot_s <= self.cfg.total_s + 1e-9 else math.inf
        )

    def _measure(self, _entry=None) -> None:
        """Mirror of ``MulticastSession._measure`` over the flat state.

        One inlined pass over the ledger computes what the scalar
        accountant's ``data_messages`` + ``_window_totals`` passes
        compute.  Each accumulator sees the same per-node additions in
        the same (ledger insertion) order, and the interval clipping uses
        the exact compare-and-select forms of ``max``/``min``, so every
        float is bit-identical; fusing the passes changes which loop the
        additions happen in, not their sequence.
        """
        now = self.now
        control_now = self.control
        w0 = self._last_measure_time
        rate = self._rate
        mt = self._mtimes
        i = self._mt_i
        n_mt = len(mt)
        while i < n_mt and mt[i] <= now:
            i += 1
        self._mt_i = i
        self._next_measure = mt[i] if i < n_mt else math.inf
        data_time = 0.0
        expected_total = 0.0
        received_total = 0.0
        rates_sum = 0.0
        rates_n = 0
        # Steady nodes — everything open since before the previous
        # measurement, every interval list consumed — all contribute the
        # very same floats: covered time ``now - w0`` (each clip picks
        # ``lo = w0``, ``hi = now``), expected == received == that times
        # the rate (the identical multiply, so ``min`` keeps it), loss
        # exactly 0.0 (``x / x == 1.0`` for finite positive x) whose
        # ``+= 0.0`` is an exact no-op on these non-negative sums.
        # Precomputed once; the flag is dropped at every ledger touch.
        stead_c = now - w0
        stead_e = stead_c * rate
        stead_pos = stead_e > 0
        for led in self._led.values():
            # Dormant: departed long enough ago that nothing is open and
            # the cursors have passed every interval — contributes 0.0 to
            # every accumulator (adding which is exact: all accumulators
            # are non-negative, so no -0.0 can arise) until a rejoin
            # refresh clears the flag.
            if led[9]:
                continue
            if led[10]:
                if stead_c > 0:
                    data_time += stead_c
                if stead_pos:
                    expected_total += stead_e
                    received_total += stead_e
                    rates_n += 1
                continue
            # Each interval list is chronological with non-decreasing
            # ends, so intervals ending at or before w0 clip to nothing
            # for this window and every later one — the cursor skips
            # them for good (see the ledger comment in __init__).
            # data_messages: reachable.covered_within(w0, now)
            tot = 0.0
            iv = led[2]
            i = led[7]
            n = len(iv)
            while i < n and iv[i][1] <= w0:
                i += 1
            led[7] = i
            if i < n:
                for s, e in iv[i:] if i else iv:
                    lo = s if s >= w0 else w0
                    hi = e if e <= now else now
                    if hi > lo:
                        tot += hi - lo
            o = led[3]
            if o is not None:
                lo = o if o >= w0 else w0
                if now > lo:
                    tot += now - lo
            data_time += tot
            # expected: lifetime.covered_within(w0, now) * rate
            cov = 0.0
            iv = led[0]
            i = led[6]
            n = len(iv)
            while i < n and iv[i][1] <= w0:
                i += 1
            led[6] = i
            if i < n:
                for s, e in iv[i:] if i else iv:
                    lo = s if s >= w0 else w0
                    hi = e if e <= now else now
                    if hi > lo:
                        cov += hi - lo
            o = led[1]
            if o is not None:
                lo = o if o >= w0 else w0
                if now > lo:
                    cov += now - lo
            expected = cov * rate
            # received: segment pass; success is exactly 1.0, and
            # ``(hi-lo)*1.0`` is the float identity, so the multiply the
            # scalar ledger performs is elided without changing a bit.
            tot = 0.0
            iv = led[4]
            i = led[8]
            n = len(iv)
            while i < n and iv[i][1] <= w0:
                i += 1
            led[8] = i
            if i < n:
                for s, e in iv[i:] if i else iv:
                    lo = s if s >= w0 else w0
                    hi = e if e <= now else now
                    if hi > lo:
                        tot += hi - lo
            s = led[5]
            if s is not None:
                lo = s if s >= w0 else w0
                if now > lo:
                    tot += now - lo
            received = tot * rate
            if received > expected:  # min(received, expected)
                received = expected
            expected_total += expected
            received_total += received
            if expected > 0:
                loss = 1.0 - received / expected
                rates_sum += loss if loss > 0.0 else 0.0  # max(0.0, loss)
                rates_n += 1
            elif led[1] is None and led[3] is None and led[5] is None:
                if (
                    led[6] >= len(led[0])
                    and led[7] >= len(led[2])
                    and led[8] >= len(led[4])
                ):
                    led[9] = 1
            if (
                led[1] is not None
                and led[3] is not None
                and led[5] is not None
                and led[6] >= len(led[0])
                and led[7] >= len(led[2])
                and led[8] >= len(led[4])
            ):
                # All opens predate the next window start (they are <= now)
                # and every closed interval is behind the cursors, so until
                # the next ledger touch this node is in the steady state.
                led[10] = 1
        data_msgs = data_time * rate
        control_delta = control_now - self._last_control_count
        overhead = control_delta / data_msgs if data_msgs > 0 else 0.0
        if expected_total > 0:
            window_loss = 1.0 - received_total / expected_total
            if not window_loss > 0.0:
                window_loss = 0.0
        else:
            window_loss = 0.0
        mean_node_loss = rates_sum / rates_n if rates_n else 0.0
        metrics = self._collect()
        self._records.append(
            MeasurementRecord(
                time=now,
                n_members=len(self.parent),
                n_reachable=len(self._reachable),
                stress=metrics.stress,
                stretch=metrics.stretch,
                hopcount=metrics.hopcount,
                usage=metrics.usage,
                window_loss=window_loss,
                window_mean_node_loss=mean_node_loss,
                window_overhead=overhead,
                cumulative_control_messages=control_now,
            )
        )
        self._last_measure_time = now
        self._last_control_count = control_now

    def _collect(self) -> TreeMetrics:
        """Mirror of :func:`~repro.metrics.collectors.collect_tree_metrics`.

        Same single root-down traversal, same sorted-sibling visit order,
        same accumulation association — against the flat tree, with the
        cell's shared ``delay_row`` objects and memoized physical-path
        link tuples (both static per underlay).
        """
        cell = self.cell
        source = self.source
        kidsets = self.kidsets
        raw_row = cell.raw_row
        source_row = raw_row(source)
        # Link stress comes from the maintained multiset (see __init__):
        # same integer counts the scalar collector's per-walk Counter
        # builds, kept current at reachability flips and reparents.
        link_usage = self._lstress
        stretch_vals: list[float] = []
        leaf_stretch: list[float] = []
        depths: list[int] = []
        leaf_depths: list[int] = []
        total_ms = 0.0
        star_ms = 0.0
        edge_count = 0
        skids = self._skids
        stack: list[tuple[int, int, float, float]] = [(source, 0, 0.0, 0.0)]
        while stack:
            node, depth, overlay, edge_ms = stack.pop()
            kids = kidsets.get(node)
            if kids:
                ordered = skids.get(node)
                if ordered is None:
                    ordered = skids[node] = sorted(kids, reverse=True)
                child_depth = depth + 1
                row = raw_row(node)
                for child in ordered:
                    d = row[child]
                    stack.append((child, child_depth, overlay + d, d))
            if node == source:
                continue
            total_ms += edge_ms
            edge_count += 1
            unicast = source_row[node]
            star_ms += unicast
            depths.append(depth)
            is_leaf = not kids
            if is_leaf:
                leaf_depths.append(depth)
            if unicast > 0:
                ratio = overlay / unicast
                stretch_vals.append(ratio)
                if is_leaf:
                    leaf_stretch.append(ratio)
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
        if edge_count:
            usage = ResourceUsage(
                total_ms=total_ms,
                normalized=total_ms / star_ms if star_ms > 0 else 0.0,
                edges=edge_count,
            )
        else:
            usage = ResourceUsage.empty()
        return TreeMetrics(
            stress=stress, stretch=stretch, hopcount=hopcount, usage=usage
        )

    # -- event handlers --------------------------------------------------------------

    def _h_tell(self, entry) -> None:
        dst = entry[4]
        if dst not in self._alive:
            return
        agent = self.agents[dst]
        kind = entry[6]
        if kind == _TELL_GP_CHANGE:
            agent.grandparent = entry[7]
        elif kind == _TELL_CHILD_REMOVE:
            agent.children.pop(entry[5], None)
            agent.csort = None
        elif kind == _TELL_LEAVE:
            if entry[5] == agent.parent:
                agent.parent = None
                self._on_parent_lost(dst, agent)
        else:  # _TELL_PARENT_CHANGE
            a = entry[7]
            agent.parent = a
            agent.grandparent = entry[8]
            srow = agent.sec
            for child in sorted(agent.children):
                self._tell(srow, dst, child, _TELL_GP_CHANGE, a)

    # The INFO_REQ / INFO_REPLY / PROBE_REQ / PROBE_REPLY handlers are
    # dispatched inline in ``run()`` — they carry ~80% of the event
    # volume, so they skip the dispatch-table indirection.

    def _h_conn_req(self, entry) -> None:
        proc = entry[4]
        target = entry[5]
        if target not in self._alive:
            heapq.heappush(
                self._heap, (entry[9], 0, entry[8], _OP_TIMEOUT_RESTART, proc)
            )
            return
        reply = self._handle_conn(target, proc.node, entry[6])
        self.control += 1  # the ConnResponse
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self.now + entry[7], 0, seq, _OP_CONN_REPLY, proc, target, reply),
        )

    def _h_conn_reply(self, entry) -> None:
        proc = entry[4]
        if proc.node not in self._alive:
            return
        if proc.cancelled or proc.finished:
            return
        reply = entry[6]
        if reply[0]:
            self._commit(proc, entry[5], reply[1], reply[2])
        else:
            self._redirect(proc, reply[1])

    def _h_timeout_restart(self, entry) -> None:
        """Mirror of ``fire_timeout`` + the info/conn ``on_timeout``s."""
        proc = entry[4]
        if proc.node not in self._alive:
            return
        if proc.cancelled or proc.finished:
            return
        self._restart(proc)

    def _h_timeout_probe(self, entry) -> None:
        round_ = entry[4]
        if round_[0].node not in self._alive:
            return
        self._finish_probe(round_, entry[5], entry[6], None)

    # -- run ----------------------------------------------------------------------

    def run(self) -> SessionResult:
        cfg = self.cfg
        rng = self._rng_membership
        heap = self._heap

        # Setup schedules, consuming seq in MulticastSession.run() order.
        pool_arr = sorted(self._pool)
        initial = rng.choice(pool_arr, size=cfg.n_nodes, replace=False)
        join_window = 0.9 * cfg.join_phase_s
        times = np.sort(rng.uniform(0.0, join_window, size=cfg.n_nodes))
        for node, t in zip(initial, times):
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(heap, (float(t), 0, seq, _OP_JOIN, int(node)))
        mtimes = []
        if cfg.join_measure_interval_s is not None:
            t = cfg.join_measure_interval_s
            while t <= cfg.join_phase_s:
                seq = self._seq
                self._seq = seq + 1
                heapq.heappush(heap, (t, 10, seq, _OP_MEASURE))
                mtimes.append(t)
                t += cfg.join_measure_interval_s
        slot_start = cfg.join_phase_s
        first_slot = None
        while slot_start + cfg.slot_s <= cfg.total_s + 1e-9:
            if first_slot is None:
                first_slot = slot_start
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(heap, (slot_start, 5, seq, _OP_SLOT, slot_start))
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(heap, (slot_start + cfg.slot_s, 10, seq, _OP_MEASURE))
            mtimes.append(slot_start + cfg.slot_s)
            slot_start += cfg.slot_s
        # The closing safety measurement at total_s joins the guard list:
        # a probe round's control messages must not straddle any reader.
        mtimes.append(cfg.total_s)
        self._mtimes = mtimes
        self._next_measure = mtimes[0]
        # Before the first slot no churn is drawn at all, and a request
        # arriving exactly at the boundary (prio 0) still beats the slot
        # event (prio 5), so the boundary itself is inside the horizon.
        self._horizon = first_slot if first_slot is not None else math.inf

        # Rare-op handlers receive the whole (flat) heap entry.
        handlers = [None] * 16
        handlers[_OP_JOIN] = self._do_join
        handlers[_OP_LEAVE] = self._do_leave
        handlers[_OP_SLOT] = self._run_slot
        handlers[_OP_MEASURE] = self._measure
        handlers[_OP_TELL] = self._h_tell
        handlers[_OP_CONN_REQ] = self._h_conn_req
        handlers[_OP_CONN_REPLY] = self._h_conn_reply
        handlers[_OP_TIMEOUT_RESTART] = self._h_timeout_restart
        handlers[_OP_TIMEOUT_PROBE] = self._h_timeout_probe

        # Same GC pause the scalar session takes around its event loop
        # (collection timing cannot affect results).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            total = cfg.total_s
            pop = heapq.heappop
            push = heapq.heappush
            alive = self._alive
            agents = self.agents
            # The four highest-volume ops (probe and info round trips are
            # roughly 80% of all heap entries) are dispatched inline; the
            # bodies mirror the scalar handlers exactly like the method
            # forms below do for the rarer ops.
            while heap:
                entry = pop(heap)
                t = entry[0]
                if t > total:
                    push(heap, entry)
                    break
                self.now = t
                op = entry[3]
                if op == _OP_INFO_REQ:
                    # (.., proc, pivot, d, tseq, ttime)
                    proc = entry[4]
                    pivot = entry[5]
                    if pivot not in alive:
                        push(heap, (entry[8], 0, entry[7], _OP_TIMEOUT_RESTART, proc))
                        continue
                    agent = agents[pivot]
                    free = agent.degree_limit - len(agent.children)
                    kids = self._child_info(agent)
                    self.control += 1  # the InfoResponse
                    seq = self._seq
                    self._seq = seq + 1
                    push(
                        heap,
                        (t + entry[6], 0, seq, _OP_INFO_REPLY, proc, pivot, free, kids),
                    )
                elif op == _OP_INFO_REPLY:
                    # (.., proc, pivot, free, kids)
                    proc = entry[4]
                    # a dead node's scalar timeout would fire inert
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._probe_children(proc, entry[5], entry[6], entry[7])
                elif op == _OP_DECIDE:
                    # (.., proc, pivot, pivot_free, case2, case3, xctl) —
                    # the same guards the scalar terminals apply per
                    # reply.  ``xctl`` counts the replies that arrived
                    # after the most recent measurement: children answer
                    # whether the joiner is still around or not, so the
                    # count lands before any proc-state guard.
                    self.control += entry[9]
                    proc = entry[4]
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._decide_pre(
                            proc, entry[5], entry[6], entry[7], entry[8]
                        )
                elif op == _OP_FREE_READ:
                    # (.., freeres, child, d_new) — the scalar request
                    # arrival: count the reply it triggers and sample the
                    # free degree it carries.
                    agent = agents[entry[5]]
                    self.control += 1
                    entry[4][entry[5]] = (
                        entry[6], agent.degree_limit - len(agent.children),
                    )
                elif op == _OP_DECIDE_MID:
                    # (.., proc, pivot, pivot_free, case2, case3, freeres)
                    proc = entry[4]
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._decide_mid(
                            proc, entry[5], entry[6], entry[7], entry[8], entry[9]
                        )
                elif op == _OP_PROBE_REQ:
                    # (.., round_, child, ci_dist, d, tseq, ttime)
                    child = entry[5]
                    if child not in alive:
                        push(
                            heap,
                            (
                                entry[9],
                                0,
                                entry[8],
                                _OP_TIMEOUT_PROBE,
                                entry[4],
                                child,
                                entry[6],
                            ),
                        )
                        continue
                    agent = agents[child]
                    self.control += 1  # the InfoResponse
                    seq = self._seq
                    self._seq = seq + 1
                    push(
                        heap,
                        (
                            t + entry[7],
                            0,
                            seq,
                            _OP_PROBE_REPLY,
                            entry[4],
                            child,
                            entry[6],
                            agent.degree_limit - len(agent.children),
                        ),
                    )
                elif op == _OP_PROBE_REPLY:
                    # (.., round_, child, ci_dist, free)
                    round_ = entry[4]
                    if round_[0].node in alive:
                        self._finish_probe(round_, entry[5], entry[6], entry[7])
                else:
                    handlers[op](entry)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.now = cfg.total_s
        if not self._records or self._records[-1].time < cfg.total_s:
            self._measure()
        return SessionResult(
            config=cfg,
            records=self._records,
            join_records=self.join_records,
            runtime=None,
            accountant=_LedgerView(self._led, self._rate),
        )


class _LedgerView:
    """Read-only stand-in for the ``accountant`` slot of a batched result.

    Mirrors the :class:`~repro.sim.delivery.DeliveryAccountant` query
    surface over the emulator's flat ledger (zero-loss envelope: every
    segment's path success is exactly 1.0).  The windowed math follows the
    scalar implementations operation for operation, so queries agree bit
    for bit with what a scalar run's accountant would answer.
    """

    def __init__(self, led: dict[int, list], chunk_rate: float) -> None:
        self._led = led
        self.chunk_rate = chunk_rate

    def tracked_nodes(self) -> list[int]:
        return sorted(self._led)

    def reception_segments(
        self, node: int, until: float
    ) -> list[tuple[float, float, float]]:
        led = self._led.get(node)
        if led is None:
            return []
        segments = [
            (start, min(end, until), 1.0)
            for start, end in led[4]
            if start < until
        ]
        if led[5] is not None and led[5] < until:
            segments.append((led[5], until, 1.0))
        return segments

    def lifetime_start(self, node: int) -> float | None:
        led = self._led.get(node)
        if led is None:
            return None
        if led[0]:
            return led[0][0][0]
        return led[1]

    def lifetime_intervals(
        self, node: int, until: float
    ) -> list[tuple[float, float]]:
        led = self._led.get(node)
        if led is None:
            return []
        out = [
            (start, min(end, until)) for start, end in led[0] if start < until
        ]
        if led[1] is not None and led[1] < until:
            out.append((led[1], until))
        return out

    @staticmethod
    def _covered(intervals, open_start, w0: float, w1: float) -> float:
        tot = 0.0
        for start, end in intervals:
            lo = max(start, w0)
            hi = min(end, w1)
            if hi > lo:
                tot += hi - lo
        if open_start is not None:
            lo = max(open_start, w0)
            if w1 > lo:
                tot += w1 - lo
        return tot

    def node_stats(self, node: int, w0: float, w1: float) -> NodeDeliveryStats:
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        led = self._led.get(node)
        if led is None:
            return NodeDeliveryStats(node, 0.0, 0.0)
        expected = self._covered(led[0], led[1], w0, w1) * self.chunk_rate
        received = self._covered(led[4], led[5], w0, w1) * self.chunk_rate
        return NodeDeliveryStats(node, expected, min(received, expected))

    def loss_rate(self, w0: float, w1: float) -> float:
        expected = 0.0
        received = 0.0
        for node in self._led:
            stats = self.node_stats(node, w0, w1)
            expected += stats.expected_chunks
            received += stats.received_chunks
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - received / expected)

    def mean_node_loss(self, w0: float, w1: float) -> float:
        rates = [
            stats.loss_rate
            for node in self._led
            if (stats := self.node_stats(node, w0, w1)).expected_chunks > 0
        ]
        if not rates:
            return 0.0
        return sum(rates) / len(rates)

    def data_messages(self, w0: float, w1: float) -> float:
        if w1 < w0:
            raise ValueError(f"bad window [{w0}, {w1})")
        total_time = sum(
            self._covered(led[2], led[3], w0, w1) for led in self._led.values()
        )
        return total_time * self.chunk_rate
