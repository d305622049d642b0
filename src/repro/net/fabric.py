"""Max-min fair, flow-level network simulation.

Why flow-level?  Every communication effect the Fela paper leans on is a
bandwidth-sharing effect:

* the FC worker of the hybrid-parallel (Stanza) baseline becomes a
  *receive-side* bottleneck as the batch grows, because all other workers
  push activations into one 10 Gbps NIC;
* data-parallel synchronization moves the whole model every iteration and
  its cost is flat in the batch size;
* Fela/MP boundary-activation transfers grow with the batch size.

A fluid model — each active flow gets its max-min fair share of the
capacities it traverses (source NIC tx, destination NIC rx, optionally an
aggregate switch capacity) — captures these first-order effects without
simulating packets.

The implementation is event-driven: when the set of active flows
changes, the fabric *settles* the bytes transferred since the previous
change at the previous rates, recomputes the fair-share allocation by
water-filling, and schedules a wake-up at the earliest projected flow
completion.  A change that provably leaves every rate alone (a flow
alone on both its NICs arriving or leaving) skips the waterfill.  No
simulated time passes within an instant, so only an instant's last
allocation ever moves a byte: the first change that needs a solve at an
instant solves at once, and every later one at the same instant only
records the NICs it dirtied for one solve at the end of the instant (a
``LATE`` event).  Whenever the timer is armed or a reader looks, every
flow's rate equals what a fresh full waterfill of the current table
would assign.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush

from repro.errors import SimulationError
from repro.sim import LATE, Environment, Event

#: Rates below this (bytes/second) are treated as zero to avoid scheduling
#: wake-ups astronomically far in the future due to floating-point dust.
_RATE_EPS = 1e-9

#: Remaining byte counts below this are considered complete.
_BYTES_EPS = 1e-6

_INF = float("inf")


@dataclasses.dataclass(slots=True)
class Flow:
    """One in-flight transfer between two nodes."""

    fid: int
    src: int
    dst: int
    size: float
    remaining: float
    rate: float = 0.0
    started_at: float = 0.0
    batch: _Batch | None = None

    def __repr__(self) -> str:
        return (
            f"<Flow {self.fid} {self.src}->{self.dst} "
            f"{self.remaining:.0f}/{self.size:.0f}B @ {self.rate:.3g}B/s>"
        )


@dataclasses.dataclass(slots=True)
class _Batch:
    """Countdown of one batch's in-flight flows to its one completion
    event: only the flow that brings ``pending`` to zero schedules
    ``event``."""

    pending: int
    event: Event


@dataclasses.dataclass
class FabricStats:
    """Aggregate accounting over the lifetime of a fabric."""

    flows_started: int = 0
    flows_completed: int = 0
    bytes_transferred: float = 0.0
    #: Waterfills over the whole flow table / over one dirty component.
    #: An admission or completion of isolated flows, which needs no
    #: solve, counts in neither.
    solves_full: int = 0
    solves_restricted: int = 0


class Fabric:
    """A star topology: N nodes, full-duplex NICs, non-blocking switch.

    Parameters
    ----------
    env:
        Simulation environment.
    num_nodes:
        Number of nodes attached to the switch.
    link_bandwidth:
        Per-direction NIC bandwidth in **bytes per second** (the paper's
        links are 10 Gbps = 1.25e9 B/s).
    latency:
        Fixed one-way propagation + protocol latency added to every
        transfer, in seconds.
    switch_bandwidth:
        Optional aggregate switch capacity in bytes per second; ``None``
        models a non-blocking switch (the paper's 40GE switch is
        non-blocking for 8 × 10 Gbps ports in practice).
    """

    def __init__(
        self,
        env: Environment,
        num_nodes: int,
        link_bandwidth: float,
        latency: float = 50e-6,
        switch_bandwidth: float | None = None,
    ) -> None:
        if num_nodes < 1:
            raise SimulationError(f"need at least one node: {num_nodes}")
        # The waterfill needs positive, finite capacities: every flow
        # then freezes at a finite share.
        if not 0 < link_bandwidth < _INF:
            raise SimulationError(
                f"link bandwidth must be positive and finite: {link_bandwidth}"
            )
        if switch_bandwidth is not None and not 0 < switch_bandwidth < _INF:
            raise SimulationError(
                "switch bandwidth must be positive and finite: "
                f"{switch_bandwidth}"
            )
        if latency < 0:
            raise SimulationError(f"latency must be >= 0: {latency}")
        self.env = env
        self.num_nodes = num_nodes
        self.link_bandwidth = float(link_bandwidth)
        self.latency = float(latency)
        self.switch_bandwidth = (
            float(switch_bandwidth) if switch_bandwidth is not None else None
        )
        self.stats = FabricStats()
        self._flows: dict[int, Flow] = {}
        #: Per-NIC index over active flows: a list of ``2 * num_nodes``
        #: ``{fid: flow}`` dicts, slot ``src`` for a tx NIC and slot
        #: ``num_nodes + dst`` for an rx NIC.  It is what makes the
        #: incremental waterfill possible: the connected component of a
        #: changed NIC can be discovered without scanning the full flow
        #: table.  It is ``None`` until the first restricted solve
        #: builds it from the flow table (:meth:`_rebuild_index`), so
        #: workloads that never leave the full-solve regime (small flow
        #: tables, or an aggregate switch) never allocate it or pay its
        #: upkeep.  From then on :meth:`_admit` and :meth:`_on_wake`
        #: insert and delete by list index; a NIC whose last flow
        #: leaves keeps its (empty) dict, so the index drains to empty
        #: dicts with the table.
        self._by_resource: list[dict[int, Flow]] | None = None
        #: Active-flow count per tx NIC / rx NIC, indexed by node and
        #: kept current on every add and remove.  A flow whose two
        #: counts are 1 is *isolated*: it shares no capacity with any
        #: other flow (absent a switch), so it is rated ``link_bandwidth
        #: / 1`` and its arrival or departure changes no other rate.
        self._tx_load: list[int] = [0] * num_nodes
        self._rx_load: list[int] = [0] * num_nodes
        #: Flow-table size at or below which a reallocation skips the
        #: dirty-component discovery and runs the full progressive fill
        #: directly.  For small tables the full solve is cheaper than the
        #: BFS that would tell us it is avoidable — on the 8-node macro
        #: workloads (≤ ~16-24 concurrent flows, usually one dense
        #: component) the traversal is pure overhead.  Both paths produce
        #: bit-identical rates, so this is a host-side knob only; tests
        #: set it to 0 to force the restricted path.
        self.incremental_cutoff: int = 24
        #: Entry count above which a waterfill switches from the linear
        #: per-round scan to the lazy-invalidation min-heap.  Both paths
        #: compute bit-identical rates (same ``cap / count`` sequence,
        #: same first-seen tie-break); the heap only wins once the
        #: rounds-times-entries product outgrows its bookkeeping, so
        #: small solves keep the scan.  Host-side knob; tests sweep it.
        self.waterfill_heap_cutoff: int = 48
        self._fid = itertools.count()
        self._last_settle = env.now
        #: Timeout armed for the next flow completion.  Cancellation is
        #: a callback removal — the orphaned timeout stays on the heap
        #: and later costs one empty pop — so a reallocation storm costs
        #: one Timeout each, not a full process interrupt/respawn cycle.
        self._waker: _t.Any = None
        self._wake_cb = self._on_wake  # one bound method for the lifetime
        #: Delay to the next completion as of the last arming (``inf``
        #: with no flows).  Every settle and every rate change is
        #: followed by a re-arm at the same instant, so while no time
        #: has passed since the last settle this is still the minimum
        #: of ``remaining / rate`` over the table.
        self._next_dt = float("inf")
        #: Instant of the last solve.  A later change at that same
        #: instant that needs one defers it to the end of the instant
        #: (see :meth:`_rerate`).
        self._solved_at = -_INF
        #: While an end-of-instant solve is pending: the ``LATE`` event
        #: that runs it and the NICs the deferred changes dirtied.
        #: ``_flush`` is ``None`` when nothing is pending.
        self._flush: Event | None = None
        self._flush_dirty: list[int] = []
        self._flush_cb = self._on_flush

    # -- public API ---------------------------------------------------------

    def transfer(self, src: int, dst: int, size: float) -> Event:
        """Start a transfer of ``size`` bytes; returns its completion event.

        The event's value is the transfer's duration.  A transfer between
        a node and itself is local and completes immediately (zero
        simulated time, no bandwidth consumed): parameter chunks and
        training samples on local storage are free to read, which is
        exactly the data-locality asymmetry Fela's policies exploit.
        """
        return self._start(((src, dst, size),))

    def transfer_many(
        self, requests: _t.Iterable[tuple[int, int, float]]
    ) -> Event:
        """Start several transfers at once; returns one completion event.

        Equivalent to calling :meth:`transfer` once per ``(src, dst,
        size)`` request at the same instant, but settles the in-flight
        byte accounting and re-waterfills the fair shares once for the
        whole batch instead of once per flow.  All intermediate rate
        assignments of the sequential form are dead (no simulated time
        passes between the calls), so the resulting allocation — and the
        simulation — is identical; only the host-side work shrinks.
        Collectives and input fetches launch their per-peer flow sets
        through this path.

        The event fires when the batch's last flow completes, ``latency``
        after its last byte left, with that flow's duration as its value;
        a batch with nothing on the wire (all local or zero-size)
        succeeds at once.  Per-flow completion times are on the tracer's
        ``net.transfer`` spans.
        """
        return self._start(requests)

    @property
    def active_flows(self) -> list[Flow]:
        """Snapshot of flows currently in flight, at their current rates."""
        self._flush_now()
        return list(self._flows.values())

    def utilization(self, node: int, direction: str = "tx") -> float:
        """Current fraction of a NIC direction's bandwidth in use."""
        self._check_node(node)
        if direction not in ("tx", "rx"):
            raise SimulationError(f"direction must be tx or rx: {direction}")
        self._flush_now()
        used = sum(
            flow.rate
            for flow in self._flows.values()
            if (flow.src if direction == "tx" else flow.dst) == node
        )
        return used / self.link_bandwidth

    # -- internals ------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise SimulationError(
                f"node index {node} outside [0, {self.num_nodes})"
            )

    def _start(
        self, requests: _t.Iterable[tuple[int, int, float]]
    ) -> Event:
        """The one admission path behind :meth:`transfer` and
        :meth:`transfer_many`: validate the whole batch, then build the
        flows and admit them.  A rejected batch mints no event."""
        if not isinstance(requests, (list, tuple)):
            requests = list(requests)
        num_nodes = self.num_nodes
        for src, dst, size in requests:
            if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
                self._check_node(src)
                self._check_node(dst)
            if not 0 <= size < _INF:
                raise SimulationError(
                    f"transfer size must be finite and >= 0: {size}"
                )
        env = self.env
        now = env.now
        fids = self._fid
        batch = _Batch(0, env.event())
        new: list[Flow] = []
        for src, dst, size in requests:
            if src == dst or size == 0:
                continue
            size = float(size)
            new.append(Flow(next(fids), src, dst, size, size, 0.0, now, batch))
        if new:
            batch.pending = len(new)
            self._admit(new)
        else:
            batch.event.succeed(0.0)
        return batch.event

    def _admit(self, new: list[Flow]) -> None:
        """Settle, add a batch of flows landing at one instant, re-rate.

        A new flow whose tx and rx NICs carry only itself is *isolated*:
        the waterfill would rate it ``link_bandwidth / 1`` and leave
        every other rate alone, so it gets exactly that rate here and
        dirties nothing.  Only the other new flows' NICs go to
        :meth:`_rerate` (which re-solves everything when an aggregate
        switch couples the flows).

        When the whole batch is isolated no existing rate changes, so
        the settle pass (which walks the table anyway) also yields the
        earliest completion among the old flows, and the waker is armed
        at the smaller of that and the new flows' ``size / bandwidth``
        — the value the rescan in :meth:`_schedule_wakeup` would find.
        (While an end-of-instant solve is pending that delay may be
        stale; :meth:`_rerate` drops it, because that solve rescans.)
        """
        self.stats.flows_started += len(new)
        flows = self._flows
        tx_load = self._tx_load
        rx_load = self._rx_load
        num_nodes = self.num_nodes
        by_resource = self._by_resource
        next_dt = self._settle()
        for flow in new:
            fid = flow.fid
            src = flow.src
            dst = flow.dst
            flows[fid] = flow
            tx_load[src] += 1
            rx_load[dst] += 1
            if by_resource is not None:
                by_resource[src][fid] = flow
                by_resource[num_nodes + dst][fid] = flow
        bandwidth = self.link_bandwidth
        dirty: list[int] = []
        for flow in new:
            src = flow.src
            dst = flow.dst
            if tx_load[src] == 1 and rx_load[dst] == 1:
                flow.rate = bandwidth
                if bandwidth > _RATE_EPS:
                    dt = flow.remaining / bandwidth
                    if dt < next_dt:
                        next_dt = dt
            else:
                dirty.append(src)
                dirty.append(num_nodes + dst)
        self._rerate(dirty, next_dt)

    def _settle(self) -> float:
        """Account bytes moved at the current rates since the last change.

        Returns the minimum of ``remaining / rate`` over flows with
        ``rate > _RATE_EPS`` — exactly the delay the rescan in
        :meth:`_schedule_wakeup` computes, as long as no rate changes
        before the waker is armed.  When no time has passed since the
        last settle nothing moves, and the delay found at the last
        arming is still current (see ``_next_dt``).
        """
        now = self.env.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            return self._next_dt
        self._last_settle = now
        # Same left fold over the table as adding each ``moved`` to the
        # stats field in turn, kept in a local until the end.
        transferred = self.stats.bytes_transferred
        next_dt = float("inf")
        for flow in self._flows.values():
            rate = flow.rate
            remaining = flow.remaining
            moved = rate * elapsed
            if moved > remaining:
                moved = remaining
            remaining -= moved
            flow.remaining = remaining
            transferred += moved
            if rate > _RATE_EPS:
                dt = remaining / rate
                if dt < next_dt:
                    next_dt = dt
        self.stats.bytes_transferred = transferred
        return next_dt

    def _settle_and_find_due(self) -> tuple[list[Flow], float] | None:
        """One pass: account bytes *and* collect completion candidates.

        Same arithmetic as :meth:`_settle`, with the wake-up's completion
        predicate evaluated on each flow in the same iteration — the flow
        table is walked once instead of twice per completion event.
        Returns the due flows and the minimum ``remaining / rate`` over
        the flows that survive them (the rescan's delay, while no rate
        changes).  Returns ``None`` when no time has passed since the
        last settle: nothing moved in this call, but an *earlier* settle
        at the same instant may already have driven flows to zero, so
        the caller must fall back to the full scan.
        """
        now = self.env.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            return None
        self._last_settle = now
        transferred = self.stats.bytes_transferred
        due: list[Flow] = []
        next_dt = _INF
        for flow in self._flows.values():
            rate = flow.rate
            remaining = flow.remaining
            moved = rate * elapsed
            if moved > remaining:
                moved = remaining
            remaining -= moved
            flow.remaining = remaining
            transferred += moved
            if remaining <= _BYTES_EPS:
                due.append(flow)
            elif rate > _RATE_EPS:
                dt = remaining / rate
                if dt < 1e-9:
                    due.append(flow)
                elif dt < next_dt:
                    next_dt = dt
        self.stats.bytes_transferred = transferred
        return due, next_dt

    def _rerate(self, dirty: list[int], next_dt: float | None) -> None:
        """Bring the rates up to date after flows were added or removed,
        then re-arm the wake-up.

        ``dirty`` names the NIC resources whose flow set changed and that
        still carry flows.  With nothing dirty and no aggregate switch
        every rate is already current, and the waker is armed at
        ``next_dt``, the delay the caller already knows (``None``
        rescans).  Otherwise a switch (one capacity couples every flow)
        or a small table gets the full solve; a larger table re-solves
        only the connected component of flows reachable from the dirty
        resources — flows in untouched components keep their rates,
        which the full progressive fill would reproduce bit-for-bit
        anyway because disjoint components never share a capacity term.

        Only the first solve at an instant runs here.  A second change
        at the same instant that needs one cancels the waker the first
        armed and schedules one ``LATE`` :meth:`_on_flush`; until that
        runs, every change only adds its dirty NICs (its ``next_dt``
        may be stale, and the deferred solve rescans anyway).  That
        solve covers every flow whose rate the skipped solves could
        have changed — the rest keep rates that were exact and that no
        skipped change touched — so it leaves the same rates, and arms
        the same delay, as the instant's last eager solve would have.
        The skipped allocations are dead: no time passes before the end
        of the instant.  A change that needs no solve never starts a
        deferral, so an instant of isolated changes pays no extra event.
        """
        if self._flush is not None:
            self._flush_dirty += dirty
            return
        switch = self.switch_bandwidth is not None
        if not dirty and not switch:
            self._schedule_wakeup(next_dt)
            return
        env = self.env
        now = env._now
        if now == self._solved_at:
            waker = self._waker
            if waker is not None:
                waker.callbacks.remove(self._wake_cb)
                self._waker = None
            flush = Event(env)
            flush._value = None
            flush.callbacks = [self._flush_cb]
            env.schedule(flush, priority=LATE)
            self._flush = flush
            self._flush_dirty = dirty
            return
        self._solved_at = now
        if switch or len(self._flows) <= self.incremental_cutoff:
            self._waterfill()
        else:
            self._waterfill(self._dirty_component(dirty))
        self._schedule_wakeup()

    def _on_flush(self, _event: Event) -> None:
        """``LATE`` callback: the one deferred solve of this instant, over
        the union of the NICs its skipped changes dirtied."""
        self._flush = None
        self._solved_at = -_INF  # so that _rerate solves, not defers
        self._rerate(self._flush_dirty, None)

    def _flush_now(self) -> None:
        """Run a pending end-of-instant solve now, for a rate reader."""
        flush = self._flush
        if flush is not None:
            flush.callbacks = []  # cancelled: it pops as an empty event
            self._on_flush(flush)

    def _rebuild_index(self) -> list[dict[int, Flow]]:
        """Build ``_by_resource`` from the flow table (first restricted
        solve only; afterwards add/remove maintain it incrementally)."""
        num_nodes = self.num_nodes
        by_resource: list[dict[int, Flow]] = [
            {} for _ in range(2 * num_nodes)
        ]
        for fid, flow in self._flows.items():
            by_resource[flow.src][fid] = flow
            by_resource[num_nodes + flow.dst][fid] = flow
        self._by_resource = by_resource
        return by_resource

    def _dirty_component(
        self, dirty: _t.Iterable[int]
    ) -> list[Flow] | None:
        """Flows (ascending fid) connected to the dirty resources.

        Returns ``None`` to request a full solve: once the component
        covers more than half the active flows the restricted solve can
        no longer win — the traversal bails out rather than finish
        discovering a component it will not use.  (Never called with an
        aggregate switch, which couples every flow.)  The first call
        builds the NIC index.
        """
        by_resource = self._by_resource
        if by_resource is None:
            by_resource = self._rebuild_index()
        num_nodes = self.num_nodes
        bail = len(self._flows) // 2
        seen_keys: set[int] = set()
        component: set[int] = set()
        frontier: list[int] = []
        for key in dirty:
            if key not in seen_keys:
                seen_keys.add(key)
                frontier.append(key)
        while frontier:
            key = frontier.pop()
            flows_here = by_resource[key]
            if not flows_here:
                continue
            # Walk the index dict directly: its insertion order is a
            # deterministic function of the (deterministic) simulation,
            # so the bail-out point is reproducible run-to-run, and the
            # discovered component is a set — order-independent — so the
            # solve itself cannot see the traversal order.  Sorting a
            # snapshot per visited resource (the previous form) was the
            # single largest cost of the discovery at scale.
            for fid, flow in flows_here.items():
                if fid in component:
                    continue
                component.add(fid)
                if len(component) > bail:
                    return None
                tx = flow.src
                if tx not in seen_keys:
                    seen_keys.add(tx)
                    frontier.append(tx)
                rx = num_nodes + flow.dst
                if rx not in seen_keys:
                    seen_keys.add(rx)
                    frontier.append(rx)
        flows = self._flows
        return [flows[fid] for fid in sorted(component)]

    def _waterfill(self, component: list[Flow] | None = None) -> None:
        """Assign max-min fair rates to active flows.

        Classic progressive filling: repeatedly find the most constrained
        resource (capacity / unrated flows crossing it), freeze those flows
        at the fair share, subtract, and repeat.  When ``component`` is
        given it must be a union of whole connected components in
        ascending-fid order; the fill then touches only those flows and
        their resources.  Each component's arithmetic — key insertion
        order, ``cap / count`` sequence, tie-breaks — is identical to its
        slice of the full solve, because resources never span components,
        so the resulting rates are bit-identical.

        Each round freezes the bottleneck's flows as one group, which is
        bit-identical to freezing them one flow at a time:

        * every subtraction in a round is the same ``share``, so each
          other resource sees the same sequence of clamped subtractions;
        * every flow on the bottleneck freezes in the round, so its own
          count ends at 0 and its capacity is never read again: its
          updates are dead, and the round only zeroes its count;
        * the heap path pushes a candidate only for a resource other
          than the bottleneck (the switch once per round).  A candidate
          is valid while its share equals its resource's current ``cap
          / count``, and each live resource's current candidate is on
          the heap either way, so every pop sees the same valid
          ``(share, seq)`` keys and picks the same bottleneck.
        """
        if component is None:
            self.stats.solves_full += 1
            flows: _t.Collection[Flow] = self._flows.values()
        else:
            self.stats.solves_restricted += 1
            flows = component
        if not flows:
            return

        # Resources: tx NIC (key ``node``) and rx NIC (key ``num_nodes +
        # node``) per node, plus optionally the aggregate switch.  Each
        # holds one fused ``[remaining capacity, unrated flow count,
        # members, seq]`` entry, ``seq`` its first-seen position in
        # ``entries``, which the scan walks (strict ``<``: the first seen
        # wins a tie) and the heap breaks ties by.  A NIC entry's members
        # are ``(flow, seq of the flow's other NIC)`` pairs and the
        # switch's are ``(flow, tx seq, rx seq)`` triples, so a freeze
        # looks up no key.  (Positions, not the entries themselves: an
        # entry reachable from its partner's members would make every
        # solve leave reference cycles for the garbage collector.)  A
        # rate below zero marks a flow not yet frozen.
        link_bandwidth = self.link_bandwidth
        num_nodes = self.num_nodes
        state: dict[int, int] = {}
        entries: list[list[_t.Any]] = []
        for flow in flows:
            flow.rate = -1.0
            key = flow.src
            tx_seq = state.get(key)
            if tx_seq is None:
                tx_seq = state[key] = len(entries)
                entries.append([link_bandwidth, 0, [], tx_seq])
            key = num_nodes + flow.dst
            rx_seq = state.get(key)
            if rx_seq is None:
                rx_seq = state[key] = len(entries)
                entries.append([link_bandwidth, 0, [], rx_seq])
            entry = entries[tx_seq]
            entry[1] += 1
            entry[2].append((flow, rx_seq))
            entry = entries[rx_seq]
            entry[1] += 1
            entry[2].append((flow, tx_seq))
        switch: list[_t.Any] | None = None
        if self.switch_bandwidth is not None:
            triples = [
                (flow, state[flow.src], state[num_nodes + flow.dst])
                for flow in flows
            ]
            switch = [
                self.switch_bandwidth, len(triples), triples, len(entries)
            ]
            entries.append(switch)

        heap: list[tuple[float, int, list[_t.Any]]] | None = None
        if len(entries) > self.waterfill_heap_cutoff:
            # Sub-quadratic fill: a lazy-invalidation min-heap of
            # ``(share, seq, entry)`` candidates replaces the per-round
            # scan.  A stale candidate (its share is no longer the
            # entry's current quotient) is dropped on pop, so the first
            # valid pop is the exact ``(share, seq)`` minimum, the entry
            # the scan would select.  Cost drops from rounds × entries
            # to O((entries + flows) log entries).
            heap = [
                (entry[0] / entry[1], entry[3], entry) for entry in entries
            ]
            _heapify(heap)
        left = len(flows)
        best: list[_t.Any] | None
        share: float
        while left:
            if heap is None:
                best = None
                share = _INF
                for entry in entries:
                    count = entry[1]
                    if count:
                        quotient = entry[0] / count
                        if quotient < share:
                            share = quotient
                            best = entry
                assert best is not None
            else:
                share, _, best = _heappop(heap)
                count = best[1]
                if not count or best[0] / count != share:
                    continue
            frozen = best[1]
            best[1] = 0
            left -= frozen
            if best is switch:
                for flow, tx, rx in best[2]:
                    if flow.rate < 0.0:
                        flow.rate = share
                        for seq in (tx, rx):
                            entry = entries[seq]
                            cap = entry[0] - share
                            entry[0] = cap = cap if cap > 0.0 else 0.0
                            count = entry[1] - 1
                            entry[1] = count
                            if heap is not None and count:
                                _heappush(heap, (cap / count, seq, entry))
                continue
            for flow, seq in best[2]:
                if flow.rate < 0.0:
                    flow.rate = share
                    entry = entries[seq]
                    cap = entry[0] - share
                    entry[0] = cap = cap if cap > 0.0 else 0.0
                    count = entry[1] - 1
                    entry[1] = count
                    if heap is not None and count:
                        _heappush(heap, (cap / count, seq, entry))
            if switch is not None:
                cap = switch[0]
                for _ in range(frozen):
                    cap -= share
                    cap = cap if cap > 0.0 else 0.0
                switch[0] = cap
                count = switch[1] - frozen
                switch[1] = count
                if heap is not None and count:
                    _heappush(heap, (cap / count, switch[3], switch))

    def _schedule_wakeup(self, next_dt: float | None = None) -> None:
        """(Re)arm the timer that fires at the next flow completion.

        ``next_dt`` is the delay to the next completion when the caller
        already knows it; ``None`` rescans the flow table for it.

        The timer is a bare :class:`Timeout` with :meth:`_on_wake` as its
        only callback — no process, no generator.  Rearming cancels the
        previous timer by *removing the callback*: the old timeout stays
        scheduled but dead and costs one empty pop when it surfaces, not
        a process interrupt.
        """
        waker = self._waker
        if waker is not None:
            callbacks = waker.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._wake_cb)
                except ValueError:  # pragma: no cover - already fired
                    pass
            self._waker = None
        if not self._flows:
            self._next_dt = float("inf")
            return
        if next_dt is None:
            next_dt = float("inf")
            for flow in self._flows.values():
                rate = flow.rate
                if rate > _RATE_EPS:
                    dt = flow.remaining / rate
                    if dt < next_dt:
                        next_dt = dt
        if next_dt == float("inf"):
            # No flow can progress (should not happen with positive
            # capacities); fail loudly rather than deadlock silently.
            raise SimulationError(
                "network fabric stalled: active flows but zero rates"
            )
        self._next_dt = next_dt
        waker = self.env.timeout(max(0.0, next_dt))
        waker.callbacks.append(self._wake_cb)
        self._waker = waker

    def _on_wake(self, _event: Event) -> None:
        """Timer callback: settle and complete any finished flows."""
        self._waker = None
        flows = self._flows
        found = self._settle_and_find_due()
        next_dt: float | None = None
        if found is None:
            # Zero elapsed time: the bytes were already accounted by an
            # earlier settle at this instant, so scan the table for the
            # completions that settle may have produced.
            finished = [
                flow
                for flow in self._flows.values()
                if flow.remaining <= _BYTES_EPS
                or (
                    flow.rate > _RATE_EPS
                    and flow.remaining / flow.rate < 1e-9
                )
            ]
        else:
            finished, next_dt = found
        if not finished and flows:
            # Floating-point dust: we woke for a completion but rounding
            # left a hair of the payload.  Force-complete the flow that was
            # due, or the wake-up loop would spin on ~zero time steps.
            next_dt = None
            due = min(
                (f for f in self._flows.values() if f.rate > _RATE_EPS),
                key=lambda f: f.remaining / f.rate,
                default=None,
            )
            if due is not None:
                finished = [due]
        env = self.env
        now = env.now
        latency = self.latency
        tracer = env.tracer
        tx_load = self._tx_load
        rx_load = self._rx_load
        num_nodes = self.num_nodes
        by_resource = self._by_resource
        self.stats.flows_completed += len(finished)
        for flow in finished:
            fid = flow.fid
            src = flow.src
            dst = flow.dst
            del flows[fid]
            if by_resource is not None:
                del by_resource[src][fid]
                del by_resource[num_nodes + dst][fid]
            tx_load[src] -= 1
            rx_load[dst] -= 1
            if tracer.enabled:
                # The span covers wire time up to last-byte arrival; the
                # tracer only records, so tracing never perturbs the sim.
                tracer.transfer(
                    flow.src,
                    flow.dst,
                    flow.size,
                    flow.started_at,
                    now + latency,
                )
            batch = flow.batch
            assert batch is not None
            batch.pending -= 1
            if not batch.pending:
                # The batch's last byte arrives ``latency`` seconds after
                # it was put on the wire; trigger the batch event with
                # that delay.  Its earlier flows schedule nothing.
                done = batch.event
                done._ok = True
                done._value = now - flow.started_at + latency
                env.schedule(done, delay=latency)
        # A NIC that lost a flow is dirty only if it still carries
        # others: a flow that was alone on both its NICs leaves every
        # surviving rate as it was.
        dirty: list[int] = []
        for flow in finished:
            if tx_load[flow.src]:
                dirty.append(flow.src)
            if rx_load[flow.dst]:
                dirty.append(num_nodes + flow.dst)
        self._rerate(dirty, next_dt)
