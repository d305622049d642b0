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

The implementation is event-driven: whenever the set of active flows
changes, the fabric *settles* the bytes transferred since the previous
change at the previous rates, recomputes the fair-share allocation by
water-filling, and schedules a wake-up at the earliest projected flow
completion.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush

from repro.errors import SimulationError
from repro.sim import Environment, Event

#: Rates below this (bytes/second) are treated as zero to avoid scheduling
#: wake-ups astronomically far in the future due to floating-point dust.
_RATE_EPS = 1e-9

#: Remaining byte counts below this are considered complete.
_BYTES_EPS = 1e-6


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
    done: Event | None = None

    def __repr__(self) -> str:
        return (
            f"<Flow {self.fid} {self.src}->{self.dst} "
            f"{self.remaining:.0f}/{self.size:.0f}B @ {self.rate:.3g}B/s>"
        )


@dataclasses.dataclass
class FabricStats:
    """Aggregate accounting over the lifetime of a fabric."""

    flows_started: int = 0
    flows_completed: int = 0
    bytes_transferred: float = 0.0
    #: Waterfills over the whole flow table / over one dirty component.
    #: An isolated flow admitted without a solve counts in neither.
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
        if link_bandwidth <= 0:
            raise SimulationError(
                f"link bandwidth must be positive: {link_bandwidth}"
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
        #: Resource → {fid: flow} index over active flows, maintained on
        #: every add/remove.  It is what makes the incremental waterfill
        #: possible: the connected component of a changed NIC can be
        #: discovered without scanning the full flow table.  Resources
        #: are keyed by small ints — ``src`` for a tx NIC, ``num_nodes +
        #: dst`` for an rx NIC, ``-1`` for the switch — because these
        #: keys are hashed on every hot-path dict operation and int
        #: hashing is far cheaper than tuple hashing.
        self._by_resource: dict[int, dict[int, Flow]] = {}
        #: The index is built lazily: workloads that never leave the
        #: full-solve regime (small flow tables, or an aggregate switch)
        #: never pay the per-add/per-remove maintenance.  The first
        #: restricted solve rebuilds it from the flow table and clears
        #: this flag; from then on add/remove keep it current.
        self._index_stale: bool = True
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
        #: a callback removal — the orphaned timeout stays on the heap as
        #: a dead event for the run loop's fast-forward to elide — so a
        #: reallocation storm costs one Timeout each, not a full
        #: process interrupt/respawn cycle.
        self._waker: _t.Any = None
        self._wake_cb = self._on_wake  # one bound method for the lifetime
        #: Delay to the next completion as of the last arming (``inf``
        #: with no flows).  Every settle and every rate change is
        #: followed by a re-arm at the same instant, so while no time
        #: has passed since the last settle this is still the minimum
        #: of ``remaining / rate`` over the table.
        self._next_dt = float("inf")

    # -- public API ---------------------------------------------------------

    def transfer(self, src: int, dst: int, size: float) -> Event:
        """Start a transfer of ``size`` bytes; returns its completion event.

        A transfer between a node and itself is local and completes
        immediately (zero simulated time, no bandwidth consumed): parameter
        chunks and training samples on local storage are free to read, which
        is exactly the data-locality asymmetry Fela's policies exploit.
        """
        return self._start(((src, dst, size),))[0]

    def transfer_many(
        self, requests: _t.Iterable[tuple[int, int, float]]
    ) -> list[Event]:
        """Start several transfers at once; returns their completion events.

        Equivalent to calling :meth:`transfer` once per ``(src, dst,
        size)`` request at the same instant, but settles the in-flight
        byte accounting and re-waterfills the fair shares once for the
        whole batch instead of once per flow.  All intermediate rate
        assignments of the sequential form are dead (no simulated time
        passes between the calls), so the resulting allocation — and the
        simulation — is identical; only the host-side work shrinks.
        Collectives and input fetches launch their per-peer flow sets
        through this path.
        """
        return self._start(requests)

    @property
    def active_flows(self) -> list[Flow]:
        """Snapshot of flows currently in flight."""
        return list(self._flows.values())

    def utilization(self, node: int, direction: str = "tx") -> float:
        """Current fraction of a NIC direction's bandwidth in use."""
        self._check_node(node)
        if direction not in ("tx", "rx"):
            raise SimulationError(f"direction must be tx or rx: {direction}")
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
    ) -> list[Event]:
        """The one admission path behind :meth:`transfer` and
        :meth:`transfer_many`: validate, build the flows, admit them."""
        events: list[Event] = []
        env = self.env
        new: list[Flow] = []
        for src, dst, size in requests:
            self._check_node(src)
            self._check_node(dst)
            if size < 0:
                raise SimulationError(
                    f"transfer size must be >= 0: {size}"
                )
            done = env.event()
            events.append(done)
            if src == dst or size == 0:
                done.succeed(0.0)
                continue
            new.append(
                Flow(
                    fid=next(self._fid),
                    src=src,
                    dst=dst,
                    size=float(size),
                    remaining=float(size),
                    started_at=env.now,
                    done=done,
                )
            )
        if new:
            self._admit(new)
        return events

    def _admit(self, new: list[Flow]) -> None:
        """Settle, add a batch of flows landing at one instant, re-rate.

        In the restricted regime (no aggregate switch, flow table above
        ``incremental_cutoff``) a new flow whose tx and rx index groups
        hold only itself is *isolated*: a one-flow component, which the
        waterfill rates at ``link_bandwidth / 1``.  It gets exactly that
        rate with no discovery and no solve; only the other new flows'
        NICs go to :meth:`_dirty_component`.  Per-component solves equal
        the full solve bit for bit, so the allocation is unchanged.

        When the whole batch is isolated no existing rate changes, so
        the settle pass (which walks the table anyway) also yields the
        earliest completion among the old flows, and the waker is armed
        at the smaller of that and the new flows' ``size / bandwidth``
        — the value the rescan in :meth:`_schedule_wakeup` would find.
        """
        self.stats.flows_started += len(new)
        flows = self._flows
        restricted = (
            self.switch_bandwidth is None
            and len(flows) + len(new) > self.incremental_cutoff
        )
        if restricted and self._index_stale:
            self._rebuild_index()
        if not self._index_stale:
            for flow in new:
                self._index_flow(flow)
        next_dt = self._settle()
        for flow in new:
            flows[flow.fid] = flow
        if not restricted:
            self._waterfill()
            self._schedule_wakeup()
            return
        by_resource = self._by_resource
        num_nodes = self.num_nodes
        bandwidth = self.link_bandwidth
        dirty: list[int] = []
        for flow in new:
            tx = flow.src
            rx = num_nodes + flow.dst
            if len(by_resource[tx]) == 1 and len(by_resource[rx]) == 1:
                flow.rate = bandwidth
                if bandwidth > _RATE_EPS:
                    dt = flow.remaining / bandwidth
                    if dt < next_dt:
                        next_dt = dt
            else:
                dirty.append(tx)
                dirty.append(rx)
        if dirty:
            self._waterfill(self._dirty_component(dirty))
            self._schedule_wakeup()
        else:
            self._schedule_wakeup(next_dt)

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
        stats = self.stats
        next_dt = float("inf")
        for flow in self._flows.values():
            rate = flow.rate
            remaining = flow.remaining
            moved = rate * elapsed
            if moved > remaining:
                moved = remaining
            remaining -= moved
            flow.remaining = remaining
            stats.bytes_transferred += moved
            if rate > _RATE_EPS:
                dt = remaining / rate
                if dt < next_dt:
                    next_dt = dt
        return next_dt

    def _settle_and_find_due(self) -> list[Flow] | None:
        """One pass: account bytes *and* collect completion candidates.

        Same arithmetic as :meth:`_settle`, with the wake-up's completion
        predicate evaluated on each flow in the same iteration — the flow
        table is walked once instead of twice per completion event.
        Returns ``None`` when no time has passed since the last settle:
        nothing moved in this call, but an *earlier* settle at the same
        instant may already have driven flows to zero, so the caller must
        fall back to the full scan.
        """
        now = self.env.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            return None
        self._last_settle = now
        stats = self.stats
        due: list[Flow] = []
        for flow in self._flows.values():
            remaining = flow.remaining
            moved = flow.rate * elapsed
            if moved > remaining:
                moved = remaining
            remaining -= moved
            flow.remaining = remaining
            stats.bytes_transferred += moved
            if remaining <= _BYTES_EPS or (
                flow.rate > _RATE_EPS and remaining / flow.rate < 1e-9
            ):
                due.append(flow)
        return due

    def _index_flow(self, flow: Flow) -> None:
        by_resource = self._by_resource
        for key in (flow.src, self.num_nodes + flow.dst):
            group = by_resource.get(key)
            if group is None:
                by_resource[key] = {flow.fid: flow}
            else:
                group[flow.fid] = flow

    def _unindex_flow(self, flow: Flow) -> None:
        by_resource = self._by_resource
        for key in (flow.src, self.num_nodes + flow.dst):
            group = by_resource.get(key)
            if group is not None:
                group.pop(flow.fid, None)
                if not group:
                    del by_resource[key]

    def _reallocate(self, dirty: _t.Iterable[int]) -> None:
        """Recompute max-min fair rates and reschedule the wake-up.

        ``dirty`` names the NIC resources touched by the flow removals
        that triggered the call.  When no aggregate switch couples every
        flow to every other, and the flow table is large enough for the
        discovery to pay for itself (see ``incremental_cutoff``), only
        the connected component of flows reachable from those resources
        is re-solved; flows in untouched components keep their rates,
        which the full progressive fill would reproduce bit-for-bit
        anyway because disjoint components never share a capacity term.
        """
        if (
            self.switch_bandwidth is not None
            or len(self._flows) <= self.incremental_cutoff
        ):
            self._waterfill()
        else:
            if self._index_stale:
                self._rebuild_index()
            self._waterfill(self._dirty_component(dirty))
        self._schedule_wakeup()

    def _rebuild_index(self) -> None:
        """Build ``_by_resource`` from the flow table (first restricted
        solve only; afterwards add/remove maintain it incrementally)."""
        self._by_resource.clear()
        for flow in self._flows.values():
            self._index_flow(flow)
        self._index_stale = False

    def _dirty_component(
        self, dirty: _t.Iterable[int]
    ) -> list[Flow] | None:
        """Flows (ascending fid) connected to the dirty resources.

        Returns ``None`` to request a full solve: with an aggregate
        switch every flow shares one capacity (the dirty set always
        spans it), and once the component covers more than half the
        active flows the restricted solve can no longer win — the
        traversal bails out rather than finish discovering a component
        it will not use.
        """
        if self.switch_bandwidth is not None:
            return None
        by_resource = self._by_resource
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
            flows_here = by_resource.get(key)
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
        resource (capacity / unfrozen flows crossing it), freeze those flows
        at the fair share, subtract, and repeat.  When ``component`` is
        given it must be a union of whole connected components in
        ascending-fid order; the fill then touches only those flows and
        their resources.  Each component's arithmetic — key insertion
        order, ``cap / count`` sequence, tie-breaks — is identical to its
        slice of the full solve, because resources never span components,
        so the resulting rates are bit-identical.
        """
        if component is None:
            self.stats.solves_full += 1
            flows: list[Flow] | _t.Any = list(self._flows.values())
        else:
            self.stats.solves_restricted += 1
            flows = component
        for flow in flows:
            flow.rate = 0.0
        if not flows:
            return

        # Resources: tx NIC (key ``node``) and rx NIC (key ``num_nodes +
        # node``) per node, plus optionally the aggregate switch (key
        # ``-1``).  Each resource holds one fused ``[remaining capacity,
        # live (unfrozen) flow count, member flows]`` entry.  A round's
        # share scan walks ``entries``, an explicit list in resource
        # first-seen order — the same order the dict view used to yield,
        # now pinned by construction instead of by dict internals.  The
        # arithmetic — the ``cap / count`` sequence, the strict ``<``
        # tie-break, the clamp at zero — matches the naive per-flow form
        # exactly, so the allocation is bit-identical to it.
        link_bandwidth = self.link_bandwidth
        num_nodes = self.num_nodes
        state: dict[int, list[_t.Any]] = {}
        entries: list[list[_t.Any]] = []
        for flow in flows:
            for key in (flow.src, num_nodes + flow.dst):
                entry = state.get(key)
                if entry is None:
                    entry = [link_bandwidth, 1, [flow], len(entries)]
                    state[key] = entry
                    entries.append(entry)
                else:
                    entry[1] += 1
                    entry[2].append(flow)
        has_switch = self.switch_bandwidth is not None
        skey = -1
        if has_switch:
            entry = [
                _t.cast(float, self.switch_bandwidth),
                len(flows),
                list(flows),
                len(entries),
            ]
            state[skey] = entry
            entries.append(entry)

        unfrozen: set[int] = {flow.fid for flow in flows}
        infinity = float("inf")

        if len(entries) > self.waterfill_heap_cutoff:
            # Sub-quadratic fill: a lazy-invalidation min-heap of
            # ``(share, seq, entry)`` candidates replaces the per-round
            # scan.  Every time an entry's ``cap``/``count`` changes a
            # fresh candidate is pushed with the new ``cap / count``, so
            # the heap always holds each live entry's current share;
            # stale candidates are recognized on pop (the stored share
            # no longer equals the entry's current quotient) and
            # dropped.  The first valid pop is therefore the exact
            # ``(share, seq)`` minimum — the same entry the strict-``<``
            # first-seen scan selects, computing the same ``cap /
            # count`` float — so the freeze order, the arithmetic
            # sequence, and the resulting rates are bit-identical to
            # the scan's.  Cost drops from rounds × entries to
            # O((entries + flows) log entries).
            heap = [
                (entry[0] / entry[1], entry[3], entry) for entry in entries
            ]
            _heapify(heap)
            while unfrozen and heap:
                best_share, _, best_entry = _heappop(heap)
                count = best_entry[1]
                if not count or best_entry[0] / count != best_share:
                    continue
                for flow in best_entry[2]:
                    fid = flow.fid
                    if fid not in unfrozen:
                        continue
                    flow.rate = best_share
                    unfrozen.discard(fid)
                    for key in (flow.src, num_nodes + flow.dst):
                        entry = state[key]
                        cap = entry[0] - best_share
                        entry[0] = cap if cap > 0.0 else 0.0
                        count = entry[1] - 1
                        entry[1] = count
                        if count:
                            _heappush(
                                heap, (entry[0] / count, entry[3], entry)
                            )
                    if has_switch:
                        entry = state[skey]
                        cap = entry[0] - best_share
                        entry[0] = cap if cap > 0.0 else 0.0
                        count = entry[1] - 1
                        entry[1] = count
                        if count:
                            _heappush(
                                heap, (entry[0] / count, entry[3], entry)
                            )
        else:
            while unfrozen:
                # Fair share offered by each still-relevant resource.
                best_entry = None
                best_share = infinity
                for entry in entries:
                    count = entry[1]
                    if not count:
                        continue
                    share = entry[0] / count
                    if share < best_share:
                        best_share = share
                        best_entry = entry
                if best_entry is None:
                    break
                for flow in best_entry[2]:
                    fid = flow.fid
                    if fid not in unfrozen:
                        continue
                    flow.rate = best_share
                    unfrozen.discard(fid)
                    for key in (flow.src, num_nodes + flow.dst):
                        entry = state[key]
                        cap = entry[0] - best_share
                        entry[0] = cap if cap > 0.0 else 0.0
                        entry[1] -= 1
                    if has_switch:
                        entry = state[skey]
                        cap = entry[0] - best_share
                        entry[0] = cap if cap > 0.0 else 0.0
                        entry[1] -= 1

    def _schedule_wakeup(self, next_dt: float | None = None) -> None:
        """(Re)arm the timer that fires at the next flow completion.

        ``next_dt`` is the delay to the next completion when the caller
        already knows it; ``None`` rescans the flow table for it.

        The timer is a bare :class:`Timeout` with :meth:`_on_wake` as its
        only callback — no process, no generator.  Rearming cancels the
        previous timer by *removing the callback*: the old timeout stays
        scheduled but dead, which costs nothing at dispatch and is
        exactly the shape the run loop's analytical fast-forward elides
        when it sits at the head of a steady interval.
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
        finished = self._settle_and_find_due()
        if finished is None:
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
        if not finished and self._flows:
            # Floating-point dust: we woke for a completion but rounding
            # left a hair of the payload.  Force-complete the flow that was
            # due, or the wake-up loop would spin on ~zero time steps.
            due = min(
                (f for f in self._flows.values() if f.rate > _RATE_EPS),
                key=lambda f: f.remaining / f.rate,
                default=None,
            )
            if due is not None:
                finished = [due]
        tracer = self.env.tracer
        dirty: list[int] = []
        for flow in finished:
            del self._flows[flow.fid]
            if not self._index_stale:
                self._unindex_flow(flow)
            dirty.append(flow.src)
            dirty.append(self.num_nodes + flow.dst)
            self.stats.flows_completed += 1
            duration = self.env.now - flow.started_at + self.latency
            if tracer.enabled:
                # The span covers wire time up to last-byte arrival; the
                # tracer only records, so tracing never perturbs the sim.
                tracer.transfer(
                    flow.src,
                    flow.dst,
                    flow.size,
                    flow.started_at,
                    self.env.now + self.latency,
                )
            assert flow.done is not None
            # The last byte arrives ``latency`` seconds after it was put on
            # the wire; trigger the completion event with that delay.
            flow.done._ok = True
            flow.done._value = duration
            self.env.schedule(flow.done, delay=self.latency)
        self._reallocate(dirty)
