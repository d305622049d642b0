"""A fabric that checks its own rate invariant at every timer arming.

Every shortcut in :class:`~repro.net.Fabric` — isolated admission,
solve-free completion, per-component solves — rests on one invariant:
each active flow's rate equals what a fresh full waterfill of the
current flow table would assign.  When the waker is armed at a delay the
caller already knew, that delay must also equal what a rescan of the
table finds.  :class:`CheckedFabric` asserts both, compared by ``repr``,
every time the timer is armed, so a differential test driven through it
fails at the first divergent step instead of at a later completion time.
It also asserts that the timer never fires while an end-of-instant
re-rate is pending: the waker that instant's first change armed must
have been cancelled, since its delay came from rates already dead.

The fresh waterfill is :func:`reference_rates`, a plain per-flow
progressive fill kept here on purpose: it shares no code with
``Fabric._waterfill``, so the checks stay independent of the solver
they check.
"""

from repro.net import Fabric
from repro.net.fabric import _RATE_EPS


def reference_rates(flows, num_nodes, link_bandwidth, switch_bandwidth=None):
    """Max-min fair rates of ``flows``, in table order.

    The classic progressive fill, one flow at a time: each round scans
    the resources in first-seen order (tx NIC ``src``, rx NIC
    ``num_nodes + dst``, then the switch ``-1``) for the smallest
    ``cap / count`` (strict ``<``, so the first-seen resource wins a
    tie), freezes that resource's unfrozen flows at that share, and
    subtracts the share, clamped at zero, from every resource each
    frozen flow crosses.  A flow that never freezes is rated 0.0.
    """
    state = {}
    for flow in flows:
        for key in (flow.src, num_nodes + flow.dst):
            entry = state.get(key)
            if entry is None:
                state[key] = [link_bandwidth, 1, [flow]]
            else:
                entry[1] += 1
                entry[2].append(flow)
    if switch_bandwidth is not None:
        state[-1] = [switch_bandwidth, len(flows), list(flows)]
    rates = {flow.fid: 0.0 for flow in flows}
    unfrozen = set(rates)
    while unfrozen:
        best = None
        best_share = float("inf")
        for entry in state.values():
            if not entry[1]:
                continue
            share = entry[0] / entry[1]
            if share < best_share:
                best_share = share
                best = entry
        if best is None:
            break
        for flow in best[2]:
            if flow.fid not in unfrozen:
                continue
            rates[flow.fid] = best_share
            unfrozen.discard(flow.fid)
            keys = [flow.src, num_nodes + flow.dst]
            if switch_bandwidth is not None:
                keys.append(-1)
            for key in keys:
                entry = state[key]
                cap = entry[0] - best_share
                entry[0] = cap if cap > 0.0 else 0.0
                entry[1] -= 1
    return [rates[flow.fid] for flow in flows]


class CheckedFabric(Fabric):
    """:class:`Fabric` with the rate invariant asserted at every arming.

    The reference solve leaves the flows and ``stats`` alone, so
    solve-count assertions see the same numbers as on a plain fabric.
    """

    checks = 0

    def _schedule_wakeup(self, next_dt=None):
        flows = list(self._flows.values())
        if flows:
            rates = [repr(flow.rate) for flow in flows]
            fresh = [
                repr(rate)
                for rate in reference_rates(
                    flows,
                    self.num_nodes,
                    self.link_bandwidth,
                    self.switch_bandwidth,
                )
            ]
            assert fresh == rates, (rates, fresh)
            if next_dt is not None:
                rescan = min(
                    (
                        flow.remaining / flow.rate
                        for flow in flows
                        if flow.rate > _RATE_EPS
                    ),
                    default=float("inf"),
                )
                assert repr(next_dt) == repr(rescan), (next_dt, rescan)
            self.checks += 1
        super()._schedule_wakeup(next_dt)

    def _on_wake(self, event):
        assert self._flush is None, "waker fired in a deferred instant"
        super()._on_wake(event)
