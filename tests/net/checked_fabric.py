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
"""

from repro.net import Fabric
from repro.net.fabric import _RATE_EPS


class CheckedFabric(Fabric):
    """:class:`Fabric` with the rate invariant asserted at every arming.

    The reference solve is not counted in ``stats``, so solve-count
    assertions see the same numbers as on a plain fabric.
    """

    checks = 0

    def _schedule_wakeup(self, next_dt=None):
        flows = list(self._flows.values())
        if flows:
            rates = [repr(flow.rate) for flow in flows]
            Fabric._waterfill(self)
            self.stats.solves_full -= 1
            fresh = [repr(flow.rate) for flow in flows]
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
