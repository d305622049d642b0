"""One fabric re-rate per instant.

No simulated time passes within an instant, so every rate the fabric
assigns before the instant's last change is dead.  The first change at
an instant re-rates at once; every later one only records the NICs it
dirtied, and a single ``LATE`` event re-rates them all at the end of the
instant.  These tests pin the cost (one eager re-rate plus one deferred
solve), the waker the first change armed (cancelled, never fired), the
readers (they see solved rates mid-instant) and a run stopped with the
deferred re-rate still queued (it resumes to the same times).
"""

from repro.net import Fabric
from repro.sim import LATE, Environment
from repro.sim.events import NORMAL
from tests.net.checked_fabric import CheckedFabric

#: Ten isolated flows on nodes 20..39: they keep the table large enough
#: that a few contended batches stay below the restricted solve's
#: bail-out to a full solve.
BACKGROUND = [(20 + 2 * i, 21 + 2 * i, 5e3) for i in range(10)]


def _contended(index):
    """Two flows into one receiver on nodes ``3 * index`` onwards."""
    base = 3 * index
    return [(base, base + 2, 1e3), (base + 1, base + 2, 1e3)]


def _late_spy(env):
    """Count the events scheduled at ``LATE`` priority."""
    late = []
    original = env.schedule

    def spy(event, priority=NORMAL, delay=0.0):
        if priority == LATE:
            late.append(event)
        return original(event, priority, delay)

    env.schedule = spy
    return late


def _fabric(env, cls=CheckedFabric):
    fabric = cls(env, num_nodes=40, link_bandwidth=100.0, latency=0.0)
    fabric.incremental_cutoff = 0
    return fabric


def test_k_batches_at_one_instant_cost_one_eager_and_one_deferred_solve():
    env = Environment()
    fabric = _fabric(env)
    late = _late_spy(env)
    fabric.transfer_many(BACKGROUND)
    k = 4

    def main():
        yield env.timeout(1.0)
        for index in range(k):
            fabric.transfer_many(_contended(index))
        # The first batch solved at once; the rest wait for the end of
        # the instant.
        assert fabric.stats.solves_restricted == 1
        assert len(late) == 1

    env.process(main())
    env.run(until=2.0)
    assert fabric.stats.solves_full == 0
    assert fabric.stats.solves_restricted == 2
    assert len(late) == 1
    rates = {(f.src, f.dst): f.rate for f in fabric.active_flows}
    for index in range(k):
        for src, dst, _ in _contended(index):
            assert rates[src, dst] == 50.0
    env.run()
    assert fabric.stats.flows_completed == len(BACKGROUND) + 2 * k


def test_first_changes_waker_never_fires_in_a_deferred_instant():
    env = Environment()
    fabric = _fabric(env)
    fired = []

    def main():
        yield env.timeout(1.0)
        fabric.transfer_many(_contended(0))
        first = fabric._waker
        assert first is not None and first.callbacks == [fabric._wake_cb]
        fabric.transfer_many(_contended(1))
        # Cancelled by the second change: no timer runs until the
        # deferred re-rate arms a fresh one.
        assert first.callbacks == []
        assert fabric._waker is None
        first.callbacks.append(lambda _: fired.append(env.now))

    env.process(main())
    env.run(until=1.5)
    assert fabric._flush is None
    assert fabric._waker is not None
    assert fabric._waker.callbacks == [fabric._wake_cb]
    env.run()
    # The cancelled timer still pops (as an empty event) at its old
    # time, 20 s after the admissions, with no fabric callback on it.
    assert fired == [21.0]
    assert fabric.stats.flows_completed == 4


def test_readers_see_solved_rates_between_same_instant_admissions():
    env = Environment()
    fabric = _fabric(env)
    fabric.transfer_many(BACKGROUND)
    fabric.transfer(0, 1, 1e3)  # isolated: no solve
    fabric.transfer(2, 1, 1e3)  # the instant's first solve
    fabric.transfer(3, 1, 1e3)  # a second one: deferred
    assert fabric._flush is not None
    assert fabric.utilization(3, "tx") == (100.0 / 3) / 100.0
    assert fabric.utilization(1, "rx") == 1.0
    assert fabric._flush is None
    fabric.transfer(4, 1, 1e3)  # deferred again, at the same instant
    assert fabric._flush is not None
    rates = {(f.src, f.dst): f.rate for f in fabric.active_flows}
    assert [rates[src, 1] for src in (0, 2, 3, 4)] == [25.0] * 4
    assert rates[20, 21] == 100.0
    assert fabric.stats.solves_restricted == 3
    env.run()
    # The background's 5 kB at the full link outlast the shared flows.
    assert env.now == 50.0
    assert fabric.stats.flows_completed == len(BACKGROUND) + 4


def _stop_mid_instant(read):
    """Admit two contended batches at t=1, stop the run before their
    end-of-instant re-rate, optionally read the rates, then finish.
    Returns the repr'd batch completion times and the fabric."""
    env = Environment()
    fabric = _fabric(env, Fabric)
    done = []

    def batch(index):
        yield env.timeout(1.0)
        isolated = (20 + 2 * index, 21 + 2 * index, 2e3)
        yield fabric.transfer_many(_contended(index) + [isolated])
        done.append((index, repr(env.now)))

    for index in range(3):
        env.process(batch(index))
    if read is not None:
        env.run(until=0.5)
        # The stop event is scheduled after the batches' timeouts, so
        # it pops after them at t=1 but before the LATE re-rate.
        env.run(until=1.0)
        assert fabric._flush is not None
        if read:
            rates = sorted(f.rate for f in fabric.active_flows)
            assert rates == [50.0] * 6 + [100.0] * 3
            assert fabric._flush is None
    env.run()
    return sorted(done), fabric


def test_run_stopped_with_a_pending_rerate_resumes_to_the_same_times():
    straight, fabric = _stop_mid_instant(read=None)
    # One eager solve (a full one: the first batch's component is most
    # of the table) and one deferred; every flow ends in one wake.
    assert (fabric.stats.solves_full, fabric.stats.solves_restricted) == (1, 1)
    assert straight == [(0, "21.0"), (1, "21.0"), (2, "21.0")]
    for read in (False, True):
        resumed, _ = _stop_mid_instant(read)
        assert resumed == straight
