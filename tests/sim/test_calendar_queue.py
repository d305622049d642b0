"""Differential proof: the calendar queue pops like one global heap.

The kernel replaced its single binary heap with
:class:`repro.sim.calendar.CalendarQueue` (two delay-zero FIFO lanes +
an overflow heap).  Determinism pins only hold if the pop order is
*identical* to the old heap under the ``(time, priority, seq)`` tuple
order — including duplicate timestamps, equal priorities, and entries
whose payload was cancelled after scheduling (the kernel cancels by
emptying callbacks; the queue entry itself always pops).  These tests
drive both structures through the same randomized, seeded schedules and
require equality on every popped tuple.
"""

import heapq
import random

import pytest

from repro.sim import LATE, Environment, Event
from repro.sim.events import NORMAL, URGENT
from repro.sim.calendar import CalendarQueue


def _drive(seed: int, ops: int) -> None:
    """Random interleaving of schedules/cancels/pops, mirrored into a
    reference heap; asserts identical pop order throughout."""
    rng = random.Random(seed)
    queue = CalendarQueue()
    reference: list = []
    now = 0.0
    seq = 0
    cancelled: set[int] = set()
    live: list[int] = []  # seqs still pending, for cancel picks

    for _ in range(ops):
        action = rng.random()
        if action < 0.55:
            # Schedule.  Coarse delay grid forces duplicate timestamps;
            # immediate entries use all three priorities (a LATE one
            # goes to the heap), future entries get a random priority
            # too (Environment.schedule allows it).
            delay = rng.choice((0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 2.5))
            priority = rng.choice((0, 1, 1, 2))
            entry = (now + delay, priority, seq, None)
            queue.push(entry, delay == 0.0)
            heapq.heappush(reference, entry)
            live.append(seq)
            seq += 1
        elif action < 0.65:
            # Cancel: the kernel's model — mark the payload dead, leave
            # the entry queued.  Both sides must still pop it in place.
            if live:
                cancelled.add(live[rng.randrange(len(live))])
        else:
            if reference:
                expected = heapq.heappop(reference)
                got = queue.pop()
                assert got == expected
                now = max(now, got[0])
                live.remove(got[2])
                cancelled.discard(got[2])
    # Drain: every remaining entry pops in reference order.
    while reference:
        assert queue.pop() == heapq.heappop(reference)
    assert len(queue) == 0
    with pytest.raises(IndexError):
        queue.pop()


@pytest.mark.parametrize("seed", [0, 1, 7, 20260809, 424242])
def test_randomized_pop_order_matches_reference_heap(seed):
    _drive(seed, ops=4000)


def test_duplicate_time_and_priority_break_ties_by_sequence():
    queue = CalendarQueue()
    entries = [(1.0, 1, seq, None) for seq in range(50)]
    for entry in entries:
        queue.push(entry)  # via the heap
    assert [queue.pop() for _ in entries] == entries

    for entry in entries:
        queue.push(entry, True)  # via the NORMAL lane
    assert [queue.pop() for _ in entries] == entries


def test_urgent_lane_wins_at_equal_time_and_lower_seq_wins_within():
    queue = CalendarQueue()
    queue.push((1.0, 1, 0, "normal-first"), True)
    queue.push((1.0, 0, 1, "urgent-later"), True)
    queue.push((1.0, 1, 2, "normal-later"), True)
    assert [queue.pop()[3] for _ in range(3)] == [
        "urgent-later", "normal-first", "normal-later",
    ]


def test_late_entries_live_in_the_heap_and_pop_last_at_their_instant():
    queue = CalendarQueue()
    queue.push((1.0, 2, 0, "late"), True)
    assert len(queue.future) == 1 and not queue.normal
    queue.push((1.0, 1, 1, "normal-after"), True)
    queue.push((1.0, 0, 2, "urgent-after"), True)
    queue.push((1.5, 0, 3, "next-instant"))
    assert [queue.pop()[3] for _ in range(4)] == [
        "urgent-after", "normal-after", "late", "next-instant",
    ]


def test_late_event_pops_after_its_instant_and_before_the_next():
    """``env.schedule(event, priority=LATE)`` runs after every event at
    its instant — URGENT or NORMAL, scheduled before or after it, and
    the cascades those trigger — and before any later instant."""
    env = Environment()
    order: list[tuple[str, float]] = []

    def mark(name, priority=NORMAL, delay=0.0):
        event = Event(env)
        event._value = None
        event.callbacks = [lambda _: order.append((name, env.now))]
        env.schedule(event, priority=priority, delay=delay)
        return event

    def at_one():
        yield env.timeout(1.0)
        mark("normal-before")
        mark("urgent-before", URGENT)
        late = mark("late", LATE)
        late.callbacks.append(lambda _: mark("normal-from-late"))
        cascade = mark("normal-after")
        cascade.callbacks.append(lambda _: mark("urgent-from-cascade", URGENT))
        mark("urgent-after", URGENT)

    mark("next-instant", NORMAL, delay=1.0 + 1e-9)
    env.process(at_one())
    env.run()
    assert order == [
        ("urgent-before", 1.0),
        ("urgent-after", 1.0),
        ("normal-before", 1.0),
        ("normal-after", 1.0),
        ("urgent-from-cascade", 1.0),
        ("late", 1.0),
        ("normal-from-late", 1.0),
        ("next-instant", 1.0 + 1e-9),
    ]


def test_non_monotone_immediate_append_falls_back_to_the_heap():
    """A lane append that would break head-is-min routes to the heap
    and the global order survives."""
    queue = CalendarQueue()
    queue.push((5.0, 1, 1, None), True)
    queue.push((3.0, 1, 2, None), True)  # time went backwards
    assert queue.peek_time() == 3.0
    assert queue.pop() == (3.0, 1, 2, None)
    assert queue.pop() == (5.0, 1, 1, None)


def test_peek_len_bool_and_repr():
    queue = CalendarQueue()
    assert queue.peek_time() == float("inf")
    assert not queue
    queue.push((2.0, 1, 0, None))
    queue.push((1.0, 0, 1, None), True)
    queue.push((1.0, 1, 2, None), True)
    assert queue.peek_time() == 1.0
    assert len(queue) == 3
    assert bool(queue)
    assert "urgent=1" in repr(queue) and "future=1" in repr(queue)


# -- end-to-end pin: traced AND sampled simultaneously ------------------------


@pytest.mark.parametrize(
    "name",
    sorted(
        __import__(
            "tests.faults.test_zero_perturbation", fromlist=["CASES"]
        ).CASES
    ),
)
def test_pins_hold_with_tracer_and_sampler_attached(name, vgg19_partition):
    """The five pinned scenarios, run over the calendar queue with both
    observers attached at once, stay bit-identical (traced-only and
    sampled-only variants are pinned in their own suites)."""
    from repro.hardware import Cluster, ClusterSpec
    from repro.obs import Tracer
    from repro.obs.timeseries import Sampler
    from tests.faults.test_zero_perturbation import CASES, PINNED, _config

    cls, make_straggler, kwargs = CASES[name]
    cluster = Cluster(ClusterSpec(num_nodes=8))
    runtime = cls(
        _config(vgg19_partition, **kwargs),
        cluster,
        straggler=make_straggler(),
        tracer=Tracer(),
        sampler=Sampler(interval=0.5),
    )
    assert repr(runtime.run().total_time) == PINNED[name]
