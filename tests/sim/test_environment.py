"""Unit tests for the event-loop environment."""

import pytest

from repro.errors import SimulationError
from repro.sim import LATE, Environment, Event
from repro.sim.core import EmptySchedule
from repro.sim.events import NORMAL, URGENT


class TestRun:
    def test_run_until_time(self):
        env = Environment()
        ticks = []

        def clock(env):
            while True:
                ticks.append(env.now)
                yield env.timeout(1)

        env.process(clock(env))
        env.run(until=3.5)
        assert ticks == [0, 1, 2, 3]
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return "finished"

        assert env.run(env.process(proc(env))) == "finished"

    def test_run_until_never_triggered_event_deadlocks(self):
        env = Environment()
        pending = env.event()
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(pending)

    def test_run_until_already_processed_event(self):
        env = Environment()
        event = env.event().succeed("v")
        env.run()
        assert env.run(event) == "v"

    def test_run_drains_queue_when_no_until(self):
        env = Environment()
        env.timeout(1)
        env.timeout(7)
        env.run()
        assert env.now == 7

    def test_initial_time(self):
        env = Environment(initial_time=100)
        env.timeout(5)
        env.run()
        assert env.now == 105

    def test_unwaited_failed_event_raises_from_run(self):
        """A failed event nobody waits on or defuses raises from run."""
        env = Environment()

        def failer():
            yield env.timeout(1.0)
            event = env.event()
            event.fail(RuntimeError("boom"))

        env.process(failer())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()


class TestStep:
    def test_step_on_empty_queue(self):
        env = Environment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_returns_next_time(self):
        env = Environment()
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2

    def test_peek_empty_is_infinity(self):
        env = Environment()
        assert env.peek() == float("inf")


class TestDeterminism:
    def test_equal_time_events_fifo(self):
        env = Environment()
        order = []

        def proc(env, name):
            yield env.timeout(1)
            order.append(name)

        for name in ("a", "b", "c"):
            env.process(proc(env, name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_repeated_runs_identical(self):
        def simulate():
            env = Environment()
            log = []

            def worker(env, name, delay):
                while env.now < 10:
                    yield env.timeout(delay)
                    log.append((env.now, name))

            env.process(worker(env, "x", 2))
            env.process(worker(env, "y", 3))
            env.run(until=10)
            return log

        assert simulate() == simulate()


def _marker(env, order):
    """``mark(name, priority, delay)`` schedules an event that logs
    ``(name, env.now)`` when it is processed."""

    def mark(name, priority=NORMAL, delay=0.0):
        event = Event(env)
        event._value = None
        event.callbacks = [lambda _: order.append((name, env.now))]
        env.schedule(event, priority=priority, delay=delay)
        return event

    return mark


class TestOrdering:
    """The heap pops in ``(time, priority, sequence)`` order."""

    def test_urgent_before_normal_at_equal_time(self):
        env = Environment()
        order: list[tuple[str, float]] = []
        mark = _marker(env, order)
        mark("normal-first")
        mark("urgent-later", URGENT)
        mark("normal-later")
        mark("future-urgent", URGENT, delay=1.0)
        mark("future-normal", NORMAL, delay=1.0)
        env.run()
        assert [name for name, _ in order] == [
            "urgent-later", "normal-first", "normal-later",
            "future-urgent", "future-normal",
        ]

    @pytest.mark.parametrize("delay", [0.0, 1.5])
    def test_fifo_at_equal_time_and_priority(self, delay):
        env = Environment()
        order: list[tuple[str, float]] = []
        mark = _marker(env, order)
        names = [f"e{i}" for i in range(50)]
        for name in names:
            mark(name, delay=delay)
        env.run()
        assert order == [(name, delay) for name in names]

    def test_late_event_pops_after_its_instant_and_before_the_next(self):
        """``env.schedule(event, priority=LATE)`` runs after every event at
        its instant — URGENT or NORMAL, scheduled before or after it, and
        the cascades those trigger — and before any later instant."""
        env = Environment()
        order: list[tuple[str, float]] = []
        mark = _marker(env, order)

        def at_one():
            yield env.timeout(1.0)
            mark("normal-before")
            mark("urgent-before", URGENT)
            late = mark("late", LATE)
            late.callbacks.append(lambda _: mark("normal-from-late"))
            cascade = mark("normal-after")
            cascade.callbacks.append(
                lambda _: mark("urgent-from-cascade", URGENT)
            )
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


class TestInvalidDelays:
    """A NaN time would break the heap's tuple order (every compare with
    it is false), so the clock could run backwards; the kernel rejects it
    where it enters, along with negative delays."""

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda env: env.timeout(float("nan")),
            lambda env: env.schedule(env.event(), delay=float("nan")),
            lambda env: env.schedule(env.event(), delay=-1.0),
            lambda env: env.run(until=float("nan")),
        ],
        ids=["timeout", "schedule", "schedule-negative", "run-until"],
    )
    def test_rejected(self, schedule):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            schedule(env)
        assert env.peek() == 1.0


@pytest.mark.parametrize(
    "name",
    sorted(
        __import__(
            "tests.faults.test_zero_perturbation", fromlist=["CASES"]
        ).CASES
    ),
)
def test_pins_hold_with_tracer_and_sampler_attached(name, vgg19_partition):
    """The five pinned scenarios, run with both observers attached at
    once, stay bit-identical (traced-only and sampled-only variants are
    pinned in their own suites)."""
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
