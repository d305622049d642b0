"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Event, Timeout


class TestEvent:
    def test_initial_state(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value(self):
        env = Environment()
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self):
        env = Environment()
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_fail_then_processed_raises_if_undefused(self):
        env = Environment()
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("boom"))
        event.defused()
        env.run()  # no raise

    def test_callbacks_run_in_order(self):
        env = Environment()
        event = env.event()
        order = []
        event.callbacks.append(lambda e: order.append(1))
        event.callbacks.append(lambda e: order.append(2))
        event.succeed()
        env.run()
        assert order == [1, 2]

    def test_trigger_copies_state(self):
        env = Environment()
        source = env.event().succeed("payload")
        target = env.event()
        target.trigger(source)
        assert target.value == "payload"
        assert target.ok


class TestTimeout:
    def test_fires_after_delay(self):
        env = Environment()
        env.timeout(5)
        env.run()
        assert env.now == 5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_carries_value(self):
        env = Environment()
        timeout = env.timeout(1, value="v")
        env.run()
        assert timeout.value == "v"

    def test_zero_delay_fires_now(self):
        env = Environment()
        env.timeout(0)
        env.run()
        assert env.now == 0

    def test_delay_property(self):
        env = Environment()
        assert Timeout(env, 2.5).delay == 2.5


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, "a")
            t2 = env.timeout(3, "b")
            result = yield AllOf(env, [t1, t2])
            return (env.now, result.values())

        p = env.process(proc(env))
        assert env.run(p) == (3, ["a", "b"])

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, "fast")
            t2 = env.timeout(3, "slow")
            result = yield AnyOf(env, [t1, t2])
            return (env.now, result.values())

        p = env.process(proc(env))
        assert env.run(p) == (1, ["fast"])

    def test_empty_all_of_is_immediate(self):
        env = Environment()

        def proc(env):
            yield AllOf(env, [])
            return env.now

        assert env.run(env.process(proc(env))) == 0

    def test_operator_composition(self):
        env = Environment()

        def proc(env):
            result = yield env.timeout(1, "x") & env.timeout(2, "y")
            return sorted(result.values())

        assert env.run(env.process(proc(env))) == ["x", "y"]

    def test_or_operator(self):
        env = Environment()

        def proc(env):
            result = yield env.timeout(1, "x") | env.timeout(5, "y")
            return result.values()

        assert env.run(env.process(proc(env))) == ["x"]

    def test_condition_value_mapping(self):
        env = Environment()
        collected = {}

        def proc(env):
            t1 = env.timeout(1, "a")
            t2 = env.timeout(1, "b")
            result = yield AllOf(env, [t1, t2])
            collected["dict"] = result.todict()
            collected["contains"] = t1 in result
            collected["item"] = result[t2]
            yield env.timeout(0)

        env.process(proc(env))
        env.run()
        assert collected["contains"] is True
        assert collected["item"] == "b"
        assert len(collected["dict"]) == 2

    def test_failed_subevent_fails_condition(self):
        env = Environment()

        def proc(env):
            bad = env.event()
            bad.fail(RuntimeError("nope"))
            try:
                yield AllOf(env, [env.timeout(1), bad])
            except RuntimeError as exc:
                return str(exc)

        assert env.run(env.process(proc(env))) == "nope"

    def test_cross_environment_events_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env1.event(), env2.event()])

    def test_condition_unsubscribes_leftover_sub_events(self):
        """Once an any_of fires, the losing timeout carries no callbacks."""
        env = Environment()
        short = env.timeout(1.0)
        long = env.timeout(100.0)
        env.any_of([short, long])
        assert len(long.callbacks) == 1
        env.run(until=2.0)
        # The condition fired at t=1 and withdrew from the long timeout.
        assert long.callbacks == []
