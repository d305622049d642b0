"""Unit tests for Resource / Store / Container."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_exclusive_use_serializes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(env, res, name, hold):
            with res.request() as req:
                yield req
                log.append((name, "start", env.now))
                yield env.timeout(hold)
            log.append((name, "end", env.now))

        env.process(user(env, res, "a", 3))
        env.process(user(env, res, "b", 2))
        env.run()
        assert log == [
            ("a", "start", 0),
            ("a", "end", 3),
            ("b", "start", 3),
            ("b", "end", 5),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        starts = []

        def user(env):
            with res.request() as req:
                yield req
                starts.append(env.now)
                yield env.timeout(5)

        for _ in range(3):
            env.process(user(env))
        env.run()
        assert starts == [0, 0, 5]

    def test_release_of_non_holder_raises(self):
        env = Environment()
        res = Resource(env)
        req = res.request()
        env.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_priority_admission(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def user(env, name, priority, delay):
            yield env.timeout(delay)
            with res.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        env.process(holder(env))
        env.process(user(env, "low", 5.0, 1))
        env.process(user(env, "high", 1.0, 2))
        env.run()
        assert order == ["high", "low"]

    def test_count_and_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        env.run()
        assert res.count == 1
        assert res.queue_length == 1

    def test_cancel_unfulfilled_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        env.run()
        second.cancel()
        res.release(first)
        env.run()
        assert res.count == 0
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for item in "abc":
                yield store.put(item)
                yield env.timeout(1)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append((env.now, item))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert [item for _, item in got] == ["a", "b", "c"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(4)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(4, "late")]

    def test_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put(1)
            times.append(env.now)
            yield store.put(2)
            times.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0, 5]

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def consumer(env):
            for _ in range(3):
                got.append((yield store.get()))

        env.process(consumer(env))
        env.run()
        assert got == [1, 2, 3]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)
