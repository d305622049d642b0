"""Property-based tests (hypothesis) for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_clock_reaches_max_delay(delays):
    """The environment ends at the latest scheduled timeout."""
    env = Environment()
    for delay in delays:
        env.timeout(delay)
    env.run()
    assert env.now == max(delays)


@given(
    delays=st.lists(
        st.integers(min_value=0, max_value=100), min_size=1, max_size=30
    )
)
def test_timeout_completion_order_is_sorted(delays):
    """Events are processed in non-decreasing time order."""
    env = Environment()
    seen = []

    def waiter(env, delay):
        yield env.timeout(delay)
        seen.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert seen == sorted(seen)
    assert sorted(seen) == sorted(float(d) for d in delays)


@given(
    holds=st.lists(
        st.integers(min_value=1, max_value=10), min_size=1, max_size=20
    ),
    capacity=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(holds, capacity):
    """At no simulated instant do more than ``capacity`` users hold it."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    active = [0]
    max_active = [0]

    def user(env, hold):
        with res.request() as req:
            yield req
            active[0] += 1
            max_active[0] = max(max_active[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert max_active[0] <= capacity
    assert active[0] == 0


@given(
    holds=st.lists(
        st.integers(min_value=1, max_value=10), min_size=1, max_size=20
    )
)
@settings(max_examples=50)
def test_unit_resource_total_time_is_sum_of_holds(holds):
    """A capacity-1 resource serializes: makespan = sum of holds."""
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert env.now == sum(holds)


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items
