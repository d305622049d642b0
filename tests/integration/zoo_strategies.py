"""Hypothesis strategies over the model zoo and cluster shapes.

Shared by the scheduler fuzz and the fault chaos tests: any zoo model,
odd and prime worker counts, valid weight vectors for any partition
depth, and heterogeneous GPU speeds.
"""

import functools

from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.models import available_models, get_model
from repro.partition import bin_partition, paper_partition


@functools.lru_cache(maxsize=None)
def zoo_partition(name):
    """The paper's partition of a zoo model, else its bin partition."""
    model = get_model(name)
    try:
        return paper_partition(model)
    except PartitionError:
        return bin_partition(model)


models = st.sampled_from(available_models())
worker_counts = st.sampled_from([2, 3, 5, 7, 8, 9, 11, 13])


def weights_for(levels):
    """Non-decreasing power-of-two weights w_1 = 1 <= ... <= 8."""
    return st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=levels - 1,
        max_size=levels - 1,
    ).map(lambda exponents: (1, *(2**e for e in sorted(exponents))))


def speeds_for(nodes):
    """A homogeneous cluster or per-node GPU speed factors."""
    return st.one_of(
        st.none(),
        st.lists(
            st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0]),
            min_size=nodes,
            max_size=nodes,
        ).map(tuple),
    )
