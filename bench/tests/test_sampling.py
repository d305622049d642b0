import os
import time

import pytest

from sampling import LAYERS, StackSampler, entry_of, layer_of

PACKAGE = os.path.join(os.sep, "co", "repro", "src", "repro")


def _in_package(*parts: str) -> str:
    return os.path.join(PACKAGE, *parts)


@pytest.mark.parametrize(
    ("filename", "layer"),
    [
        (_in_package("net", "fabric.py"), "net"),
        (_in_package("sim", "core.py"), "sim"),
        (_in_package("core", "server.py"), "core"),
        (_in_package("models", "graph.py"), "models"),
        (_in_package("metrics", "results.py"), "other"),
        (_in_package("errors.py"), "other"),
        (_in_package("__init__.py"), "other"),
        (os.path.join(os.sep, "usr", "lib", "python3.11", "heapq.py"), "external"),
        # A checkout that happens to be named ``repro`` is not the package.
        (os.path.join(os.sep, "co", "repro", "bench", "child.py"), "external"),
        ("<string>", "external"),
    ],
)
def test_frame_file_maps_to_layer(filename, layer):
    assert layer_of(filename, PACKAGE) == layer


def test_entries_match_module_and_function():
    fabric = _in_package("net", "fabric.py")
    assert entry_of(fabric, "transfer_many", PACKAGE) == "fabric.transfer_many"
    assert entry_of(fabric, "_settle", PACKAGE) is None
    assert entry_of(_in_package("cluster", "schedulers.py"), "plan", PACKAGE) == (
        "scheduler.plan"
    )
    # The same name in another module is not the entry point.
    assert entry_of(_in_package("sim", "core.py"), "transfer", PACKAGE) is None


def test_sampler_shares_sum_to_one():
    sampler = StackSampler(PACKAGE)
    deadline = time.process_time() + 0.3
    with sampler:
        while time.process_time() < deadline:
            sum(range(1000))
    assert sampler.samples > 0
    shares = sampler.layer_shares()
    assert set(shares) == set(LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["external"] == pytest.approx(1.0)
