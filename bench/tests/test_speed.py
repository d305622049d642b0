import os
import time

import speed
from sampling import StackSampler
from speed import PROBE_CODES, SpeedProbe


def _spin(cpu_seconds):
    deadline = time.process_time() + cpu_seconds
    while time.process_time() < deadline:
        sum(range(1000))


def test_probe_samples_during_the_work_and_leaves_its_loops_out():
    start = time.perf_counter()
    with SpeedProbe() as probe:
        _spin(0.2)
    elapsed = time.perf_counter() - start
    # One loop per 10 ms of CPU time, give or take the kernel's tick.
    assert len(probe.samples) >= 5
    assert probe.seconds < elapsed - sum(probe.samples[:-speed.MIN_SAMPLES])
    assert probe.loop_seconds > 0


def test_short_work_is_topped_up_to_the_minimum_samples():
    with SpeedProbe() as probe:
        pass
    assert len(probe.samples) == speed.MIN_SAMPLES
    assert probe.seconds >= 0


def _sample_probe_loops(skip):
    sampler = StackSampler(os.path.dirname(speed.__file__), skip=skip)
    with sampler:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            speed.probe_loop()
    return sampler.samples


def test_stack_sampler_skips_the_probe_loops():
    kept = _sample_probe_loops(skip=())
    # Nearly all the CPU time is in the probe loop, so nearly every
    # sample drops.
    assert kept > 20
    assert _sample_probe_loops(skip=PROBE_CODES) < kept / 5
