"""Host-speed normalization.

On a shared host the CPU speed one process gets drifts.  On a shared
2-vCPU x86-64 Linux host with Python 3.11, the median time of one fixed
vgg19 simulation moved from 0.17 s to 0.32 s between 5-second windows of
the same minute, and single 2.3-second cluster ops varied by 13 %.  No
run length makes raw medians repeatable under that.

So while an op runs, a CPU-time interval timer (``ITIMER_VIRTUAL``)
interrupts it every 20 ms to time a fixed pure-Python loop (two small
generator-and-heap event loops that never touch ``repro``).  The mean
loop time over the op tracks the speed the op itself got; the op's host
time, minus the time spent in the loop, is reported as
``seconds / mean loop seconds * REF_SECONDS``: seconds on a nominal host
where the loop takes :data:`REF_SECONDS`.  A faster simulator lowers the
op time and leaves the loop alone; a slower host stretches both.

Timing a loop only before and after each op missed the speed changes
within a long op.  Nor does one loop shape track every workload: as the
host got busy, an event loop over 20 generators (a cache-resident
working set) slowed more than the 8-worker simulation and about as much
as the 1000-worker one, while a loop over 200 generators slowed as much
as the 8-worker simulation and less than the 1000-worker one.  The
probe runs both.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
import typing as _t

#: Nominal seconds of one probe loop.
REF_SECONDS = 700e-6

#: CPU seconds between probe loops.
INTERVAL = 0.02

#: Fewest loop timings a normalization rests on; an op too short to
#: collect them is topped up with loops timed right after it.
MIN_SAMPLES = 3


def _event_loop(processes: int, steps: int) -> None:
    heap: list[tuple[float, int, _t.Any]] = []
    table: dict[tuple[int, int], float] = {}

    def process(index: int) -> _t.Generator[float, float, None]:
        for step in range(steps):
            now = yield 0.001 * ((index * 7 + step) % 13 + 1)
            table[(index, step & 7)] = now

    seq = 0
    for index in range(processes):
        proc = process(index)
        heapq.heappush(heap, (next(proc), seq, proc))
        seq += 1
    while heap:
        now, _, proc = heapq.heappop(heap)
        try:
            delay = proc.send(now)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, proc))
        seq += 1


def probe_loop() -> float:
    """Run the fixed probe computation; return its host seconds."""
    start = time.perf_counter()
    _event_loop(20, 20)
    _event_loop(200, 2)
    return time.perf_counter() - start


class SpeedProbe:
    """Times what runs inside it and samples the host speed meanwhile."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.seconds = 0.0
        self._start = 0.0
        self._previous: _t.Any = None

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL, INTERVAL)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        #: Host seconds of the work itself, the probe loops left out.
        self.seconds = elapsed - sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe_loop())

    def _on_tick(self, _signum: int, _frame: _t.Any) -> None:
        self.samples.append(probe_loop())

    @property
    def loop_seconds(self) -> float:
        """Mean probe-loop time while the work ran."""
        return statistics.fmean(self.samples)


#: Code the probe runs inside the work; a stack sampler skips it.
PROBE_CODES = frozenset({probe_loop.__code__, SpeedProbe._on_tick.__code__})
