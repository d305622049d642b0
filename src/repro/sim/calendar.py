"""Calendar event queue: a "now" bucket plus an overflow heap.

The environment's scheduling workload is sharply bimodal.  Positive-delay
events (timeouts, transfer completions) arrive in essentially random time
order and genuinely need a priority queue.  Delay-zero events (process
resumptions, ``succeed``/``fail`` triggers, condition firings) are appended
at the *current* simulation time with a strictly increasing sequence
number, which means they already arrive in sorted ``(time, priority, seq)``
order — pushing them through a binary heap pays ``O(log n)`` twice for
entries that a plain FIFO would serve in ``O(1)``.

:class:`CalendarQueue` therefore keeps a degenerate calendar: one
zero-width "today" bucket for delay-zero events — split into an URGENT and
a NORMAL lane so each lane stays lexicographically monotone — and a binary
heap for everything in the future.  Popping takes the minimum of the three
heads under the usual ``(time, priority, seq)`` tuple order.  The lanes
hold priorities 0 and 1 only: a delay-zero ``LATE`` (priority 2) entry —
the fabric's one end-of-instant re-rate — lives in the heap, where the
tuple order puts it after every lane entry at its instant, including
ones appended after it, and before any later instant.  They are rare,
so the heap costs them nothing that matters, and each lane keeps a
single priority and stays monotone.

Correctness rests on two invariants, both enforced by the environment:

* simulation time never decreases, and sequence numbers strictly
  increase, so appends to each lane are monotone non-decreasing and the
  lane head is always the lane minimum;
* every pending entry lives in exactly one of the three structures, so
  the minimum of the three heads is the global minimum.

Under that ordering the pop sequence is *identical* to a single global
binary heap (see ``tests/sim/test_calendar_queue.py`` for the randomized
differential proof), which is what keeps the repository's bit-identical
determinism pins intact.

On bucket width: a classic calendar queue sizes buckets to the mean
inter-event gap and sorts within a bucket on demand.  Profiling the perf
lab's scenarios shows the same-time cascade (delay ``== 0``) is the only
bucket dense enough to matter — macro scenarios schedule ~30% of their
events at the current instant — while positive delays are spread thinly
enough that any bucket wider than zero would just re-implement the heap
inside each bucket.  Hence the width-zero heuristic: *today* is a FIFO,
*tomorrow* is a heap.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from heapq import heappop, heappush

from repro.sim.events import NORMAL

#: Entries are ``(time, priority, sequence, payload)`` — the exact tuple
#: shape the environment has always heap-ordered.
Entry = _t.Tuple[float, int, int, _t.Any]

_INFINITY = float("inf")


class CalendarQueue:
    """Priority queue with an O(1) fast lane for current-time events.

    ``urgent``/``normal`` are the delay-zero lanes (priority 0 and 1);
    ``future`` is a binary heap of positive-delay entries and of
    delay-zero entries with a priority above ``NORMAL``.  Hot paths in
    the kernel append/pop these attributes directly; this class is the
    reference interface and the home of the non-inlined operations.
    """

    __slots__ = ("urgent", "normal", "future")

    def __init__(self) -> None:
        self.urgent: _t.Deque[Entry] = deque()
        self.normal: _t.Deque[Entry] = deque()
        self.future: list[Entry] = []

    def __len__(self) -> int:
        return len(self.urgent) + len(self.normal) + len(self.future)

    def __bool__(self) -> bool:
        return bool(self.urgent or self.normal or self.future)

    def __repr__(self) -> str:
        return (
            f"<CalendarQueue urgent={len(self.urgent)} "
            f"normal={len(self.normal)} future={len(self.future)}>"
        )

    def push(self, entry: Entry, immediate: bool = False) -> None:
        """Add ``entry`` to the queue.

        ``immediate`` routes the entry to its priority lane; the caller
        guarantees lane appends are monotone non-decreasing (true for the
        environment, whose clock never runs backwards and whose sequence
        numbers strictly increase).  Non-immediate entries, and immediate
        ones with a priority above ``NORMAL`` (no lane holds those), go to
        the heap, which accepts any order.
        """
        priority = entry[1]
        if immediate and priority <= NORMAL:
            lane = self.normal if priority else self.urgent
            if lane and entry < lane[-1]:
                # A non-monotone append would corrupt the lane-head-is-min
                # invariant; fall back to the always-correct heap.
                heappush(self.future, entry)
            else:
                lane.append(entry)
        else:
            heappush(self.future, entry)

    def peek_time(self) -> float:
        """Time of the next entry, or ``inf`` when empty."""
        time = _INFINITY
        if self.urgent:
            time = self.urgent[0][0]
        if self.normal and self.normal[0][0] < time:
            time = self.normal[0][0]
        if self.future and self.future[0][0] < time:
            time = self.future[0][0]
        return time

    def pop(self) -> Entry:
        """Remove and return the smallest entry; ``IndexError`` if empty."""
        urgent, normal, future = self.urgent, self.normal, self.future
        best: Entry | None = urgent[0] if urgent else None
        source: _t.Any = urgent
        if normal and (best is None or normal[0] < best):
            best = normal[0]
            source = normal
        if future and (best is None or future[0] < best):
            best = future[0]
            source = future
        if best is None:
            raise IndexError("pop from an empty CalendarQueue")
        if source is future:
            return heappop(future)
        return source.popleft()  # type: ignore[no-any-return]
