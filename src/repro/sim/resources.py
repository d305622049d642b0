"""Shared-resource primitives for the simulation kernel.

The two facility types the simulator uses, after the classic DES toolkit:

* :class:`Resource` — a server with limited capacity; processes
  ``yield resource.request()`` and later ``release()`` (a node's GPU).
* :class:`Store` — an unbounded-or-bounded FIFO buffer of Python objects
  with ``put`` / ``get`` events (the model-parallel baseline's queues).
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class _BaseRequest(Event):
    """Common machinery for resource/store request events."""

    def __init__(self, owner: "_BaseFacility") -> None:
        super().__init__(owner.env)
        self.owner = owner

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from its wait queue."""
        if not self.triggered:
            self.owner._remove_waiter(self)


class _BaseFacility:
    """Base class handling the put/get trigger loop shared by facilities."""

    def __init__(self, env: "Environment") -> None:
        self.env = env

    def _remove_waiter(self, request: _BaseRequest) -> None:
        raise NotImplementedError

    def _trigger_waiters(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Resource


class Request(_BaseRequest):
    """Request event for :class:`Resource`; usable as a context manager."""

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        self.priority = priority
        #: Insertion order, for FIFO tie-breaking within a priority level.
        self.seq = resource._next_seq()
        super().__init__(resource)
        resource._queue_request(self)
        resource._trigger_waiters()

    @property
    def resource(self) -> "Resource":
        return _t.cast("Resource", self.owner)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()

    def _sort_key(self) -> tuple[float, int]:
        return (self.priority, self.seq)


class Resource(_BaseFacility):
    """A server pool with fixed integer capacity and FIFO admission."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        super().__init__(env)
        self._capacity = capacity
        self._users: set[Request] = set()
        self._waiters: list[tuple[tuple[float, int], Request]] = []
        self._seq = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for admission."""
        return len(self._waiters)

    def request(self, priority: float = 0.0) -> Request:
        """Request one unit of capacity.

        Lower ``priority`` values are admitted first; ties are FIFO.
        """
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Release a previously granted request."""
        if request not in self._users:
            raise SimulationError(
                f"{request!r} does not hold {self!r} and cannot release it"
            )
        self._users.remove(request)
        self._trigger_waiters()

    def _queue_request(self, request: Request) -> None:
        heappush(self._waiters, (request._sort_key(), request))

    def _remove_waiter(self, request: _BaseRequest) -> None:
        self._waiters = [
            (key, req) for key, req in self._waiters if req is not request
        ]
        import heapq

        heapq.heapify(self._waiters)

    def _trigger_waiters(self) -> None:
        while self._waiters and len(self._users) < self._capacity:
            _, request = heappop(self._waiters)
            self._users.add(request)
            request.succeed()


# ---------------------------------------------------------------------------
# Store


class StorePut(_BaseRequest):
    """Put event for :class:`Store`."""

    def __init__(self, store: "Store", item: _t.Any) -> None:
        self.item = item
        super().__init__(store)
        store._put_queue.append(self)
        store._trigger_waiters()


class StoreGet(_BaseRequest):
    """Get event for :class:`Store`; the event value is the item."""

    def __init__(self, store: "Store") -> None:
        super().__init__(store)
        store._get_queue.append(self)
        store._trigger_waiters()


class Store(_BaseFacility):
    """A FIFO buffer of arbitrary items with optional capacity."""

    def __init__(
        self, env: "Environment", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be > 0: {capacity}")
        super().__init__(env)
        self._capacity = capacity
        self.items: list[_t.Any] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, item: _t.Any) -> StorePut:
        """Queue ``item`` for insertion; fires when space is available."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request the oldest available item."""
        return StoreGet(self)

    def _remove_waiter(self, request: _BaseRequest) -> None:
        if isinstance(request, StorePut):
            self._put_queue = [r for r in self._put_queue if r is not request]
        else:
            self._get_queue = [
                r for r in self._get_queue if r is not request
            ]

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self._capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _trigger_waiters(self) -> None:
        # Alternate put/get passes until neither side can make progress, so
        # a put that frees a blocked get (and vice versa) resolves in one
        # call, at one simulation time.
        progress = True
        while progress:
            progress = False
            for put_event in list(self._put_queue):
                if put_event.triggered:
                    self._put_queue.remove(put_event)
                elif self._do_put(put_event):
                    self._put_queue.remove(put_event)
                    progress = True
                else:
                    break
            for get_event in list(self._get_queue):
                if get_event.triggered:
                    self._get_queue.remove(get_event)
                elif self._do_get(get_event):
                    self._get_queue.remove(get_event)
                    progress = True
                else:
                    break
