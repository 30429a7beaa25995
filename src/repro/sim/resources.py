"""Shared-resource primitives: servers, stores, and bandwidth pipes.

These are the contention points of the NWCache models: memory buses, I/O
buses, mesh links, disk mechanisms, controller cache slots, and ring
channel slots are all built from the classes here.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappush
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Deque, Generator, List, Optional

from repro.sim.events import _NORMAL, _PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


def _request_key(req: "Request") -> "tuple[int, int]":
    return req._key


class Request(Event):
    """A pending claim on a :class:`Resource` (fires when granted)."""

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int) -> None:
        # Flattened Event.__init__: one Request is allocated per resource
        # claim, which makes this one of the kernel's hottest constructors
        # (writing the slots directly saves the chained super() call).
        # ``_key`` is assigned by Resource.request only when the claim
        # actually queues: tickets drawn at queue time still reflect
        # arrival order, and the common immediate grant skips the draw.
        self.engine = resource.engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.resource = resource
        self.priority = priority

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """A server with ``capacity`` identical units and a FIFO wait queue.

    Requests with a lower ``priority`` value are granted first; ties are
    broken FIFO.  The default priority is 0, so a plain resource is a pure
    FIFO server.

    Examples
    --------
    >>> def worker(eng, res, log):
    ...     with res.request() as req:
    ...         yield req
    ...         yield eng.timeout(5)
    ...         log.append(eng.now)
    """

    __slots__ = (
        "engine", "capacity", "name", "_ticket", "users", "queue",
        "_busy_integral", "_last_change",
    )

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._ticket = count()
        self.users: List[Request] = []
        self.queue: List[Request] = []
        #: total time-integrated busy units (for utilization reporting)
        self._busy_integral = 0.0
        self._last_change = engine.now

    # -- bookkeeping -------------------------------------------------------
    def _account(self) -> None:
        now = self.engine.now
        self._busy_integral += len(self.users) * (now - self._last_change)
        self._last_change = now

    def utilization(self, total_time: float) -> float:
        """Mean fraction of capacity in use over ``total_time``."""
        self._account()
        if total_time <= 0:
            return 0.0
        return self._busy_integral / (total_time * self.capacity)

    @property
    def n_waiting(self) -> int:
        """Number of requests currently queued."""
        return len(self.queue)

    # -- protocol ------------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Claim one unit; the returned event fires when granted."""
        # Request.__init__, inlined via __new__ (this is the only place
        # requests are built, and the call frame itself shows up on
        # multi-million-claim runs).
        engine = self.engine
        req = Request.__new__(Request)
        req.engine = engine
        req.callbacks = []
        req._value = _PENDING
        req._ok = True
        req._processed = False
        req._defused = False
        req.resource = self
        req.priority = priority
        # _account(), inlined (hot path); skipping the zero-width update
        # leaves the integral bit-identical (x + 0.0 == x here).
        now = engine._now
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(req)
            # req.succeed(), inlined: a fresh Request cannot have been
            # triggered, so the guard and the value write collapse.
            req._value = None
            heappush(engine._queue, (now, _NORMAL, next(engine._eid), req))
        else:
            req._key = (priority, next(self._ticket))
            insort(self.queue, req, key=_request_key)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit and wake the next waiter."""
        now = self.engine._now
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an ungranted/cancelled request: drop it from the
            # queue instead (supports abandoning a queued claim).
            try:
                self.queue.remove(request)
            except ValueError:
                raise RuntimeError("release of a request not held or queued") from None
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt.succeed()


class Store:
    """An unbounded (or bounded) FIFO buffer of Python objects.

    ``put`` blocks only when a ``capacity`` is set and reached; ``get``
    blocks while the store is empty.
    """

    __slots__ = ("engine", "capacity", "name", "items", "_getters", "_putters")

    def __init__(
        self,
        engine: "Engine",
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; returns an event that fires when accepted."""
        ev = Event(self.engine)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Remove the oldest item; returns an event firing with the item."""
        ev = Event(self.engine)
        if self.items:
            item = self.items.popleft()
            ev.succeed(item)
            if self._putters:
                putter, pending = self._putters.popleft()
                self.items.append(pending)
                putter.succeed()
        else:
            self._getters.append(ev)
        return ev


class BandwidthPipe:
    """A byte-rate server: transferring ``n`` bytes holds it ``n/rate``.

    Models buses and links where a transfer occupies the medium for its
    serialization time and contending transfers queue FIFO.  An optional
    fixed ``overhead`` (arbitration, header) is added per transfer.

    Parameters
    ----------
    rate:
        Bytes per time unit (here: bytes per pcycle).
    overhead:
        Fixed occupancy added to every transfer, in time units.
    """

    __slots__ = (
        "engine", "rate", "overhead", "name", "_server", "bytes_transferred",
    )

    def __init__(
        self,
        engine: "Engine",
        rate: float,
        overhead: float = 0.0,
        name: str = "",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if overhead < 0:
            raise ValueError(f"overhead must be >= 0, got {overhead}")
        self.engine = engine
        self.rate = rate
        self.overhead = overhead
        self.name = name
        self._server = Resource(engine, capacity=1, name=name)
        #: total bytes moved (for traffic accounting)
        self.bytes_transferred = 0

    def busy_time(self, nbytes: float) -> float:
        """Occupancy of a transfer of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.overhead + nbytes / self.rate

    def transfer(self, nbytes: float, priority: int = 0) -> Generator[Event, Any, None]:
        """Generator: queue for the pipe, hold it for the transfer time."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        req = self._server.request(priority)
        yield req
        try:
            # busy_time(nbytes), inlined on the per-transfer hot path.
            yield Timeout(self.engine, self.overhead + nbytes / self.rate)
            self.bytes_transferred += nbytes
        finally:
            self._server.release(req)

    def try_jump_transfer(self, nbytes: float) -> bool:
        """Complete an uncontended transfer as a clock jump, if possible.

        Exactly equivalent to :meth:`transfer` when the pipe is idle and
        the engine can leap over the transfer window (no other event due
        in it): the grant + timeout pair collapses into
        ``Engine.try_jump(..., 2)`` and the server's busy integral is
        advanced by the same ``now - t0`` the release path would have
        added.  Returns False (no state touched) when the pipe is busy or
        the window is contended; the caller must then yield through
        :meth:`transfer`'s request/timeout/release sequence.
        """
        srv = self._server
        if srv.users or srv.queue:
            return False
        engine = self.engine
        t0 = engine._now
        if not engine.try_jump(self.overhead + nbytes / self.rate, 2):
            return False
        now = engine._now
        srv._busy_integral += now - t0
        srv._last_change = now
        self.bytes_transferred += nbytes
        return True

    def utilization(self, total_time: float) -> float:
        """Fraction of ``total_time`` the pipe was busy."""
        return self._server.utilization(total_time)

    @property
    def n_waiting(self) -> int:
        """Transfers currently queued behind the one in service."""
        return self._server.n_waiting
