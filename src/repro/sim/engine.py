"""The discrete-event engine: virtual clock plus a binary-heap event queue.

The engine is the only place simulated time advances.  Model code creates
events through the engine's factory helpers (:meth:`Engine.timeout`,
:meth:`Engine.event`, :meth:`Engine.process`) and the engine pops them in
``(time, priority, insertion order)`` order, running their callbacks.

Time units: the NWCache models use *processor cycles* (1 pcycle = 5 ns per
Table 1 of the paper), but the kernel itself is unit-agnostic floats.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

#: Priority for ordinary events.
NORMAL = 1
#: Priority used so that freshly-triggered (delay 0) events keep FIFO order.
URGENT = 0

class EmptySchedule(Exception):
    """Raised by :meth:`Engine.step` when the event queue is exhausted."""


class Engine:
    """Discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).

    Examples
    --------
    >>> eng = Engine()
    >>> def hello(eng):
    ...     yield eng.timeout(10)
    ...     return eng.now
    >>> p = eng.process(hello(eng))
    >>> eng.run()
    >>> p.value
    10.0
    """

    __slots__ = (
        "_now", "_queue", "_eid", "events_processed",
        "events_jumped", "_tick_hook", "_tick_every", "_tick_left",
        "_limit", "_multi_dispatch",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: binary heap of ``(time, priority, eid, event)`` entries
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        #: number of events processed so far (useful for perf reporting)
        self.events_processed = 0
        #: how many of those were elided by :meth:`try_jump` (diagnostics)
        self.events_jumped = 0
        # Optional per-event hook (auditing). None keeps run() on the
        # inlined fast drain loops, so the disabled case costs nothing.
        self._tick_hook: Optional[Any] = None
        self._tick_every = 1
        self._tick_left = 1
        # Upper clock bound while inside run(until=...): try_jump must not
        # leap past a limit the drain loop would have stopped at.
        self._limit = float("inf")
        # True while an event with several callbacks is being dispatched
        # (e.g. a barrier release resuming many processes): the clock
        # must not move until every sibling callback has observed it.
        self._multi_dispatch = False

    # -- tick hook -----------------------------------------------------------
    def set_tick_hook(self, hook: Optional[Any], every: int = 1) -> None:
        """Call ``hook()`` after every ``every``-th processed event.

        The hook runs *between* events (after all callbacks of the current
        event), so it observes a consistent model state and cannot perturb
        event ordering.  Pass ``hook=None`` to remove the hook and restore
        the zero-overhead drain loops.
        """
        if hook is None:
            self._tick_hook = None
            return
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._tick_hook = hook
        self._tick_every = int(every)
        self._tick_left = int(every)

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` owned by this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Spawn a new process from ``generator`` and return it.

        The returned :class:`Process` is itself an event that fires with
        the generator's return value when it finishes.
        """
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert a triggered event into the queue (internal)."""
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def try_jump(self, delay: float, n_events: int = 1) -> bool:
        """Advance the clock by ``delay`` without dispatching any events.

        This is the compiled CPU path's entry point into the kernel: when a
        process can prove that the next ``n_events`` events it would
        schedule are uncontended — nothing else in the machine is due to
        run at or before their firing time — the whole exchange collapses
        into a single clock assignment.  The jump refuses (returns False,
        state untouched) whenever any queued event falls at or before the
        target time, the target exceeds a ``run(until=...)`` limit, or a
        multi-callback event is mid-dispatch (sibling callbacks — e.g.
        the other processes released by the same barrier — have not yet
        observed the current clock); the caller must then fall back to
        real event scheduling.

        A successful jump consumes exactly what the evented path would
        have: ``n_events`` event ids, ``n_events`` on
        :attr:`events_processed`, and ``n_events`` ticks of the audit
        hook's countdown — so event ordering, reporting, and audit cadence
        stay bit-identical with the fallback path.
        """
        target = self._now + delay
        queue = self._queue
        if (
            (queue and queue[0][0] <= target)
            or target > self._limit
            or self._multi_dispatch
        ):
            return False
        self._now = target
        self.events_processed += n_events
        self.events_jumped += n_events
        eid = self._eid
        for _ in range(n_events):
            next(eid)
        if self._tick_hook is not None:
            left = self._tick_left - n_events
            while left <= 0:
                self._tick_hook()
                left += self._tick_every
            self._tick_left = left
        return True

    def step(self) -> None:
        """Process exactly one event; raise :class:`EmptySchedule` if none."""
        try:
            when, _prio, _eid, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if len(callbacks) == 1:
            callbacks[0](event)
        else:
            self._multi_dispatch = True
            try:
                for cb in callbacks:
                    cb(event)
            finally:
                self._multi_dispatch = False
        # An event that failed but had nobody waiting for it is a silent
        # lost error — surface it loudly instead.
        if not event._ok and not event._defused:
            raise event.value
        if self._tick_hook is not None:
            self._tick_left -= 1
            if self._tick_left <= 0:
                self._tick_left = self._tick_every
                self._tick_hook()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties, or until time ``until`` is reached.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if no event falls on it (mirrors SimPy semantics).
        """
        if until is not None:
            limit = float(until)
            if limit < self._now:
                raise ValueError(
                    f"until ({limit}) is in the past (now={self._now})"
                )
            # Cap try_jump for the duration of this bounded run; restored
            # below (and in the finally blocks of the drain loops).
            self._limit = limit
        if self._tick_hook is not None:
            # Audited runs take the step() path: slower, but the hook
            # fires between events with fully consistent model state.
            if until is None:
                while self._queue:
                    self.step()
            else:
                try:
                    while self._queue and self._queue[0][0] <= limit:
                        self.step()
                finally:
                    self._limit = float("inf")
                self._now = limit
            return
        # The drain loop below inlines step(): one bound-method call and
        # two attribute loads per event add up over multi-million-event
        # runs, so the queue and its pop are bound to locals and the
        # processed count is flushed back on exit.
        queue = self._queue
        pop = heappop
        processed = 0
        if until is None:
            try:
                while queue:
                    when, _prio, _eid, event = pop(queue)
                    self._now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    # Nearly every event carries exactly one callback (the
                    # waiting process's resume); skip the loop setup then.
                    # Multi-callback dispatch pins the clock (see step()).
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._multi_dispatch = True
                        try:
                            for cb in callbacks:
                                cb(event)
                        finally:
                            self._multi_dispatch = False
                    if not event._ok and not event._defused:
                        raise event.value
            finally:
                self.events_processed += processed
        else:
            try:
                while queue and queue[0][0] <= limit:
                    when, _prio, _eid, event = pop(queue)
                    self._now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._multi_dispatch = True
                        try:
                            for cb in callbacks:
                                cb(event)
                        finally:
                            self._multi_dispatch = False
                    if not event._ok and not event._defused:
                        raise event.value
            finally:
                self.events_processed += processed
                self._limit = float("inf")
            self._now = limit
