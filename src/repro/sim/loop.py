"""Deterministic discrete-event loop.

This is the heart of the simulation substrate.  Every other component
(processes, network links, clocks, failure injectors) schedules callbacks on a
single :class:`EventLoop`.  The loop is deterministic: events fire in
``(time, sequence-number)`` order, where the sequence number is the order in
which events were scheduled.  Two runs with the same seed therefore produce
bit-identical histories, which the test suite and the causal-consistency
checker rely on.

Time is a ``float`` measured in **seconds** since the start of the run.
Protocol-level timestamps, by contrast, are integers in microseconds (see
:mod:`repro.clocks`); the two are related through per-process clock models so
that clock drift can be simulated.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Union

__all__ = ["Event", "EventLoop", "PeriodicHandle", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the event loop (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`EventLoop.schedule` and can be used to
    cancel the callback before it fires.  Cancelled events stay in the heap
    but are skipped when popped (lazy deletion), which keeps cancellation
    O(1).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_loop")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, loop: "Optional[EventLoop]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op after firing.

        The loop detaches itself when the event fires, so a late cancel
        (e.g. a timeout cancelled after it already went off) cannot skew
        the loop's live-event counter.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._loop is not None:
                self._loop._pending -= 1
                self._loop = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} {name} {state}>"


class PeriodicHandle:
    """Cancellable handle for a repeating callback.

    Returned by :meth:`EventLoop.schedule_periodic`.  The interval may be a
    number of seconds or a zero-argument callable returning one — re-read
    before every re-arm, so callers can change the period at runtime (the
    Figure 7 straggler injector mutates a host's batch interval this way).

    The callback is re-armed *after* it returns, never before: any events
    the callback schedules are sequenced ahead of the next firing, exactly
    like the hand-rolled ``fn(); loop.schedule(period, fire)`` chains this
    API replaces — which is what keeps golden histories bit-identical.
    """

    __slots__ = ("interval", "fn", "cancelled", "_event")

    def __init__(self, interval: Union[float, Callable[[], float]],
                 fn: Callable[[], Any]):
        self.interval = interval
        self.fn = fn
        self.cancelled = False
        self._event: Optional[Event] = None

    def cancel(self) -> None:
        """Stop future firings.  Idempotent; safe from inside the callback."""
        if not self.cancelled:
            self.cancelled = True
            if self._event is not None:
                self._event.cancel()
                self._event = None

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<PeriodicHandle {name} {state}>"


class EventLoop:
    """A priority-queue driven simulation clock.

    Example
    -------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(1.5, fired.append, "a")
    >>> _ = loop.schedule(0.5, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    1.5
    """

    def __init__(self) -> None:
        #: heap of ``(time, seq, event)`` entries: heapq then compares
        #: plain tuples at C speed, and ``seq`` is unique so comparison
        #: never falls through to the event object — this removes the
        #: millions of ``Event.__lt__`` interpreter frames that used to
        #: dominate paper-scale runs.  Firing order is unchanged: it is
        #: the same ``(time, seq)`` total order.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now: float = 0.0
        self._running = False
        self._processed = 0
        self._pending = 0     # live (scheduled, not cancelled, not fired)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded)."""
        return self._processed

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.

        O(1): a live counter maintained on schedule/cancel/pop, so monitors
        can poll it every tick without scanning the heap.
        """
        return self._pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        event = Event(time, next(self._seq), fn, args, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._pending += 1
        return event

    def schedule_periodic(self, interval: Union[float, Callable[[], float]],
                          fn: Callable[[], Any],
                          phase: Optional[float] = None) -> PeriodicHandle:
        """Run ``fn()`` every ``interval`` seconds; returns a cancellable
        :class:`PeriodicHandle`.

        ``interval`` may be a callable, re-evaluated at every re-arm.
        ``phase`` delays the first firing (defaults to one full interval).
        The handle re-arms *after* ``fn`` returns (even if it raises), and
        stops as soon as :meth:`PeriodicHandle.cancel` is called — including
        from inside ``fn`` itself.
        """
        handle = PeriodicHandle(interval, fn)

        def fire() -> None:
            handle._event = None
            try:
                fn()
            finally:
                if not handle.cancelled:
                    step = handle.interval
                    if callable(step):
                        step = step()
                    handle._event = self.schedule(step, fire)

        first = phase
        if first is None:
            first = interval() if callable(interval) else interval
        handle._event = self.schedule(first, fire)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            self._pending -= 1
            event._loop = None    # fired: a late cancel() must not decrement
            self._now = event.time
            self._processed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given the loop's clock is advanced to exactly
        ``until`` even if the last event fired earlier, so back-to-back
        ``run(until=...)`` calls behave like contiguous wall-clock windows.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        # Hot loop: this drains millions of events per experiment.  The heap
        # list and heappop are hoisted into locals (callbacks push onto the
        # same list object, so the alias stays valid); ``self._now`` and the
        # counters must stay instance state — callbacks read ``loop.now``,
        # ``pending()`` and ``processed_events`` mid-drain.
        heap = self._heap
        heappop = heapq.heappop
        unbounded = until is None and max_events is None
        fired = 0
        try:
            while heap:
                event = heap[0][2]
                if event.cancelled:
                    heappop(heap)
                    continue
                if not unbounded:
                    if until is not None and event.time > until:
                        break
                    if max_events is not None and fired >= max_events:
                        break
                    fired += 1
                heappop(heap)
                self._pending -= 1
                event._loop = None    # fired: late cancel() must not decrement
                self._now = event.time
                self._processed += 1
                event.fn(*event.args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

