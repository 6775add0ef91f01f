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

import itertools
import math
import sys
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Union

__all__ = ["EventLoop", "PeriodicHandle", "SimulationError"]

#: ``fn`` slot of a tick-bucket heap entry (see :class:`EventLoop`)
_TICKS = object()


class SimulationError(RuntimeError):
    """Raised for invalid uses of the event loop (e.g. scheduling in the past)."""


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

    __slots__ = ("interval", "fn", "cancelled", "_loop", "_seq")

    def __init__(self, interval: Union[float, Callable[[], float]],
                 fn: Callable[[], Any], loop: "EventLoop"):
        self.interval = interval
        self.fn = fn
        self.cancelled = False
        self._loop = loop
        #: sequence number reserved for the next firing; ``None`` while
        #: the callback runs and once cancelled
        self._seq: Optional[int] = None

    def cancel(self) -> None:
        """Stop future firings.  Idempotent; safe from inside the callback."""
        if not self.cancelled:
            self.cancelled = True
            if self._seq is not None:
                self._seq = None
                self._loop._cancelled += 1

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<PeriodicHandle {name} {state}>"


class EventLoop:
    """A priority-queue driven simulation clock.

    The heap holds plain lists ``[time, seq, fn, args]``: heapq compares
    them at C speed, and ``seq`` is unique so comparison never reaches
    ``fn``.  :meth:`schedule_at` returns the entry itself, and
    :meth:`cancel` clears its ``fn`` slot, as firing does, so cancelled
    entries are skipped when popped and a late cancel is a no-op.

    Periodic handles due at the same float instant share one heap entry,
    a *tick bucket* ``[time, seq, _TICKS, members]``.  Each member still
    reserves its own sequence number when it is (re-)armed, so the
    counter advances exactly as if every firing were its own entry, and
    the bucket is keyed by its first member's reserved number.  Members
    fire in that order; before each one the bucket checks the heap, and
    if a foreign entry sorts earlier it re-pushes the unfired rest under
    the member's own number.  Firing order is therefore the
    ``(time, seq)`` order one entry per firing would give.

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
        self._heap: list[list] = []
        #: due time -> the tick bucket still accepting members at that time
        self._ticks: dict[float, list] = {}
        self._next_seq = itertools.count().__next__
        self._now: float = 0.0
        self._running = False
        # pending() = scheduled - fired - cancelled, so firing touches
        # one counter; callbacks may read them mid-drain
        self._scheduled = 0
        self._processed = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks fired so far (one per periodic firing,
        cancelled ones excluded)."""
        return self._processed

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.

        O(1): derived from counters maintained on schedule/cancel/fire, so
        monitors can poll it every tick without scanning the heap.
        """
        return self._scheduled - self._processed - self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``.

        Returns the heap entry ``[time, seq, fn, args]``; pass it to
        :meth:`cancel` to drop the callback.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        entry = [time, self._next_seq(), fn, args]
        heappush(self._heap, entry)
        self._scheduled += 1
        return entry

    def cancel(self, entry: list) -> None:
        """Prevent a scheduled entry from firing.  Idempotent; a no-op
        after it fired (e.g. a timeout cancelled on completion)."""
        if entry[2] is not None:
            entry[2] = None
            self._cancelled += 1

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
        handle = PeriodicHandle(interval, fn, self)
        first = phase
        if first is None:
            first = interval() if callable(interval) else interval
        self._arm(handle, first)
        return handle

    def _arm(self, handle: PeriodicHandle, delay: float) -> None:
        """Reserve ``handle``'s next sequence number and file it in the
        tick bucket due ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        time = self._now + delay
        seq = handle._seq = self._next_seq()
        self._scheduled += 1
        bucket = self._ticks.get(time)
        if bucket is None:
            bucket = self._ticks[time] = [time, seq, _TICKS, [handle]]
            heappush(self._heap, bucket)
        else:
            bucket[3].append(handle)

    def _fire_ticks(self, bucket: list, budget: int) -> int:
        """Fire the live members of a popped tick bucket, in seq order.

        Returns how many callbacks fired.  Stops early when ``budget``
        have fired or a foreign heap entry sorts before the next member,
        and then re-pushes the unfired rest under that member's seq.  A
        bucket whose members were all cancelled fires nothing and leaves
        the clock alone.
        """
        time, _, _, members = bucket
        ticks = self._ticks
        if ticks.get(time) is bucket:
            del ticks[time]     # later arms at ``time`` open a new bucket
        heap = self._heap
        fired = 0
        i = 0
        n = len(members)
        try:
            while i < n:
                handle = members[i]
                seq = handle._seq
                if seq is None:         # cancelled
                    i += 1
                    continue
                if fired == budget or (heap and heap[0][0] == time
                                       and heap[0][1] < seq):
                    bucket[1] = seq
                    bucket[3] = members[i:]
                    heappush(heap, bucket)
                    return fired
                i += 1
                handle._seq = None
                self._now = time
                self._processed += 1
                fired += 1
                try:
                    handle.fn()
                finally:
                    if not handle.cancelled:
                        step = handle.interval
                        self._arm(handle, step() if callable(step) else step)
        except BaseException:
            rest = [h for h in members[i:] if h._seq is not None]
            if rest:
                bucket[1] = rest[0]._seq
                bucket[3] = rest
                heappush(heap, bucket)
            raise
        return fired

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending callback.  Returns False if none remain."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                continue
            if fn is _TICKS:
                if self._fire_ticks(entry, 1):
                    return True
                continue
            entry[2] = None
            self._now = entry[0]
            self._processed += 1
            fn(*entry[3])
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
        # list is hoisted into a local (callbacks push onto the same list
        # object, so the alias stays valid); ``self._now`` and the
        # counters must stay instance state — callbacks read ``loop.now``,
        # ``pending()`` and ``processed_events`` mid-drain.
        heap = self._heap
        fire_ticks = self._fire_ticks
        ticks = _TICKS
        stop_at = math.inf if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        fired = 0
        try:
            while heap:
                entry = heap[0]
                fn = entry[2]
                if fn is None:
                    heappop(heap)
                    continue
                if entry[0] > stop_at or fired >= limit:
                    break
                heappop(heap)
                if fn is ticks:
                    fired += fire_ticks(entry, limit - fired)
                    continue
                entry[2] = None
                self._now = entry[0]
                self._processed += 1
                fired += 1
                fn(*entry[3])
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
