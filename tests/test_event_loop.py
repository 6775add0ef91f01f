"""Unit tests for the discrete-event loop."""

import functools
import heapq
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.loop import EventLoop, SimulationError


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(3.0, fired.append, "c")
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(2.0, fired.append, "b")
    loop.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for label in "abcde":
        loop.schedule(1.0, fired.append, label)
    loop.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(2.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [2.5]
    assert loop.now == 2.5


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "early")
    loop.schedule(5.0, fired.append, "late")
    loop.run(until=2.0)
    assert fired == ["early"]
    assert loop.now == 2.0  # clock advances to the boundary
    # scheduled between segments, ahead of the still-pending late event
    loop.schedule(0.5, fired.append, "between")
    loop.run()
    assert fired == ["early", "between", "late"]
    assert loop.now == 5.0


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    fired = []
    keep = loop.schedule(1.0, fired.append, "keep")
    drop = loop.schedule(1.0, fired.append, "drop")
    loop.cancel(drop)
    loop.run()
    assert fired == ["keep"]
    assert keep[0] == 1.0


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    loop.cancel(event)
    loop.cancel(event)
    loop.run()
    assert loop.processed_events == 0


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)


def test_events_scheduled_during_execution_fire():
    loop = EventLoop()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            loop.schedule(1.0, chain, n + 1)

    loop.schedule(0.0, chain, 0)
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_step_executes_one_event():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, 1)
    loop.schedule(2.0, fired.append, 2)
    assert loop.step() is True
    assert fired == [1]
    assert loop.step() is True
    assert loop.step() is False


def test_max_events_bound():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.schedule(float(i), fired.append, i)
    loop.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_pending_excludes_cancelled():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    event = loop.schedule(2.0, lambda: None)
    loop.cancel(event)
    assert loop.pending() == 1


def test_pending_counter_tracks_schedule_cancel_and_pop():
    """pending() is a live counter (O(1)), not a heap scan — it must stay
    exact through every combination of firing, cancellation (including
    double-cancel), and partial runs."""
    loop = EventLoop()
    events = [loop.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert loop.pending() == 6
    loop.cancel(events[4])
    loop.cancel(events[4])      # idempotent: must not decrement twice
    assert loop.pending() == 5
    loop.step()                 # fires t=1
    assert loop.pending() == 4
    loop.run(until=3.0)         # fires t=2, t=3
    assert loop.pending() == 2
    loop.cancel(events[5])
    assert loop.pending() == 1
    loop.run()                  # fires t=4; cancelled t=5/t=6 lazily popped
    assert loop.pending() == 0
    assert not loop._heap


def test_cancel_after_fire_does_not_corrupt_pending():
    """A handle cancelled after its event already fired (e.g. a timeout
    cancelled on completion) must be a no-op, not a double decrement."""
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.pending() == 0
    loop.cancel(event)
    loop.cancel(event)
    assert loop.pending() == 0
    assert event[2] is None  # firing cleared the fn slot, as cancel does
    loop.schedule(2.0, lambda: None)
    assert loop.pending() == 1


def test_pending_is_constant_time_under_large_heaps():
    """The counter must not degrade into an O(heap) scan again: polling
    pending() many times against a large heap has to stay far cheaper than
    the equivalent scans."""
    import time

    loop = EventLoop()
    for i in range(50_000):
        loop.schedule(float(i), lambda: None)
    polls = 10_000
    start = time.perf_counter()
    for _ in range(polls):
        loop.pending()
    elapsed = time.perf_counter() - start
    # 10k O(1) polls are microseconds each even on slow CI; 10k O(heap)
    # scans of a 50k heap would take tens of seconds.
    assert elapsed < 1.0
    assert loop.pending() == 50_000


def test_loop_is_not_reentrant():
    loop = EventLoop()
    errors = []

    def reenter():
        try:
            loop.run()
        except SimulationError:
            errors.append(True)

    loop.schedule(1.0, reenter)
    loop.run()
    assert errors == [True]


def test_determinism_same_schedule_same_history():
    def history():
        loop = EventLoop()
        out = []
        for i in range(50):
            loop.schedule((i * 7919 % 13) / 10.0, out.append, i)
        loop.run()
        return out

    assert history() == history()


# ----------------------------------------------------------------------
# schedule_periodic
# ----------------------------------------------------------------------

def test_periodic_fires_every_interval():
    loop = EventLoop()
    times = []
    handle = loop.schedule_periodic(1.0, lambda: times.append(loop.now))
    loop.run(until=3.5)
    handle.cancel()
    loop.run()
    assert times == [1.0, 2.0, 3.0]
    assert not handle.active


def test_periodic_phase_offsets_first_firing():
    loop = EventLoop()
    times = []
    handle = loop.schedule_periodic(1.0, lambda: times.append(loop.now),
                                    phase=0.25)
    loop.run(until=2.5)
    handle.cancel()
    assert times == [0.25, 1.25, 2.25]


def test_periodic_cancel_from_inside_callback():
    loop = EventLoop()
    fired = []
    handle = loop.schedule_periodic(1.0, lambda: (
        fired.append(loop.now),
        handle.cancel() if len(fired) == 2 else None))
    loop.run()
    assert fired == [1.0, 2.0]
    assert loop.pending() == 0


def test_periodic_callable_interval_reread_each_arming():
    loop = EventLoop()
    times = []
    step = [1.0]

    def fire():
        times.append(loop.now)
        step[0] = 0.5           # takes effect from the *next* arming on

    handle = loop.schedule_periodic(lambda: step[0], fire)
    loop.run(until=2.3)
    handle.cancel()
    assert times == [1.0, 1.5, 2.0]


def test_periodic_rearms_after_callback_returns():
    """The next firing is scheduled *after* the callback body runs, so any
    events the callback schedules at the next firing time get earlier
    sequence numbers and fire first — the order hand-rolled self-
    rescheduling loops produced."""
    loop = EventLoop()
    order = []

    def fire():
        order.append(("tick", loop.now))
        loop.schedule(1.0, order.append, ("inner", loop.now + 1.0))

    handle = loop.schedule_periodic(1.0, fire)
    loop.run(until=2.5)
    handle.cancel()
    assert order == [("tick", 1.0), ("inner", 2.0), ("tick", 2.0)]



# ----------------------------------------------------------------------
# Exactness oracle: EventLoop against a one-entry-per-firing reference
# ----------------------------------------------------------------------

class ReferenceLoop:
    """The loop's contract in its plainest form: a heap of
    ``(time, seq, fn, args)`` tuples, one entry per firing, periodic
    callbacks re-armed by self-rescheduling after they return."""

    def __init__(self):
        self.heap, self.seq, self.now = [], itertools.count(), 0.0
        self.processed_events, self.live, self.done = 0, 0, set()

    def pending(self):
        return self.live

    def schedule(self, delay, fn, *args):
        seq = next(self.seq)
        heapq.heappush(self.heap, (self.now + delay, seq, fn, args))
        self.live += 1
        return seq

    def cancel(self, seq):
        if seq not in self.done:
            self.done.add(seq)
            self.live -= 1

    def schedule_periodic(self, interval, fn, phase=None):
        handle = ReferenceHandle(self)

        def fire():
            handle.seq = None
            try:
                fn()
            finally:
                if not handle.cancelled:
                    step = interval() if callable(interval) else interval
                    handle.seq = self.schedule(step, fire)

        first = phase
        if first is None:
            first = interval() if callable(interval) else interval
        handle.seq = self.schedule(first, fire)
        return handle

    def _pop_live(self, until, fired, max_events):
        while self.heap:
            time, seq = self.heap[0][:2]
            if seq in self.done:
                heapq.heappop(self.heap)
                continue
            if until is not None and time > until:
                return None
            if max_events is not None and fired >= max_events:
                return None
            self.done.add(seq)
            self.live -= 1
            return heapq.heappop(self.heap)
        return None

    def step(self):
        entry = self._pop_live(None, 0, None)
        if entry is None:
            return False
        self.now, self.processed_events = entry[0], self.processed_events + 1
        entry[2](*entry[3])
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            entry = self._pop_live(until, fired, max_events)
            if entry is None:
                break
            fired += 1
            self.now, self.processed_events = entry[0], self.processed_events + 1
            entry[2](*entry[3])
        if until is not None and self.now < until:
            self.now = until


class ReferenceHandle:
    def __init__(self, loop):
        self.loop, self.seq, self.cancelled = loop, None, False

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            if self.seq is not None:
                self.loop.cancel(self.seq)


#: float instants on a coarse grid, so one-shots and ticks collide exactly
DELAYS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
INTERVALS = (0.25, 0.5, 1.0, "cell")
PHASES = (None, 0.0, 0.25, 0.5, 1.0)
MAX_ONE_SHOTS = 40
MAX_PERIODICS = 8

ACTIONS = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("once"), st.sampled_from(DELAYS)),
    st.tuples(st.just("periodic"), st.sampled_from(INTERVALS),
              st.sampled_from(PHASES)),
    st.tuples(st.just("cancel_once"), st.integers(0, 50)),
    st.tuples(st.just("cancel_periodic"), st.integers(0, 50)),
    st.tuples(st.just("retime"), st.sampled_from((0.25, 0.5, 0.75))),
)

SEGMENTS = st.tuples(
    st.one_of(st.tuples(st.just("until"), st.sampled_from((0.0, 0.5, 1.0, 1.25, 2.0))),
              st.tuples(st.just("max"), st.integers(0, 7)),
              st.tuples(st.just("step"), st.integers(1, 4))),
    st.lists(ACTIONS, max_size=3))


class World:
    """Drives one loop through a script; every fired callback logs
    ``(now, label)`` and then applies the script's next action."""

    def __init__(self, loop, script):
        self.loop, self.script = loop, script
        self.log, self.fires, self.labels = [], 0, itertools.count()
        self.one_shots, self.periodics = [], []
        self.cell = [0.5]   # a callable interval reads it (Fig. 7 straggler)

    def callback(self, label):
        self.log.append((self.loop.now, label))
        if self.script:
            self.apply(self.script[self.fires % len(self.script)])
        self.fires += 1

    def apply(self, action):
        kind, loop = action[0], self.loop
        if kind == "once" and len(self.one_shots) < MAX_ONE_SHOTS:
            self.one_shots.append(loop.schedule(
                action[1], self.callback, f"o{next(self.labels)}"))
        elif kind == "periodic" and len(self.periodics) < MAX_PERIODICS:
            interval = ((lambda: self.cell[0]) if action[1] == "cell"
                        else action[1])
            self.periodics.append(loop.schedule_periodic(
                interval,
                functools.partial(self.callback, f"p{next(self.labels)}"),
                phase=action[2]))
        elif kind == "cancel_once" and self.one_shots:
            loop.cancel(self.one_shots[action[1] % len(self.one_shots)])
        elif kind == "cancel_periodic" and self.periodics:
            self.periodics[action[1] % len(self.periodics)].cancel()
        elif kind == "retime":
            self.cell[0] = action[1]

    def snapshot(self):
        loop = self.loop
        return (list(self.log), loop.now, loop.processed_events,
                loop.pending())


def replay(loop, setup, script, segments):
    """Snapshots of ``loop`` after the setup and after every segment."""
    world = World(loop, script)
    for action in setup:
        world.apply(action)
    out = [world.snapshot()]
    for (mode, arg), outside in segments:
        if mode == "until":
            loop.run(until=loop.now + arg)
        elif mode == "max":
            loop.run(max_events=arg)
        else:
            for _ in range(arg):
                loop.step()
        out.append(world.snapshot())
        for action in outside:      # cancels and schedules between runs
            world.apply(action)
    out.append(world.snapshot())
    return out


def assert_matches_reference(setup, script, segments):
    assert (replay(EventLoop(), setup, script, segments)
            == replay(ReferenceLoop(), setup, script, segments))


@settings(max_examples=300, deadline=None)
@given(setup=st.lists(ACTIONS, max_size=8),
       script=st.lists(ACTIONS, max_size=8),
       segments=st.lists(SEGMENTS, min_size=1, max_size=8))
# a one-shot lands on the tick instant between two bucket members
@example(setup=[("periodic", 1.0, None), ("once", 1.0),
                ("periodic", 1.0, None)],
         script=[], segments=[(("until", 2.0), [])])
# every member of a bucket cancelled from outside: no clock advance
@example(setup=[("periodic", 0.5, None), ("periodic", 0.5, None),
                ("once", 1.0)],
         script=[], segments=[(("step", 1), [("cancel_periodic", 0),
                                             ("cancel_periodic", 1)]),
                              (("step", 1), []), (("max", 3), [])])
# cancels from inside, a straggling callable interval, and runs that
# stop mid-bucket
@example(setup=[("periodic", "cell", 0.0), ("periodic", 0.5, 0.0),
                ("periodic", 0.25, 0.0)],
         script=[("cancel_periodic", 1), ("retime", 0.75), ("once", 0.0),
                 ("noop",)],
         segments=[(("max", 2), []), (("step", 1), []),
                   (("until", 1.25), [("periodic", 0.5, None)]),
                   (("max", 5), [])])
def test_loop_matches_one_entry_per_firing_reference(setup, script,
                                                      segments):
    assert_matches_reference(setup, script, segments)


def test_fully_cancelled_bucket_neither_fires_nor_advances_clock():
    loop = EventLoop()
    handles = [loop.schedule_periodic(1.0, lambda: None) for _ in range(3)]
    for handle in handles:
        handle.cancel()
    assert loop.pending() == 0
    assert loop.step() is False
    loop.run(max_events=5)
    assert loop.now == 0.0
    assert loop.processed_events == 0


def test_run_and_step_stop_mid_bucket():
    loop = EventLoop()
    fired = []
    for label in "abc":
        loop.schedule_periodic(1.0, functools.partial(fired.append, label))
    loop.run(max_events=2)
    assert fired == ["a", "b"]
    assert loop.processed_events == 2
    assert loop.pending() == 3      # c still due, a and b re-armed
    assert loop.step() is True
    assert fired == ["a", "b", "c"]
    assert loop.now == 1.0


def test_raising_tick_keeps_the_rest_of_its_bucket():
    """A periodic callback that raises is re-armed, and the handles due at
    the same instant after it still fire when the run resumes."""
    loop = EventLoop()
    fired = []

    def boom():
        fired.append("boom")
        raise RuntimeError("tick failed")

    loop.schedule_periodic(1.0, boom)
    loop.schedule_periodic(1.0, lambda: fired.append("after"))
    with pytest.raises(RuntimeError):
        loop.run(until=1.5)
    loop.run(until=1.5)
    assert fired == ["boom", "after"]
    assert loop.pending() == 2
