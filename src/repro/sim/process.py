"""Simulated processes with a single-server CPU service queue.

Modelling CPU time is what lets the simulator reproduce the paper's
throughput results: a traditional sequencer saturates because every client
update costs it a slice of service time on one core, while Eunomia's
off-critical-path handling is much cheaper per operation.  Each
:class:`Process` therefore owns a FIFO service queue: work (delivered
messages or periodic local tasks) is served one item at a time, each item
occupying the process for its *service cost* before its handler runs.

Handlers are discovered by naming convention: a message of class ``AddOp``
is dispatched to ``on_add_op(msg, src)``.  Unhandled messages raise, so
protocol typos fail loudly.

Work is scheduled on named **lanes**, each an independent single server
(defaulting to one lane, ``"cpu"``).  Storage partitions route remote-
replication work to a ``"replication"`` lane — modelling the background
scheduler threads real stores use — so geo-replication applies do not queue
behind foreground client operations.  Override :meth:`Process.lane_of` to
choose lanes per message.

Crash-stop failures are supported: :meth:`Process.crash` drops everything in
flight for the process and makes future deliveries no-ops until
:meth:`Process.recover`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from .env import Environment

__all__ = ["CostModel", "Process", "PeriodicTask"]

_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


def _snake(name: str) -> str:
    return _CAMEL_RE.sub("_", name).lower()


class CostModel:
    """Per-message-type CPU service costs, in seconds.

    ``costs`` maps message class names to seconds — or to a callable taking
    the message and returning seconds, for size-dependent work such as batch
    processing.  ``default`` applies to everything else.  ``per_byte`` adds a
    size-proportional component for messages that expose a ``size_bytes``
    attribute (used to charge Cure for its fatter vector metadata, for
    example).

    A :class:`Process` resolves each message class's entry once, on its
    first delivery, so the model must not be mutated after traffic starts
    (a cost callable may still read state that changes).
    """

    __slots__ = ("costs", "default", "per_byte")

    def __init__(self, default: float = 0.0,
                 costs: Optional[dict[str, Any]] = None,
                 per_byte: float = 0.0):
        self.default = default
        self.costs = dict(costs or {})
        self.per_byte = per_byte

    def cost_of(self, msg: Any) -> float:
        base = self.costs.get(type(msg).__name__, self.default)
        if callable(base):
            base = base(msg)
        if self.per_byte:
            size = getattr(msg, "size_bytes", 0)
            base += size * self.per_byte
        return base


class PeriodicTask:
    """Handle for a repeating local task; ``stop()`` cancels future firings.

    A thin crash-aware veneer over the loop-level
    :class:`repro.sim.loop.PeriodicHandle`.
    """

    __slots__ = ("_stopped", "_handle")

    def __init__(self):
        self._stopped = False
        self._handle = None   # wired by Process.periodic

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped


class Process:
    """Base class for every simulated server, service, or client."""

    def __init__(self, env: Environment, name: str, site: int = 0,
                 cost_model: Optional[CostModel] = None):
        self.env = env
        self._loop = env.loop   # hot-path alias (the loop never changes)
        self.name = name
        self.site = site
        self.pid = env.allocate_pid()
        self.cost_model = cost_model or CostModel()
        self.crashed = False
        self.state_lost = False   # set by an amnesia crash, cleared on restore
        self._epoch = 0           # bumped on crash; stale callbacks are dropped
        self._lane_busy: dict[str, float] = {}   # lane -> end of last slot
        #: message class -> (cost, cost callable or None, handler, lane or
        #: None); see :meth:`_plan`
        self._plans: dict[type, tuple] = {}
        if env.network is not None:
            env.network.register(self)

    # ------------------------------------------------------------------
    # Time helpers
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._loop._now

    def after(self, delay: float, fn: Callable[..., Any], *args: Any):
        """Run ``fn`` after ``delay`` seconds (no CPU cost, crash-aware)."""
        return self._loop.schedule(delay, self._run_deferred, self._epoch,
                                   fn, args)

    def _run_deferred(self, epoch: int, fn: Callable[..., Any],
                      args: tuple) -> None:
        """Crash/epoch-guarded trampoline for :meth:`after` callbacks."""
        if not self.crashed and self._epoch == epoch:
            fn(*args)

    def periodic(self, period, fn: Callable[[], Any],
                 cost: float = 0.0, phase: Optional[float] = None) -> PeriodicTask:
        """Run ``fn`` every ``period`` seconds.

        ``cost`` > 0 routes each firing through the service queue, charging
        the process CPU time — this is how the periodic global-stabilization
        work of GentleRain/Cure is made expensive.  ``phase`` staggers the
        first firing (defaults to one full period).  ``period`` may be a
        zero-argument callable, re-read before every firing (the straggler
        injector mutates intervals at runtime).

        Built on :meth:`repro.sim.loop.EventLoop.schedule_periodic`: the
        returned :class:`PeriodicTask` wraps the loop-level handle, and the
        crash guard retires the whole chain (one uniform re-arm point —
        recovery paths simply call the owning component's ``start()`` again).
        """
        task = PeriodicTask()
        epoch = self._epoch

        def body() -> None:
            if task._stopped or self.crashed or self._epoch != epoch:
                task.stop()
                return
            if cost > 0.0:
                self._enqueue(fn, cost)
            else:
                fn()

        task._handle = self._loop.schedule_periodic(period, body, phase)
        return task

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: "Process", msg: Any) -> None:
        """Send ``msg`` to ``dst`` over the environment's network."""
        self.env.network.send(self, dst, msg)

    def multicast(self, dsts, msg: Any) -> None:
        """Fan one message out to every destination, in iteration order."""
        self.env.network.multicast(self, dsts, msg)

    def lane_of(self, msg: Any) -> str:
        """Service lane for ``msg`` (override to add background servers).

        An override is called for every delivered message, so it may route
        by content; only processes that keep this default have their lane
        cached per message class.
        """
        return "cpu"

    def _plan(self, cls: type) -> tuple:
        """Resolve how messages of ``cls`` are served, once per class.

        Returns ``(cost, cost_fn, handler, lane)``: ``cost_fn`` is ``None``
        when the service cost is the constant ``cost``, and ``lane`` is
        ``None`` when :meth:`lane_of` is overridden and must be asked per
        message.
        """
        model = self.cost_model
        base = model.costs.get(cls.__name__, model.default)
        if model.per_byte:
            cost, cost_fn = 0.0, model.cost_of
        elif callable(base):
            cost, cost_fn = 0.0, base
        else:
            cost, cost_fn = base, None
        handler = getattr(self, "on_" + _snake(cls.__name__), None)
        if handler is None:
            error = (f"{type(self).__name__} {self.name!r} has no handler "
                     f"for {cls.__name__}")

            def handler(msg: Any, src: "Process") -> None:
                raise NotImplementedError(error)
        default_lane = getattr(self.lane_of, "__func__", None) is Process.lane_of
        plan = self._plans[cls] = (cost, cost_fn, handler,
                                   "cpu" if default_lane else None)
        return plan

    def deliver(self, msg: Any, src: "Process") -> None:
        """Called by the network at delivery time; feeds the service queue.

        This is :meth:`_enqueue` inlined for the dominant per-message case:
        the service-slot reservation is identical, but the scheduled event
        carries ``(epoch, handler, msg, src)`` as plain args into
        :meth:`_run_delivery` instead of allocating two closures per
        message.  Cost and handler come from the per-class :meth:`_plan`.
        """
        if self.crashed:
            return
        plan = self._plans.get(type(msg))
        if plan is None:
            plan = self._plan(type(msg))
        cost, cost_fn, handler, lane = plan
        if cost_fn is not None:
            cost = cost_fn(msg)
        if lane is None:
            lane = self.lane_of(msg)
        busy = self._lane_busy
        loop = self._loop
        start = busy.get(lane, 0.0)
        now = loop._now
        if start < now:
            start = now
        complete = start + cost
        busy[lane] = complete
        loop.schedule_at(complete, self._run_delivery, self._epoch, handler,
                         msg, src)

    def _run_delivery(self, epoch: int, handler: Callable[[Any, "Process"], Any],
                      msg: Any, src: "Process") -> None:
        """Service-slot completion: run the handler unless crashed/re-epoched."""
        if not self.crashed and self._epoch == epoch:
            handler(msg, src)

    def deliver_batch(self, msgs, src: "Process") -> None:
        """Deliver ``msgs`` back to back: exactly a loop of :meth:`deliver`.

        Nothing in the simulator schedules it; the name stays as an entry
        point that external instrumentation wraps.
        """
        for msg in msgs:
            self.deliver(msg, src)

    def _enqueue(self, fn: Callable[[], Any], cost: float,
                 lane: str = "cpu") -> None:
        """Reserve a ``cost``-second slot on ``lane``, then run ``fn``."""
        loop = self._loop
        start = max(loop._now, self._lane_busy.get(lane, 0.0))
        complete = start + cost
        self._lane_busy[lane] = complete
        loop.schedule_at(complete, self._run_enqueued, self._epoch, fn)

    def _run_enqueued(self, epoch: int, fn: Callable[[], Any]) -> None:
        """Crash/epoch-guarded trampoline for :meth:`_enqueue` slots."""
        if not self.crashed and self._epoch == epoch:
            fn()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self, lose_state: bool = False) -> None:
        """Crash-stop: drop queued work and ignore deliveries until recovery.

        With ``lose_state=True`` this is an *amnesia* crash: the process's
        volatile protocol state is discarded too (via the
        :meth:`_lose_state` hook), modelling a machine whose memory is gone.
        Only state held in durable media (e.g. a
        :class:`repro.durability.wal.WriteAheadLog`) survives; recovery then
        requires an explicit restore path, not just :meth:`recover`.
        """
        self.crashed = True
        self._epoch += 1
        if lose_state:
            self.state_lost = True
            self._lose_state()

    def _lose_state(self) -> None:
        """Hook: discard volatile protocol state (amnesia crash).

        Subclasses with protocol state override this; durable media owned by
        the process (WALs, checkpoint stores) must survive untouched apart
        from dropping their own volatile staging buffers.
        """

    def recover(self) -> None:
        """Restart the process with an empty service queue.

        Protocol state is *not* reset here; subclasses that need clean-slate
        recovery override this and re-initialize their own fields.
        """
        self.crashed = False
        self._epoch += 1
        self._lane_busy.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy_until(self) -> float:
        """End time of the latest reserved service window on any lane."""
        return max(self._lane_busy.values(), default=0.0)

    def utilization_horizon(self, lane: str = "cpu") -> float:
        """Seconds of already-committed future work on ``lane``."""
        return max(0.0, self._lane_busy.get(lane, 0.0) - self.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} site={self.site}>"
