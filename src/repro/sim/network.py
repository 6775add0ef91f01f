"""Simulated message-passing network.

Provides the properties the paper's protocols assume:

* **FIFO links** between any pair of processes (Eunomia's Property 2 and the
  geo-replication layer both require FIFO channels).  With jittered latency
  models, FIFO is enforced by never delivering a message earlier than the
  previous one on the same (src, dst) link.
* **Configurable loss** — globally or per link — used to exercise the
  at-least-once / prefix-property machinery of fault-tolerant Eunomia.
* **Partitions** — pairs (or whole processes) can be disconnected and later
  reconnected, for failure-injection experiments.

Delivery goes through the destination's service queue
(:meth:`repro.sim.process.Process.deliver`), so a message to an overloaded
server queues behind its backlog — the effect underlying every throughput
result in the paper.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .env import Environment
from .latency import ConstantLatency, LatencyModel
from .process import Process

__all__ = ["Network"]


class Network:
    """Point-to-point network with FIFO links, loss, and partitions."""

    def __init__(self, env: Environment, latency: Optional[LatencyModel] = None,
                 loss_rate: float = 0.0):
        self.env = env
        self._loop = env.loop   # hot-path alias (the loop never changes)
        self.latency = latency or ConstantLatency()
        self.loss_rate = loss_rate
        self._rng = env.rng.stream("network")
        self._last_delivery: dict[tuple[int, int], float] = {}
        self._link_loss: dict[tuple[int, int], float] = {}
        self._link_extra_delay: dict[tuple[int, int], float] = {}
        self._blocked: set[tuple[int, int]] = set()
        self._processes: dict[int, Process] = {}
        #: every message handed to the network, whether or not it survives
        #: the crash/partition/loss checks (the offered load)
        self.messages_attempted = 0
        #: messages actually scheduled for delivery (crashed-source,
        #: partitioned, and lost messages are excluded — so crash schedules
        #: cannot inflate reported send throughput)
        self.messages_sent = 0
        self.messages_dropped = 0
        #: bytes of delivered-path messages (same rule as ``messages_sent``)
        self.bytes_sent = 0
        env.network = self

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        self._processes[process.pid] = process

    def processes(self) -> list[Process]:
        return list(self._processes.values())

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_link_loss(self, src: Process, dst: Process, rate: float) -> None:
        """Set a loss probability for the directed link src→dst."""
        self._link_loss[(src.pid, dst.pid)] = rate

    def set_link_extra_delay(self, src: Process, dst: Process,
                             extra_s: float) -> None:
        """Add fixed delay on the directed link src→dst (0 restores normal).

        Used to model degraded paths, e.g. a partition whose connection to
        its local sequencer straggles (Figure 7's sequencer comparison).
        """
        if extra_s:
            self._link_extra_delay[(src.pid, dst.pid)] = extra_s
        else:
            self._link_extra_delay.pop((src.pid, dst.pid), None)

    def disconnect(self, src: Process, dst: Process, both_ways: bool = True) -> None:
        self._blocked.add((src.pid, dst.pid))
        if both_ways:
            self._blocked.add((dst.pid, src.pid))

    def reconnect(self, src: Process, dst: Process, both_ways: bool = True) -> None:
        self._blocked.discard((src.pid, dst.pid))
        if both_ways:
            self._blocked.discard((dst.pid, src.pid))

    def partition(self, group_a: Iterable[Process], group_b: Iterable[Process],
                  symmetric: bool = True) -> None:
        """Partition two node sets: block every ``a → b`` link.

        ``symmetric=True`` (the default) blocks ``b → a`` too — a clean
        split.  ``symmetric=False`` blocks only ``a → b``, modelling
        *asymmetric reachability*: ``b``'s traffic still reaches ``a``, but
        ``a`` has gone silent from ``b``'s point of view — the regime in
        which Ω-style failure detectors can split-brain.  Links within a
        group are untouched; already-in-flight messages still deliver
        (partitions drop at send time, like crash-stop).
        """
        for a in group_a:
            for b in group_b:
                self.disconnect(a, b, both_ways=symmetric)

    def heal(self, group_a: Iterable[Process],
             group_b: Iterable[Process]) -> None:
        """Restore both directions between two node sets (idempotent; also
        heals partitions that were created asymmetric)."""
        for a in group_a:
            for b in group_b:
                self.reconnect(a, b, both_ways=True)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: Process, dst: Process, msg: Any) -> None:
        """Transmit ``msg``; it is delivered after the modelled latency.

        Messages from/to crashed processes and across partitioned links are
        silently dropped (crash-stop model).  Lost messages count in
        ``messages_dropped``.

        This is the per-message hot path (every protocol message in every
        experiment funnels through it), so the lookups it repeats are
        hoisted into locals and the fault-injection tables — empty in the
        common non-faulty run — are tested for emptiness before being
        probed.
        """
        self.messages_attempted += 1
        key = (src.pid, dst.pid)
        if src.crashed or (self._blocked and key in self._blocked):
            self.messages_dropped += 1
            return
        rate = (self._link_loss.get(key, self.loss_rate)
                if self._link_loss else self.loss_rate)
        if rate > 0.0 and self._rng.random() < rate:
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        self.bytes_sent += getattr(msg, "size_bytes", 0)
        loop = self._loop
        delay = self.latency.delay(src, dst, self._rng)
        if self._link_extra_delay:
            delay += self._link_extra_delay.get(key, 0.0)
        deliver_at = loop._now + delay
        # FIFO per directed link: never overtake the previous delivery.
        last = self._last_delivery
        previous = last.get(key)
        if previous is not None and deliver_at < previous:
            deliver_at = previous
        last[key] = deliver_at
        loop.schedule_at(deliver_at, dst.deliver, msg, src)

    def send_many(self, src: Process, dst: Process,
                  msgs: Sequence[Any]) -> None:
        """Transmit ``msgs`` over one link: exactly a loop of :meth:`send`.

        Nothing in the simulator calls it; the name stays as an entry
        point that external instrumentation wraps.
        """
        for msg in msgs:
            self.send(src, dst, msg)

    def multicast(self, src: Process, dsts: Iterable[Process],
                  msg: Any) -> None:
        """Send one message to each destination, in iteration order.

        Pure fan-out sugar over :meth:`send` — per-destination links draw
        loss/latency independently, so nothing can be merged across
        destinations; the value is a single audited entry point for the
        propagation/heartbeat/gossip fan-outs instead of ad-hoc loops.
        """
        for dst in dsts:
            self.send(src, dst, msg)
