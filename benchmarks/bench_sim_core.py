"""Micro-benchmarks of the simulation substrate itself.

Event-loop and message throughput bound how much simulated traffic every
experiment can afford; these benchmarks keep regressions visible.
"""

from repro.clocks import HybridLogicalClock, PhysicalClock
from repro.sim import ConstantLatency, Environment, EventLoop, Network, Process


def bench_event_loop_throughput(benchmark):
    """Schedule-and-fire cost of 50k chained events."""

    def run_chain():
        env = Environment(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                env.loop.schedule(0.001, tick)

        env.loop.schedule(0.001, tick)
        env.run()
        return count[0]

    assert benchmark(run_chain) == 50_000


def bench_network_message_round(benchmark):
    """Ping-pong message delivery through the FIFO network (20k rounds)."""

    class Pong:
        size_bytes = 16

    class Peer(Process):
        def __init__(self, env, name, rounds):
            super().__init__(env, name)
            self.rounds = rounds
            self.other = None

        def on_pong(self, msg, src):
            if self.rounds > 0:
                self.rounds -= 1
                self.send(self.other, Pong())

    def ping_pong():
        env = Environment(seed=1)
        Network(env, ConstantLatency(0.0001))
        a, b = Peer(env, "a", 10_000), Peer(env, "b", 10_000)
        a.other, b.other = b, a
        a.send(b, Pong())
        env.run()
        return env.loop.processed_events

    benchmark(ping_pong)


def bench_event_loop_throughput_batched(benchmark):
    """The 50k-op workload when ops travel in 64-op blocks.

    ``bench_event_loop_throughput`` pays one scheduled event per op — the
    pre-batching shape, where per-event loop overhead bounds how much
    simulated load CI can afford.  Here one ``schedule_periodic`` handle
    consumes a 64-op block per firing (the ``OpBlock`` /
    ``send_many`` shipping shape), so the loop schedules ~1/64th the events
    for the same op count; the ratio between the two benches is the
    amortization the batched APIs buy.
    """
    BLOCK = 64
    TOTAL = 50_048                   # 782 block firings x 64 ops

    def run_blocks():
        loop = EventLoop()
        count = [0]
        block = list(range(BLOCK))

        def tick():
            total = count[0]
            for _ in block:          # per-op work, same as the chained bench
                total += 1
            count[0] = total
            if total >= TOTAL:
                handle.cancel()

        handle = loop.schedule_periodic(0.001, tick)
        loop.run()
        return count[0]

    assert benchmark(run_blocks) == TOTAL


def bench_network_message_round_batched(benchmark):
    """The ~20k-message workload shipped as ``send_many`` batches.

    Jitter-free latency collapses each 64-message batch into ONE
    ``deliver_batch`` event whose zero-cost messages dispatch inline — the
    paper-scale shipping path (`RunBuffer` propagation, Alg. 5 streams).
    Compare against ``bench_network_message_round``: same message count,
    two scheduled events per message there versus ~1/64 here.
    """

    class Pong:
        size_bytes = 16

    class Sink(Process):
        received = 0

        def on_pong(self, msg, src):
            self.received += 1

    BATCH, ROUNDS = 64, 312          # 19 968 messages ≈ the 20k round bench

    def bulk_ship():
        env = Environment(seed=1)
        net = Network(env, ConstantLatency(0.0001))
        a, b = Sink(env, "a"), Sink(env, "b")
        batch = [Pong() for _ in range(BATCH)]
        for i in range(ROUNDS):
            env.loop.schedule(i * 0.001,
                              lambda: net.send_many(a, b, batch))
        env.run()
        return b.received

    assert benchmark(bulk_ship) == BATCH * ROUNDS


def bench_hybrid_clock_updates(benchmark):
    """Alg. 2 line 5 in a tight loop (100k timestamp generations)."""
    env = Environment(seed=1)
    hlc = HybridLogicalClock(PhysicalClock(env, drift_ppm=25.0))

    def generate():
        dep = 0
        for _ in range(100_000):
            dep = hlc.update(dep - 1)
        return dep

    benchmark(generate)


def bench_failure_tables_unarmed_overhead(benchmark):
    """Idle fault machinery must not tax the hot send path.

    The chaos work threads loss/disconnect/extra-delay tables and a crash
    epoch through every delivery; this bench runs the ping-pong workload
    with the tables *populated but neutralized* (loss 0.0, reconnected,
    extra delay 0.0, an armed-but-empty FailureSchedule) and asserts
    in-bench that it stays within noise of the untouched network — the
    "zero overhead unarmed" contract, enforced without a baseline entry.
    """
    import time

    from repro.sim import FailureSchedule

    class Pong:
        size_bytes = 16

    class Peer(Process):
        def __init__(self, env, name, rounds):
            super().__init__(env, name)
            self.rounds = rounds
            self.other = None

        def on_pong(self, msg, src):
            if self.rounds > 0:
                self.rounds -= 1
                self.send(self.other, Pong())

    def traffic(neutralized_tables):
        env = Environment(seed=1)
        net = Network(env, ConstantLatency(0.0001))
        a, b = Peer(env, "a", 8_000), Peer(env, "b", 8_000)
        a.other, b.other = b, a
        if neutralized_tables:
            FailureSchedule(env).arm()
            net.set_link_loss(a, b, 0.5)
            net.set_link_loss(a, b, 0.0)
            net.disconnect(a, b)
            net.reconnect(a, b)
            net.set_link_extra_delay(a, b, 0.01)
            net.set_link_extra_delay(a, b, 0.0)
        a.send(b, Pong())
        env.run()
        assert a.rounds == 0 and b.rounds == 0
        return env.loop.processed_events

    def timed(flag):
        start = time.perf_counter()
        events = traffic(flag)
        return time.perf_counter() - start, events

    timed(False), timed(True)                      # warm caches
    plain = min(timed(False)[0] for _ in range(3))
    armed = min(timed(True)[0] for _ in range(3))
    # generous bound: this is a no-measurable-cost contract, not a perf
    # target — a table lookup regression shows up as 2x+, noise as <15%
    assert armed <= plain * 1.25, (
        f"neutralized fault tables cost {armed / plain:.2f}x "
        "on the hot send path")
    benchmark(lambda: traffic(True))
