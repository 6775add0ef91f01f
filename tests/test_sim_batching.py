"""Property test for the simulation core's batch entry point.

**``send_many`` is a loop of ``send``.**  Transmission of a list of
messages over a link must produce byte-for-byte the same delivery log —
per-message delivery times, per-link FIFO order, loss outcomes, and all
four network counters — as sending the same messages one at a time.  No
protocol calls ``send_many``; it is kept as a named entry point for
external instrumentation, and this test holds it to the plain path.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.env import Environment
from repro.sim.latency import ConstantLatency, JitteredLatency
from repro.sim.network import Network
from repro.sim.process import Process

# ----------------------------------------------------------------------
# send_many == loop of send
# ----------------------------------------------------------------------

class Probe:
    """Minimal network payload with an identity and a wire size."""

    __slots__ = ("ident", "size_bytes")

    def __init__(self, ident, size_bytes):
        self.ident = ident
        self.size_bytes = size_bytes


class Recorder(Process):
    """Logs every delivered probe as ``(sim_time, ident)``."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.log = []

    def on_probe(self, msg, src):
        self.log.append((self.now, msg.ident))


def _drive(batches, loss_rate, jitter, seed, batched):
    """Run one transmission schedule; return (delivery log, counters).

    Message identities are ``(batch_index, position)`` so the log exposes
    both which transmission a delivery came from and its in-batch rank.
    """
    env = Environment(seed=seed)
    latency = (JitteredLatency(0.0001, 0.0004) if jitter
               else ConstantLatency(0.0002))
    net = Network(env, latency=latency, loss_rate=loss_rate)
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    for b, (start_units, count) in enumerate(batches):
        msgs = [Probe((b, k), (b * 5 + k * 7) % 23) for k in range(count)]
        if batched:
            env.loop.schedule(start_units * 1e-3,
                              lambda m=msgs: net.send_many(sender, sink, m))
        else:
            def fire(m=msgs):
                for msg in m:
                    net.send(sender, sink, msg)
            env.loop.schedule(start_units * 1e-3, fire)
    env.run()
    counters = (net.messages_attempted, net.messages_sent,
                net.messages_dropped, net.bytes_sent)
    return sink.log, counters


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8)),
                     min_size=1, max_size=6,
                     unique_by=lambda batch: batch[0]),
    loss_rate=st.sampled_from([0.0, 0.35]),
    jitter=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_send_many_matches_send_loop(batches, loss_rate, jitter, seed):
    """Same seed, same messages: the batched and per-message transmissions
    must agree on every delivery time, each message's loss outcome, all
    four counters, and per-batch delivery order, under constant and
    jittered latency, with and without loss.  Without jitter the strict
    delivery order must match as well."""
    loop_log, loop_counters = _drive(batches, loss_rate, jitter, seed,
                                     batched=False)
    many_log, many_counters = _drive(batches, loss_rate, jitter, seed,
                                     batched=True)
    assert sorted(many_log) == sorted(loop_log)
    assert many_counters == loop_counters
    if not jitter:
        assert many_log == loop_log
    # Per-link FIFO: delivery times never decrease on a directed link.
    times = [t for t, _ in many_log]
    assert times == sorted(times)
    # Within every transmission, delivered messages keep their send order.
    for b in range(len(batches)):
        ranks = [k for _, (bb, k) in many_log if bb == b]
        assert ranks == sorted(ranks)


def test_send_many_from_crashed_source_counts_attempts():
    """The offered-load counter sees the whole batch even when the crashed
    source delivers none of it (the counter split ``send`` also honours)."""
    env = Environment(seed=3)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    sender.crashed = True
    net.send_many(sender, sink, [Probe((0, k), 0) for k in range(5)])
    env.run()
    assert sink.log == []
    assert net.messages_attempted == 5
    assert net.messages_dropped == 5
    assert net.messages_sent == 0
    assert net.bytes_sent == 0


class CrashOnFirst(Recorder):
    """Crashes itself while handling its first delivery."""

    def on_probe(self, msg, src):
        super().on_probe(msg, src)
        if len(self.log) == 1:
            self.crash()


def test_deliver_batch_stops_when_handler_crashes_mid_batch():
    """A handler that crashes the process mid-batch must drop the remaining
    messages of that batch, matching the per-message path's _enqueue guard
    (regression: the inline fast path kept dispatching after the crash)."""
    logs = []
    for batched in (False, True):
        env = Environment(seed=7)
        net = Network(env, latency=ConstantLatency(0.0001))
        sender = Recorder(env, "sender")
        sink = CrashOnFirst(env, "sink")
        msgs = [Probe((0, k), 0) for k in range(3)]
        if batched:
            net.send_many(sender, sink, msgs)
        else:
            for msg in msgs:
                net.send(sender, sink, msg)
        env.run()
        logs.append(sink.log)
    assert logs[0] == logs[1]
    assert [ident for _, ident in logs[1]] == [(0, 0)]


def test_send_many_empty_and_singleton():
    """Degenerate batch sizes fall through to the plain paths."""
    env = Environment(seed=4)
    net = Network(env, latency=ConstantLatency(0.0001))
    sender = Recorder(env, "sender")
    sink = Recorder(env, "sink")
    net.send_many(sender, sink, [])
    assert net.messages_attempted == 0
    net.send_many(sender, sink, [Probe((0, 0), 11)])
    env.run()
    assert sink.log == [(0.0001, (0, 0))]
    assert net.messages_attempted == net.messages_sent == 1
    assert net.bytes_sent == 11
