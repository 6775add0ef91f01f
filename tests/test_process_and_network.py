"""Tests for the process service-queue model and the network."""

from dataclasses import dataclass

import pytest

from repro.sim import ConstantLatency, Environment, Network, RttMatrix
from repro.sim.process import CostModel, Process


@dataclass
class Ping:
    payload: int = 0
    size_bytes: int = 10


@dataclass
class Pong:
    payload: int = 0


class Echo(Process):
    def __init__(self, env, name, **kw):
        super().__init__(env, name, **kw)
        self.seen = []

    def on_ping(self, msg, src):
        self.seen.append((self.now, msg.payload))
        self.send(src, Pong(msg.payload))


class Caller(Process):
    def __init__(self, env, name, **kw):
        super().__init__(env, name, **kw)
        self.replies = []

    def on_pong(self, msg, src):
        self.replies.append((self.now, msg.payload))


@pytest.fixture
def pair(env):
    Network(env, ConstantLatency(0.001))
    return Echo(env, "echo"), Caller(env, "caller")


def test_message_roundtrip(env, pair):
    echo, caller = pair
    caller.send(echo, Ping(7))
    env.run()
    assert echo.seen == [(0.001, 7)]
    assert caller.replies == [(0.002, 7)]


def test_service_cost_delays_handling(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 0.5}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen[0][0] == pytest.approx(0.501)


def test_service_queue_serializes_work(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 0.1}))
    caller = Caller(env, "caller")
    for i in range(3):
        caller.send(echo, Ping(i))
    env.run()
    times = [t for t, _ in echo.seen]
    # back-to-back service slots: 0.101, 0.201, 0.301
    assert times == pytest.approx([0.101, 0.201, 0.301])


def test_lanes_are_independent_servers(env):
    Network(env, ConstantLatency(0.001))

    class TwoLane(Echo):
        def lane_of(self, msg):
            return "replication" if msg.payload % 2 else "cpu"

    echo = TwoLane(env, "echo", cost_model=CostModel(costs={"Ping": 0.1}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(0))  # cpu lane
    caller.send(echo, Ping(1))  # replication lane
    env.run()
    times = sorted(t for t, _ in echo.seen)
    # both served in parallel, not 0.101 then 0.201
    assert times == pytest.approx([0.101, 0.101])


def test_lane_and_cost_stay_per_message_after_plan_warms(env):
    """The per-class delivery plan caches handlers, not lanes or sizes: a
    content-routed lane and a size-dependent cost are computed for every
    message, also once the class has been seen."""
    Network(env, ConstantLatency(0.001))

    class Routed(Echo):
        def lane_of(self, msg):
            return "replication" if msg.payload % 2 else "cpu"

    echo = Routed(env, "echo", cost_model=CostModel(
        costs={"Ping": lambda msg: msg.size_bytes * 0.01}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(0, size_bytes=10))   # warms the plan: cpu, 0.1 s
    env.run()
    start = env.now
    caller.send(echo, Ping(1, size_bytes=20))   # replication lane, 0.2 s
    caller.send(echo, Ping(2, size_bytes=30))   # cpu lane, 0.3 s
    env.run()
    assert [p for _, p in echo.seen] == [0, 1, 2]
    # lanes in parallel, each slot its own size: not 0.201 then 0.501
    assert [t - start for t, _ in echo.seen[1:]] == pytest.approx(
        [0.201, 0.301])
    assert echo.lane_of(Ping(3)) == "replication"


def test_cost_model_callable_and_per_byte():
    model = CostModel(default=1.0,
                      costs={"Ping": lambda msg: msg.payload * 0.5},
                      per_byte=0.01)
    assert model.cost_of(Ping(4)) == pytest.approx(4 * 0.5 + 10 * 0.01)
    assert model.cost_of(Pong()) == pytest.approx(1.0)  # no size_bytes


def test_unknown_message_raises(env, pair):
    echo, caller = pair
    echo.send(caller, Ping(1))  # Caller has no on_ping
    with pytest.raises(NotImplementedError):
        env.run()


def test_crash_drops_deliveries_and_timers(env, pair):
    echo, caller = pair
    echo.crash()
    caller.send(echo, Ping(1))
    fired = []
    caller.after(0.5, fired.append, "ok")
    env.run()
    assert echo.seen == []
    assert fired == ["ok"]


def test_crash_drops_inflight_service(env):
    Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo", cost_model=CostModel(costs={"Ping": 1.0}))
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.loop.schedule(0.5, echo.crash)  # mid-service
    env.run()
    assert echo.seen == []


def test_recover_accepts_new_work(env, pair):
    echo, caller = pair
    echo.crash()
    caller.send(echo, Ping(1))
    env.loop.schedule(0.01, echo.recover)
    env.loop.schedule(0.02, lambda: caller.send(echo, Ping(2)))
    env.run()
    assert [p for _, p in echo.seen] == [2]


def test_periodic_task_fires_and_stops(env):
    proc = Process(env, "p")
    count = []
    task = proc.periodic(0.1, lambda: count.append(proc.now))
    env.loop.run(until=0.55)
    task.stop()
    env.loop.run(until=2.0)
    assert len(count) == 5


def test_periodic_with_cost_consumes_service_time(env):
    proc = Process(env, "p")
    times = []
    proc.periodic(0.1, lambda: times.append(proc.now), cost=0.05)
    env.loop.run(until=0.36)
    # each firing runs 0.05s after its tick
    assert times == pytest.approx([0.15, 0.25, 0.35])


def test_network_fifo_per_link(env):
    # Jittery latencies must not reorder messages on one link.
    class Jitter(ConstantLatency):
        def __init__(self):
            self.calls = 0

        def delay(self, src, dst, rng):
            self.calls += 1
            return 0.010 if self.calls % 2 else 0.001

    Network(env, Jitter())
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    for i in range(6):
        caller.send(echo, Ping(i))
    env.run()
    assert [p for _, p in echo.seen] == list(range(6))


def test_network_loss(env):
    net = Network(env, ConstantLatency(0.001), loss_rate=1.0)
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen == []
    assert net.messages_dropped == 1


def test_link_loss_is_directional(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    net.set_link_loss(caller, echo, 1.0)
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen == []
    net.set_link_loss(caller, echo, 0.0)
    caller.send(echo, Ping(2))
    env.run()
    assert [p for _, p in echo.seen] == [2]


def test_disconnect_and_reconnect(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    net.disconnect(caller, echo)
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen == []
    net.reconnect(caller, echo)
    caller.send(echo, Ping(2))
    env.run()
    assert [p for _, p in echo.seen] == [2]


def test_link_extra_delay(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    net.set_link_extra_delay(caller, echo, 0.5)
    caller.send(echo, Ping(1))
    env.run()
    assert echo.seen[0][0] == pytest.approx(0.501)
    net.set_link_extra_delay(caller, echo, 0.0)


def test_rtt_matrix_one_way_delays():
    rtt = RttMatrix([[0, 80], [80, 0]], intra_us=100, jitter_frac=0.0)
    assert rtt.one_way_s(0, 1) == pytest.approx(0.040)
    assert rtt.one_way_s(0, 0) == pytest.approx(0.0001)


def test_rtt_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        RttMatrix([[0, 1, 2], [1, 0, 2]])


def test_bytes_accounting(env):
    net = Network(env, ConstantLatency(0.001))
    echo = Echo(env, "echo")
    caller = Caller(env, "caller")
    caller.send(echo, Ping(1))
    env.run()
    assert net.bytes_sent == 10  # Ping.size_bytes; Pong has none
