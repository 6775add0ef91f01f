"""Tests for the partition → Eunomia uplink (batching, acks, heartbeats)."""

from collections import Counter

import pytest

from repro.clocks import HybridLogicalClock, PhysicalClock
from repro.core import EunomiaConfig
from repro.core.messages import AddOpBatch, BatchAck, PartitionHeartbeat
from repro.core.uplink import EunomiaUplink
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.workload import WorkloadSpec


class Host(Process):
    """Minimal uplink host (partition stand-in)."""

    def __init__(self, env, config, **kw):
        super().__init__(env, "host", **kw)
        self.batch_interval = config.batch_interval
        self.clock = PhysicalClock(env)
        self.hlc = HybridLogicalClock(self.clock)
        self.uplink = EunomiaUplink(self, 0, config, self.hlc, self.clock,
                                    op_cost=0.0, batch_cost=0.0)

    def on_batch_ack(self, msg, src):
        self.uplink.on_ack(msg, src)


class FakeReplica(Process):
    def __init__(self, env, name, ack=True):
        super().__init__(env, name)
        self.ack_enabled = ack
        self.batches = []
        self.heartbeats = []

    def on_add_op_batch(self, msg, src):
        self.batches.append(msg)
        if self.ack_enabled:
            self.send(src, BatchAck(msg.partition_index, msg.ops[-1].ts))

    def on_partition_heartbeat(self, msg, src):
        self.heartbeats.append(msg)


def make_op(host, key="k"):
    ts = host.hlc.tick()
    return Update(key=key, value=None, origin_dc=0, partition_index=0,
                  seq=ts, ts=ts, vts=(ts,), commit_time=host.now)


@pytest.fixture
def rig(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2,
                           resend_timeout=0.05)
    host = Host(env, config)
    replicas = [FakeReplica(env, "r0"), FakeReplica(env, "r1")]
    host.uplink.set_replicas(replicas)
    host.uplink.start()
    return env, host, replicas


def test_batches_ship_to_all_replicas(rig):
    env, host, replicas = rig
    host.uplink.record(make_op(host))
    env.run(until=0.01)
    assert len(replicas[0].batches) == 1
    assert len(replicas[1].batches) == 1


def test_acked_ops_are_pruned(rig):
    env, host, replicas = rig
    for _ in range(5):
        host.uplink.record(make_op(host))
    env.run(until=0.05)
    assert host.uplink.pending_count() == 0
    assert host.uplink.acked_ts(replicas[0]) > 0


def test_unacked_ops_retransmit_after_timeout(rig):
    env, host, replicas = rig
    replicas[1].ack_enabled = False
    host.uplink.record(make_op(host))
    env.run(until=0.2)
    # replica 1 never acks: the op is retransmitted on RTO, kept pending
    assert host.uplink.retransmissions >= 1
    assert host.uplink.pending_count() == 1
    assert len(replicas[1].batches) >= 2


def test_no_retransmissions_when_acks_flow(rig):
    env, host, replicas = rig
    for _ in range(20):
        host.uplink.record(make_op(host))
    env.run(until=0.3)
    assert host.uplink.retransmissions == 0


def test_lost_batches_recovered_by_retransmission(env):
    net = Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=1,
                           resend_timeout=0.02)
    host = Host(env, config)
    replica = FakeReplica(env, "r0")
    host.uplink.set_replicas([replica])
    host.uplink.start()
    # First transmission window is lost entirely.
    net.set_link_loss(host, replica, 1.0)
    host.uplink.record(make_op(host))
    env.run(until=0.01)
    net.set_link_loss(host, replica, 0.0)
    env.run(until=0.1)
    assert len(replica.batches) >= 1          # recovered
    assert host.uplink.pending_count() == 0   # and acked


def test_batch_respects_max_batch_ops(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=1,
                           max_batch_ops=3)
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)
    host.uplink.set_replicas([replica])
    host.uplink.start()
    for _ in range(10):
        host.uplink.record(make_op(host))
    env.run(until=0.0015)
    assert len(replica.batches[0].ops) == 3


def test_heartbeats_fire_when_idle(rig):
    env, host, replicas = rig
    env.run(until=0.05)  # no ops at all
    assert replicas[0].heartbeats
    assert replicas[1].heartbeats
    ts_seq = [hb.ts for hb in replicas[0].heartbeats]
    assert ts_seq == sorted(ts_seq)


def test_heartbeat_timestamps_below_future_updates(rig):
    env, host, replicas = rig
    env.run(until=0.01)  # a few heartbeats first
    last_hb = replicas[0].heartbeats[-1].ts
    op = make_op(host)
    assert op.ts > last_hb


def test_heartbeats_pause_while_ops_outstanding(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=1)
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)  # never acks
    host.uplink.set_replicas([replica])
    host.uplink.start()
    host.uplink.record(make_op(host))
    env.run(until=0.05)
    assert replica.heartbeats == []  # outstanding op blocks heartbeats


def test_non_ft_mode_ships_once_and_clears(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()  # fault_tolerant=False
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)
    host.uplink.set_replicas([replica])
    host.uplink.start()
    host.uplink.record(make_op(host))
    env.run(until=0.05)
    assert len(replica.batches) == 1
    assert host.uplink.pending_count() == 0


def test_non_monotone_record_rejected(env):
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    host = Host(env, config)
    op = make_op(host)
    host.uplink.record(op)
    stale = Update(key="k", value=None, origin_dc=0, partition_index=0,
                   seq=op.seq + 1, ts=op.ts, vts=(op.ts,), commit_time=0.0)
    with pytest.raises(ValueError):
        host.uplink.record(stale)


def test_straggler_interval_respected(env):
    """Mutating host.batch_interval (Fig. 7) slows the shipping cadence."""
    Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig()
    host = Host(env, config)
    replica = FakeReplica(env, "r0", ack=False)
    host.uplink.set_replicas([replica])
    host.batch_interval = 0.05  # straggle before the first tick is armed
    host.uplink.start()
    for _ in range(3):
        host.uplink.record(make_op(host))
    env.run(until=0.04)
    assert replica.batches == []  # nothing shipped before the long tick
    env.run(until=0.11)
    assert len(replica.batches) == 1


@pytest.mark.parametrize("config", [
    EunomiaConfig(),
    EunomiaConfig(fault_tolerant=True, n_replicas=2),
], ids=["non_ft", "ft_r2"])
def test_no_tick_both_ships_a_frame_and_heartbeats(monkeypatch, config):
    """Alg. 2 heartbeats only when idle: across a lossless geo run, no
    uplink tick ships a frame and also sends a heartbeat."""
    frames = Counter()
    ticks = Counter()   # (shipped, heartbeat) -> ticks
    transmit, flush = EunomiaUplink._transmit, EunomiaUplink._flush

    def counted_transmit(uplink, *args, **kwargs):
        frames[uplink] += 1
        return transmit(uplink, *args, **kwargs)

    def observed_flush(uplink):
        sent, beats = frames[uplink], uplink.heartbeats_sent
        flush(uplink)
        ticks[frames[uplink] > sent, uplink.heartbeats_sent > beats] += 1

    monkeypatch.setattr(EunomiaUplink, "_transmit", counted_transmit)
    monkeypatch.setattr(EunomiaUplink, "_flush", observed_flush)
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=4,
                         seed=13)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.5, n_keys=200),
                              config=config)
    system.run(0.5)
    assert ticks[True, True] == 0
    assert ticks[True, False] > 0 and ticks[False, True] > 0


class TimedReplica(FakeReplica):
    """Records the arrival time of every frame and heartbeat."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.arrivals = {"frame": set(), "heartbeat": set()}

    def on_add_op_batch(self, msg, src):
        self.arrivals["frame"].add(self.now)
        super().on_add_op_batch(msg, src)

    def on_partition_heartbeat(self, msg, src):
        self.arrivals["heartbeat"].add(self.now)
        super().on_partition_heartbeat(msg, src)


def test_no_replica_gets_a_frame_and_a_heartbeat_from_one_tick(env):
    """With R=2 Alg. 2 is applied per replica: while one replica's lossy
    link forces retransmissions, the other may be heartbeated in the same
    tick, but no replica receives both from one tick.  A heartbeat
    interval below the batch interval passes the clock test on every
    tick, so only the outstanding-ops test holds the line.  Costs are
    zero and latency constant, so one tick's sends reach a replica at one
    instant."""
    network = Network(env, ConstantLatency(0.0001))
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2,
                           resend_timeout=0.005, heartbeat_interval=0.0005)
    host = Host(env, config)
    replicas = [TimedReplica(env, "r0"), TimedReplica(env, "r1")]
    network.set_link_loss(host, replicas[1], 0.5)
    host.uplink.set_replicas(replicas)
    host.uplink.start()
    for i in range(40):
        env.loop.schedule(i * 0.0037,
                          lambda: host.uplink.record(make_op(host)))
    env.run(until=0.3)
    assert host.uplink.retransmissions > 0
    for replica in replicas:
        frames, beats = (replica.arrivals["frame"],
                         replica.arrivals["heartbeat"])
        assert frames and beats
        assert not frames & beats
