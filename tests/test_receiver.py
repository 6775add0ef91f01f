"""Tests for the geo receiver (Algorithm 5)."""

import pytest

from repro.core.messages import ApplyRemote, ApplyRemoteOk, RemoteStableBatch
from repro.core.placement import PlacementMap
from repro.geo.receiver import Receiver
from repro.kvstore.ring import ConsistentHashRing
from repro.kvstore.types import Update
from repro.metrics import MetricsHub
from repro.sim import ConstantLatency, Environment, Network, Process


class RecordingPartition(Process):
    """Applies instantly and acks, recording the order."""

    def __init__(self, env, name, log):
        super().__init__(env, name)
        self.log = log

    def on_apply_remote(self, msg, src):
        self.log.append(msg.update.uid)
        self.send(src, ApplyRemoteOk(msg.update.uid))


def make_update(dc, ts, vts, seq=None, partition=0, key="k"):
    return Update(key=key, value="v", origin_dc=dc, partition_index=partition,
                  seq=seq if seq is not None else ts, ts=ts, vts=vts,
                  commit_time=0.0)


@pytest.fixture
def rig(env, metrics):
    Network(env, ConstantLatency(0.0001))
    receiver = Receiver(env, "recv", dc_id=0, n_dcs=3, metrics=metrics)
    log = []
    partitions = [RecordingPartition(env, f"p{i}", log) for i in range(2)]
    receiver.set_partitions(ConsistentHashRing(2), partitions)
    sender = Process(env, "eunomia-remote")
    return env, receiver, sender, log


def test_applies_in_origin_order(rig):
    env, receiver, sender, log = rig
    ops = tuple(make_update(1, ts, (0, ts, 0), key=f"k{ts}")
                for ts in (10, 20, 30))
    sender.send(receiver, RemoteStableBatch(1, ops))
    env.run(until=0.1)
    assert log == [op.uid for op in ops]
    assert receiver.site_time[1] == 30
    assert receiver.applied == 3


def test_cross_origin_dependency_gates_apply(rig):
    env, receiver, sender, log = rig
    # An update from dc1 that depends on dc2's ts 50.
    dependent = make_update(1, 10, (0, 10, 50))
    sender.send(receiver, RemoteStableBatch(1, (dependent,)))
    env.run(until=0.05)
    assert log == []  # blocked: SiteTime[2] < 50
    provider = make_update(2, 50, (0, 0, 50))
    sender.send(receiver, RemoteStableBatch(2, (provider,)))
    env.run(until=0.1)
    assert log == [provider.uid, dependent.uid]


def test_dependency_on_local_dc_entry_is_ignored(rig):
    env, receiver, sender, log = rig
    # vts[0] (the local DC) is non-zero: locally visible by construction.
    update = make_update(1, 10, (999, 10, 0))
    sender.send(receiver, RemoteStableBatch(1, (update,)))
    env.run(until=0.05)
    assert log == [update.uid]


def test_duplicates_are_dropped(rig):
    env, receiver, sender, log = rig
    op = make_update(1, 10, (0, 10, 0))
    sender.send(receiver, RemoteStableBatch(1, (op,)))
    sender.send(receiver, RemoteStableBatch(1, (op,)))  # failover re-ship
    env.run(until=0.1)
    assert log == [op.uid]
    assert receiver.duplicates_dropped == 1


def test_timestamp_ties_across_partitions_both_apply(rig):
    env, receiver, sender, log = rig
    a = make_update(1, 10, (0, 10, 0), seq=1, partition=0)
    b = make_update(1, 10, (0, 10, 0), seq=1, partition=1)
    sender.send(receiver, RemoteStableBatch(1, (a, b)))
    env.run(until=0.1)
    assert log == [a.uid, b.uid]
    assert receiver.site_time[1] == 10


def test_site_time_held_back_until_tie_fully_applied(rig):
    env, receiver, sender, log = rig
    a = make_update(1, 10, (0, 10, 0), seq=1, partition=0)
    b = make_update(1, 10, (0, 10, 0), seq=1, partition=1)
    sender.send(receiver, RemoteStableBatch(1, (a, b)))

    observed = []

    def spy():
        observed.append((len(log), receiver.site_time[1]))

    env.loop.schedule(0.0002, spy)  # between the two applies (RTT ~0.2ms)
    env.run(until=0.1)
    # whenever only one tied op had been applied, SiteTime must be < 10
    for applied, site in observed:
        if applied == 1:
            assert site == 9


def test_origins_progress_independently(rig):
    env, receiver, sender, log = rig
    blocked = make_update(1, 10, (0, 10, 99))  # waits on dc2 ts 99
    free = make_update(2, 5, (0, 0, 5))
    sender.send(receiver, RemoteStableBatch(1, (blocked,)))
    sender.send(receiver, RemoteStableBatch(2, (free,)))
    env.run(until=0.05)
    assert free.uid in log          # dc2's stream is not head-blocked
    assert blocked.uid not in log
    assert receiver.backlog() == 1


def test_unexpected_ack_raises(rig):
    env, receiver, sender, log = rig
    sender.send(receiver, ApplyRemoteOk((1, 0, 77)))
    with pytest.raises(RuntimeError):
        env.run(until=0.01)


def test_nonresident_skip_rescans_other_origins(env):
    """Partial placement: dc0 stores only partition 0.  Origin 2's head
    waits on SiteTime[1] >= 10; origin 1's batch carries only a partition-1
    op at ts 10, which dc0 skips.  The skip advances SiteTime[1], and the
    receiver must release origin 2's head in that same handler call — no
    periodic pass exists to find it later."""
    Network(env, ConstantLatency(0.0001))
    placement = PlacementMap(3, 2, {0: [0], 1: [0, 1], 2: [0, 1]})
    receiver = Receiver(env, "recv", dc_id=0, n_dcs=3, placement=placement)
    ring = ConsistentHashRing(2)
    log = []
    receiver.set_partitions(
        ring, [RecordingPartition(env, f"p{i}", log) for i in range(2)])
    sent = []
    forward = receiver.send

    def spy(dst, msg):
        sent.append((type(msg).__name__, msg.update.uid))
        forward(dst, msg)

    receiver.send = spy
    sender = Process(env, "eunomia-remote")
    key = next(k for k in range(100) if ring.partition_for(k) == 0)
    waiting = make_update(2, 5, (0, 10, 5), key=key)
    receiver.on_remote_stable_batch(RemoteStableBatch(2, (waiting,)), sender)
    assert sent == []                      # SiteTime[1] = 0 < 10
    skipped = make_update(1, 10, (0, 10, 0), partition=1)
    receiver.on_remote_stable_batch(RemoteStableBatch(1, (skipped,)), sender)
    assert receiver.skipped_nonresident == 1
    assert receiver.site_time[1] == 10
    assert sent == [("ApplyRemote", waiting.uid)]
    env.run(until=0.01)
    assert log == [waiting.uid]
    assert receiver.backlog() == 0
