"""Equivalence of the batched dataplane against its per-op semantics.

The partition→Eunomia uplink reuses retransmission frames (a suffix
cache).  The cache is a pure memoization: disabling it (rebuilding every
retransmission suffix from the pending columns) must leave the whole run
*bit-identical*, including under the loss-induced ack stalls that make
the cache fire in the first place.

A scripted receiver harness additionally drives at-least-once re-shipped
stable streams (columnar ``OpBlock`` frames) through the stop-and-wait
FLUSH and checks exactly-once, per-origin in-order application.

An observability-attached variant guards the instruments'
no-perturbation promise on the cached path.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EunomiaConfig
from repro.core.messages import ApplyRemoteOk, RemoteStableBatch
from repro.datastruct.opblock import OpBlock
from repro.geo.receiver import Receiver
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import run_fingerprint
from repro.kvstore.ring import ConsistentHashRing
from repro.kvstore.types import Update
from repro.sim import Environment, Network, Process
from repro.sim.latency import JitteredLatency
from repro.workload.generator import WorkloadSpec

SPEC = dict(n_dcs=3, partitions_per_dc=2, clients_per_dc=1)
WL = dict(read_ratio=0.5, n_keys=48)
RUN_S = 1.2
DRAIN_S = 2.0


def _system(seed: int, config: EunomiaConfig):
    spec = GeoSystemSpec(seed=seed, **SPEC)
    return build_geo_system("eunomia", spec, WorkloadSpec(**WL),
                            config=config)


# ----------------------------------------------------------------------
# Fault plans (hypothesis-drawn windows, always healed before the drain)
# ----------------------------------------------------------------------
_WINDOW = st.tuples(
    st.floats(min_value=0.15, max_value=0.7),   # start (s)
    st.floats(min_value=0.1, max_value=0.4),    # duration (s)
    st.sampled_from(["loss", "cut", "gray"]),
    st.integers(min_value=0, max_value=SPEC["n_dcs"] - 1),  # src dc
    st.integers(min_value=1, max_value=SPEC["n_dcs"] - 1),  # dst dc offset
)

_PLANS = st.lists(_WINDOW, min_size=0, max_size=3)


def _arm_uplink_faults(system, plan) -> None:
    """Degrade partition↔service links (the lane the frame cache serves).

    Both directions take the fault: dropping AddOpBatch frames forces
    whole-suffix retransmission, dropping BatchAck replies forces the ack
    stall that makes an *identical* suffix get re-shipped — the cache-hit
    case under test.
    """
    sched = system.failures()
    dcs = system.datacenters
    net = system.env.network
    for start, dur, kind, a_idx, _off in plan:
        dc = dcs[a_idx]
        pairs = []
        for p in dc.partitions:
            for replica in p.uplink.replicas:
                pairs.append((p, replica))
                pairs.append((replica, p))
        if kind == "cut":
            group_a = list(dc.partitions)
            group_b = [r for p in dc.partitions for r in p.uplink.replicas]
            sched.partition_at(start, group_a, group_b)
            sched.heal_at(start + dur, group_a, group_b)
        elif kind == "gray":
            sched.degrade_links_at(start, pairs, 0.004)
            sched.restore_links_at(start + dur, pairs)
        else:
            def begin(ps=pairs):
                for s, d in ps:
                    net.set_link_loss(s, d, 0.35)

            def end(ps=pairs):
                for s, d in ps:
                    net.set_link_loss(s, d, 0.0)

            sched.at(start, begin, "uplink-loss-on")
            sched.at(start + dur, end, "uplink-loss-off")


# ----------------------------------------------------------------------
# Stop-and-wait FLUSH on a scripted receiver
# ----------------------------------------------------------------------
class _StubPartition(Process):
    """Applies releases in arrival order and acks like the real partition."""

    def __init__(self, env, name, index, log):
        super().__init__(env, name)
        self.index = index
        self.log = log            # shared (partition_index, uid) apply log

    def on_apply_remote(self, msg, src):
        self.log.append((self.index, msg.update.uid))
        self.send(src, ApplyRemoteOk(msg.update.uid))


@st.composite
def _stream_plans(draw):
    """An at-least-once stable-stream schedule for a 3-DC receiver.

    Returns (per-origin update lists, per-origin frame schedule).  Ops are
    generated in one global interleaving; each op's cross-DC dependency
    (when drawn) names a timestamp some *earlier-generated* op of the
    other origin carries, so a topological apply order always exists and
    the run must fully drain.  Frames chunk each stream with drawn overlap
    (re-shipped prefixes — the observable form of loss + at-least-once
    retry on this lane) and staggered send times.
    """
    origins = (1, 2)
    n_ops = draw(st.integers(min_value=12, max_value=48))
    order = draw(st.lists(st.sampled_from(origins),
                          min_size=n_ops, max_size=n_ops))
    dep_flags = draw(st.lists(st.booleans(), min_size=n_ops, max_size=n_ops))
    keys = draw(st.lists(st.integers(min_value=0, max_value=15),
                         min_size=n_ops, max_size=n_ops))
    parts = draw(st.lists(st.integers(min_value=0, max_value=1),
                          min_size=n_ops, max_size=n_ops))
    streams: dict[int, list[Update]] = {k: [] for k in origins}
    last_ts = {k: 0 for k in origins}
    seq = defaultdict(int)
    for i, k in enumerate(order):
        ts = last_ts[k] + 1 + (i % 3)
        last_ts[k] = ts
        other = origins[1 - origins.index(k)]
        vts = [0, 0, 0]
        vts[k] = ts
        if dep_flags[i] and last_ts[other]:
            vts[other] = last_ts[other]
        key = (parts[i], keys[i])
        s = seq[(k, parts[i])]
        seq[(k, parts[i])] = s + 1
        streams[k].append(Update(
            key=key, value=f"v{k}.{parts[i]}.{s}", origin_dc=k,
            partition_index=parts[i], seq=s, ts=ts, vts=tuple(vts)))

    schedule: dict[int, list[tuple[float, int, int]]] = {}
    for k in origins:
        n = len(streams[k])
        frames, pos, t = [], 0, 0.0
        while pos < n:
            size = draw(st.integers(min_value=1, max_value=6))
            overlap = draw(st.integers(min_value=0, max_value=3))
            t += draw(st.floats(min_value=0.0005, max_value=0.01))
            frames.append((t, max(0, pos - overlap), min(n, pos + size)))
            pos += size
        schedule[k] = frames
    return streams, schedule


def _run_receiver(streams, schedule):
    """Drive a real Receiver off scripted streams; return its outcome."""
    env = Environment(seed=5)
    net = Network(env, JitteredLatency(base_s=0.001, jitter_s=0.0004))
    log: list[tuple[int, tuple]] = []
    partitions = [_StubPartition(env, f"p{i}", i, log) for i in range(2)]
    origins = {k: Process(env, f"origin{k}") for k in schedule}
    receiver = Receiver(env, "r0", dc_id=0, n_dcs=3)
    receiver.set_partitions(ConsistentHashRing(2), partitions)
    for k, frames in schedule.items():
        for when, lo, hi in frames:
            chunk = tuple(streams[k][lo:hi])
            msg = RemoteStableBatch(origin_dc=k, ops=chunk,
                                    block=OpBlock.from_updates(chunk))
            env.loop.schedule_at(
                when, net.send, origins[k], receiver, msg)
    env.run(until=2.0)
    per_origin: dict[int, list] = defaultdict(list)
    for pidx, uid in log:
        per_origin[uid[0]].append((pidx, uid))
    return {
        "per_origin": dict(per_origin),
        "applied": receiver.applied,
        "site_time": list(receiver.site_time),
        "duplicates": receiver.duplicates_dropped,
        "backlog": receiver.backlog(),
    }


@settings(max_examples=30, deadline=None)
@given(plan=_stream_plans())
def test_receiver_drains_reshipped_streams_in_stream_order(plan):
    """Stop-and-wait FLUSH over at-least-once re-shipped streams: every
    update applies exactly once, in its origin's stream order, re-shipped
    prefixes are dropped as duplicates, and the receiver fully drains with
    SiteTime at each stream's last timestamp."""
    streams, schedule = plan
    out = _run_receiver(streams, schedule)
    assert out["backlog"] == 0
    assert out["applied"] == sum(len(s) for s in streams.values())
    shipped = sum(hi - lo for frames in schedule.values()
                  for _, lo, hi in frames)
    assert out["duplicates"] == shipped - out["applied"]
    for k, stream in streams.items():
        assert [uid for _, uid in out["per_origin"].get(k, [])] \
            == [u.uid for u in stream]
        assert out["site_time"][k] == (stream[-1].ts if stream else 0)


# ----------------------------------------------------------------------
# Uplink frame cache: pure memoization, bit-identical when disabled
# ----------------------------------------------------------------------
def _disable_frame_cache(system) -> None:
    """Force every retransmission suffix to be rebuilt from the columns."""
    for dc in system.datacenters:
        for p in dc.partitions:
            uplink = p.uplink
            orig = uplink._ship_suffix

            def rebuild(replica, _up=uplink, _orig=orig):
                _up._frames.clear()
                return _orig(replica)

            uplink._ship_suffix = rebuild


def _run_uplink(seed: int, plan, cache: bool, observe: bool = False):
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
    system = _system(seed, config)
    if not cache:
        _disable_frame_cache(system)
    _arm_uplink_faults(system, plan)
    if observe:
        system.observe(sample_every=16)
    system.run(RUN_S)
    system.quiesce(DRAIN_S)
    reused = sum(p.uplink.frames_reused
                 for dc in system.datacenters for p in dc.partitions)
    retx = sum(p.uplink.retransmissions
               for dc in system.datacenters for p in dc.partitions)
    return run_fingerprint(system), reused, retx


@settings(max_examples=6, deadline=None)
@given(plan=_PLANS, seed=st.integers(min_value=0, max_value=2**10))
def test_uplink_frame_cache_is_pure_under_ack_stalls(plan, seed):
    """Resend-after-ack-stall with the suffix cache is bit-identical to
    rebuilding every frame: same fingerprints, same visibility series,
    same retransmission count — the cache touches no RNG and no state."""
    cached, _reused, retx_a = _run_uplink(seed, plan, cache=True)
    rebuilt, reused_off, retx_b = _run_uplink(seed, plan, cache=False)
    assert cached == rebuilt
    assert retx_a == retx_b
    assert reused_off == 0          # the kill-switch actually disengaged it


def test_uplink_ack_stall_reuses_frames_and_converges():
    """A one-way ack blackout across the drain boundary forces identical
    suffix resends: the cache must fire (frames_reused > 0) and the run
    must still converge once the acks flow again."""
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
    system = _system(seed=9, config=config)
    dc = system.datacenters[0]
    replicas = [r for p in dc.partitions for r in p.uplink.replicas]
    sched = system.failures()
    # Block BatchAck (replica → partition) only; AddOpBatch keeps flowing.
    sched.partition_at(0.8, replicas, list(dc.partitions), symmetric=False)
    sched.heal_at(2.0, replicas, list(dc.partitions))
    system.run(1.0)
    system.quiesce(2.5)
    reused = sum(p.uplink.frames_reused for p in dc.partitions)
    retx = sum(p.uplink.retransmissions for p in dc.partitions)
    assert retx > 0
    assert reused > 0
    assert system.converged()


def test_uplink_frame_cache_pure_with_observability():
    """Cache purity holds with tracing/SLO/gauges attached (obs draws no
    randomness, so the twin runs must still match bit-for-bit)."""
    plan = [(0.25, 0.3, "loss", 1, 1)]
    cached, _, _ = _run_uplink(7, plan, cache=True, observe=True)
    rebuilt, _, _ = _run_uplink(7, plan, cache=False, observe=True)
    assert cached == rebuilt
