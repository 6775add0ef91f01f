"""Per-layer instrumentation, installed at runtime by the traced run only.

:class:`Instrumentation` wraps the public entry points of every layer of
the simulator — the event loop's ``schedule_at``/``schedule_periodic``,
``Network.send``/``send_many``/``multicast``, ``Process.deliver``/
``deliver_batch`` and ``_enqueue``, every ``on_*`` message handler, the
uplink, ``RunBuffer``, ``WriteAheadLog``, the versioned store, and the
stabilization/GST round functions — with span-recording and counting
wrappers.  Nothing in the simulator changes: the wrappers call the original
function with the original arguments, draw no randomness and schedule no
extra events, so a traced run fires exactly the events of an untraced one
(the benchmark checks this).  Event callbacks are re-routed through a
trampoline that opens one span per fired event, labelled by the layer of
the component method the event carries.

Wrappers are inert until :meth:`Instrumentation.begin` opens the root span
and become inert again at :meth:`Instrumentation.end`, so set-up and the
post-run correctness drain are neither timed nor counted.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from typing import Any, Callable, Optional

from repro.baselines.gst import GstPartition
from repro.core.client import SessionClient
from repro.core.messages import AddOpBatch
from repro.core.partition import EunomiaPartition
from repro.core.service import StabilizerBase
from repro.core.shard import EunomiaShard, ShardCoordinator
from repro.core.uplink import EunomiaUplink
from repro.datastruct.runbuffer import RunBuffer
from repro.durability.wal import WriteAheadLog
from repro.geo.receiver import Receiver
from repro.harness.loadgen import PartitionEmulator, RemoteSink
from repro.kvstore.storage import VersionedStore
from repro.obs.trace import STAGES
from repro.sim.loop import EventLoop
from repro.sim.network import Network
from repro.sim.process import Process

from spans import SpanRecorder
from workloads import percentile

__all__ = ["LAYERS", "UTIL_LANES", "WAIT_KINDS", "STAGE_PAIRS",
           "Instrumentation", "layer_of_module", "stage_samples"]

#: Module prefix -> layer, first match wins.
_LAYER_PREFIXES = (
    ("repro.sim.network", "sim.network"),
    ("repro.sim.latency", "sim.network"),
    ("repro.sim.process", "sim.process"),
    ("repro.sim", "sim.loop"),
    ("repro.core.client", "core.client"),
    ("repro.kvstore", "kvstore"),
    ("repro.core.partition", "core.partition"),
    ("repro.core.uplink", "core.uplink"),
    ("repro.core.service", "core.service"),
    ("repro.core.replica", "core.service"),
    ("repro.core.shard", "core.shard"),
    ("repro.datastruct", "datastruct"),
    ("repro.durability", "durability.wal"),
    ("repro.geo.receiver", "geo.receiver"),
    ("repro.baselines.gst", "baselines.gst"),
    ("repro.baselines.cure", "baselines.gst"),
    ("repro.baselines.gentlerain", "baselines.gst"),
)

#: Every layer the table reports; ``other`` holds what no named layer
#: claims (emulator load generation, the sink, clocks, metrics, tracing).
LAYERS = ("sim.loop", "sim.network", "sim.process", "core.client",
          "kvstore", "core.partition", "core.uplink", "core.service",
          "core.shard", "datastruct", "durability.wal", "geo.receiver",
          "baselines.gst", "other")

#: Process class -> kind used by the utilization and queue-wait rows
#: (first isinstance match wins, so subclasses precede their bases).
_KINDS = (
    (SessionClient, "client"),
    (EunomiaPartition, "partition"),
    (GstPartition, "partition"),
    (PartitionEmulator, "emulator"),
    (EunomiaShard, "shard"),
    (StabilizerBase, "stabilizer"),
    (ShardCoordinator, "coordinator"),
    (Receiver, "receiver"),
    (RemoteSink, "sink"),
)

#: (kind, lane) pairs reported as ``sim.process.util.<kind>.<lane>``.
UTIL_LANES = (
    ("client", "cpu"), ("partition", "cpu"), ("partition", "replication"),
    ("emulator", "cpu"), ("stabilizer", "cpu"), ("shard", "cpu"),
    ("shard", "disk"), ("coordinator", "cpu"), ("receiver", "cpu"),
)

#: kinds reported as ``sim.process.wait_p99_ms.<kind>``.
WAIT_KINDS = ("partition", "emulator", "stabilizer", "shard", "coordinator",
              "receiver")

#: Consecutive ``STAGES`` pairs that some workload visits, reported as
#: ``stage.<from>__<to>.p50_ms`` / ``.p99_ms``.
STAGE_PAIRS = (
    # geo EunomiaKV: client -> partition -> uplink -> stabilizer -> remote
    ("issue", "commit"), ("commit", "replicate"),
    ("replicate", "uplink_ship"), ("uplink_ship", "ingest"),
    ("ingest", "propagate"), ("propagate", "recv_apply"),
    ("recv_apply", "visible"),
    # the rig: WAL group commit and the shard coordinator's merge
    ("wal_stage", "ingest"), ("ingest", "wal_fsync"),
    ("wal_fsync", "merge"), ("merge", "propagate"),
    # Cure: payloads wait at the remote partition for the GSV
    ("replicate", "visible"),
)

#: stages recorded once per destination site
_PER_SITE = frozenset(("recv_apply", "visible"))

_APPLY_MESSAGES = frozenset(("ApplyRemote", "ApplyRemoteRun"))


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module's code belongs to."""
    if module:
        for prefix, layer in _LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


@functools.lru_cache(maxsize=None)
def _kind_of(cls: type) -> str:
    for base, kind in _KINDS:
        if issubclass(cls, base):
            return kind
    return "other"


#: qualified name of ``Process.periodic``'s crash-guard closure
_PERIODIC_BODY = "Process.periodic.<locals>.body"


def _carried(fn: Callable, args: tuple) -> Callable:
    """The component callable an event or periodic tick actually runs.

    Looks through the process trampolines (``_run_enqueued``,
    ``_run_deferred``) and ``Process.periodic``'s crash-guard closure.
    """
    func = getattr(fn, "__func__", None)
    if func is not None and func.__name__ in ("_run_enqueued",
                                              "_run_deferred"):
        return args[1]
    code = getattr(fn, "__code__", None)
    if code is not None and fn.__qualname__ == _PERIODIC_BODY:
        return fn.__closure__[code.co_freevars.index("fn")].cell_contents
    return fn


def stage_samples(tracer) -> dict[tuple[str, str], list[float]]:
    """Simulated ms between consecutive visited stages, per stage pair.

    For each traced op the visited stages are ordered by their first
    occurrence, ties broken by ``STAGES`` order (the timeline order of
    ``Span.sorted_events``: a rig op is ingested as its WAL record is
    staged, before the fsync).  A per-site stage (``recv_apply``,
    ``visible``) pairs with its predecessor at the same site when that
    predecessor is per-site too, else with the predecessor's first
    occurrence.
    """
    order = {stage: i for i, stage in enumerate(STAGES)}
    out: dict[tuple[str, str], list[float]] = {}
    for span in tracer.iter_spans():
        times: dict[str, dict[int, float]] = {}
        for stage, t, site in span.events:
            times.setdefault(stage, {}).setdefault(site, t)
        visited = sorted(times, key=lambda s: (min(times[s].values()),
                                               order[s]))
        for a, b in zip(visited, visited[1:]):
            first_a = min(times[a].values())
            series = out.setdefault((a, b), [])
            if b in _PER_SITE:
                for site, tb in times[b].items():
                    ta = (times[a].get(site, first_a) if a in _PER_SITE
                          else first_a)
                    series.append((tb - ta) * 1e3)
            else:
                series.append((min(times[b].values()) - first_a) * 1e3)
    return out


class Instrumentation:
    """Installs the wrappers, records spans and counts, reports the table."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self._patches: list[tuple[type, str, Any]] = []
        self._labels: dict[Any, int] = {}
        # Wrappers close over these containers, so reset() clears them in
        # place rather than rebinding.
        self.n: Counter = Counter()
        self.busy: dict[Process, dict[str, float]] = {}
        self.waits: dict[str, array] = {}
        self.uplinks: list[EunomiaUplink] = []
        self.wals: list[WriteAheadLog] = []
        self.coordinators: list[ShardCoordinator] = []
        self.extra_stage_pairs: list[tuple[str, str]] = []
        self.reset()

    def reset(self) -> None:
        """Clear spans, counters and instance registries for a new run."""
        self.rec.reset()
        for container in (self.n, self.busy, self.waits, self.uplinks,
                          self.wals, self.coordinators):
            container.clear()
        self.backlog_max = 0
        self.root = -1
        self._events_before = 0

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function (reverse install order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _span(self, fn: Callable, name: str, layer: str,
              after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, result)`` counts."""
        rec = self.rec
        nid = rec.name_id(name, layer)
        open_, close = rec.open, rec.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                close(index)
        return wrapper

    def _wrap(self, owner: type, attr: str,
              after: Optional[Callable] = None) -> None:
        """Span ``owner.attr``, charged to the layer of ``owner``'s module."""
        self._patch(owner, attr, self._span(
            owner.__dict__[attr], f"{owner.__name__}.{attr}",
            layer_of_module(owner.__module__), after))

    def _register(self, owner: type, registry: list) -> None:
        """Record every instance of ``owner`` built while installed."""
        init = owner.__dict__["__init__"]

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)
        self._patch(owner, "__init__", __init__)

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per install)."""
        if self._patches:
            return
        self._install_loop()
        self._install_network()
        self._install_process()
        self._install_handlers()
        self._install_components()

    # -- sim.loop -------------------------------------------------------
    def _install_loop(self) -> None:
        rec, n, labels = self.rec, self.n, self._labels
        sched_nid = rec.name_id("EventLoop.schedule_at", "sim.loop")
        orig_at = EventLoop.__dict__["schedule_at"]
        orig_periodic = EventLoop.__dict__["schedule_periodic"]

        def label(prefix: str, fn: Callable, args: tuple) -> int:
            carried = _carried(fn, args)
            func = getattr(carried, "__func__", carried)
            key = (prefix, getattr(func, "__code__", func))
            nid = labels.get(key)
            if nid is None:
                layer = layer_of_module(getattr(func, "__module__", None))
                nid = labels[key] = rec.name_id(f"{prefix}:{layer}", layer)
            return nid

        def fire(nid: int, cause: int, fn: Callable, args: tuple) -> None:
            if not rec.active:
                fn(*args)
                return
            index = rec.open(nid, cause)
            try:
                fn(*args)
            finally:
                rec.close(index)

        @functools.wraps(orig_at)
        def schedule_at(loop, time, fn, *args):
            if not rec.active:
                return orig_at(loop, time, fn, *args)
            index = rec.open(sched_nid)
            try:
                return orig_at(loop, time, fire, label("event", fn, args),
                               rec.parent[index], fn, args)
            finally:
                rec.close(index)

        @functools.wraps(orig_periodic)
        def schedule_periodic(loop, interval, fn, phase=None):
            nid = label("periodic", fn, ())

            def tick():
                if not rec.active:
                    return fn()
                n["periodic_fires"] += 1
                index = rec.open(nid)
                try:
                    return fn()
                finally:
                    rec.close(index)
            return orig_periodic(loop, interval, tick, phase)

        self._patch(EventLoop, "schedule_at", schedule_at)
        self._patch(EventLoop, "schedule_periodic", schedule_periodic)

    # -- sim.network ----------------------------------------------------
    def _count_message(self, src: Process, dst: Process, msg: Any) -> None:
        n = self.n
        n["msgs"] += 1
        size = getattr(msg, "size_bytes", 0)
        if src.site != dst.site:
            n["inter_dc_bytes"] += size
        else:
            n["intra_dc_bytes"] += size
        if type(msg) is AddOpBatch:
            n["frames"] += 1
            n["frame_ops"] += len(msg.block)

    def _install_network(self) -> None:
        n, count = self.n, self._count_message

        def after_send(args, result):
            count(args[1], args[2], args[3])

        def after_send_many(args, result):
            _, src, dst, msgs = args
            n["send_many_calls"] += 1
            n["send_many_msgs"] += len(msgs)
            if len(msgs) > 1:   # a single message goes through send()
                for msg in msgs:
                    count(src, dst, msg)

        self._wrap(Network, "send", after_send)
        self._wrap(Network, "send_many", after_send_many)
        self._wrap(Network, "multicast")

    # -- sim.process ----------------------------------------------------
    def _reserve(self, proc: Process, lane: str, before: float,
                 after: float) -> None:
        """Account one service-slot reservation on ``proc``'s ``lane``."""
        lanes = self.busy.get(proc)
        if lanes is None:
            lanes = self.busy[proc] = {}
        lanes[lane] = lanes.get(lane, 0.0) + (after - before)
        kind = _kind_of(type(proc))
        waits = self.waits.get(kind)
        if waits is None:
            waits = self.waits[kind] = array("d")
        waits.append(before)

    def _install_process(self) -> None:
        rec, n, reserve = self.rec, self.n, self._reserve
        orig_deliver = Process.__dict__["deliver"]
        orig_batch = Process.__dict__["deliver_batch"]
        orig_enqueue = Process.__dict__["_enqueue"]
        deliver_nid = rec.name_id("Process.deliver", "sim.process")
        batch_nid = rec.name_id("Process.deliver_batch", "sim.process")
        enqueue_nid = rec.name_id("Process._enqueue", "sim.process")

        def count_apply(proc: Process, msgs) -> None:
            if not isinstance(proc, EunomiaPartition):
                return
            updates = 0
            for msg in msgs:
                name = type(msg).__name__
                if name in _APPLY_MESSAGES:
                    updates += (len(msg.updates) if name == "ApplyRemoteRun"
                                else 1)
            if updates:
                n["apply_events"] += 1
                n["apply_updates"] += updates

        @functools.wraps(orig_deliver)
        def deliver(proc, msg, src):
            if not rec.active or proc.crashed:
                return orig_deliver(proc, msg, src)
            index = rec.open(deliver_nid)
            try:
                lane = proc.lane_of(msg)
                before = proc.utilization_horizon(lane)
                orig_deliver(proc, msg, src)
                reserve(proc, lane, before, proc.utilization_horizon(lane))
                n["deliveries"] += 1
                count_apply(proc, (msg,))
            finally:
                rec.close(index)

        @functools.wraps(orig_batch)
        def deliver_batch(proc, msgs, src):
            if not rec.active or proc.crashed:
                return orig_batch(proc, msgs, src)
            index = rec.open(batch_nid)
            try:
                lanes = {proc.lane_of(msg) for msg in msgs}
                before = {lane: proc.utilization_horizon(lane)
                          for lane in lanes}
                orig_batch(proc, msgs, src)
                for lane in sorted(lanes):
                    reserve(proc, lane, before[lane],
                            proc.utilization_horizon(lane))
                n["deliveries"] += len(msgs)
                n["grouped_deliveries"] += len(msgs)
                count_apply(proc, msgs)
            finally:
                rec.close(index)

        @functools.wraps(orig_enqueue)
        def _enqueue(proc, fn, cost, lane="cpu"):
            if not rec.active:
                return orig_enqueue(proc, fn, cost, lane)
            index = rec.open(enqueue_nid)
            try:
                before = proc.utilization_horizon(lane)
                orig_enqueue(proc, fn, cost, lane)
                reserve(proc, lane, before, proc.utilization_horizon(lane))
            finally:
                rec.close(index)

        self._patch(Process, "deliver", deliver)
        self._patch(Process, "deliver_batch", deliver_batch)
        self._patch(Process, "_enqueue", _enqueue)

    # -- message handlers -----------------------------------------------
    def _install_handlers(self) -> None:
        n = self.n

        def after_ingest(args, result):
            n["ingests"] += 1
            n["ingest_ops"] += len(args[1].block)

        def after_recv_batch(args, result):
            receiver, msg = args[0], args[1]
            n["recv_batches"] += 1
            n["recv_batch_ops"] += len(msg.block)
            backlog = receiver.backlog()
            if backlog > self.backlog_max:
                self.backlog_max = backlog

        counted = {
            (StabilizerBase, "on_add_op_batch"): after_ingest,
            (Receiver, "on_remote_stable_batch"): after_recv_batch,
        }
        seen: set[type] = set()
        pending = [Process]
        while pending:
            cls = pending.pop()
            for sub in cls.__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    pending.append(sub)
        for cls in sorted(seen, key=lambda c: (c.__module__, c.__qualname__)):
            if not cls.__module__.startswith("repro."):
                continue
            for attr in sorted(vars(cls)):
                if attr.startswith("on_") and callable(vars(cls)[attr]):
                    self._wrap(cls, attr, counted.get((cls, attr)))

    # -- components -----------------------------------------------------
    def _install_components(self) -> None:
        n = self.n

        for attr in ("record", "on_ack"):
            self._wrap(EunomiaUplink, attr)
        self._register(EunomiaUplink, self.uplinks)

        for attr in ("get", "put"):
            self._wrap(VersionedStore, attr)

        def after_extend(args, result):
            n["extend_runs"] += 1
            n["extend_run_ops"] += len(args[1])

        def after_pop(args, result):
            n["pop_stables"] += 1
            n["pop_stable_ops"] += len(result)

        self._wrap(RunBuffer, "extend_run", after_extend)
        self._wrap(RunBuffer, "pop_stable", after_pop)
        for attr in ("add", "drop_stable", "contains", "min_ts"):
            self._wrap(RunBuffer, attr)

        for attr in ("stage_op", "stage_ops", "stage_partition_time",
                     "flush_cost", "commit", "truncate"):
            self._wrap(WriteAheadLog, attr)
        self._register(WriteAheadLog, self.wals)
        self._register(ShardCoordinator, self.coordinators)

        rec = self.rec
        orig_stab = StabilizerBase.__dict__["_stabilize"]
        stab_nid = rec.name_id("StabilizerBase._stabilize", "core.service")

        @functools.wraps(orig_stab)
        def _stabilize(stabilizer):
            if not rec.active:
                return orig_stab(stabilizer)
            index = rec.open(stab_nid)
            try:
                before = stabilizer.stable_time
                orig_stab(stabilizer)
                if stabilizer._should_stabilize():
                    n["stab_rounds"] += 1
                    if stabilizer.stable_time > before:
                        n["stab_advancing"] += 1
            finally:
                rec.close(index)
        self._patch(StabilizerBase, "_stabilize", _stabilize)

        def after_ship(args, result):
            if args[1]:
                n["recv_flushes"] += 1
                n["recv_releases"] += len(args[1])
        self._wrap(Receiver, "_ship", after_ship)
        self._wrap(Receiver, "_flush_all")

        orig_aggregate = GstPartition.__dict__["_aggregate"]
        aggregate_nid = rec.name_id("GstPartition._aggregate",
                                    "baselines.gst")

        @functools.wraps(orig_aggregate)
        def _aggregate(partition):
            if not rec.active:
                return orig_aggregate(partition)
            index = rec.open(aggregate_nid)
            try:
                if partition.is_aggregator:
                    n["gst_rounds"] += 1
                return orig_aggregate(partition)
            finally:
                rec.close(index)
        self._patch(GstPartition, "_aggregate", _aggregate)

        # on_gst_broadcast was wrapped as a handler; wrap the wrapper again
        # to see whether the summary advanced.
        handler = GstPartition.__dict__["on_gst_broadcast"]

        @functools.wraps(handler)
        def on_gst_broadcast(partition, msg, src):
            if not rec.active:
                return handler(partition, msg, src)
            before = partition.summary
            handler(partition, msg, src)
            n["gst_broadcasts"] += 1
            if partition.summary != before:
                n["gst_advancing"] += 1
        self._patch(GstPartition, "on_gst_broadcast", on_gst_broadcast)

        def after_install_many(args, result):
            if args[1]:
                n["gst_installs"] += 1
                n["gst_install_ops"] += len(args[1])
        self._wrap(GstPartition, "_install_many", after_install_many)

    # ------------------------------------------------------------------
    # Run bracketing
    # ------------------------------------------------------------------
    def begin(self, loop: EventLoop) -> None:
        """Open the root span: everything until :meth:`end` is measured."""
        self._events_before = loop.processed_events
        self.rec.active = True
        self.root = self.rec.open(self.rec.name_id("EventLoop.run",
                                                   "sim.loop"))

    def end(self, loop: EventLoop) -> None:
        self.rec.close(self.root)
        self.rec.active = False
        self.n["events"] = loop.processed_events - self._events_before
        # A saturated lane has work reserved past the end of the run; only
        # the busy time inside the run counts towards utilization.
        for proc, lanes in self.busy.items():
            for lane in lanes:
                lanes[lane] -= proc.utilization_horizon(lane)

    # ------------------------------------------------------------------
    # The per-layer table
    # ------------------------------------------------------------------
    def layer_metrics(self, ops: int, sim_seconds: float,
                      tracer=None) -> dict[str, tuple[float, str]]:
        """``name -> (value, unit)`` for every per-layer row."""
        n = self.n
        ops = max(ops, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        self_s = self.rec.layer_self_seconds()
        for layer in LAYERS:
            out[f"{layer}.self_us_per_op"] = (
                self_s.get(layer, 0.0) * 1e6 / ops, "us/op")

        out["sim.loop.events_per_op"] = (n["events"] / ops, "events/op")
        out["sim.loop.periodic_fires_per_op"] = (
            n["periodic_fires"] / ops, "fires/op")

        out["sim.network.msgs_per_op"] = (n["msgs"] / ops, "msgs/op")
        out["sim.network.inter_dc_bytes_per_op"] = (
            n["inter_dc_bytes"] / ops, "B/op")
        out["sim.network.intra_dc_bytes_per_op"] = (
            n["intra_dc_bytes"] / ops, "B/op")
        out["sim.network.msgs_per_send_many"] = (
            ratio(n["send_many_msgs"], n["send_many_calls"]), "msgs/call")

        out["sim.process.deliveries_per_op"] = (
            n["deliveries"] / ops, "msgs/op")
        out["sim.process.grouped_delivery_ratio"] = (
            ratio(n["grouped_deliveries"], n["deliveries"]), "ratio")
        busiest: dict[tuple[str, str], float] = {}
        for proc, lanes in self.busy.items():
            kind = _kind_of(type(proc))
            for lane, seconds in lanes.items():
                key = (kind, lane)
                busiest[key] = max(busiest.get(key, 0.0), seconds)
        for kind, lane in UTIL_LANES:
            out[f"sim.process.util.{kind}.{lane}"] = (
                ratio(busiest.get((kind, lane), 0.0), sim_seconds),
                "busy_s/s")
        for kind in WAIT_KINDS:
            out[f"sim.process.wait_p99_ms.{kind}"] = (
                percentile(self.waits.get(kind, ()), 0.99) * 1e3, "ms")

        out["core.partition.apply_run_len"] = (
            ratio(n["apply_updates"], n["apply_events"]), "ops/event")

        retransmissions = sum(u.retransmissions for u in self.uplinks)
        out["core.uplink.ops_per_frame"] = (
            ratio(n["frame_ops"], n["frames"]), "ops/frame")
        out["core.uplink.heartbeats_per_op"] = (
            sum(u.heartbeats_sent for u in self.uplinks) / ops, "msgs/op")
        out["core.uplink.retransmissions_per_op"] = (
            retransmissions / ops, "frames/op")
        out["core.uplink.frame_reuse_ratio"] = (
            ratio(sum(u.frames_reused for u in self.uplinks),
                  n["frames"]), "ratio")

        out["core.service.ops_per_ingest"] = (
            ratio(n["ingest_ops"], n["ingests"]), "ops/batch")
        out["core.service.rounds_per_sim_s"] = (
            ratio(n["stab_rounds"], sim_seconds), "1/s")
        out["core.service.advancing_round_ratio"] = (
            ratio(n["stab_advancing"], n["stab_rounds"]), "ratio")

        out["core.shard.ops_per_merge"] = (
            ratio(sum(c.ops_stabilized for c in self.coordinators),
                  sum(c.merge_rounds for c in self.coordinators)),
            "ops/merge")

        out["datastruct.ops_per_extend_run"] = (
            ratio(n["extend_run_ops"], n["extend_runs"]), "ops/call")
        out["datastruct.ops_per_pop_stable"] = (
            ratio(n["pop_stable_ops"], n["pop_stables"]), "ops/call")

        out["durability.wal.fsyncs_per_op"] = (
            sum(w.commits for w in self.wals) / ops, "fsyncs/op")
        out["durability.wal.bytes_per_op"] = (
            sum(w.bytes_durable for w in self.wals) / ops, "B/op")

        out["geo.receiver.ops_per_batch"] = (
            ratio(n["recv_batch_ops"], n["recv_batches"]), "ops/batch")
        out["geo.receiver.releases_per_flush"] = (
            ratio(n["recv_releases"], n["recv_flushes"]), "msgs/flush")
        out["geo.receiver.backlog_max"] = (float(self.backlog_max), "ops")

        out["baselines.gst.rounds_per_sim_s"] = (
            ratio(n["gst_rounds"], sim_seconds), "1/s")
        out["baselines.gst.advancing_round_ratio"] = (
            ratio(n["gst_advancing"], n["gst_broadcasts"]), "ratio")
        out["baselines.gst.pending_apply_batch"] = (
            ratio(n["gst_install_ops"], n["gst_installs"]), "ops/call")

        samples = stage_samples(tracer) if tracer is not None else {}
        for a, b in STAGE_PAIRS:
            series = samples.get((a, b), ())
            out[f"stage.{a}__{b}.p50_ms"] = (percentile(series, 0.50), "ms")
            out[f"stage.{a}__{b}.p99_ms"] = (percentile(series, 0.99), "ms")
        self.extra_stage_pairs = sorted(set(samples) - set(STAGE_PAIRS))
        return out
