"""An Eunomia-aware storage partition (Algorithm 2, extended per §4 and §5).

One instance models one logical Riak partition.  Responsibilities:

* serve client reads/updates, timestamping updates with the hybrid clock —
  local vector entry ``max(Clock_n, MaxTs_n+1, VClock_c[m]+1)``, remote
  entries copied from the client's vector (§4 "Update");
* feed committed updates to the local Eunomia service through an
  :class:`repro.core.uplink.EunomiaUplink` (batched, acked, heartbeats);
* ship update *payloads* directly to sibling partitions in remote
  datacenters (§5 separation of data and metadata), so Eunomia only ever
  orders lightweight identifiers;
* execute remote updates handed over by the local receiver (Alg. 5 line 14),
  pairing metadata with the out-of-band payload, installing the version
  under convergent LWW, and recording visibility metrics.

Visibility accounting follows §7.2.2 exactly: the *extra* delay of a remote
update is measured from the moment its payload arrived at this datacenter to
the moment it executes here; network transit is factored out.
"""

from __future__ import annotations

from typing import Optional

from ..calibration import Calibration
from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..clocks.vector import vc_zero
from ..kvstore.storage import VersionedStore
from ..kvstore.types import Update, Versioned
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from .config import EunomiaConfig
from .messages import (
    ApplyRemote,
    ApplyRemoteOk,
    BatchAck,
    ClientRead,
    ClientReadReply,
    ClientUpdate,
    ClientUpdateReply,
    RemoteData,
)

__all__ = ["EunomiaPartition"]


class EunomiaPartition(Process):
    """Partition p_n^m: local storage + Eunomia uplink + remote execution."""

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, config: EunomiaConfig,
                 calibration: Optional[Calibration] = None,
                 metrics: Optional[MetricsHub] = None,
                 cost_model: Optional[CostModel] = None):
        cal = calibration or Calibration()
        if cost_model is None:
            cost_model = CostModel(costs={
                "ClientRead": cal.cost("partition_read"),
                "ClientUpdate": (cal.cost("partition_update")
                                 + cal.cost("eunomia_update_extra")),
                "ApplyRemote": cal.cost("partition_apply_remote"),
                "RemoteData": cal.cost("partition_remote_data"),
            })
        super().__init__(env, name, site=dc_id, cost_model=cost_model)
        self.dc_id = dc_id
        self.index = index
        self.n_dcs = n_dcs
        self.config = config
        self.metrics = metrics or NullMetrics()
        self.clock = clock
        self.hlc = HybridLogicalClock(clock)
        self.store = VersionedStore()
        #: mutable so the straggler injector (Fig. 7) can inflate it live
        self.batch_interval = config.batch_interval
        self.uplink = EunomiaUplinkFactory.build(self, cal)
        self.siblings: dict[int, Process] = {}   # remote dc -> sibling part.
        #: vector returned for never-written keys (protocol metadata width)
        self.zero_vts = vc_zero(n_dcs)
        self._seq = 0
        self._pending_data: dict[tuple, tuple[Update, float]] = {}
        self._pending_apply: dict[tuple, tuple[Update, Process]] = {}
        #: origin dc -> (ts, partition, seq) of the last update applied
        #: from it; the receiver releases each origin's stream in this
        #: order, so anything at or below it is a re-sent duplicate
        self._last_applied: list[tuple] = [(0, -1, -1)] * n_dcs
        self.local_updates = 0
        self.remote_applies = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_eunomia(self, replicas: list[Process]) -> None:
        """Point the uplink at the local Eunomia service/replica set."""
        self.uplink.set_replicas(replicas)

    def set_sibling(self, dc_id: int, partition: Process) -> None:
        """Register the same-index partition of a remote datacenter."""
        if dc_id != self.dc_id:
            self.siblings[dc_id] = partition

    def start(self) -> None:
        self.uplink.start()

    def recover(self) -> None:
        """Restart after a crash-stop *and re-arm the uplink tick*.

        The crash epoch retired the uplink's periodic flush; without this
        override a recovered partition would accept client updates but
        never ship them, freezing its entry of PartitionTime — and with it
        the whole DC's StableTime — forever (the uplink single-point
        stall).  ``restart`` also resets retransmission backoff so
        outstanding windows are re-offered to the replicas immediately.
        """
        super().recover()
        self.uplink.restart()

    def lane_of(self, msg) -> str:
        """Remote replication work runs on a background lane.

        Real stores apply replicated updates on separate scheduler threads;
        queueing them behind foreground client operations would inflate
        visibility latency far beyond anything the paper measures.
        """
        if type(msg).__name__ in ("ApplyRemote", "RemoteData"):
            return "replication"
        return "cpu"

    # ------------------------------------------------------------------
    # Client operations (Algorithm 2, vector form of §4)
    # ------------------------------------------------------------------
    def on_client_read(self, msg: ClientRead, src: Process) -> None:
        version = self.store.get(msg.key)
        if version is None:
            reply = ClientReadReply(msg.key, None, self.zero_vts,
                                    msg.request_id)
        else:
            reply = ClientReadReply(msg.key, version.value, version.vts,
                                    msg.request_id)
        self.send(src, reply)

    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        m = self.dc_id
        client_vts = msg.client_vts
        # Local entry: max(Clock_n, MaxTs_n+1, VClock_c[m]+1) — Alg. 2 l.5.
        ts = self.hlc.update(client_vts[m])
        vts = client_vts[:m] + (ts,) + client_vts[m + 1:]
        self._seq += 1
        update = Update(
            key=msg.key, value=msg.value, origin_dc=m,
            partition_index=self.index, seq=self._seq, ts=ts, vts=vts,
            commit_time=self.now, value_bytes=msg.value_bytes,
        )
        self.store.put(msg.key, Versioned(msg.value, ts, m, vts))
        self.local_updates += 1
        tracer = self.metrics.tracer
        if tracer is not None:
            # issued_at == 0.0 means "not threaded" (senders other than
            # SessionClient); the span then opens at commit.
            issued = msg.issued_at if msg.issued_at > 0.0 else None
            span = tracer.commit(update, self.now, issued_at=issued)
            if span is not None and self.siblings:
                tracer.stage(update, "replicate", self.now, m)
        if self.config.separate_data_metadata:
            # §5: Eunomia orders identifiers; payloads go partition→sibling.
            self.uplink.record(update.with_value(None))
            data = RemoteData(update)
            self.multicast(self.siblings.values(), data)
        else:
            self.uplink.record(update)
        self.send(src, ClientUpdateReply(vts, msg.request_id))

    # ------------------------------------------------------------------
    # Remote update execution (Alg. 5 line 14 + §5 data pairing)
    # ------------------------------------------------------------------
    def on_remote_data(self, msg: RemoteData, src: Process) -> None:
        update = msg.update
        waiting = self._pending_apply.pop(update.uid, None)
        if waiting is not None:
            # Metadata got here first: execute now; extra delay is zero
            # because execution is immediate upon data arrival.
            meta, receiver = waiting
            self._execute_remote(meta.with_value(update.value),
                                 data_arrival=self.now, receiver=receiver)
        else:
            self._pending_data[update.uid] = (update, self.now)

    def on_apply_remote(self, msg: ApplyRemote, src: Process) -> None:
        update = msg.update
        if ((update.ts, update.partition_index, update.seq)
                <= self._last_applied[update.origin_dc]):
            # Already applied: a recovered receiver re-sent its in-flight
            # head.  The first apply consumed the payload, so waiting for
            # one would park the release forever; ack again, execute
            # nothing.
            self.send(src, ApplyRemoteOk(update.uid))
            return
        if update.value is None:
            held = self._pending_data.pop(update.uid, None)
            if held is None:
                # Payload still in flight; pair it up on arrival.
                self._pending_apply[update.uid] = (update, src)
                return
            data, arrival = held
            # Ordering metadata (vts, commit time) always comes from the
            # receiver's copy — payloads may have been shipped before the
            # final stamp was known (S-Seq ships at request time).
            self._execute_remote(update.with_value(data.value),
                                 data_arrival=arrival, receiver=src)
        else:
            self._execute_remote(update, data_arrival=self.now, receiver=src)

    def _execute_remote(self, update: Update, data_arrival: float,
                        receiver: Process) -> None:
        self.store.put(update.key, Versioned(update.value, update.ts,
                                             update.origin_dc, update.vts))
        self._last_applied[update.origin_dc] = (
            update.ts, update.partition_index, update.seq)
        self.remote_applies += 1
        now = self.now
        extra_ms = max(0.0, (now - data_arrival) * 1e3)
        total_ms = (now - update.commit_time) * 1e3
        k, m = update.origin_dc, self.dc_id
        self.metrics.point(f"vis_extra_ms:{k}->{m}", now, extra_ms)
        self.metrics.point(f"vis_total_ms:{k}->{m}", now, total_ms)
        # Per-origin-partition breakdown: the straggler experiment (Fig. 7)
        # distinguishes updates born on healthy partitions from the
        # straggler's own.
        self.metrics.point(
            f"vis_extra_ms:{k}->{m}:p{update.partition_index}", now, extra_ms)
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.stage_once(update, "visible", now, m)
        slo = self.metrics.slo
        if slo is not None:
            slo.visibility(k, m, total_ms, extra_ms)
        self.send(receiver, ApplyRemoteOk(update.uid))

    # ------------------------------------------------------------------
    # Uplink plumbing
    # ------------------------------------------------------------------
    def on_batch_ack(self, msg: BatchAck, src: Process) -> None:
        self.uplink.on_ack(msg, src)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def datastore(self) -> VersionedStore:
        """The store used for convergence checks (client-visible data)."""
        return self.store


class EunomiaUplinkFactory:
    """Builds the uplink with calibrated costs (split for test override)."""

    @staticmethod
    def build(partition: EunomiaPartition, cal: Calibration):
        from .uplink import EunomiaUplink

        return EunomiaUplink(
            host=partition,
            partition_index=partition.index,
            config=partition.config,
            hlc=partition.hlc,
            clock=partition.clock,
            op_cost=cal.cost("uplink_op"),
            batch_cost=cal.overhead("uplink_batch"),
        )
