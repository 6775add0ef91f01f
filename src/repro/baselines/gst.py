"""Global-stabilization machinery shared by GentleRain and Cure.

Both baselines avoid sequencers by running a periodic, datacenter-wide
computation: each partition tracks a version vector ``VV[d]`` — the largest
timestamp received from its sibling partition in datacenter ``d`` (advanced
by remote updates and by periodic cross-DC heartbeats) — and periodically
reports a local stable summary to a per-DC aggregator, which broadcasts the
minimum back.  A remote update becomes *visible* only once the global
summary covers it:

* **GentleRain** compresses everything into one scalar GST: an update with
  timestamp ``ts`` is visible when ``GST >= ts``.  Cheap, but the minimum
  spans *all* datacenters, so an update from a nearby DC waits for heartbeat
  round-trips from the farthest one (false dependencies — the 40 ms floor in
  Figure 6 left).
* **Cure** keeps a vector GSV (entry per DC): visibility only waits for the
  entries the update actually depends on — better latency, heavier metadata
  (the throughput gap between the two in Figure 5).

The protocol cost is charged in two places, matching the paper's analysis:
a per-operation metadata-handling surcharge (Cure ≈ 2× GentleRain), and a
per-round stabilization cost at every partition — which is why shrinking the
"clock computation interval" hurts throughput (Figure 1).

:class:`GstPartition` implements the whole machinery generically over the
summary width; the concrete flavors are thin subclasses in
:mod:`repro.baselines.gentlerain` and :mod:`repro.baselines.cure`, each
deployed over the shared spine by a :class:`GstProtocol` plugin
(:mod:`repro.core.protocols`) — the only protocol-specific deployment
pieces are the partitions themselves and the per-DC aggregator wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..clocks.vector import vc_merge, vc_zero
from ..core.messages import (
    ClientRead,
    ClientReadReply,
    ClientUpdate,
    ClientUpdateReply,
    RemoteData,
)
from ..core.protocols import ProtocolSpec, SiteContext, SitePlan
from ..kvstore.storage import VersionedStore
from ..kvstore.types import Update, Versioned
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from .messages import GstBroadcast, GstHeartbeat, GstReport

__all__ = ["GstTimings", "GstPartition", "GstProtocol",
           "check_pending_backend", "UNTRACKED"]

#: Summary entry for an origin DC a partition does not track (partial
#: placement: no sibling there).  Acts as +inf under the aggregator's
#: elementwise min, so untracked origins never cap — and never stall —
#: the DC-wide GST/GSV.  Releasing on a sentinel entry is safe: if *no*
#: resident partition tracks origin ``d``, then no partition stored both
#: here and at ``d`` exists, so no dependency on ``d`` can be resident
#: here either (it could never be read at this DC).
UNTRACKED = 1 << 62


def check_pending_backend(pending_backend: str, allowed: Sequence) -> None:
    """Validate a flavor's deferred-update backend choice (one message,
    shared by the plugins' ``prepare`` and the partitions themselves)."""
    if pending_backend not in allowed:
        raise ValueError(
            f"unknown pending backend {pending_backend!r} "
            f"(expected one of {', '.join(allowed)})"
        )


@dataclass
class GstTimings:
    """Stabilization cadence (paper §7.2: heartbeats 10 ms, GST 5 ms)."""

    heartbeat_interval: float = 0.010
    gst_interval: float = 0.005

    #: Aggregator liveness bound: a partition that has seen no GST/GSV
    #: broadcast for this long presumes the aggregator dead and advances
    #: its aggregator view round-robin (``None`` → ``10 × gst_interval``).
    #: The same bound ages out reports at the aggregator, so a dead
    #: partition stops capping the minimum.  This is the bounded timeout
    #: behind aggregator re-election; without it a crashed aggregator
    #: freezes the whole DC's stabilization forever.
    aggregator_timeout: Optional[float] = None


class GstPartition(Process):
    """A partition of a global-stabilization store (GentleRain/Cure core).

    Subclasses define ``flavor``, the summary width (1 or M), timestamping,
    and the release predicate.
    """

    #: overridden by subclasses
    flavor = "gst"

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, timings: GstTimings,
                 summary_width: int,
                 cost_model: CostModel,
                 metrics: Optional[MetricsHub] = None):
        super().__init__(env, name, site=dc_id, cost_model=cost_model)
        self.dc_id = dc_id
        self.index = index
        self.n_dcs = n_dcs
        self.timings = timings
        self.summary_width = summary_width
        self.metrics = metrics or NullMetrics()
        self.clock = clock
        self.hlc = HybridLogicalClock(clock)
        self.visible = VersionedStore()
        self.vv = [0] * n_dcs                  # VV[d]: max ts seen from dc d
        self.summary = (0,) * summary_width    # GST (w=1) or GSV (w=M)
        self.siblings: dict[int, Process] = {}
        self.aggregator: Optional[Process] = None
        #: every partition knows the DC roster now (re-election needs it);
        #: empty for bare partitions wired by hand in unit tests.  Under a
        #: partial placement the roster holds only the DC's *resident*
        #: partitions, and ``roster_pos`` is this partition's position in
        #: it (== ``index`` under full replication) — all aggregator
        #: bookkeeping (views, report keys, broadcast senders) runs on
        #: roster positions, never raw partition indices.
        self.local_partitions: list[Process] = []
        self.roster_pos = index
        #: origins contributing to the stable summary: the DCs that also
        #: store this partition (ascending, including this DC).  None =
        #: all M DCs — full replication.
        self.tracked: Optional[tuple] = None
        self._reports: dict[int, tuple] = {}        # current aggregator only
        self._report_seen: dict[int, float] = {}    # report freshness times
        #: which roster index this partition currently believes aggregates
        self.aggregator_view = 0
        self._last_broadcast_seen = 0.0
        self._tenure_start = 0.0                    # when we last took office
        self._aggregate_task = None
        self.aggregator_failovers = 0
        # Flavor-specific deferred-update container: GentleRain swaps in a
        # RunBuffer ("runs" backend) or keeps this heap-ordered list; Cure
        # scans a plain list (vector gates are not totally ordered).  All
        # choices support len() for pending_count().
        self._pending = []
        self._pending_seq = 0
        self.local_updates = 0
        self.remote_applies = 0

    # ------------------------------------------------------------------
    # Wiring / lifecycle
    # ------------------------------------------------------------------
    def set_sibling(self, dc_id: int, partition: Process) -> None:
        if dc_id != self.dc_id:
            self.siblings[dc_id] = partition

    @property
    def is_aggregator(self) -> bool:
        return self.aggregator_view == self.roster_pos

    def lane_of(self, msg) -> str:
        # Same background-replication lane as every other store here: remote
        # installs must not queue behind foreground client operations.
        if type(msg).__name__ == "RemoteData":
            return "replication"
        return "cpu"

    def start(self) -> None:
        self.periodic(self.timings.heartbeat_interval, self._send_heartbeats)
        self.periodic(self.timings.gst_interval, self._report,
                      phase=self.timings.gst_interval * 0.5)
        # Fresh grace periods: a just-(re)started partition gives the
        # aggregator a full timeout before suspecting it, and — if it is the
        # aggregator — gives every roster member a full timeout to report
        # before aggregating without them.
        self._last_broadcast_seen = self.now
        self._tenure_start = self.now
        if self.is_aggregator:
            self._arm_aggregate()

    def _arm_aggregate(self) -> None:
        if self._aggregate_task is not None:
            self._aggregate_task.stop()
        self._aggregate_task = self.periodic(self.timings.gst_interval,
                                             self._aggregate,
                                             phase=self.timings.gst_interval)

    def _aggregator_timeout(self) -> float:
        timeout = self.timings.aggregator_timeout
        return timeout if timeout is not None else 10 * self.timings.gst_interval

    def recover(self) -> None:
        """Restart after a crash-stop with protocol state intact.

        Crashing bumps the process epoch, which kills the periodic
        heartbeat/report/aggregate tasks — re-arm them so the partition
        resumes participating in stabilization (its VV/summary then catch
        up from fresh heartbeats; updates dropped while down are simply
        lost, as for any crash-stop store without a recovery log).
        """
        super().recover()
        self.start()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def on_client_read(self, msg: ClientRead, src: Process) -> None:
        version = self.visible.get(msg.key)
        if version is None:
            reply = ClientReadReply(msg.key, None,
                                    vc_zero(self.summary_width),
                                    msg.request_id)
        else:
            reply = ClientReadReply(msg.key, version.value, version.vts,
                                    msg.request_id)
        self.send(src, reply)

    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        update = self._stamp(msg)
        self.visible.put(update.key, Versioned(update.value, update.ts,
                                               self.dc_id, update.vts))
        self.local_updates += 1
        tracer = self.metrics.tracer
        if tracer is not None:
            issued = msg.issued_at if msg.issued_at > 0.0 else None
            span = tracer.commit(update, self.now, issued_at=issued)
            if span is not None and self.siblings:
                tracer.stage(update, "replicate", self.now, self.dc_id)
        data = RemoteData(update)
        self.multicast(self.siblings.values(), data)
        self.send(src, ClientUpdateReply(update.vts, msg.request_id))

    def _stamp(self, msg: ClientUpdate) -> Update:
        """Flavor-specific timestamping; must keep Property-1-style order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Replication in
    # ------------------------------------------------------------------
    def on_remote_data(self, msg: RemoteData, src: Process) -> None:
        update = msg.update
        k = update.origin_dc
        if update.ts > self.vv[k]:
            self.vv[k] = update.ts
        if self._releasable(update):
            self._install(update, arrival=self.now)
        else:
            self._defer(update, arrival=self.now)

    def _releasable(self, update: Update) -> bool:
        raise NotImplementedError

    def _defer(self, update: Update, arrival: float) -> None:
        """Queue an update whose visibility the summary does not yet cover."""
        raise NotImplementedError

    def _release_ready(self) -> None:
        """Install every deferred update the new summary covers."""
        raise NotImplementedError

    def _install(self, update: Update, arrival: float) -> None:
        self.visible.put(update.key, Versioned(update.value, update.ts,
                                               update.origin_dc, update.vts))
        self.remote_applies += 1
        now = self.now
        k, m = update.origin_dc, self.dc_id
        extra_ms = max(0.0, (now - arrival) * 1e3)
        total_ms = (now - update.commit_time) * 1e3
        self.metrics.point(f"vis_extra_ms:{k}->{m}", now, extra_ms)
        self.metrics.point(f"vis_total_ms:{k}->{m}", now, total_ms)
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.stage_once(update, "visible", now, m)
        slo = self.metrics.slo
        if slo is not None:
            slo.visibility(k, m, total_ms, extra_ms)

    def _install_many(self, items) -> None:
        """Batched deferred-set drain: install ``(update, arrival)`` pairs.

        Call-for-call identical to looping :meth:`_install` — same LWW
        puts, same metric points, same order — with the per-item handle
        resolution (store put, metrics point, tracer, SLO sink) hoisted
        out of the loop.  A summary broadcast can release hundreds of
        deferred updates at once, so this loop is the GST/Cure analogue
        of Eunomia's batched apply path.
        """
        if not items:
            return
        if type(self)._install is not GstPartition._install:
            # Subclass hook (recording/ablation overrides): keep the
            # per-op call so the override observes every install.
            for update, arrival in items:
                self._install(update, arrival)
            return
        put = self.visible.put
        point = self.metrics.point
        tracer = self.metrics.tracer
        slo = self.metrics.slo
        now = self.now
        m = self.dc_id
        for update, arrival in items:
            put(update.key, Versioned(update.value, update.ts,
                                      update.origin_dc, update.vts))
            k = update.origin_dc
            extra_ms = max(0.0, (now - arrival) * 1e3)
            total_ms = (now - update.commit_time) * 1e3
            point(f"vis_extra_ms:{k}->{m}", now, extra_ms)
            point(f"vis_total_ms:{k}->{m}", now, total_ms)
            if tracer is not None:
                tracer.stage_once(update, "visible", now, m)
            if slo is not None:
                slo.visibility(k, m, total_ms, extra_ms)
        self.remote_applies += len(items)

    # ------------------------------------------------------------------
    # Stabilization rounds
    # ------------------------------------------------------------------
    def _send_heartbeats(self) -> None:
        # Heartbeat timestamps must never run ahead of a later update's
        # timestamp; folding the value into the hybrid clock guarantees it.
        ts = max(self.clock.read_us(), self.hlc.last)
        self.hlc.observe(ts)
        beat = GstHeartbeat(self.dc_id, self.index, ts)
        self.multicast(self.siblings.values(), beat)

    def on_gst_heartbeat(self, msg: GstHeartbeat, src: Process) -> None:
        if msg.ts > self.vv[msg.origin_dc]:
            self.vv[msg.origin_dc] = msg.ts

    def _local_summary(self) -> tuple:
        """The partition's contribution to the DC-wide minimum."""
        raise NotImplementedError

    def _report(self) -> None:
        # Aggregator liveness check rides the report tick (no extra timer,
        # no extra messages): broadcasts normally arrive every gst_interval,
        # so a silence of aggregator_timeout means the aggregator is gone —
        # advance the view round-robin.  Every partition advances from the
        # same view, so they converge on the same successor; if that one is
        # dead too, the next timeout advances again (recovery is bounded by
        # roster_size × timeout).  Bare unit-test partitions (no roster)
        # keep the historical static wiring.
        if (self.local_partitions
                and self.now - self._last_broadcast_seen
                > self._aggregator_timeout()):
            self._advance_aggregator()
        self.vv[self.dc_id] = max(self.vv[self.dc_id], self.clock.read_us())
        self.send(self.aggregator,
                  GstReport(self.roster_pos, self._local_summary()))

    def _advance_aggregator(self) -> None:
        roster = self.local_partitions
        self.aggregator_view = (self.aggregator_view + 1) % len(roster)
        self.aggregator = roster[self.aggregator_view]
        self._last_broadcast_seen = self.now   # full grace for the successor
        self.aggregator_failovers += 1
        if self.is_aggregator:
            self._tenure_start = self.now
            self._arm_aggregate()
        elif self._aggregate_task is not None:
            self._aggregate_task.stop()
            self._aggregate_task = None

    def on_gst_report(self, msg: GstReport, src: Process) -> None:
        self._reports[msg.partition_index] = msg.value
        self._report_seen[msg.partition_index] = self.now

    def _aggregate(self) -> None:
        if not self.is_aggregator:
            return  # stood down with a firing still queued
        now = self.now
        timeout = self._aggregator_timeout()
        values = []
        for i in range(max(len(self.local_partitions), len(self._reports))):
            value = self._reports.get(i)
            seen = self._report_seen.get(i)
            if value is not None and (seen is None or now - seen <= timeout):
                # Fresh report (reports planted directly by tests carry no
                # freshness stamp and count as fresh).
                values.append(value)
            elif value is None and now - self._tenure_start <= timeout:
                # Never reported, but this aggregator is newly in office:
                # wait the full grace before aggregating without it — on a
                # healthy bootstrap this reduces to the historical
                # "wait until every partition has reported once".
                return
        if not values:
            return
        minimum = tuple(min(v[i] for v in values)
                        for i in range(self.summary_width))
        broadcast = GstBroadcast(minimum, self.roster_pos)
        self.multicast(self.local_partitions, broadcast)

    def on_gst_broadcast(self, msg: GstBroadcast, src: Process) -> None:
        self._last_broadcast_seen = self.now
        if msg.sender != self.aggregator_view and self.local_partitions:
            # Someone else is aggregating.  Ω-style min-index tie-break: a
            # partition that is itself aggregating stands down only for a
            # lower-index sender (so a recovered index-0 aggregator retakes
            # office and a transient dual-aggregator episode converges
            # instead of flapping); everyone else adopts the sender
            # unconditionally.  Duplicate aggregation is safe meanwhile —
            # summaries only ever merge monotonically.
            if not (self.is_aggregator and msg.sender > self.roster_pos):
                self.aggregator_view = msg.sender
                self.aggregator = self.local_partitions[msg.sender]
                if self._aggregate_task is not None and not self.is_aggregator:
                    self._aggregate_task.stop()
                    self._aggregate_task = None
        merged = vc_merge(self.summary, msg.value)
        if merged != self.summary:
            self.summary = merged
            self._release_ready()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def datastore(self) -> VersionedStore:
        return self.visible

    def pending_count(self) -> int:
        return len(self._pending)


class GstProtocol(ProtocolSpec):
    """Deployment plugin shared by the global-stabilization flavors.

    The only protocol-specific pieces of a GST datacenter are the
    partitions (flavor subclass of :class:`GstPartition`) and the per-DC
    aggregator wiring; there is no separate stabilizer process and no
    remote receiver — updates travel sibling→sibling and visibility is
    gated locally by the summary.  Everything else (frame, clocks,
    clients, failure injection) comes from the spine.
    """

    #: flavor subclass; overridden by instances/subclasses
    partition_cls: type = GstPartition
    #: flavors with a deferred-update backend ablation set this to the
    #: allowed backend names, first entry the default; None = no such axis
    pending_backends: Optional[tuple] = None

    def __init__(self, partition_cls: Optional[type] = None):
        if partition_cls is not None:
            self.partition_cls = partition_cls
        self.name = self.partition_cls.flavor

    def client_entries(self, n_dcs: int) -> int:
        return self.partition_cls.summary_width_static(n_dcs)

    def option_names(self) -> tuple:
        if self.pending_backends:
            return ("timings", "pending_backend")
        return ("timings",)

    def prepare(self, spec, options: dict) -> dict:
        options["timings"] = options.get("timings") or GstTimings()
        if self.pending_backends:
            check_pending_backend(
                options.setdefault("pending_backend",
                                   self.pending_backends[0]),
                self.pending_backends)
        return options

    def partition_kwargs(self, options: dict) -> dict:
        """Extra per-partition constructor kwargs (flavor tunables)."""
        if self.pending_backends:
            return {"pending_backend": options["pending_backend"]}
        return {}

    def build_site(self, site: SiteContext) -> SitePlan:
        extra = self.partition_kwargs(site.options)
        # All N constructed in index order for clock-stream parity even
        # under partial placement; only residents join the roster below.
        partitions = [
            self.partition_cls(site.env, site.pname(i), site.dc_id, i,
                               site.n_dcs, site.clock(),
                               site.options["timings"],
                               calibration=site.calibration,
                               metrics=site.metrics, **extra)
            for i in range(site.n_partitions)
        ]
        pmap = site.partial_placement()
        roster = (partitions if pmap is None else
                  [partitions[i]
                   for i in pmap.resident_partitions(site.dc_id)])
        aggregator = roster[0]
        for pos, partition in enumerate(roster):
            # Every resident partition knows the roster: re-election
            # retargets reports and re-arms aggregation without rewiring.
            partition.local_partitions = list(roster)
            partition.aggregator = aggregator
            partition.roster_pos = pos
            if pmap is not None:
                # Stable summaries span only the origins that also store
                # this partition — the placement-aware stable cut.
                partition.tracked = pmap.residents(partition.index)
        return SitePlan(partitions=partitions)
