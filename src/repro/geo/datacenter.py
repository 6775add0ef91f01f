"""Assembly of one datacenter — any protocol, one spine.

A :class:`Datacenter` owns the wiring every protocol shares: it creates
the :class:`~repro.core.protocols.SiteContext` (per-DC clock stream, NTP
discipline, ring, metrics), asks the protocol's
:class:`~repro.core.protocols.ProtocolSpec` plugin for the
protocol-specific pieces (partitions, stabilizer/sequencer complex,
receiver), and then owns cross-datacenter wiring (``connect``: every
stable-stream propagator gains every remote receiver as a destination,
and every partition learns its remote siblings for the §5 direct data
shipping), start order, and store introspection.

For EunomiaKV the plugin (:class:`EunomiaProtocol`, registered here) is a
datacenter of N partitions (Alg. 2), an Eunomia stabilizer complex — any
of the four shapes :func:`repro.core.assembly.build_stabilizer_stack`
produces (plain service, Alg. 4 replica group, K-shard pipeline, or the
fault-tolerant K-shard × R-replica composition) — and a receiver
(Alg. 5).  The baseline protocols plug into the *same* spine from
:mod:`repro.baselines`, which is what makes every measured difference
protocol, not plumbing.
"""

from __future__ import annotations

from typing import Optional

from ..calibration import Calibration
from ..clocks.ntp import NtpSynchronizer
from ..core.assembly import build_stabilizer_stack
from ..core.config import EunomiaConfig
from ..core.partition import EunomiaPartition
from ..core.protocols import (
    ProtocolSpec,
    SiteContext,
    SitePlan,
    register_protocol,
)
from ..kvstore.ring import ConsistentHashRing
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment

__all__ = ["Datacenter", "EunomiaProtocol"]


class EunomiaProtocol(ProtocolSpec):
    """EunomiaKV as a plugin: Alg. 2 partitions + stabilizer stack + Alg. 5
    receiver.  Option: ``config`` (:class:`EunomiaConfig`, all four
    stabilizer shapes, durability, buffer backends)."""

    name = "eunomia"

    def client_entries(self, n_dcs: int) -> int:
        return n_dcs

    def option_names(self) -> tuple:
        return ("config",)

    def prepare(self, spec, options: dict) -> dict:
        config = options.get("config") or EunomiaConfig()
        config.validate()
        options["config"] = config
        return options

    def build_site(self, site: SiteContext) -> SitePlan:
        from .receiver import Receiver  # local import avoids cycle at load

        config = site.options["config"]
        cal = site.calibration
        pmap = site.partial_placement()
        # All N partitions are constructed in index order even under a
        # partial placement (the per-DC clock RNG stream depends on it);
        # non-resident ones are never started, wired, or routed to.
        partitions = [
            EunomiaPartition(
                site.env, site.pname(index), site.dc_id, index, site.n_dcs,
                site.clock(), config, calibration=cal, metrics=site.metrics,
            )
            for index in range(site.n_partitions)
        ]
        resident = (partitions if pmap is None else
                    [partitions[i]
                     for i in pmap.resident_partitions(site.dc_id)])
        stack = build_stabilizer_stack(
            site.env, site.dc_id, site.n_partitions, config, cal,
            metrics=site.metrics, name_prefix=f"dc{site.dc_id}/",
            indices=None if pmap is None else
            pmap.resident_partitions(site.dc_id),
        )
        receiver = Receiver(
            site.env, f"dc{site.dc_id}/receiver", site.dc_id, site.n_dcs,
            calibration=cal, metrics=site.metrics, placement=pmap,
        )
        receiver.set_partitions(site.ring, partitions)
        relays = stack.wire_uplinks(resident)
        return SitePlan(
            partitions=partitions, extras=stack.processes(),
            receiver=receiver, propagators=stack.propagators(),
            relays=relays, stack=stack,
        )


register_protocol(EunomiaProtocol())


class Datacenter:
    """One site of a geo-replicated deployment, any registered protocol.

    ``protocol`` is the :class:`ProtocolSpec` plugin and ``options`` the
    dict its :meth:`~repro.core.protocols.ProtocolSpec.prepare` returned;
    :func:`repro.geo.system.build_geo_system` is the one caller.
    """

    def __init__(self, env: Environment, dc_id: int, n_dcs: int,
                 n_partitions: int, ring: ConsistentHashRing,
                 protocol: ProtocolSpec, options: dict,
                 calibration: Optional[Calibration] = None,
                 metrics: Optional[MetricsHub] = None,
                 ntp: Optional[NtpSynchronizer] = None,
                 placement=None):
        self.env = env
        self.dc_id = dc_id
        self.n_dcs = n_dcs
        self.ring = ring
        cal = calibration or Calibration()
        self.calibration = cal
        self.metrics = metrics or NullMetrics()
        self.protocol = protocol
        self.site = SiteContext(
            env=env, dc_id=dc_id, n_dcs=n_dcs, n_partitions=n_partitions,
            ring=ring, calibration=cal, metrics=self.metrics, ntp=ntp,
            options=options, placement=placement,
        )
        #: the placement map when genuinely partial, else None — the full
        #: path through connect/start/introspection must stay identical
        self.placement = self.site.partial_placement()
        self.plan = protocol.build_site(self.site)
        self.partitions = self.plan.partitions
        self.extras = self.plan.extras
        self.receiver = self.plan.receiver
        self.relays = self.plan.relays

        # -- Eunomia introspection sugar (empty for other protocols) -------
        stack = self.plan.stack
        self.stack = stack
        self.config = options.get("config")
        self.eunomia_replicas = stack.replicas if stack else []
        self.shards = stack.shards if stack else []
        self.coordinators = stack.coordinators if stack else []
        #: the single coordinator of an unreplicated sharded deployment
        #: (None otherwise; kept for ablation/test introspection)
        self.coordinator = (self.coordinators[0]
                            if len(self.coordinators) == 1 else None)
        self.replica_groups = stack.groups if stack else []
        self.shard_map = stack.shard_map if stack else None

    # ------------------------------------------------------------------
    # Cross-datacenter wiring
    # ------------------------------------------------------------------
    def connect(self, other: "Datacenter") -> None:
        """Wire this datacenter to a remote one (directional; call both ways).

        Under a partial placement only overlapping DCs exchange streams:
        the propagator → receiver edge exists iff some partition is
        resident at both sites, and sibling links exist per co-resident
        index — a DC never receives (and never waits on) traffic for data
        it does not store.
        """
        if other.dc_id == self.dc_id:
            raise ValueError("cannot connect a datacenter to itself")
        pmap = self.placement
        if other.receiver is not None and (
                pmap is None or pmap.overlaps(self.dc_id, other.dc_id)):
            for propagator in self.propagators():
                propagator.add_destination(other.receiver)
        if pmap is None:
            for mine, theirs in zip(self.partitions, other.partitions):
                mine.set_sibling(other.dc_id, theirs)
        else:
            for index in pmap.resident_partitions(self.dc_id):
                if pmap.is_resident(other.dc_id, index):
                    self.partitions[index].set_sibling(
                        other.dc_id, other.partitions[index])

    def propagators(self) -> list:
        """The processes that ship ordered streams to remote receivers."""
        return self.plan.propagators

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for index, partition in enumerate(self.partitions):
            if self.placement is not None and not self.placement.is_resident(
                    self.dc_id, index):
                continue  # constructed for clock-stream parity, never run
            start = getattr(partition, "start", None)
            if start is not None:
                start()
        for relay in self.relays:
            relay.start()
        for proc in self.extras:
            start = getattr(proc, "start", None)
            if start is not None:
                start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leader(self):
        """The process shipping this site's ordered stream (protocol-defined:
        the plain service, the leading replica, the leading replica's shard
        coordinator, or the sequencer)."""
        return self.protocol.leader(self.plan)

    def resident_partitions(self) -> list:
        """The partition processes this DC actually stores (all, if full)."""
        if self.placement is None:
            return list(self.partitions)
        return [self.partitions[i]
                for i in self.placement.resident_partitions(self.dc_id)]

    def stable_time_us(self) -> Optional[int]:
        """This DC's stabilization floor in clock microseconds, or None.

        Protocol-generic (the gauge scraper's stabilization-lag source):
        Eunomia-style sites report the leader stabilizer's ``stable_time``;
        GST-family sites report the minimum tracked summary entry across
        resident partitions (GST scalar, or min over the GSV); protocols
        with neither notion (eventual, sequencer stores) return None.
        Read-only — never touches a clock.
        """
        if self.stack is not None:
            return getattr(self.leader(), "stable_time", None)
        floor: Optional[int] = None
        for partition in self.resident_partitions():
            summary = getattr(partition, "summary", None)
            if summary is None:
                continue
            for entry in summary:
                # UNTRACKED sentinel entries (partial placement) act as
                # +inf in the aggregator min and are skipped here too
                if entry >= (1 << 62):
                    continue
                if floor is None or entry < floor:
                    floor = entry
        return floor

    def store_snapshot(self) -> dict:
        """Union of the resident partition stores: key → (ts, origin, value)."""
        merged: dict = {}
        for partition in self.resident_partitions():
            merged.update(partition.datastore().snapshot())
        return merged

    def fingerprint(self) -> int:
        """Order-independent hash of the datacenter's resident data."""
        acc = 0
        for partition in self.resident_partitions():
            acc ^= partition.datastore().fingerprint()
        return acc
