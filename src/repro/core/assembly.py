"""Assembly of one datacenter's stabilizer complex (all four shapes).

The Eunomia service of a site can be deployed four ways, the cross product
of two axes (:class:`~repro.core.config.EunomiaConfig`):

====================  =====================================================
``n_shards=1``        the paper's single sequential stabilizer —
                      :class:`EunomiaService` (Alg. 3), or R
                      :class:`EunomiaReplica` (Alg. 4) when fault-tolerant
``n_shards=K``        K :class:`EunomiaShard` workers behind a merging
                      :class:`ShardCoordinator`; fault-tolerant, the whole
                      pipeline × R replicas, each a
                      :class:`ShardedReplicaGroup` whose
                      :class:`ReplicatedShardCoordinator` runs the Ω
                      election (Alg. 4 × K)
====================  =====================================================

:func:`build_stabilizer_stack` is the single place that wiring lives;
:class:`repro.geo.datacenter.Datacenter` and the §7.1 load rigs
(:mod:`repro.harness.loadgen`) both build from it, so the fault-tolerant
sharded composition behaves identically under storage traffic and under
partition emulators.  The returned :class:`StabilizerStack` answers the
three questions any deployment has: which processes to start, which
processes ship stable runs to remote receivers (``propagators``), and which
processes a given partition's uplink must stream to (``uplink_targets`` —
one target for the plain shapes, the owning shard of *every* replica for
the replicated ones, so the uplink's per-replica ack/retransmission
machinery applies per (partition → shard) stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..calibration import Calibration
from ..durability import CheckpointStore, RecoveryManager, WriteAheadLog
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.disk import DiskModel
from ..sim.env import Environment
from ..sim.process import Process
from .config import EunomiaConfig
from .replica import EunomiaReplica
from .service import EunomiaService
from .shard import (
    EunomiaShard,
    ReplicatedShardCoordinator,
    ShardCoordinator,
    ShardMap,
    ShardedReplicaGroup,
)

__all__ = ["StabilizerStack", "build_stabilizer_stack"]


@dataclass
class StabilizerStack:
    """The stabilizer processes of one site, in deployment-agnostic form."""

    config: EunomiaConfig
    env: Environment
    site: int
    cal: Calibration
    metrics: MetricsHub
    name_prefix: str = ""
    #: K=1 shapes: the plain service or the R Algorithm 4 replicas
    replicas: list[EunomiaService] = field(default_factory=list)
    #: K>1 shapes: every shard worker (all replicas, flattened)
    shards: list[EunomiaShard] = field(default_factory=list)
    #: K>1 shapes: one coordinator per replica (one total when unreplicated)
    coordinators: list[ShardCoordinator] = field(default_factory=list)
    #: K>1 × fault-tolerant: the R replica groups
    groups: list[ShardedReplicaGroup] = field(default_factory=list)
    shard_map: Optional[ShardMap] = None
    #: durability="wal": the restorer shared by every durable member
    recovery: Optional["RecoveryManager"] = None

    def processes(self) -> list[Process]:
        """Every stabilizer process, in start order (shards before heads)."""
        return [*self.shards, *self.coordinators, *self.replicas]

    def propagators(self) -> list[Process]:
        """Processes that ship stable runs (all get remote destinations —
        any replica can be elected and must know where to propagate)."""
        return [*self.coordinators, *self.replicas]

    def uplink_targets(self, partition_index: int) -> list[Process]:
        """The processes partition ``partition_index`` must stream to."""
        if self.shard_map is None:
            return list(self.replicas)
        shard_id = self.shard_map.shard_of(partition_index)
        if self.groups:
            return [group.shards[shard_id] for group in self.groups]
        return [self.shards[shard_id]]

    def crash_units(self) -> list:
        """Replica-failure targets in election order: the sharded replica
        groups or the Alg. 4 replicas ([] for non-fault-tolerant shapes)."""
        if self.groups:
            return list(self.groups)
        if self.config.fault_tolerant:
            return list(self.replicas)
        return []

    def leader(self):
        """The process currently shipping stable runs for this site."""
        heads = self.coordinators or self.replicas
        for head in heads:
            if not head.crashed and getattr(head, "is_leader",
                                            lambda: True)():
                return head
        return heads[0]

    def wire_uplinks(self, hosts: list) -> list:
        """Point every host's uplink at this stabilizer complex.

        ``hosts`` are partitions or partition emulators (anything with an
        ``index`` and ``set_eunomia``).  Without the §5 propagation tree
        each host streams straight to its :meth:`uplink_targets`; with it,
        ``tree_fanout``-sized windows of hosts share a
        :class:`~repro.core.tree.TreeRelay` (routed per owning shard when
        sharded).  Returns the relays ([] when no tree), which the caller
        must ``start()`` — trees never combine with fault tolerance, so a
        relay always has exactly one upstream pipeline.
        """
        if not self.config.use_propagation_tree:
            for host in hosts:
                host.set_eunomia(self.uplink_targets(host.index))
            return []
        from .tree import TreeRelay

        relays = []
        upstream = self.shards or self.replicas
        fanout = self.config.tree_fanout
        for g in range(0, len(hosts), fanout):
            window = hosts[g:g + fanout]
            relay = TreeRelay(
                self.env, f"{self.name_prefix}relay{len(relays)}", self.site,
                flush_interval=self.config.tree_flush_interval,
                forward_cost=self.cal.overhead("relay_forward"),
                flush_cost=self.cal.overhead("relay_flush"),
                metrics=self.metrics,
            )
            relay.set_upstream(upstream)
            if self.shard_map is not None:
                relay.set_routing({
                    host.index: self.shards[self.shard_map.shard_of(host.index)]
                    for host in window})
            for host in window:
                host.set_eunomia([relay])
            relays.append(relay)
        return relays


def build_stabilizer_stack(env: Environment, site: int, n_partitions: int,
                           config: EunomiaConfig, cal: Calibration,
                           metrics: Optional[MetricsHub] = None,
                           name_prefix: str = "",
                           stable_mark: Optional[str] = None,
                           indices: Optional[list] = None
                           ) -> StabilizerStack:
    """Build the stabilizer complex for one site (not yet started).

    ``name_prefix`` namespaces process names (datacenters pass ``"dc0/"``
    etc., rigs pass ``""``); ``stable_mark`` overrides the metric name
    stable ops are marked under (defaults to ``eunomia_stable:dc{site}``).
    ``indices`` restricts the stable cut to a subset of partition indices
    (partial geo-replication: only the site's *resident* partitions feed
    the stabilizer, so only they may bound StableTime — a non-resident
    index never streams ops and would pin the floor at zero forever).
    ``None`` keeps the historical all-partitions cut.
    """
    metrics = metrics or NullMetrics()
    stack = StabilizerStack(config=config, env=env, site=site, cal=cal,
                            metrics=metrics, name_prefix=name_prefix)

    if config.n_shards > 1:
        stack.shard_map = ShardMap(n_partitions, config.n_shards,
                                   config.shard_policy, indices=indices)
        n_groups = config.n_replicas if config.fault_tolerant else 1
        for rid in range(n_groups):
            tag = f"{name_prefix}eunomia{rid}-" if config.fault_tolerant \
                else f"{name_prefix}eunomia-"
            if config.fault_tolerant:
                coordinator: ShardCoordinator = ReplicatedShardCoordinator(
                    env, f"{tag}coord", site, config.n_shards, config,
                    replica_id=rid,
                    forward_op_cost=cal.cost("eunomia_coord_op"),
                    merge_round_cost=cal.overhead("eunomia_coord_round"),
                    batch_cost=cal.overhead("eunomia_batch"),
                    metrics=metrics, stable_mark=stable_mark,
                )
                leader_gate = coordinator.is_leader
            else:
                coordinator = ShardCoordinator(
                    env, f"{tag}coord", site, config.n_shards, config,
                    forward_op_cost=cal.cost("eunomia_coord_op"),
                    merge_round_cost=cal.overhead("eunomia_coord_round"),
                    batch_cost=cal.overhead("eunomia_batch"),
                    metrics=metrics, stable_mark=stable_mark,
                )
                leader_gate = None
            group_shards = []
            for sid in range(config.n_shards):
                shard = EunomiaShard(
                    env, f"{tag}shard{sid}", site, n_partitions, config,
                    shard_id=sid, owned=stack.shard_map.owned_by(sid),
                    serialize_op_cost=cal.cost("eunomia_shard_serialize_op"),
                    stab_round_cost=cal.overhead("eunomia_stab_round"),
                    insert_op_cost=cal.cost("eunomia_insert_op"),
                    batch_cost=cal.overhead("eunomia_batch"),
                    heartbeat_cost=cal.overhead("eunomia_heartbeat"),
                    ack_cost=cal.overhead("eunomia_ack"),
                    metrics=metrics, leader_gate=leader_gate,
                )
                shard.set_coordinator(coordinator)
                group_shards.append(shard)
            stack.shards.extend(group_shards)
            stack.coordinators.append(coordinator)
            if config.fault_tolerant:
                coordinator.set_shards(group_shards)
                stack.groups.append(ShardedReplicaGroup(
                    rid, coordinator, group_shards))
        for coordinator in stack.coordinators:
            if isinstance(coordinator, ReplicatedShardCoordinator):
                coordinator.set_peers(stack.coordinators)
    elif config.fault_tolerant:
        for rid in range(config.n_replicas):
            stack.replicas.append(EunomiaReplica(
                env, f"{name_prefix}eunomia{rid}", site, n_partitions,
                config, replica_id=rid,
                ack_cost=cal.overhead("eunomia_ack"),
                propagate_op_cost=cal.cost("eunomia_propagate_op"),
                stab_round_cost=cal.overhead("eunomia_stab_round"),
                insert_op_cost=cal.cost("eunomia_insert_op"),
                batch_cost=cal.overhead("eunomia_batch"),
                heartbeat_cost=cal.overhead("eunomia_heartbeat"),
                metrics=metrics, stable_mark=stable_mark,
            ))
        for replica in stack.replicas:
            replica.set_peers(stack.replicas)
            replica.set_tracked(indices)
    else:
        stack.replicas.append(EunomiaService(
            env, f"{name_prefix}eunomia", site, n_partitions, config,
            propagate_op_cost=cal.cost("eunomia_propagate_op"),
            stab_round_cost=cal.overhead("eunomia_stab_round"),
            insert_op_cost=cal.cost("eunomia_insert_op"),
            batch_cost=cal.overhead("eunomia_batch"),
            heartbeat_cost=cal.overhead("eunomia_heartbeat"),
            metrics=metrics, stable_mark=stable_mark,
        ))
        stack.replicas[0].set_tracked(indices)

    if config.durability == "wal":
        # Durable stacks for all four shapes: every stabilizer that holds
        # protocol state (shards, Alg. 4 replicas, the plain service) gets
        # its own WAL + checkpoint store; coordinators hold none (they are
        # rebuilt from their shards — floors are shipped-capped, so every
        # queued-but-unshipped op survives in some shard's log).
        disk = DiskModel.from_calibration(cal)
        stack.recovery = RecoveryManager(disk)
        for proc in (*stack.shards, *stack.replicas):
            proc.attach_durability(
                WriteAheadLog(f"{proc.name}.wal", disk),
                CheckpointStore(f"{proc.name}.ckpt"),
                stack.recovery,
                append_op_cost=cal.cost("wal_append_op"),
                checkpoint_cost=cal.overhead("checkpoint_write"),
            )
        for group in stack.groups:
            group.recovery = stack.recovery
    return stack
