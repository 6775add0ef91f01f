"""The Eunomia service (Algorithm 3): unobtrusive site-wide ordering.

The service never talks to clients.  It receives (batches of) timestamped
updates and heartbeats from the datacenter's partitions, tracks the largest
timestamp seen per partition (``PartitionTime``), and every θ seconds
computes ``StableTime = min(PartitionTime)``.  FIFO links plus Property 2
guarantee no partition will ever produce a smaller timestamp, so everything
at or below ``StableTime`` can be serialized — in timestamp order, which by
Property 1 is consistent with causality — and shipped to remote datacenters.

The unstable set lives behind the :func:`repro.datastruct.opbuffer.OpBuffer`
strategy facade (``EunomiaConfig.buffer_backend``): per-origin monotone runs
by default — Alg. 3's PartitionTime dedup guarantees the strictly increasing
per-partition inserts the run buffer requires — with the paper's §6
red–black tree retained as the reference tree backend.  Extraction
of the stable prefix is the backend's ``pop_stable``.

Algorithm 3 ↔ this module:

* lines 1–6 (NEW_OP / NEW_HEARTBEAT ingestion + PartitionTime) —
  :meth:`StabilizerBase.on_add_op_batch` /
  :meth:`StabilizerBase.on_partition_heartbeat`;
* line 7 (the periodic PROCESS_STABLE trigger, period θ) —
  :meth:`StabilizerBase.start` arming a ``periodic`` stabilization task;
* lines 8–11 (FIND_STABLE + ordered PROCESS of the stable prefix) —
  :meth:`StabilizerBase._stabilize` driving the buffer's ``pop_stable``
  and the subclass's :meth:`_emit`.

Three deployments share the machinery in :class:`StabilizerBase`:

* :class:`EunomiaService` — the paper's single sequential stabilizer per
  datacenter (the K=1 case), which serializes *all* partitions and ships
  the stable run to remote sites itself;
* :class:`repro.core.replica.EunomiaReplica` — the Algorithm 4 form: R of
  these, acks to partitions, leader-only ``_emit``;
* :class:`repro.core.shard.EunomiaShard` — one of K workers that each run
  Algorithm 3 over a partition *subset* and hand their (already ordered)
  stable sub-runs to a :class:`repro.core.shard.ShardCoordinator` for a
  K-way merge before remote propagation; with ``fault_tolerant=True`` the
  whole K-shard pipeline is replicated (Alg. 4 × K, see
  :mod:`repro.core.shard`).

CPU accounting: batch ingestion is charged through the cost model installed
by the builder; stabilization charges a fixed round cost plus a per-op,
per-destination propagation cost — the component the paper identifies as
Eunomia's actual bottleneck ("the bottleneck of our Eunomia implementation
is the propagation to other geo-locations").
"""

from __future__ import annotations

from typing import Optional

from ..datastruct.opbuffer import OpBuffer
from ..metrics.collector import MetricsHub, NullMetrics
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from .config import EunomiaConfig
from .messages import (
    AddOpBatch,
    BatchAck,
    PartitionHeartbeat,
    RemoteStableBatch,
    StableAnnounce,
)

__all__ = ["StabilizerBase", "EunomiaService"]


class StabilizerBase(Process):
    """Shared Algorithm 3 core: ingestion, PartitionTime, periodic FIND_STABLE.

    Subclasses decide what a computed stable run *means* by overriding
    :meth:`_emit` (ship it to remote datacenters, hand it to a shard
    coordinator, …) and which partitions bound stability via
    :meth:`_stable_floor`.
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 ack_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None,
                 cost_model: Optional[CostModel] = None):
        self.insert_op_cost = insert_op_cost
        self.batch_cost = batch_cost
        self.ack_cost = ack_cost
        if cost_model is None:
            # The batch cost must be state-aware: duplicate prefixes from
            # at-least-once retransmissions are skipped with one comparison
            # each in a real implementation, not re-inserted — charging
            # full insert cost for them would invent an overload collapse.
            cost_model = CostModel(costs={
                "AddOpBatch": self._batch_cost_of,
                "CombinedBatch": self._combined_cost_of,
                "PartitionHeartbeat": heartbeat_cost,
            })
        super().__init__(env, name, site=site, cost_model=cost_model)
        self.n_partitions = n_partitions
        self.config = config
        self.metrics = metrics or NullMetrics()
        self.partition_time = [0] * n_partitions
        #: partial geo-replication: the partition indices that bound the
        #: stable cut (None = all N; see :meth:`set_tracked`)
        self.tracked = None
        self.buffer = OpBuffer(config.buffer_backend)
        self.stable_time = 0
        #: highest floor known shipped to remote receivers (≤ stable_time;
        #: the durable-truncation and state-transfer floor)
        self.shipped_stable = 0
        self.ops_stabilized = 0
        # Durability (attach_durability wires these when durability="wal").
        self.wal = None
        self.checkpoints = None
        self.recovery = None
        self._wal_op_cost = 0.0
        self._checkpoint_cost = 0.0
        self._stab_task = None
        self._checkpoint_task = None

    def start(self) -> None:
        """Arm the periodic PROCESS_STABLE tick (Alg. 3 line 7).

        Both timers are uniform :meth:`repro.sim.process.Process.periodic`
        chains now; a crash retires them via the epoch guard and recovery
        re-arms by calling ``start()`` again.
        """
        self._stab_task = self.periodic(self.config.stabilization_interval,
                                        self._stabilize)
        if self.wal is not None:
            self._checkpoint_task = self.periodic(
                self.config.checkpoint_interval, self._checkpoint_tick)

    # ------------------------------------------------------------------
    # Durability (WAL + checkpoints, EunomiaConfig.durability="wal")
    # ------------------------------------------------------------------
    def attach_durability(self, wal, checkpoints, recovery,
                          append_op_cost: float = 0.0,
                          checkpoint_cost: float = 0.0) -> None:
        """Wire this stabilizer's durable media (see :mod:`repro.durability`).

        Must happen before :meth:`start` — the checkpoint tick is armed
        there.  ``append_op_cost`` is charged per accepted op on the ingest
        path (log-record serialization); flushes and checkpoints ride the
        ``"disk"`` lane.
        """
        self.wal = wal
        self.checkpoints = checkpoints
        self.recovery = recovery
        self._wal_op_cost = append_op_cost
        self._checkpoint_cost = checkpoint_cost

    def _durable_floor(self) -> int:
        """The truncation floor: what is known shipped, never the running
        StableTime (popped-but-unshipped ops must survive in the log)."""
        return self.shipped_stable

    def _checkpoint_tick(self) -> None:
        from ..durability.checkpoint import Checkpoint

        checkpoint = Checkpoint(tuple(self.partition_time),
                                self._durable_floor(), self.now)
        cost = (self._checkpoint_cost
                + checkpoint.size_bytes * self.wal.disk.byte_time_s)
        self._enqueue(lambda: self._write_checkpoint(checkpoint), cost,
                      lane="disk")

    def _write_checkpoint(self, checkpoint) -> None:
        # Flush first so the checkpoint never refers past the durable log,
        # then truncate below the shipped floor the snapshot recorded.  A
        # failed flush (injected fsync error) skips the whole round: writing
        # the snapshot anyway could truncate records whose covering flush
        # never happened.  The next tick retries with a fresh snapshot, so
        # checkpoint staleness is bounded by the checkpoint interval.
        if self.wal.commit() < 0:
            return
        self.checkpoints.write(checkpoint)
        self.wal.truncate(checkpoint.floor)

    def _lose_state(self) -> None:
        """Amnesia crash: protocol state is gone; durable media survive."""
        self.partition_time = [0] * self.n_partitions
        self.buffer = OpBuffer(self.config.buffer_backend)
        self.stable_time = 0
        self.shipped_stable = 0
        if self.wal is not None:
            self.wal.lose_volatile()

    def _adopt_recovery_state(self, partition_time: list, buffer,
                              floor: int) -> None:
        """Install state rebuilt by the :class:`RecoveryManager`."""
        self.partition_time = list(partition_time)
        self.buffer = buffer
        self.stable_time = floor
        self.shipped_stable = floor
        self.state_lost = False

    def _batch_cost_of(self, msg: AddOpBatch) -> float:
        """Batch + per-*new*-op insert cost (duplicates found by bisection)."""
        block = msg.block
        lo = block.first_above(self.partition_time[msg.partition_index])
        return (self.batch_cost
                + (self.insert_op_cost + self._wal_op_cost)
                * (len(block) - lo))

    def _combined_cost_of(self, msg) -> float:
        """One message overhead for a whole relay window (§5 tree win)."""
        inner = sum(self._batch_cost_of(batch) - self.batch_cost
                    for batch in msg.batches)
        return self.batch_cost + inner

    # ------------------------------------------------------------------
    # Ingestion (Alg. 3 lines 1–6)
    # ------------------------------------------------------------------
    def on_combined_batch(self, msg, src: Process) -> None:
        """Unpack a propagation-tree window (§5).

        Batches are processed before heartbeats: a heartbeat coalesced in
        the same window never carries a timestamp below the batches' ops
        (Alg. 2's heartbeat condition), so this order keeps PartitionTime
        moving through every op.
        """
        for batch in msg.batches:
            self.on_add_op_batch(batch, src)
        for heartbeat in msg.heartbeats:
            self.on_partition_heartbeat(heartbeat, src)

    def on_add_op_batch(self, msg: AddOpBatch, src: Process) -> None:
        """Batched NEW_OP ingestion (Alg. 3 lines 1–4), columnar form.

        Per-op branching is unnecessary: a batch is one origin's ascending
        run, so the at-least-once duplicate prefix (``ts <= PartitionTime``)
        and the already-stable slice (``ts <= StableTime``) are both found
        by bisection and the remainder moves wholesale — an
        :class:`~repro.datastruct.opblock.OpBlock` feeds the WAL's bulk
        ``stage_ops`` and the buffer's ``extend_run``.  State-identical to
        the historical per-op loop (same accepted suffix, same records,
        same buffer contents), just without interpreting each op.
        """
        index = msg.partition_index
        pt = self.partition_time[index]
        if msg.prev_ts > pt:
            # Gap: an earlier batch from this partition was lost.  Accepting
            # this one would advance PartitionTime past ops we never saw and
            # break the prefix property — drop it whole; the ack below tells
            # the sender where to retransmit from.
            self._post_batch(msg, src)
            return
        block = msg.block
        lo = block.first_above(pt)
        if lo == len(block):
            self._post_batch(msg, src)
            return
        tracer = self.metrics.tracer
        if tracer is not None:
            now, site = self.now, self.site
            wal_name = self.wal.name if self.wal is not None else None
            for op in block.payload[lo:]:
                tracer.ingest(op, now, site)
                if wal_name is not None:
                    tracer.wal_staged(wal_name, op, now, site)
        if self.wal is not None:
            # Every accepted (PartitionTime-advancing) op is logged,
            # buffered or not — replay filters below the recovery floor.
            self.wal.stage_ops(block.run_entries(lo))
        # Ops at or below StableTime only advance PartitionTime; the rest
        # enter the unstable buffer as one pre-sorted run extension.
        cut = block.first_above(self.stable_time, lo)
        if cut < len(block):
            self.buffer.extend_run(block.run_entries(cut))
        self.partition_time[index] = block.ts[-1]
        self._post_batch(msg, src)

    def _post_batch(self, msg: AddOpBatch, src: Process) -> None:
        """NEW_BATCH acknowledgement (Alg. 4 line 5), fault-tolerant only.

        Both replicated shapes share this: every Alg. 4 replica — an
        :class:`EunomiaReplica` or a replica's
        :class:`~repro.core.shard.EunomiaShard` — acks with the highest
        contiguous timestamp it now holds for the partition, so the
        uplink's per-replica retransmission window can advance.
        """
        wal = self.wal
        if not self.config.fault_tolerant:
            if wal is not None:
                cost = wal.flush_cost()
                if cost > 0.0:
                    self._enqueue(wal.commit, cost, lane="disk")
            return
        ack = BatchAck(msg.partition_index,
                       self.partition_time[msg.partition_index])
        if wal is None:
            self._enqueue(lambda: self.send(src, ack), self.ack_cost)
            return
        # Ack-after-fsync: the acknowledgement rides the disk lane behind
        # the flush covering this batch's records.  The uplink prunes an op
        # once *every* replica acked it, so an ack for an un-flushed record
        # would make an amnesia crash lose the op forever — the ack must
        # imply durability.  (The ack_ts was snapshotted above, so it never
        # claims more than this flush covers.)
        cost = wal.flush_cost()
        self._enqueue(lambda: self._commit_and_ack(src, ack),
                      cost + self.ack_cost, lane="disk")

    def _commit_and_ack(self, src: Process, ack: BatchAck,
                        attempt: int = 0) -> None:
        if self.wal.commit() < 0:
            # Injected fsync error.  The ack implies durability, so it is
            # withheld and the flush retried with capped exponential backoff
            # (the records stay staged; a later batch's commit may cover
            # them first, in which case the retry commits nothing and just
            # releases the ack).  The uplink keeps retransmitting meanwhile
            # — at-least-once delivery makes that safe — and acknowledgement
            # resumes within one backoff cap of the disk healing.
            delay = min(self.config.retry_backoff_base * (1 << attempt),
                        self.config.retry_backoff_cap)
            self.after(delay, self._retry_commit, src, ack, attempt + 1)
            return
        self.send(src, ack)

    def _retry_commit(self, src: Process, ack: BatchAck,
                      attempt: int) -> None:
        # Re-pay the barrier on the disk lane (flush_cost was reset by the
        # failed commit, so this charges the full pending bytes again).
        cost = self.wal.flush_cost()
        self._enqueue(lambda: self._commit_and_ack(src, ack, attempt),
                      cost + self.ack_cost, lane="disk")

    def on_stable_announce(self, msg: StableAnnounce, src: Process) -> None:
        """Follower pruning (Alg. 4 lines 13–15), shared by both shapes.

        Everything at or below the announced floor was shipped remotely by
        the leader (for shards the floor arrives pre-capped per shard via
        the coordinator's gossip), so it is dropped without ever being
        serialized.
        """
        if msg.stable_ts > self.stable_time:
            self.stable_time = msg.stable_ts
        if msg.stable_ts > self.shipped_stable:
            # Announced floors are shipped-capped by construction (the
            # leader announces after _propagate; shard gossip is capped at
            # the released StableTime), so they double as durable floors.
            self.shipped_stable = msg.stable_ts
        self.buffer.drop_stable(self.stable_time)

    def on_partition_heartbeat(self, msg: PartitionHeartbeat, src: Process) -> None:
        index = msg.partition_index
        if msg.ts > self.partition_time[index]:
            self.partition_time[index] = msg.ts
            if self.wal is not None:
                # Staged only — committed with the next batch flush or
                # checkpoint.  Losing an unsynced PT advance is safe: the
                # recovered floor is merely lower and heartbeats re-advance.
                self.wal.stage_partition_time(index, msg.ts)

    # ------------------------------------------------------------------
    # Stabilization (Alg. 3 lines 7–11)
    # ------------------------------------------------------------------
    def _should_stabilize(self) -> bool:
        """Hook: the fault-tolerant replica gates this on leadership."""
        return True

    def set_tracked(self, indices) -> None:
        """Restrict the stable cut to ``indices`` (partial placement).

        A non-resident partition never streams ops, so leaving it in the
        min would pin StableTime at zero forever; ``None`` restores the
        historical all-partitions cut (bit-identical to before the knob
        existed).
        """
        self.tracked = None if indices is None else sorted(indices)

    def _stable_floor(self) -> int:
        """The timestamp below which no tracked partition can still produce."""
        if self.tracked is None:
            return min(self.partition_time)
        times = self.partition_time
        return min(times[p] for p in self.tracked)

    def _stabilize(self) -> None:
        if not self._should_stabilize():
            return
        stable = self._stable_floor()
        if stable > self.stable_time:
            self.stable_time = stable
        buffer = self.buffer
        # Idle rounds (empty buffer) skip the extraction walk entirely.
        ops = buffer.pop_stable(self.stable_time) if buffer else []
        self._emit(self.stable_time, ops)

    def _emit(self, stable_ts: int, ops: list) -> None:
        """Consume one stable run (subclass decides where it goes)."""
        raise NotImplementedError


class EunomiaService(StabilizerBase):
    """Single-replica Eunomia (the non-fault-tolerant Algorithm 3).

    This is the K=1 special case of the sharded machinery: one stabilizer
    covering every partition, propagating its stable runs to remote
    receivers itself.
    """

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 propagate_op_cost: float = 0.0,
                 stab_round_cost: float = 0.0,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 ack_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None,
                 cost_model: Optional[CostModel] = None,
                 stable_mark: Optional[str] = None):
        super().__init__(env, name, site, n_partitions, config,
                         insert_op_cost=insert_op_cost,
                         batch_cost=batch_cost,
                         heartbeat_cost=heartbeat_cost,
                         ack_cost=ack_cost,
                         metrics=metrics, cost_model=cost_model)
        self.propagate_op_cost = propagate_op_cost
        self.stab_round_cost = stab_round_cost
        self.destinations: list[Process] = []
        #: metric name for per-op stabilization marks (throughput figures)
        self.stable_mark = stable_mark or f"eunomia_stable:dc{site}"

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_destination(self, dest: Process) -> None:
        """Register a remote receiver (or measurement sink)."""
        self.destinations.append(dest)

    # ------------------------------------------------------------------
    # Stable-run consumption
    # ------------------------------------------------------------------
    def _emit(self, stable_ts: int, ops: list) -> None:
        if not ops:
            self._post_stabilize(stable_ts, ops)
            return
        cost = (self.stab_round_cost
                + self.propagate_op_cost * len(ops) * max(1, len(self.destinations)))
        self._enqueue(lambda: self._propagate(stable_ts, ops), cost)

    def _propagate(self, stable_ts: int, ops: list) -> None:
        """PROCESS(StableOps): ship the ordered stable run to every site."""
        if stable_ts > self.shipped_stable:
            self.shipped_stable = stable_ts
        self.ops_stabilized += len(ops)
        self.metrics.mark_many(self.stable_mark, self.now, len(ops))
        tracer = self.metrics.tracer
        if tracer is not None:
            now, site = self.now, self.site
            for op in ops:
                tracer.stage_once(op, "propagate", now, site)
        batch = RemoteStableBatch(self.site, tuple(ops))
        self.multicast(self.destinations, batch)
        self._post_stabilize(stable_ts, ops)

    def _post_stabilize(self, stable_ts: int, ops: list) -> None:
        """Hook: the fault-tolerant leader announces StableTime here."""
