"""Failure & anomaly injection schedules — the fault-space DSL.

Experiments in the paper inject two kinds of trouble:

* **Crashes** of Eunomia replicas (Figure 4): a replica stops at a given
  instant; surviving replicas elect a new leader and resume stabilization.
* **Stragglers** (Figure 7): one partition contacts its local Eunomia less
  frequently (every 10 / 100 / 1000 ms instead of every millisecond) during a
  window, then heals.

The chaos matrix (``harness/chaos.py``) needs a much wider fault space, so
:class:`FailureSchedule` is a declarative DSL over every injectable fault
class the simulator knows:

* crash / amnesia-crash / recover of processes, shards, and replica groups;
* **network partitions** over node *sets* (:meth:`partition_at` /
  :meth:`heal_at`), including asymmetric reachability (``symmetric=False``
  blocks one direction only — the split-brain shape Ω failure detectors
  must survive);
* **gray links** — slow-not-dead paths via per-link extra delay sweeps
  (:meth:`degrade_links_at` / :meth:`restore_links_at`);
* **gray disks** — a degraded-latency :class:`repro.sim.disk.DiskModel`
  mode (:meth:`degrade_disk_at`), so WAL group commits stall without dying;
* **disk faults** — injected fsync errors and torn-tail truncation of a
  :class:`repro.durability.wal.WriteAheadLog`
  (:meth:`wal_fail_fsyncs_at` / :meth:`wal_tear_tail_at`);
* **clock trouble** — drift-rate changes and phase steps on a
  :class:`repro.clocks.physical.PhysicalClock` (:meth:`clock_drift_at`) and
  NTP outages (:meth:`ntp_outage`), the headline hybrid-vs-physical axis.

Every action appends ``(time, label)`` to :attr:`FailureSchedule.log` when
it fires, so a schedule's observable timeline is comparable across runs
(the log is deterministic for a fixed seed and schedule).

All injection state lives in tables the hot paths test for emptiness
(``Network``) or neutral defaults (``DiskModel``), so an un-armed schedule
costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .env import Environment
from .process import Process

__all__ = ["FailureSchedule", "Straggler"]


@dataclass
class _Action:
    time: float
    fn: Callable[[], Any]
    label: str
    armed: bool = False


class FailureSchedule:
    """Declarative, time-ordered fault injection for one environment."""

    def __init__(self, env: Environment):
        self.env = env
        self._actions: list[_Action] = []
        self._armed = False
        self.log: list[tuple[float, str]] = []

    def crash_at(self, time: float, process: Process,
                 lose_state: bool = False) -> "FailureSchedule":
        """Crash-stop ``process`` at absolute simulation time ``time``.

        ``lose_state=True`` makes it an amnesia crash: volatile protocol
        state is wiped and only durable media (WAL, checkpoints) survive.
        """
        label = ("amnesia-crash " if lose_state else "crash ") + process.name
        return self.at(time, lambda: process.crash(lose_state=lose_state),
                       label)

    def recover_at(self, time: float, process: Process) -> "FailureSchedule":
        """Recover ``process`` at absolute simulation time ``time``."""
        return self.at(time, process.recover, f"recover {process.name}")

    # ------------------------------------------------------------------
    # Partial-group failures: one shard of a sharded replica group
    # ------------------------------------------------------------------
    def crash_shard_at(self, time: float, group, shard_id: int,
                       lose_state: bool = False) -> "FailureSchedule":
        """Crash one :class:`~repro.core.shard.EunomiaShard` of ``group``.

        A partial-group failure: the group's coordinator stays up, so no
        failover is triggered — the dead shard simply stops announcing its
        ShardStableTime and the coordinator's ``min(shards)`` (and with it
        the whole site's stable output) stalls until the shard rejoins.
        """
        label = (("amnesia-crash " if lose_state else "crash ")
                 + f"{group.name} shard {shard_id}")
        return self.at(time,
                       lambda: group.crash_shard(shard_id,
                                                 lose_state=lose_state),
                       label)

    def recover_shard_at(self, time: float, group,
                         shard_id: int) -> "FailureSchedule":
        """Rejoin one crashed shard of ``group`` (durable restore if the
        crash was an amnesia crash)."""
        return self.at(time, lambda: group.recover_shard(shard_id),
                       f"recover {group.name} shard {shard_id}")

    # ------------------------------------------------------------------
    # Network partitions & gray links
    # ------------------------------------------------------------------
    def partition_at(self, time: float, group_a: Iterable[Process],
                     group_b: Iterable[Process],
                     symmetric: bool = True) -> "FailureSchedule":
        """Partition two node sets: block every ``a → b`` link (and ``b → a``
        when ``symmetric``).

        ``symmetric=False`` models *asymmetric reachability* — ``a`` can
        still hear ``b`` but not the reverse — the regime where Ω-style
        failure detectors split-brain (each side suspects the other while
        still receiving its traffic, or vice versa).
        """
        a, b = list(group_a), list(group_b)
        arrow = "<->" if symmetric else "->"
        label = (f"partition {_group_label(a)} {arrow} {_group_label(b)}")
        return self.at(
            time, lambda: self.env.network.partition(a, b,
                                                     symmetric=symmetric),
            label)

    def heal_at(self, time: float, group_a: Iterable[Process],
                group_b: Iterable[Process]) -> "FailureSchedule":
        """Heal a partition: restore both directions between the node sets
        (idempotent; heals asymmetric partitions too)."""
        a, b = list(group_a), list(group_b)
        label = f"heal {_group_label(a)} <-> {_group_label(b)}"
        return self.at(time, lambda: self.env.network.heal(a, b), label)

    def degrade_links_at(self, time: float,
                         pairs: Iterable[tuple[Process, Process]],
                         extra_s: float) -> "FailureSchedule":
        """Gray links: add ``extra_s`` of one-way delay on each directed
        ``(src, dst)`` pair — slow-not-dead, so FIFO and delivery are
        preserved but every protocol timeout built on these paths stretches.
        """
        pairs = [tuple(p) for p in pairs]
        label = f"gray-links +{extra_s * 1e3:.1f}ms x{len(pairs)}"

        def apply() -> None:
            for src, dst in pairs:
                self.env.network.set_link_extra_delay(src, dst, extra_s)

        return self.at(time, apply, label)

    def restore_links_at(self, time: float,
                         pairs: Iterable[tuple[Process, Process]],
                         ) -> "FailureSchedule":
        """End a gray-link window: remove the extra delay on each pair."""
        pairs = [tuple(p) for p in pairs]
        label = f"heal-links x{len(pairs)}"

        def apply() -> None:
            for src, dst in pairs:
                self.env.network.set_link_extra_delay(src, dst, 0.0)

        return self.at(time, apply, label)

    # ------------------------------------------------------------------
    # Gray disks & WAL faults
    # ------------------------------------------------------------------
    def degrade_disk_at(self, time: float, disk,
                        factor: float) -> "FailureSchedule":
        """Gray disk: multiply every fsync's cost by ``factor`` (≥ 1) —
        group commits stall without failing, the slow-not-dead device."""
        return self.at(time, lambda: disk.degrade(factor),
                       f"gray-disk x{factor:g}")

    def restore_disk_at(self, time: float, disk) -> "FailureSchedule":
        """End a gray-disk window: restore normal fsync latency."""
        return self.at(time, lambda: disk.degrade(1.0), "heal-disk")

    def wal_fail_fsyncs_at(self, time: float, wal,
                           count: int) -> "FailureSchedule":
        """Make the next ``count`` WAL commits fail (fsync errors).

        Staged records stay volatile across a failed commit; ack-after-fsync
        stabilizers must *not* acknowledge and instead retry with backoff
        (see :meth:`repro.core.service.StabilizerBase._commit_and_ack`).
        """
        return self.at(time, lambda: wal.fail_fsyncs(count),
                       f"fsync-fail {wal.name} x{count}")

    def wal_tear_tail_at(self, time: float, wal,
                         records: int) -> "FailureSchedule":
        """Torn write: drop up to ``records`` records off the durable tail.

        Models a torn tail discovered when the log is re-opened, so it is
        meant to fire together with (right after) an amnesia crash of the
        WAL's owner; recovery replays the surviving prefix (validated for
        per-origin monotonicity) and the at-least-once uplink / peer state
        transfer re-covers the torn suffix.
        """
        return self.at(time, lambda: wal.tear_tail(records),
                       f"torn-tail {wal.name} x{records}")

    # ------------------------------------------------------------------
    # Clock trouble
    # ------------------------------------------------------------------
    def clock_drift_at(self, time: float, clock, drift_ppm: float,
                       step_us: float = 0.0,
                       label: str = "") -> "FailureSchedule":
        """Re-rate a physical clock mid-run (and optionally step its phase).

        The drift change is continuous (no retroactive jump —
        :meth:`repro.clocks.physical.PhysicalClock.set_drift` rebases the
        offset); a positive ``step_us`` additionally steps the phase
        forward.  Backward steps are absorbed by the monotone read clamp.
        """
        def apply() -> None:
            clock.set_drift(drift_ppm)
            if step_us:
                clock.step_us(step_us)

        return self.at(time, apply,
                       label or f"clock-drift {drift_ppm:g}ppm"
                       + (f" step {step_us:g}us" if step_us else ""))

    def ntp_outage(self, start: float, end: float, ntp) -> "FailureSchedule":
        """Suspend NTP discipline during ``[start, end)``: clock offsets
        re-grow at each clock's full drift rate, unbounded, until the
        synchronizer resumes — the paper's hybrid-vs-physical stress axis.
        """
        self.at(start, ntp.suspend, "ntp-outage begin")
        self.at(end, ntp.resume, "ntp-outage end")
        return self

    def at(self, time: float, fn: Callable[[], Any], label: str = "") -> "FailureSchedule":
        """Run an arbitrary action at ``time`` (builder style, returns self).

        Actions added after :meth:`arm` are scheduled immediately, so a
        schedule can keep growing mid-run; a late addition whose time is
        already in the past fails loudly (the event loop rejects it)
        rather than silently never firing.
        """
        action = _Action(time, fn,
                         label or getattr(fn, "__name__", "action"))
        self._actions.append(action)
        if self._armed:
            self._schedule(action)
        return self

    def _schedule(self, action: _Action) -> None:
        action.armed = True

        def fire() -> None:
            self.log.append((self.env.now, action.label))
            action.fn()

        self.env.loop.schedule_at(action.time, fire)

    def arm(self) -> None:
        """Schedule every recorded action on the event loop (idempotent:
        re-arming schedules only actions not yet armed)."""
        self._armed = True
        for action in self._actions:
            if not action.armed:
                self._schedule(action)


def _group_label(procs: list) -> str:
    """Compact node-set label for partition log lines."""
    if len(procs) == 1:
        return procs[0].name
    return "{" + ",".join(p.name for p in procs[:3]) + (
        ",…" if len(procs) > 3 else "") + "}"


@dataclass
class Straggler:
    """A window during which one partition's Eunomia-contact interval grows.

    ``arm`` retargets any object exposing a mutable ``batch_interval``
    attribute (Eunomia-aware partitions do).  The original interval is
    restored when the window closes.

    ``begin``/``heal`` are idempotent and safe against crash/recover
    interleavings: the pre-straggle interval is saved only on the first
    ``begin`` of a window (a repeated ``begin`` can never clobber the saved
    value with the straggle interval), and ``heal`` restores only when a
    window is actually open — so a partition that amnesia-crashes and
    recovers mid-window (re-initializing ``batch_interval`` on its own)
    cannot have a stale pre-crash interval forced back over it by a
    ``heal`` firing after an already-healed window.
    """

    partition: Any
    start: float
    end: float
    straggle_interval: float
    _saved: Optional[float] = field(default=None, init=False)

    def begin(self) -> None:
        if self._saved is None:
            self._saved = self.partition.batch_interval
        self.partition.batch_interval = self.straggle_interval

    def heal(self) -> None:
        if self._saved is None:
            return
        self.partition.batch_interval = self._saved
        self._saved = None

    def arm(self, schedule: FailureSchedule) -> None:
        schedule.at(self.start, self.begin,
                    f"straggle {self.partition.name} "
                    f"@{self.straggle_interval * 1e3:.0f}ms")
        schedule.at(self.end, self.heal, f"heal {self.partition.name}")
