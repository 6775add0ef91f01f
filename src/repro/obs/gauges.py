"""Periodic stage-lag gauges: sampled depths and lags as point series.

:class:`GaugeScraper` rides the event loop's ``schedule_periodic`` and,
every ``interval`` sim-seconds, reads — never mutates — the live pipeline
state of every datacenter:

* stabilization lag: ``now − StableTime`` per DC (how far the deferred
  stabilization pipeline trails real time — the paper's core deferral);
* RunBuffer depth (Eunomia stabilizers) / pending-set depth (GST-family
  partitions): ops committed but not yet released as stable;
* receiver backlog: remote ops parked on causal dependencies;
* WAL unflushed bytes: staged records awaiting the next group commit;
* per-shard merge lag: spread between the fastest and slowest shard's
  stable time inside one coordinator's K-way merge;
* uplink pending: metadata records not yet acked by the stabilizer.

Each reading lands in the hub as ``metrics.point(f"gauge:{name}:dc{m}")``,
so the existing windowed-series helpers and the Chrome-trace exporter pick
them up with no new storage.  Determinism: the scrape only *reads* state
and records points; the periodic events it adds interleave with protocol
events at fixed (time, seq) slots, and since no protocol logic inspects
the metrics hub or the event sequence counter, goldens are unchanged.

Mutating accessors are deliberately avoided — in particular physical/HLC
clock ``read_us``/``observe`` calls advance clock state, so lag is
computed against ``env.now`` directly.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["GaugeScraper"]


class GaugeScraper:
    """Scrape per-DC pipeline gauges into ``MetricsHub`` point series."""

    def __init__(self, system, interval: float = 0.05):
        self.system = system
        self.interval = interval
        self.metrics = system.metrics
        self._handle = None
        self.scrapes = 0

    # ------------------------------------------------------------------
    def attach(self) -> "GaugeScraper":
        if self._handle is None:
            self._handle = self.system.env.loop.schedule_periodic(
                self.interval, self._scrape)
        return self

    def detach(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    def _scrape(self) -> None:
        self.scrapes += 1
        env = self.system.env
        now_us = env.now * 1e6
        point = self.metrics.point
        for dc in self.system.datacenters:
            m = dc.dc_id
            # --- stabilization lag: how far StableTime trails sim-now ---
            st = dc.stable_time_us()
            if st is not None and st > 0:
                point(f"gauge:stab_lag_ms:dc{m}", env.now,
                      max(0.0, now_us - st) / 1e3)
            # --- receiver backlog (remote ops parked on dependencies) ---
            receiver = getattr(dc, "receiver", None)
            if receiver is not None:
                point(f"gauge:receiver_backlog:dc{m}", env.now,
                      float(receiver.backlog()))
            # --- Eunomia stack: RunBuffer depth + WAL + uplink ----------
            stack = getattr(dc, "stack", None)
            if stack is not None:
                buf_depth = 0
                wal_bytes = 0
                have_wal = False
                for proc in stack.processes():
                    buf = getattr(proc, "buffer", None)
                    if buf is not None:
                        buf_depth += len(buf)
                    wal = getattr(proc, "wal", None)
                    if wal is not None:
                        have_wal = True
                        wal_bytes += wal.unflushed_bytes
                point(f"gauge:runbuffer_depth:dc{m}", env.now,
                      float(buf_depth))
                if have_wal:
                    point(f"gauge:wal_unflushed_bytes:dc{m}", env.now,
                          float(wal_bytes))
                # per-shard merge lag: worst spread across coordinators
                merge_lag_us: Optional[float] = None
                for coord in getattr(dc, "coordinators", ()) or ():
                    stables = [s for s in coord.shard_stable if s > 0]
                    if len(stables) > 1:
                        spread = float(max(stables) - min(stables))
                        if merge_lag_us is None or spread > merge_lag_us:
                            merge_lag_us = spread
                if merge_lag_us is not None:
                    point(f"gauge:shard_merge_lag_ms:dc{m}", env.now,
                          merge_lag_us / 1e3)
            # --- partition-held state: pending sets + uplinks -----------
            pending = 0
            uplink_pending = 0
            have_pending = False
            have_uplink = False
            for part in dc.resident_partitions():
                counter = getattr(part, "pending_count", None)
                if counter is not None:
                    have_pending = True
                    pending += counter()
                uplink = getattr(part, "uplink", None)
                if uplink is not None:
                    counter = getattr(uplink, "pending_count", None)
                    if counter is not None:
                        have_uplink = True
                        uplink_pending += counter()
            if have_pending:
                point(f"gauge:pending_depth:dc{m}", env.now, float(pending))
            if have_uplink:
                point(f"gauge:uplink_pending:dc{m}", env.now,
                      float(uplink_pending))
